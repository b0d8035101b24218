"""Spectral analysis of composed networks.

Bisection follows the classic recipe: order vertices by the eigenvector of
the second-smallest eigenvalue of the symmetric normalized Laplacian
D^{-1/2} (D - W) D^{-1/2}, then sweep prefix cuts of that order and keep
the one of least conductance. Conductance is reported in the symmetric
form cut(S) / min(vol(S), vol(complement)) -- the one-sided cut(S)/vol(S)
is emitted alongside, since a one-sided objective is trivially gamed by
peeling off a single vertex.

The sweep needs no loop over vertices: a stored entry w_uv becomes internal
to the prefix at step max(rank u, rank v), so with inside_k the weight of
the entries that become internal at step k, every prefix's volume and cut
are the cumulative sums of d[order] and of d[order] - inside.

The eigensolver is a deflated power iteration on the spectral shift
2I - L: the known null vector D^{1/2} 1 is projected out and the iteration
runs until the eigen-residual drops below tolerance. No external
eigenpackage is involved; dense arrays are used below a size cutoff and
sparse matvecs above it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .compose import SuperAdjacency
from .errors import Disconnected, EmptyGraph, EmptySide, NoConvergence
from .graph import LayerGraph, components

_DENSE_CUTOFF = 512


@dataclass(frozen=True)
class Bisection:
    """A two-sided vertex split with its sweep diagnostics."""

    side: np.ndarray  # True for vertices in the returned set
    conductance: float  # cut / min(vol, vol of complement)
    conductance_one_sided: float  # cut / vol(S), the raw cut objective
    sweep_profile: np.ndarray  # symmetric conductance of every prefix


@dataclass(frozen=True)
class LayerLoad:
    """Per-layer share of total degree mass in a composed network."""

    loads: np.ndarray

    def __post_init__(self):
        loads = np.asarray(self.loads, dtype=np.float64)
        object.__setattr__(self, "loads", loads)
        if loads.min(initial=0.0) < 0.0 or abs(loads.sum() - 1.0) > 1e-12:
            raise ValueError("layer loads must be non-negative and sum to 1")


class _Weights(NamedTuple):
    """Symmetric CSR weight matrix for spectral work, with its row sums."""

    matrix: sparse.csr_array
    degrees: np.ndarray


def _spectral_weights(g) -> _Weights:
    """Symmetric weights of a graph, symmetrizing if needed; weights built
    here before pass through, so bisect builds and warns once."""
    if isinstance(g, _Weights):
        return g
    if not isinstance(g, (SuperAdjacency, LayerGraph)):
        raise TypeError("expected a LayerGraph or SuperAdjacency")
    mat = g.matrix
    if (mat != mat.T).nnz != 0:
        warnings.warn("directed graph symmetrized as (W + W^T)/2 for spectral analysis")
        mat = (mat + mat.T) * 0.5
    w = sparse.csr_array(mat)
    return _Weights(w, np.asarray(w.sum(axis=1)).ravel())


def fiedler_vector(g, tol: float = 1e-8, max_iter: int = 100_000,
                   seed: int = 42) -> np.ndarray:
    """Eigenvector for the second-smallest normalized-Laplacian eigenvalue.

    Requires a connected graph without isolated vertices. The returned unit
    vector x is orthogonal to D^{1/2} 1 and satisfies |L x - lambda x|_2
    <= tol; its sign is fixed by making the largest-magnitude entry
    positive.
    """
    w, d = _spectral_weights(g)
    n = w.shape[0]
    if n < 2:
        raise EmptyGraph("need at least two vertices to bisect")
    comps = components(w)
    if len(comps) > 1:
        raise Disconnected(comps)
    inv_sqrt = 1.0 / np.sqrt(d)
    if n <= _DENSE_CUTOFF:
        normalized = inv_sqrt[:, np.newaxis] * w.toarray() * inv_sqrt[np.newaxis, :]
    else:
        scale = sparse.diags_array(inv_sqrt)
        normalized = sparse.csr_array(scale @ w @ scale)
    null = np.sqrt(d)
    null /= np.linalg.norm(null)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= (null @ x) * null
    norm = np.linalg.norm(x)
    if norm < 1e-12:  # pathological start; reseed deterministically
        x = rng.standard_normal(n)
        x -= (null @ x) * null
        norm = np.linalg.norm(x)
    x /= norm
    for _ in range(max_iter):
        nx = normalized @ x
        rayleigh = x @ nx
        if np.linalg.norm(nx - rayleigh * x) <= tol:
            break
        # power step on 2I - L = I + N, deflated against the null vector
        x = x + nx
        x -= (null @ x) * null
        norm = np.linalg.norm(x)
        if norm < 1e-300:
            raise NoConvergence(float("nan"), max_iter)
        x /= norm
    else:
        nx = normalized @ x
        rayleigh = x @ nx
        residual = float(np.linalg.norm(nx - rayleigh * x))
        if residual > tol:
            raise NoConvergence(residual, max_iter)
    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    return x


def sweep_cut(g, order) -> Bisection:
    """Best prefix cut of a vertex ordering by symmetric conductance.

    Evaluates every proper prefix of the order from two cumulative sums --
    the prefix volumes and the cuts -- and returns the minimizer (first one
    on ties) together with the whole profile. A prefix with no volume on one
    side has conductance inf; EmptyGraph if every prefix has.
    """
    w, d = _spectral_weights(g)
    n = w.shape[0]
    order = np.asarray(order)
    if (order.shape != (n,) or order.dtype.kind not in "biufO"
            or not np.array_equal(np.sort(order), np.arange(n))):
        raise ValueError("order must be a permutation of all vertices")
    if n < 2:
        raise EmptyGraph("need at least two vertices to bisect")
    order = order.astype(np.intp)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    coo = w.tocoo()
    inside = np.bincount(np.maximum(rank[coo.row], rank[coo.col]),
                         weights=coo.data, minlength=n)
    step = d[order]
    vol = np.cumsum(step)  # summed in sweep order: a volume-free complement reads exactly 0
    cut = np.cumsum(step - inside)[:-1]
    denom = np.minimum(vol[:-1], vol[-1] - vol[:-1])
    profile = np.divide(cut, denom, out=np.full(n - 1, np.inf), where=denom > 0.0)
    k = int(np.argmin(profile))
    if profile[k] == np.inf:
        raise EmptyGraph("no prefix of the order has volume on both sides")
    return Bisection(
        side=rank <= k,
        conductance=float(profile[k]),
        conductance_one_sided=float(cut[k] / vol[k]),
        sweep_profile=profile,
    )


def bisect(g, tol: float = 1e-8, max_iter: int = 100_000,
           seed: int = 42) -> Bisection:
    """Sweep cut along the Fiedler ordering (ascending values, index ties)."""
    weights = _spectral_weights(g)
    x = fiedler_vector(weights, tol=tol, max_iter=max_iter, seed=seed)
    order = np.argsort(x, kind="stable")
    return sweep_cut(weights, order)


def conductance(g, side, one_sided: bool = False) -> float:
    """Conductance of a given vertex set.

    Symmetric form cut / min(vol, vol of complement) by default; one_sided
    divides by the set's own volume only.
    """
    w, d = _spectral_weights(g)
    side = np.asarray(side, dtype=bool)
    if side.shape != (w.shape[0],):
        raise ValueError("side must be a boolean vector over all vertices")
    if not side.any() or side.all():
        raise EmptySide("both sides of a bisection must be non-empty")
    cut = float(w[side, :][:, ~side].sum())
    vol_s = float(d[side].sum())
    denom = vol_s if one_sided else min(vol_s, float(d[~side].sum()))
    return cut / denom if denom > 0.0 else float("inf")


def layer_load(s: SuperAdjacency) -> LayerLoad:
    """Share of total degree mass carried by each layer's instances.

    An instance's degree counts everything attached to it, inter-layer
    coupling included.
    """
    outdeg = s.out_degrees()
    total = outdeg.sum()
    if total <= 0.0:
        raise EmptyGraph("composed network has no weight")
    per_layer = outdeg.reshape(s.l, s.n).sum(axis=1)
    return LayerLoad(loads=per_layer / total)
