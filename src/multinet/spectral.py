"""Spectral analysis of composed networks.

Bisection follows the classic recipe: order vertices by the eigenvector of
the second-smallest eigenvalue of the symmetric normalized Laplacian
D^{-1/2} (D - W) D^{-1/2}, then sweep prefix cuts of that order and keep
the one of least conductance. Conductance is reported in the symmetric
form cut(S) / min(vol(S), vol(complement)) -- the one-sided cut(S)/vol(S)
is emitted alongside, since a one-sided objective is trivially gamed by
peeling off a single vertex.

The weights W are those of an undirected LayerGraph, whose symmetric
canonical CSC arrays read as CSR are W itself: no copy. Any other graph has
its symmetry checked once, at the cost of one transposed copy, and a directed
one is symmetrized as (W + W^T)/2 with a warning; bisect hands the undirected
result to fiedler_vector and sweep_cut, which take it as it is. N =
D^{-1/2} W D^{-1/2} is a scaled copy of W's weights on W's own index arrays.

The sweep needs no loop over vertices: a stored entry w_uv becomes internal
to the prefix at step max(rank u, rank v), read in CSR order from the row
pointer, so with inside_k the weight of the entries that become internal at
step k, every prefix's volume and cut are the cumulative sums of d[order]
and of d[order] - inside.

The eigensolver accepts a unit x orthogonal to the null vector D^{1/2} 1
once |N x - (x.N x) x| = |L x - lambda x| <= tol, N = D^{-1/2} W D^{-1/2}.
Its two phases start from one seeded vector and iterate 2I - L = I + N,
whose top eigenvalue off the null vector is 2 - lambda_2 > 0 for n >= 3.
First ARPACK's Lanczos method (eigsh; Lehoucq, Sorensen & Yang, ARPACK
Users' Guide, SIAM 1998) runs on I + N deflated against the null vector
(which then reads 0) to tol / 2 relative to its Ritz value, at most 2,
within _LANCZOS_MATVECS = 300 products: a count, so that results do not
depend on the machine. Temporal stacks of 8,100 instances need about 100; a
50 x 50 two-layer road grid needs 561, past the point where factorising L
costs less. Then, when the budget runs out or the check fails, and alone
when max_iter < _LANCZOS_MATVECS, so that any step cap holds exactly, or
n = 2, where I + N deflated is the zero map and the start is exact, the
power loop runs in blocks: a block checks the residual of x, reuses that
check's N x as its first step, takes up to _CHECK_EVERY = 16 steps
x <- x + N x in all, and only then projects out the null vector and
normalises. Deflating once per block is safe: per step the null direction
(eigenvalue 2 of I + N) outgrows the Fiedler direction (eigenvalue
2 - lambda_2 >= (n - 2)/(n - 1), at least 1/2 for n >= 3; for n = 2 the
deflated start is already exact) by at most a factor 4, so the rounding a
block leaves in it grows to at most 4^16 ~ 4e9 times eps, about 1e-6
relative, and the next deflation removes it (at 32 steps the bound would
be about 4e3). Lanczos deflates every product and needs no such bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .compose import SuperAdjacency
from .errors import Disconnected, EmptyGraph, EmptySide, NoConvergence
from .graph import LayerGraph, components

_CHECK_EVERY = 16  # power steps per residual check and deflation; see above
_LANCZOS_MATVECS = 300  # products Lanczos may spend before the power loop; see above


@dataclass(frozen=True)
class Bisection:
    """A two-sided vertex split with its sweep and eigensolve diagnostics."""

    side: np.ndarray  # True for vertices in the returned set
    conductance: float  # cut / min(vol, vol of complement)
    conductance_one_sided: float  # cut / vol(S), the raw cut objective
    sweep_profile: np.ndarray  # symmetric conductance of every prefix
    # the eigensolve behind the order; None when sweep_cut got the order
    eigenvalue: float | None = None  # 1 - x.N x at the Fiedler vector x
    residual: float | None = None  # |L x - eigenvalue x|_2 there


@dataclass(frozen=True)
class LayerLoad:
    """Per-layer share of total degree mass in a composed network."""

    loads: np.ndarray

    def __post_init__(self):
        loads = np.asarray(self.loads, dtype=np.float64)
        object.__setattr__(self, "loads", loads)
        if (not np.all(np.isfinite(loads)) or loads.min(initial=0.0) < 0.0
                or abs(loads.sum() - 1.0) > 1e-12):
            raise ValueError("layer loads must be finite, non-negative and sum to 1")


def _undirected(g):
    """A LayerGraph or SuperAdjacency as an undirected LayerGraph: an
    undirected LayerGraph itself, else its matrix, whose symmetry is checked
    here, once, or (W + W^T)/2 with a warning when it is not symmetric."""
    if not isinstance(g, (SuperAdjacency, LayerGraph)):
        raise TypeError("expected a LayerGraph or SuperAdjacency")
    if isinstance(g, LayerGraph) and not g.directed:
        return g
    mat = g.matrix
    try:  # its weights are positive and finite already: only asymmetry fails
        return LayerGraph(mat.shape[0], mat, directed=False)
    except ValueError:
        warnings.warn("directed graph symmetrized as (W + W^T)/2 for spectral analysis")
        return LayerGraph(mat.shape[0], (mat + mat.T) * 0.5, directed=False)


def _spectral_weights(g):
    """Symmetric CSR weights of a LayerGraph or SuperAdjacency (see
    _undirected) and their row sums. A symmetric canonical CSC's arrays read
    as CSR are the same matrix, so the CSR shares them: no copy."""
    mat = _undirected(g).matrix
    w = sparse.csr_array((mat.data, mat.indices, mat.indptr), shape=mat.shape)
    return w, np.asarray(w.sum(axis=1)).ravel()


def fiedler_vector(g, tol: float = 1e-8, max_iter: int = 100_000,
                   seed: int = 42) -> np.ndarray:
    """Eigenvector for the second-smallest normalized-Laplacian eigenvalue.

    Requires a connected graph without isolated vertices. The returned unit
    vector x is orthogonal to D^{1/2} 1 and satisfies |L x - lambda x|_2
    <= tol; its sign is fixed by making the largest-magnitude entry
    positive. Lanczos runs first when n >= 3 and max_iter allows
    _LANCZOS_MATVECS products, then the blocked power loop (both in the module
    docstring); NoConvergence after exactly max_iter loop steps, the last
    block cut short.
    """
    w, d = _spectral_weights(g)
    n = w.shape[0]
    if n < 2:
        raise EmptyGraph("need at least two vertices to bisect")
    comps = components(w)
    if len(comps) > 1:
        raise Disconnected(comps)
    # N = D^{-1/2} W D^{-1/2} as scale @ w @ scale rounds it, entry by entry
    # (w_uv * s_u) * s_v with s = 1/sqrt(d), on w's own index arrays
    scale = 1.0 / np.sqrt(d)
    data = np.repeat(scale, np.diff(w.indptr))
    data *= w.data
    data *= scale[w.indices]
    normalized = sparse.csr_array((data, w.indices, w.indptr), shape=w.shape)
    null = np.sqrt(d)
    null /= np.linalg.norm(null)

    x = np.random.default_rng(seed).standard_normal(n)
    x -= (null @ x) * null
    x /= np.linalg.norm(x)
    # at n = 2 the deflated I + N is the zero map and the deflated start is exact
    lanczos = (_lanczos(normalized, null, x, tol, seed)
               if n >= 3 and max_iter >= _LANCZOS_MATVECS else None)
    x = _power_loop(normalized, null, x, tol, max_iter) if lanczos is None else lanczos
    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    return x


def _lanczos(normalized, null, start, tol, seed):
    """Phase one: eigsh's unit vector for the top of the deflated I + N, or
    None when it needs over _LANCZOS_MATVECS products, fails or misses tol."""
    from inspect import signature
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    products = 0

    def deflated(v):
        nonlocal products
        if products == _LANCZOS_MATVECS:
            raise NoConvergence(float("nan"), products)
        products += 1
        nv = v - (null @ v) * null
        nv += normalized @ nv
        return nv - (null @ nv) * null

    # ARPACK draws a new vector when the start's Krylov space is exhausted
    # (graphs with few distinct eigenvalues): from `rng` where eigsh takes
    # one, else from the generator inside older scipy's Fortran ARPACK
    seeded = {"rng": seed} if "rng" in signature(eigsh).parameters else {}
    try:
        vecs = eigsh(LinearOperator(normalized.shape, matvec=deflated, dtype=np.float64),
                     k=1, which="LA", v0=start, tol=tol / 2, **seeded)[1]
    except (NoConvergence, ArpackError):
        return None
    x = vecs[:, 0] - (null @ vecs[:, 0]) * null
    x /= np.linalg.norm(x)
    nx = normalized @ x
    return x if np.linalg.norm(nx - (x @ nx) * x) <= tol else None


def _power_loop(normalized, null, x, tol, max_iter):
    """Phase two: the blocked power loop from the unit start x, in place."""
    steps = 0
    while True:
        nx = normalized @ x
        residual = float(np.linalg.norm(nx - (x @ nx) * x))
        if residual <= tol:
            return x
        if steps >= max_iter:
            raise NoConvergence(residual, max_iter)
        # power steps on 2I - L = I + N, the first from the check's N x;
        # deflated against the null vector once, at the end of the block
        block = min(_CHECK_EVERY, max_iter - steps)
        x += nx
        for _ in range(block - 1):
            x += normalized @ x
        steps += block
        x -= (null @ x) * null
        norm = np.linalg.norm(x)
        if norm < 1e-300:
            raise NoConvergence(float("nan"), max_iter)
        x /= norm


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
    # the step at which each stored entry becomes internal, in CSR order
    internal = rank[w.indices]
    np.maximum(internal, np.repeat(rank, np.diff(w.indptr)), out=internal)
    inside = np.bincount(internal, weights=w.data, minlength=n)
    step = d[order]
    vol = np.cumsum(step)  # summed in sweep order: a volume-free complement reads exactly 0
    # a prefix that is a union of components has cut 0, which the running
    # sums leave as a rounding residue of either sign
    cut = np.maximum(np.cumsum(step - inside)[:-1], 0.0)
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
    """Sweep cut along the Fiedler ordering (ascending values, index ties),
    with the eigenvalue and residual of the Fiedler vector."""
    sym = _undirected(g)  # symmetry decided once: no second check or warning
    w, d = _spectral_weights(sym)
    x = fiedler_vector(sym, tol=tol, max_iter=max_iter, seed=seed)
    order = np.argsort(x, kind="stable")
    inv_sqrt = 1.0 / np.sqrt(d)
    nx = inv_sqrt * (w @ (inv_sqrt * x))  # N x, one more product
    rayleigh = float(x @ nx)
    return replace(sweep_cut(sym, order), eigenvalue=1.0 - rayleigh,
                   residual=float(np.linalg.norm(nx - rayleigh * x)))


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
    with np.errstate(over="ignore"):  # an overflow is raised below, not warned
        total = outdeg.sum()
        per_layer = outdeg.reshape(s.l, s.n).sum(axis=1)
    if not np.isfinite(total):
        raise ValueError("total degree overflows float64; rescale the weights")
    if total <= 0.0:
        raise EmptyGraph("composed network has no weight")
    return LayerLoad(loads=per_layer / total)
