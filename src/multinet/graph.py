"""Weighted sparse graphs and their unbiased random walks.

An adjacency matrix stores ``a[u, v]`` as the weight of the edge u -> v;
out-degrees are row sums. Transition matrices are column-stochastic: entry
``(v, u)`` is the probability of stepping u -> v, so a stationary vector pi
satisfies ``M @ pi = pi`` literally. All types are immutable after
construction and every operation returns fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order as _bfs
from scipy.sparse.csgraph import connected_components as _cc

from .errors import (
    DanglingVertex,
    DimensionMismatch,
    NoConvergence,
    NonPositiveScale,
    NotDetailedBalanced,
)

# structural identities hold to this tolerance; iterative results default to 1e-10
STRUCTURAL_TOL = 1e-12
ITERATIVE_TOL = 1e-10


def _canonical(mat, shape=None):
    """Coerce to canonical compressed-column form with sorted indices."""
    out = sparse.csc_array(mat, shape=shape, dtype=np.float64)
    out.sum_duplicates()
    out.sort_indices()
    out.eliminate_zeros()
    return out


@dataclass(frozen=True)
class LayerGraph:
    """One layer: sparse non-negative adjacency plus a directedness flag.

    A zero entry means the edge is absent; stored weights are strictly
    positive and finite. Undirected graphs hold the full symmetric matrix.
    """

    n: int
    matrix: sparse.csc_array
    directed: bool

    def __post_init__(self):
        mat = _canonical(self.matrix, shape=(self.n, self.n))
        object.__setattr__(self, "matrix", mat)
        data = mat.data
        if data.size and (not np.all(np.isfinite(data)) or data.min() <= 0.0):
            raise ValueError("edge weights must be strictly positive and finite")
        if not self.directed and (mat != mat.T).nnz != 0:
            raise ValueError("undirected graph requires an exactly symmetric matrix")

    @classmethod
    def from_edges(cls, n, edges, directed=True):
        """Build from (u, v, weight) triples: a sequence or an (m, 3) array.

        For undirected graphs each edge is mirrored. An edge given twice
        raises ValueError; for undirected graphs that includes one triple in
        each orientation, whatever the weights.
        """
        table = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        ends, vals = table[:, :2].astype(np.int64), table[:, 2]
        key = ends if directed else np.sort(ends, axis=1)
        repeat = first_repeat(np.ravel_multi_index(tuple(key.T), (n, n)))
        if repeat is not None:
            raise ValueError(f"edge {tuple(key[repeat].tolist())} specified twice")
        if not directed:
            off = ends[:, 0] != ends[:, 1]
            ends, vals = np.concatenate((ends, ends[off, ::-1])), np.concatenate((vals, vals[off]))
        return cls(n, sparse.coo_array((vals, tuple(ends.T)), shape=(n, n)), directed)

    @classmethod
    def from_dense(cls, array, directed=True):
        array = np.asarray(array, dtype=np.float64)
        return cls(array.shape[0], sparse.csc_array(array), directed)

    def out_degrees(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def toarray(self):
        return self.matrix.toarray()

    def scaled(self, factor):
        """Same topology with every weight multiplied by `factor` > 0."""
        if factor <= 0:
            raise NonPositiveScale(f"scale factor must be positive, got {factor}")
        return LayerGraph(self.n, self.matrix * factor, self.directed)


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic random-walk operator; entry (v, u) = P(u -> v)."""

    n: int
    matrix: sparse.csc_array

    def __post_init__(self):
        mat = _canonical(self.matrix, shape=(self.n, self.n))
        object.__setattr__(self, "matrix", mat)
        col_sums = np.asarray(mat.sum(axis=0)).ravel()
        if np.max(np.abs(col_sums - 1.0), initial=0.0) > STRUCTURAL_TOL:
            raise ValueError("every column of a transition matrix must sum to 1")
        if mat.data.size and (mat.data.min() < 0.0 or mat.data.max() > 1.0 + STRUCTURAL_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")

    def toarray(self):
        return self.matrix.toarray()


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector fixed by a transition matrix."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "pi", pi)
        if pi.min(initial=0.0) < 0.0:
            raise ValueError("stationary entries must be non-negative")
        if abs(pi.sum() - 1.0) > STRUCTURAL_TOL:
            raise ValueError("stationary distribution must sum to 1")


def urw_transition(g: LayerGraph) -> TransitionMatrix:
    """Unbiased random walk of a graph: step weights proportional to edges.

    Returns M with ``M[v, u] = a[u, v] / out_degree(u)``. Every vertex must
    have positive out-degree; otherwise the walk is undefined at it.
    """
    _, inverse = _degree_scaling(g.matrix)
    return TransitionMatrix(g.n, g.matrix.multiply(inverse[:, None]).T)


def _degree_scaling(matrix, strict=True):
    """Row sums d of an adjacency and their inverses 1/d; a zero row raises
    DanglingVertex when strict, else scales by 1 and stays zero."""
    d = np.asarray(matrix.sum(axis=1)).ravel()
    dead = d <= 0.0
    if strict and dead.any():
        raise DanglingVertex(int(np.argmax(dead)))
    return d, 1.0 / np.where(dead, 1.0, d)


def reconstruct_adjacency(m: TransitionMatrix, gamma) -> LayerGraph:
    """One member of the adjacency family realizing a given walk.

    gamma assigns each vertex a positive out-degree; the result's unbiased
    random walk reproduces `m` exactly (the per-vertex scaling cancels).
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (m.n,):
        raise DimensionMismatch(f"gamma must have length {m.n}")
    if gamma.min(initial=np.inf) <= 0.0 or not np.all(np.isfinite(gamma)):
        raise NonPositiveScale("gamma entries must be strictly positive")
    adjacency = (m.matrix @ sparse.diags_array(gamma)).T
    return LayerGraph(m.n, adjacency, directed=True)


def stationary(m: TransitionMatrix, tol: float = ITERATIVE_TOL,
               max_iter: int = 100_000) -> StationaryDistribution:
    """Fixed point of the walk: ``|M pi - pi|_1 <= tol``, else NoConvergence.

    A detailed-balanced chain (the walk of any undirected layer or
    composition) starts from its exact balance-ratio vector, which is
    already fixed, with mass |C|/n on each weakly connected component C; any
    other chain starts uniform. The loop iterates the half-lazy operator
    (x + Mx)/2, which shares every fixed point with M but is aperiodic, so
    bipartite structures converge too.
    """
    try:
        x = _balance_stationary(m, tol)
    except NotDetailedBalanced:
        x = np.full(m.n, 1.0 / m.n)
    for step in range(max_iter + 1):
        y = m.matrix @ x
        residual = float(np.abs(y - x).sum())
        if residual <= tol:
            return StationaryDistribution(x)
        if step < max_iter:
            x = 0.5 * (x + y)
            x /= x.sum()
    raise NoConvergence(residual, max_iter)


def is_detailed_balanced(m: TransitionMatrix, pi: StationaryDistribution,
                         tol: float = ITERATIVE_TOL) -> bool:
    """Whether probability flow u -> v balances v -> u under pi everywhere."""
    flow = m.matrix @ sparse.diags_array(pi.pi)
    imbalance = flow - flow.T
    if imbalance.nnz == 0:
        return True
    return float(np.abs(imbalance.data).max()) <= tol


def symmetrize_from_markov(m: TransitionMatrix, alpha: float,
                           tol: float = ITERATIVE_TOL) -> LayerGraph:
    """The symmetric adjacency alpha * M Pi of a detailed-balanced walk.

    Pi is recovered exactly from the balance ratios along a spanning forest
    (mass |C|/n on each weakly connected component C) and the full balance
    condition is verified to `tol`; non-balanced chains raise
    NotDetailedBalanced. Results for two alphas differ by exactly their
    ratio (the one global degree of freedom of a connected undirected walk).
    """
    if alpha <= 0:
        raise NonPositiveScale("alpha must be positive")
    s = (m.matrix @ sparse.diags_array(_balance_stationary(m, tol))) * alpha
    return LayerGraph(m.n, (s + s.T) * 0.5, directed=False)


def _balance_stationary(m: TransitionMatrix, tol) -> np.ndarray:
    """Stationary vector of a detailed-balanced chain from its balance ratios.

    pi_v / pi_u = P(u -> v) / P(v -> u) is accumulated in log space along one
    breadth-first spanning forest, rooted at a hub joined to the first vertex
    of each weakly connected component C, which then gets mass |C|/n. Raises
    NotDetailedBalanced when a transition has no reverse or some flow
    pi_u P(u -> v) differs from pi_v P(v -> u) by more than `tol`.
    """
    mat, n = m.matrix, m.n
    # the pattern must be symmetric: first the counts, which cost no transpose
    if not np.array_equal(np.bincount(mat.indices, minlength=n), np.diff(mat.indptr)):
        raise NotDetailedBalanced("some transition has no reverse")
    rev = sparse.csc_array(mat.T)  # entry k: P(v -> u) where mat's entry k is P(u -> v)
    if not np.array_equal(rev.indices, mat.indices):
        raise NotDetailedBalanced("some transition has no reverse")
    src = np.repeat(np.arange(n), np.diff(mat.indptr))  # u of entry k; v is indices[k]
    count, labels = _cc(mat, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    forest = sparse.csr_array(  # row u lists the successors of u; row n the roots
        (np.ones(mat.nnz + count), np.concatenate([mat.indices, roots]),
         np.append(mat.indptr, mat.nnz + count)), shape=(n + 1, n + 1))
    _, up = _bfs(forest, n, directed=True, return_predecessors=True)
    up = np.append(up[:n], n).astype(np.int64)
    step = np.zeros(n + 1)  # log pi_v - log pi_up[v]
    child = np.flatnonzero(up[:n] < n)
    k = np.searchsorted(src * n + mat.indices, up[child] * n + child)
    step[child] = np.log(mat.data[k]) - np.log(rev.data[k])
    while (up < n).any():  # pointer jumping: sum the steps up to the hub
        step, up = step + step[up], up[up]
    top = np.full(count, -np.inf)
    np.maximum.at(top, labels, step[:n])
    weight = np.exp(step[:n] - top[labels])
    pi = weight * (np.bincount(labels) / n / np.bincount(labels, weight))[labels]
    imbalance = pi[src] * mat.data - pi[mat.indices] * rev.data
    if np.abs(imbalance).max(initial=0.0) > tol:
        raise NotDetailedBalanced("chain is not detailed-balanced")
    return pi


def first_repeat(key):
    """Position of the earliest entry of an integer array equal to an
    earlier entry, or None when all entries differ."""
    ranked = np.sort(key)
    if (ranked[1:] != ranked[:-1]).all():
        return None
    return int(np.setdiff1d(np.arange(key.size), np.unique(key, return_index=True)[1])[0])


def components(matrix) -> list[np.ndarray]:
    """Weakly connected components of a sparse adjacency, largest first."""
    count, labels = _cc(sparse.csr_array(matrix), directed=True, connection="weak")
    sizes = np.bincount(labels, minlength=count)
    comps = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1]) if count else []
    comps.sort(key=len, reverse=True)
    return comps
