"""Weighted sparse graphs and their unbiased random walks.

An adjacency matrix stores ``a[u, v]`` as the weight of the edge u -> v;
out-degrees are row sums. Transition matrices are column-stochastic: entry
``(v, u)`` is the probability of stepping u -> v, so a stationary vector pi
satisfies ``M @ pi = pi`` literally. All types are immutable after
construction and every operation returns fresh objects.

``stationary`` also takes a graph, meaning its unbiased walk. When the
graph's matrix W is exactly symmetric its walk is reversible and pi is the
closed form ``(|C| / n) d / vol(C)`` on each component C (Lovász, *Random
walks on graphs: a survey*, 1993), computed from the degrees and checked by
one product with W; no transition matrix is built.

Facts about a graph's matrix that several analyses read -- whether it equals
its transpose (``LayerGraph.symmetric``) and its weak components
(``components``) -- are decided at most once per LayerGraph, when first read,
and kept on it; ``LayerGraph.subgraph`` hands a component slice both, from its
parent's, and a reader that knows one from the file fills it in. Nothing is
kept beyond the graph object, so each command decides each fact once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

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
# stored entries per pass where a temporary per entry would outgrow the matrix
_CHUNK = 1 << 16


def _index_dtype(*extents):
    """The one index-dtype rule: int32 while every extent fits, else int64."""
    return np.int32 if max(extents) < 2**31 else np.int64


def _canonical(mat, shape=None):
    """Canonical CSC: float64, sorted, no duplicates or stored zeros, indices and
    indptr in the _index_dtype of shape and entry count; canonical input is not
    copied, nor searched again for what scipy's flag or a scan of its weights
    shows is not there."""
    out = sparse.csc_array(mat, shape=shape, dtype=np.float64)
    if isinstance(mat, sparse.csc_array) and mat.has_canonical_format:
        out.has_canonical_format = True  # a new array does not inherit the flag
    out.sum_duplicates()  # sorts the indices too
    if not out.data.all():
        out.eliminate_zeros()
    idx = _index_dtype(*out.shape, out.data.size)
    out.indices = out.indices.astype(idx, copy=False)
    out.indptr = out.indptr.astype(idx, copy=False)
    return out


def _is_symmetric(mat) -> bool:
    """Whether a canonical CSC matrix (sorted, no duplicates, no stored
    zeros) equals its transpose: exactly when its CSR form stores the same
    arrays, which builds no comparison matrix."""
    other = mat.tocsr()
    return (np.array_equal(other.indptr, mat.indptr)
            and np.array_equal(other.indices, mat.indices)
            and np.array_equal(other.data, mat.data))


@dataclass(frozen=True)
class LayerGraph:
    """One layer: sparse non-negative adjacency plus a directedness flag.

    A zero entry means the edge is absent; stored weights are strictly
    positive and finite. Undirected graphs hold the full symmetric matrix.
    Facts about the matrix (``symmetric``, its ``components``) are computed
    when first read and kept on the graph.
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
        if not self.directed:
            if not _is_symmetric(mat):
                raise ValueError("undirected graph requires an exactly symmetric matrix")
            self.__dict__["symmetric"] = True

    @classmethod
    def _checked(cls, matrix, directed, **facts):
        """A graph on a canonical CSC that has passed the checks above, built
        without repeating them, with `facts`, values of its lazily computed
        properties that are already known."""
        graph = cls.__new__(cls)
        graph.__dict__.update(n=matrix.shape[0], matrix=matrix, directed=directed, **facts)
        return graph

    @cached_property
    def symmetric(self) -> bool:
        """Whether the matrix equals its transpose, whatever the directed
        flag: decided once per graph, by the pattern counts and then, only
        if they agree, by a transposed copy (_is_symmetric)."""
        return _symmetric_counts(self.matrix) and _is_symmetric(self.matrix)

    @cached_property
    def _components(self):
        return components(self.matrix)

    @cached_property
    def _in_degrees(self):
        """Column sums, each summed in its column's stored order: the degrees
        of a symmetric matrix as its CSC arrays read as CSR add them up."""
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def subgraph(self, kept):
        """The graph on `kept`, a sorted union of its weak components (items
        of components(self)), on component_matrix's copy of their entries,
        which needs none of the checks. Its components follow from this
        graph's labels, renumbered in order, and a symmetric matrix keeps
        its symmetry; neither is computed again."""
        labels = np.unique(components(self).labels[kept], return_inverse=True)[1]
        facts = {"_components": _Components(labels)}
        if self.__dict__.get("symmetric"):
            facts["symmetric"] = True
        return LayerGraph._checked(component_matrix(self.matrix, kept), self.directed, **facts)

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
        return _layer_graphs(n, ends, vals, np.zeros(len(vals), np.int64), [directed])[0]

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


def _layer_graphs(n, pairs, weights, index, flags):
    """One LayerGraph per directed flag in `flags`, of the edges pairs[k] of
    weight weights[k] in layer index[k]; an undirected layer mirrors its
    off-diagonal edges."""
    order = np.argsort(index, kind="stable")
    cuts = np.searchsorted(index, np.arange(len(flags) + 1), sorter=order).tolist()
    layers = []
    for k, flag in enumerate(flags):
        pick = order[cuts[k]:cuts[k + 1]]
        (u, v), w = pairs[pick].T, weights[pick]
        if not flag:
            off = u != v
            u, v, w = (np.concatenate(part) for part in ((u, v[off]), (v, u[off]), (w, w[off])))
        layers.append(LayerGraph(n, sparse.coo_array((w, (u, v)), shape=(n, n)), flag))
    return layers


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
        if not np.all(np.isfinite(pi)) or pi.min(initial=0.0) < 0.0:
            raise ValueError("stationary entries must be finite and non-negative")
        if abs(pi.sum() - 1.0) > STRUCTURAL_TOL:
            raise ValueError("stationary distribution must sum to 1")


def urw_transition(g: LayerGraph) -> TransitionMatrix:
    """Unbiased random walk of a graph: step weights proportional to edges.

    Returns M with ``M[v, u] = a[u, v] / out_degree(u)``. Every vertex must
    have positive out-degree; otherwise the walk is undefined at it.
    """
    return TransitionMatrix(g.n, _walk(g.matrix))


def _walk(matrix, strict=True):
    """The one walk rule, column-stochastic: M[v, u] = a[u, v] / d_u; a zero
    row raises DanglingVertex when strict, else stays a zero column. The CSC
    arrays of a, read as CSR, are a^T: M is a^T with each stored weight
    scaled, sharing a's index arrays."""
    matrix = sparse.csc_array(matrix)
    _, inverse = _degree_scaling(matrix, strict)
    scaled = inverse[matrix.indices]
    scaled *= matrix.data
    return sparse.csr_array((scaled, matrix.indices, matrix.indptr), shape=matrix.shape[::-1])


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


def stationary(m: TransitionMatrix | LayerGraph, tol: float = ITERATIVE_TOL,
               max_iter: int = 100_000) -> StationaryDistribution:
    """Fixed point of the walk: ``|M pi - pi|_1 <= tol``, else NoConvergence.

    A LayerGraph stands for its unbiased walk. When its matrix is exactly
    symmetric (every undirected graph and composition) the result is the
    closed form (|C|/n) d / vol(C) on each weakly connected component C,
    taken once one product confirms it; any other graph, or a closed form
    that misses `tol`, goes through urw_transition as below. The symmetry
    and the components are the graph's own facts (LayerGraph.symmetric,
    components): a graph that already knows them, such as a component
    slice, has neither decided again.

    A detailed-balanced chain starts from its exact balance-ratio vector,
    which is already fixed, with mass |C|/n on each weakly connected
    component C; any other chain starts uniform. The loop iterates the
    half-lazy operator (x + Mx)/2, which shares every fixed point with M but
    is aperiodic, so bipartite structures converge too.
    """
    if isinstance(m, LayerGraph):
        pi = _degree_stationary(m, tol)
        if pi is not None:
            return StationaryDistribution(pi)
        m = urw_transition(m)
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


def _degree_stationary(g: LayerGraph, tol):
    """The closed form (|C|/n) d / vol(C) of a graph whose matrix W is exactly
    symmetric, once |M pi - pi|_1 = |W (pi / d) - pi|_1 <= tol; None for any
    other graph, for a miss, or where a volume overflows. A zero degree
    raises DanglingVertex."""
    # a chain whose pattern counts differ is turned away before csgraph loads
    if not g.symmetric:
        return None
    mat, n = g.matrix, g.n
    d, inverse = _degree_scaling(mat)
    labels = components(g).labels  # with a symmetric pattern weak is strong
    vol = np.bincount(labels, d)
    if not np.all(np.isfinite(vol)):
        return None
    pi = d / vol[labels] * (np.bincount(labels) / n)[labels]
    return pi if float(np.abs(mat @ (pi * inverse) - pi).sum()) <= tol else None


def _symmetric_counts(mat) -> bool:
    """Whether every vertex of a square CSC stores as many entries in its row
    as in its column, which a symmetric pattern needs: the first check of
    one, as it costs no transpose."""
    return np.array_equal(np.bincount(mat.indices, minlength=mat.shape[0]),
                          np.diff(mat.indptr))


def _symmetric_components(mat):
    """csgraph's (count, labels) of the components of a CSC whose pattern is
    symmetric. Its arrays read as CSR are its transpose, no copy, and with a
    symmetric pattern the strong components are the weak ones, which csgraph
    would find on a transposed copy of its own."""
    # imported here: csgraph brings in scipy.linalg, about 0.15 s of start-up,
    # which a chain turned away by a pattern check never needs
    from scipy.sparse.csgraph import connected_components
    view = sparse.csr_array((mat.data, mat.indices, mat.indptr), shape=mat.shape)
    return connected_components(view, directed=True, connection="strong")


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
    if not _symmetric_counts(mat):
        raise NotDetailedBalanced("some transition has no reverse")
    rev = sparse.csc_array(mat.T)  # entry k: P(v -> u) where mat's entry k is P(u -> v)
    if not np.array_equal(rev.indices, mat.indices):
        raise NotDetailedBalanced("some transition has no reverse")
    count, labels = _symmetric_components(mat)
    from scipy.sparse.csgraph import breadth_first_order  # loaded by _symmetric_components
    roots = np.unique(labels, return_index=True)[1]
    idx = mat.indices.dtype  # an int64 indptr would make scipy widen the indices too
    forest = sparse.csr_array(  # row u lists the successors of u; row n the roots
        (np.broadcast_to(1.0, mat.nnz + count),  # the search reads no weights
         np.concatenate([mat.indices, roots], dtype=idx),
         np.append(mat.indptr, mat.nnz + count).astype(idx)), shape=(n + 1, n + 1))
    _, up = breadth_first_order(forest, n, directed=True, return_predecessors=True)
    del forest  # its index arrays, which nothing below reads
    up = np.append(up[:n], n).astype(np.int64)
    step = np.zeros(n + 1)  # log pi_v - log pi_up[v]
    child = np.flatnonzero(up[:n] < n)
    k = _entry_positions(mat, child, up[child])  # P(up -> child) is entry k
    step[child] = np.log(mat.data[k]) - np.log(rev.data[k])
    while (up < n).any():  # pointer jumping: sum the steps up to the hub
        step, up = step + step[up], up[up]
    top = np.full(count, -np.inf)
    np.maximum.at(top, labels, step[:n])
    weight = np.exp(step[:n] - top[labels])
    pi = weight * (np.bincount(labels) / n / np.bincount(labels, weight))[labels]
    # flows pi_u P(u -> v) against pi_v P(v -> u), a range of columns at a time
    counts = np.diff(mat.indptr)
    for lo, hi in _column_ranges(mat):
        span = slice(mat.indptr[lo], mat.indptr[hi])
        out = np.repeat(pi[lo:hi], counts[lo:hi]) * mat.data[span]
        out -= pi[mat.indices[span]] * rev.data[span]
        if np.abs(out).max(initial=0.0) > tol:
            raise NotDetailedBalanced("chain is not detailed-balanced")
    return pi


def _column_ranges(mat):
    """Consecutive column ranges (lo, hi) of a CSC of about _CHUNK stored
    entries each, for passes whose temporaries grow with the entries."""
    size = mat.shape[1]
    width = max(1, size * _CHUNK // max(mat.nnz, 1))
    return [(lo, min(lo + width, size)) for lo in range(0, size, width)]


def _entry_positions(mat, rows, cols):
    """Positions of the stored entries (rows[i], cols[i]) of a canonical CSC:
    one bisection of each column's sorted rows, all columns at once."""
    lo, hi = mat.indptr[cols].astype(np.int64), mat.indptr[cols + 1].astype(np.int64)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        below = open_ & (mat.indices[np.where(open_, mid, 0)] < rows)
        lo, hi = np.where(below, mid + 1, lo), np.where(open_ & ~below, mid, hi)
    return lo


def first_repeat(key):
    """Position of the earliest entry of an integer array equal to an
    earlier entry, or None when all entries differ."""
    ranked = np.sort(key)
    if (ranked[1:] != ranked[:-1]).all():
        return None
    return int(np.setdiff1d(np.arange(key.size), np.unique(key, return_index=True)[1])[0])


def components(graph) -> Sequence[np.ndarray]:
    """Weakly connected components of a LayerGraph or a sparse adjacency,
    largest first, equal sizes in label order; each a slice of one
    label-sorted array, made when it is first indexed. A LayerGraph's are
    found once, by one csgraph pass, and kept on it (see LayerGraph.subgraph
    for a slice's)."""
    if isinstance(graph, LayerGraph):
        return graph._components
    # imported here: csgraph brings in scipy.linalg, about 0.15 s of start-up
    from scipy.sparse.csgraph import connected_components
    # weak components are those of the undirected graph: csgraph reads a CSC's
    # arrays as the CSR of A^T, which has the same ones, and copies only that
    return _Components(connected_components(graph, directed=True, connection="weak")[1])


class _Components(Sequence):
    """The components of weak labels 0..count-1, numbered, as csgraph numbers
    them, in order of their first vertex: the count and the largest are read
    off the sizes, and the label sort that slices them waits for an item."""

    def __init__(self, labels):
        self.labels = labels
        self._sizes = np.bincount(labels)
        self._rank = np.argsort(-self._sizes, kind="stable")
        self._ends = self._order = None

    def __len__(self):
        return len(self._sizes)

    def __getitem__(self, k):
        c = self._rank[k]
        if self._order is None:
            self._order = np.argsort(self.labels, kind="stable")
            self._ends = np.cumsum(self._sizes)
        return self._order[self._ends[c] - self._sizes[c]:self._ends[c]]


def component_matrix(matrix, kept):
    """The principal submatrix of a canonical CSC on `kept`, a sorted union of
    its weak components (as `components` returns them), itself canonical. No
    entry joins a kept and a dropped instance, so an entry stays exactly when
    its row does, and only the kept entries are copied."""
    n = matrix.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[kept] = True
    keep = inside[matrix.indices]
    counts = np.diff(matrix.indptr)[kept]
    idx = _index_dtype(len(kept), int(counts.sum()))
    new = np.cumsum(inside, dtype=idx) - 1  # old id -> new id
    indptr = np.concatenate([[0], np.cumsum(counts)], dtype=idx)
    return sparse.csc_array((matrix.data[keep], new[matrix.indices[keep]], indptr),
                            shape=(len(kept), len(kept)))
