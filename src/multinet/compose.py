"""Stage 2: assemble transformed layers into one ln x ln super-adjacency.

The super-adjacency keeps each transformed layer as a diagonal block and
couples instances of the same vertex across layers through diagonal
off-diagonal blocks. Flat indexing is layer-major: instance (vertex u,
layer i) sits at flat index ``i * n + u``.

Four regimes build the coupling:

* multiplex   -- no inter-layer structure, layers are summed entrywise;
* ego         -- every vertex brings an l x l inter-layer Markov matrix,
                 realized uniquely as edge weights (the walk on the result
                 projects back to each layer and to each ego matrix);
* stationary  -- only the stationary layer distribution of each vertex is
                 known; the undirected minimum-volume solution is built
                 from each vertex's row-sum residuals (closed form for two
                 layers), realized by one symmetric fit, all vertices at once;
* distance    -- pairwise layer distances set one global coupling scale
                 (the temporal-stack case).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import (
    AsymmetricDistance,
    Degenerate,
    DimensionMismatch,
    Infeasible,
    InfeasibleComposition,
    IsolatedInstance,
    NonPositiveCoupling,
    StationaryCompositionError,
    Underdetermined,
    ZeroDegree,
    ZeroDiagonal,
)
from .graph import (
    ITERATIVE_TOL,
    STRUCTURAL_TOL,
    LayerGraph,
    _canonical,
    _column_ranges,
    _index_dtype,
    _walk,
)


def split_flat(flat, n):
    """(vertex, layer) of the instance at a flat super-index."""
    return flat % n, flat // n


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class EgoMarkov:
    """Inter-layer dynamics of every vertex, one (n, l, l) stack.

    Each ``m[u]`` is l x l column-stochastic: ``m[u, j, i]`` is the
    probability that a walker currently acting at vertex u in layer i next
    acts in layer j. Entries must be finite, and diagonal entries strictly
    positive (the composition divides by the stay-probability of each layer).
    A faulty stack raises the error of its lowest faulty vertex.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.m, dtype=np.float64)
        object.__setattr__(self, "m", m)
        _check_egos(m)

    @property
    def l(self):
        return self.m.shape[1]


def _check_egos(m, first=0):
    """Screen an (n, l, l) stack of ego matrices, numbering vertices from
    `first`; raises the first fault, in check order, of the lowest faulty
    vertex (a non-finite entry fails the range check)."""
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise DimensionMismatch("ego matrix must be square")
    stay = m.diagonal(axis1=1, axis2=2)
    faults = np.column_stack([
        ~((m >= 0.0) & (m <= 1.0 + STRUCTURAL_TOL)).all(axis=(1, 2)),
        np.abs(m.sum(axis=1) - 1.0).max(axis=1, initial=0.0) > STRUCTURAL_TOL,
        (stay <= 0.0).any(axis=1),
    ])
    if faults.any():
        u, kind = np.argwhere(faults)[0]
        if kind == 2:
            raise ZeroDiagonal(first + int(u), int(np.argmin(stay[u])))
        raise ValueError(("ego matrix entries must lie in [0, 1]",
                          "ego matrix columns must sum to 1")[kind])


@dataclass(frozen=True)
class SuperAdjacency:
    """The composed ln x ln block matrix, layer-major flat indexing, as
    canonical CSC: int32 indices while n * l and the entry count fit, else int64.

    Construction checks that every weight is finite and non-negative, and
    that every entry outside the diagonal blocks joins two instances of one
    vertex, a range of columns at a time: no index array is expanded to the
    matrix's size.
    """

    n: int
    l: int
    matrix: sparse.csc_array

    def __post_init__(self):
        mat = _canonical(self.matrix, shape=(self.n * self.l, self.n * self.l))
        object.__setattr__(self, "matrix", mat)
        bad = np.flatnonzero(~np.isfinite(mat.data))
        if bad.size:
            col = np.searchsorted(mat.indptr, bad[0], side="right") - 1
            raise ValueError(f"non-finite weight at 0-based flat ({mat.indices[bad[0]]}, {col})")
        if mat.data.size and mat.data.min() < 0.0:
            raise ValueError("super-adjacency weights must be non-negative")
        for _, rows, cols in _inter_layer_entries(mat, self.n):
            if not np.all(rows % self.n == cols % self.n):
                raise ValueError(
                    "off-diagonal blocks must be diagonal: inter-layer edges may "
                    "only join instances of the same vertex"
                )

    def block(self, i, j):
        """The n x n block coupling layer i to layer j (edges i -> j)."""
        n = self.n
        return self.matrix[i * n:(i + 1) * n, j * n:(j + 1) * n]

    def vertex_slice(self, u):
        """Dense l x l slice of vertex u: entry (i, j) = weight (u,i)->(u,j)."""
        idx = u + self.n * np.arange(self.l)
        return self.matrix[idx, :][:, idx].toarray()

    def out_degrees(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def as_graph(self):
        """The composed network as one directed LayerGraph on this matrix,
        made once and without checking again what construction checked, so
        that the facts decided on it (LayerGraph.symmetric, components) hold
        for every later call."""
        return self._graph

    @cached_property
    def _graph(self):
        return LayerGraph._checked(self.matrix, directed=True)


# ---------------------------------------------------------------------------
# helpers


def _inter_layer_entries(mat, n):
    """The entries of a layer-major CSC outside its diagonal blocks, its
    inter-layer weights: positions, rows and columns, yielded for one range
    of columns at a time (graph._column_ranges)."""
    for lo, hi in _column_ranges(mat):
        ptr = mat.indptr[lo:hi + 1]
        rows = mat.indices[ptr[0]:ptr[-1]]
        cols = np.repeat(np.arange(lo, hi, dtype=rows.dtype), np.diff(ptr))
        k = np.flatnonzero(rows // n != cols // n)
        yield ptr[0] + k, rows[k], cols[k]


def degree_table(layers) -> np.ndarray:
    """Per-vertex transformed out-degrees, shape (n, l)."""
    return np.column_stack([lay.out_degrees() for lay in layers])


def _check_layers(layers):
    if not layers:
        raise DimensionMismatch("at least one layer is required")
    n = layers[0].n
    for k, lay in enumerate(layers):
        if lay.n != n:
            raise DimensionMismatch(f"layer {k} has {lay.n} vertices, expected {n}")
    return n, len(layers)


def _ego_matrices(egos: EgoMarkov, n, l):
    """The (n, l, l) stack of an EgoMarkov, checked against n vertices and l layers."""
    if len(egos.m) != n:
        raise DimensionMismatch(f"expected one ego matrix per vertex ({n})")
    if egos.l != l:
        raise DimensionMismatch(f"ego of vertex 0 is {egos.l}x{egos.l}, expected {l}x{l}")
    return egos.m


def _assemble(layers, coupling):
    """The one composition kernel, with no sort: the layers' CSCs side by side
    as diagonal blocks (data concatenated, indices + k * n, indptr run on), a
    temporary freed before the checks, plus `coupling`, the canonical
    inter-layer CSC, which shares no position with them: the sum is exact."""
    n, l = _check_layers(layers)
    mats = [lay.matrix for lay in layers]
    idx = _index_dtype(n * l, sum(mat.nnz for mat in mats) + coupling.nnz)
    counts = np.concatenate([np.diff(mat.indptr) for mat in mats])
    return SuperAdjacency(n=n, l=l, matrix=coupling + sparse.csc_array(
        (np.concatenate([mat.data for mat in mats]),
         np.concatenate([mat.indices.astype(idx) + k * n for k, mat in enumerate(mats)]),
         np.concatenate([[0], np.cumsum(counts)], dtype=idx)), shape=(n * l, n * l)))


def _block_couplings(x):
    """The coupling CSC of an (n, l, l) stack of ego blocks, where
    ``x[u, j, i]`` weighs (u, i) -> (u, j), the diagonal ignored. Read as
    ``y[j, u, i]``, the stack lists the entries of column j * n + u with
    ascending rows i * n + u: CSC order already, with no sort."""
    n, l = x.shape[:2]
    y = x.transpose(1, 0, 2)
    keep = (y != 0.0) & ~np.eye(l, dtype=bool)[:, None, :]
    idx = _index_dtype(n * l, keep.size)
    rows = np.arange(l, dtype=idx) * n + np.arange(n, dtype=idx)[:, None]  # [u, i] = i * n + u
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=2))], dtype=idx)
    return sparse.csc_array((y[keep], np.broadcast_to(rows, y.shape)[keep], indptr),
                            shape=(n * l, n * l))


# ---------------------------------------------------------------------------
# multiplex composition


def compose_multiplex(layers) -> LayerGraph:
    """Entrywise sum of the transformed layers (no inter-layer structure)."""
    n, _ = _check_layers(layers)
    total = sum((lay.matrix for lay in layers[1:]), layers[0].matrix)
    return LayerGraph(n, total, directed=any(lay.directed for lay in layers))


# ---------------------------------------------------------------------------
# ego composition


def ego_block(u, m_u, degrees) -> np.ndarray:
    """Realize vertex u's l x l inter-layer Markov matrix as edge weights.

    Scales column i of the ego matrix by degrees[i] / m[i, i], the unique
    choice that keeps the diagonal equal to the intra-layer out-degrees
    while the walk on the result reproduces m_u. In the returned l x l
    block x, ``x[j, i]`` weighs the transition edge from the vertex's
    layer-i instance to its layer-j instance and ``x[i, i] = degrees[i]``.
    """
    m_u = np.asarray(m_u, dtype=np.float64)
    _check_egos(m_u[None], first=u)
    deg = np.asarray(degrees, dtype=np.float64)
    if deg.shape != (len(m_u),):
        raise DimensionMismatch(f"expected {len(m_u)} degrees for vertex {u}")
    return _ego_blocks(m_u[None], deg[None], first=u)[0]


def _ego_blocks(m, deg, first=0):
    """ego_block broadcast over an (n, l, l) stack of ego matrices and their
    (n, l) degrees, numbering vertices from `first`; returns the blocks."""
    l = m.shape[1]
    idx = np.arange(l)
    # a layer the vertex is absent from must receive no transitions
    inbound = m.copy()
    inbound[:, idx, idx] = 0.0
    bad = np.argwhere((deg == 0.0) & (inbound.max(axis=2, initial=0.0) > 0.0))
    if bad.size:
        k, i = bad[0]
        raise ZeroDegree(first + int(k), int(i))
    stay = m[:, idx, idx]
    gamma = np.where(deg > 0.0, deg / stay, 0.0)
    x = m * gamma[:, np.newaxis, :]
    x[:, idx, idx] = deg
    return x


def _feasibility_report(x, tol):
    """Symmetry diagnosis of an (n, l, l) stack of ego blocks."""
    l = x.shape[1]
    asym = np.abs(x - x.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    return FeasibilityReport(
        tol=tol,
        asymmetry_per_vertex=asym,
        constraint_count=l * (l + 1) // 2 - 1,
        unknown_count=l * (l - 1) // 2,
        excess_constraints=l - 1,
    )


def compose_ego(layers, egos: EgoMarkov, require_undirected=False,
                force_symmetrize=False) -> SuperAdjacency:
    """Unique super-adjacency consistent with layers and ego dynamics.

    The result's random walk projects onto each layer's walk and onto each
    vertex's ego matrix (see the two verify_* checks). By default asymmetric
    ego blocks are accepted (directed regime); with require_undirected the
    inputs are screened first and rejected when any block is asymmetric.
    force_symmetrize implies require_undirected and averages such blocks
    instead of rejecting them.
    """
    n, l = _check_layers(layers)
    x = _ego_blocks(_ego_matrices(egos, n, l), degree_table(layers))
    if require_undirected or force_symmetrize:
        report = _feasibility_report(x, ITERATIVE_TOL)
        if not report.feasible:
            if not force_symmetrize:
                raise InfeasibleComposition(report)
            x = (x + x.transpose(0, 2, 1)) * 0.5
    return _assemble(layers, _block_couplings(x))


# ---------------------------------------------------------------------------
# consistency verification


@dataclass(frozen=True)
class LayerConsistencyReport:
    """Deviation between each layer's walk and the joint walk's projection."""

    tol: float
    max_deviation_per_layer: np.ndarray
    worst: tuple  # (layer, row, col) of the largest deviation

    @property
    def passed(self):
        return bool(np.max(self.max_deviation_per_layer, initial=0.0) <= self.tol)


@dataclass(frozen=True)
class EgoConsistencyReport:
    """Deviation between given ego matrices and the joint walk's marginals."""

    tol: float
    max_deviation_per_vertex: np.ndarray
    worst_vertex: int

    @property
    def passed(self):
        return bool(np.max(self.max_deviation_per_vertex, initial=0.0) <= self.tol)


@dataclass(frozen=True)
class FeasibilityReport:
    """Symmetry diagnosis of the ego blocks an undirected composition needs.

    Undirected inputs overdetermine the blocks: each vertex faces
    l(l+1)/2 - 1 constraints on l(l-1)/2 unknowns, l - 1 more constraints
    than variables, so existence depends on the inputs.
    """

    tol: float
    asymmetry_per_vertex: np.ndarray
    constraint_count: int
    unknown_count: int
    excess_constraints: int

    @property
    def max_asymmetry(self):
        return float(np.max(self.asymmetry_per_vertex, initial=0.0))

    @property
    def feasible(self):
        return self.max_asymmetry <= self.tol


def verify_layer_consistency(s: SuperAdjacency, layers,
                             tol: float = ITERATIVE_TOL) -> LayerConsistencyReport:
    """Check that each layer's walk is the joint walk's projection onto it.

    The projection of the joint walk onto a layer is the stochastic
    normalization of that layer's diagonal principal block, which must match
    the layer's own walk.
    """
    n, l = _check_layers(layers)
    if (s.n, s.l) != (n, l):
        raise DimensionMismatch("super-adjacency shape does not match layers")
    devs, spots = np.zeros(l), [(0, 0)] * l
    for i, lay in enumerate(layers):
        # vertices absent from a layer have no walk on either side; their
        # columns stay zero and compare clean, keeping this a pure diagnostic
        diff = sparse.coo_array(_walk(s.block(i, i), strict=False)
                                - _walk(lay.matrix, strict=False))
        if diff.nnz:
            k = int(np.argmax(np.abs(diff.data)))
            devs[i], spots[i] = abs(diff.data[k]), (int(diff.row[k]), int(diff.col[k]))
    i = int(np.argmax(devs))  # the earliest layer with the largest deviation
    return LayerConsistencyReport(tol=tol, max_deviation_per_layer=devs, worst=(i, *spots[i]))


def verify_ego_consistency(s: SuperAdjacency, egos: EgoMarkov,
                           tol: float = ITERATIVE_TOL) -> EgoConsistencyReport:
    """Check that the joint walk's layer marginal at each vertex matches its ego.

    From the joint walk, q_i is the probability of staying in layer i from
    instance (v, i) (self-loops included); the marginal combines it with the
    normalized inter-layer slice: Q + M_slice (I - Q).
    """
    n, l = s.n, s.l
    m = _ego_matrices(egos, n, l)
    outdeg = s.out_degrees()
    dead = np.flatnonzero(outdeg == 0.0)
    if dead.size:
        raise IsolatedInstance(*split_flat(int(dead[0]), n))
    # inter[u, i, j] = weight (u,i)->(u,j), read from the off-diagonal blocks
    inter = np.zeros((n, l, l))
    for k, rows, cols in _inter_layer_entries(s.matrix, n):
        inter[rows % n, rows // n, cols // n] = s.matrix.data[k]
    total_out = outdeg.reshape(l, n).T
    stay = (total_out - inter.sum(axis=2)) / total_out
    # column i of the marginal = distribution from layer i; off the diagonal
    # M_slice (I - Q) reduces to the inter-layer weight over the total
    inter /= total_out[:, :, np.newaxis]
    marginal = inter.transpose(0, 2, 1)  # a view: the deviations are made in place
    idx = np.arange(l)
    marginal[:, idx, idx] = stay
    marginal -= m
    devs = np.abs(marginal, out=marginal).max(axis=(1, 2), initial=0.0)
    return EgoConsistencyReport(tol=tol, max_deviation_per_vertex=devs,
                                worst_vertex=int(np.argmax(devs)) if n else 0)


def check_undirected_feasibility(egos: EgoMarkov, degrees,
                                 tol: float = ITERATIVE_TOL) -> FeasibilityReport:
    """Measure how far each vertex's ego block is from symmetric.

    An undirected composition exists exactly when every block built from the
    inputs is symmetric; the report carries the per-vertex worst asymmetry
    and the constraint-vs-unknown counting behind the overdetermination.
    """
    deg = np.asarray(degrees, dtype=np.float64)
    n, l = deg.shape
    return _feasibility_report(_ego_blocks(_ego_matrices(egos, n, l), deg), tol)


# ---------------------------------------------------------------------------
# stationary (partial-information) composition


def ego_block_from_stationary(u, pi_u, degrees) -> np.ndarray:
    """Symmetric ego block whose walk has the given layer distribution.

    Row sums of the block must be proportional to pi_u (the stationary
    distribution of a walk on a symmetric matrix is degree-proportional). The
    minimum-volume solution takes the smallest row-sum scale admitting a
    symmetric non-negative realization: the rank-one fit x_ij = u_i u_j, or a
    star on the realizability boundary, which every l = 2 block is (its closed
    form has a feasibility interval). An all-NaN pi_u leaves the layers uncoupled.
    """
    pi = np.asarray(pi_u, dtype=np.float64)
    deg = np.asarray(degrees, dtype=np.float64)
    if deg.shape != (pi.shape[0],):
        raise DimensionMismatch("pi and degrees must have equal length")
    x, failures = _stationary_blocks(pi[None], deg[None], first=u)
    if failures:
        raise failures[0][1]
    return x[0]


def _stationary_blocks(pis, deg, first=0):
    """ego_block_from_stationary broadcast over (n, l) distributions and their
    degrees, numbering vertices from `first`. Returns the (n, l, l) blocks
    and the (vertex, first failed check) failures in vertex order. An all-NaN
    row leaves its vertex uncoupled; any other invalid row raises ValueError."""
    n, l = pis.shape
    idx = np.arange(l)
    x = np.zeros((n, l, l))
    x[:, idx, idx] = deg
    rows = np.flatnonzero(~np.isnan(pis).all(axis=1))
    pi, d = pis[rows], deg[rows]
    if not ((pi > 0.0).all() and (np.abs(pi.sum(axis=1) - 1.0) <= STRUCTURAL_TOL).all()):
        raise ValueError("pi must be strictly positive and sum to 1")
    checks = [((d <= 0.0).any(axis=1), lambda k, u: ZeroDegree(u, int(np.argmin(d[k]))))]
    # a row that fails one check computes garbage in the later ones, unread
    with np.errstate(divide="ignore", invalid="ignore"):
        r, more = (_stationary_residuals_l2 if l == 2 else _min_volume_residuals)(pi, d)
    checks += more
    masks = np.array([mask for mask, _ in checks])  # (checks, rows)
    failed = masks.any(axis=0)
    x[rows[~failed]] += _symmetric_rowsum_fit(r[~failed])
    return x, [(u, checks[masks[:, k].argmax()][1](k, u))  # each row's first failed check
               for k, u in zip(np.flatnonzero(failed), (first + rows[failed]).tolist())]


def _stationary_residuals_l2(pi, deg):
    """Each two-layer row's closed-form coupling x as its equal residuals
    (x, x), and the checks on them, paired as in _min_volume_residuals."""
    d1, d2, p1 = deg[:, 0], deg[:, 1], pi[:, 0]
    endpoint = d1 / (d1 + d2)
    lo, hi = np.minimum(0.5, endpoint), np.maximum(0.5, endpoint)
    numerator = p1 * (d1 + d2) - d1
    # the numerator vanishes at the degree-proportional endpoint; snap the
    # rounding residue so decoupling is exact
    snap = np.abs(numerator) <= 8.0 * np.finfo(np.float64).eps * (d1 + d2)
    x = np.where(snap, 0.0, numerator / (1.0 - 2.0 * p1))
    half = p1 == 0.5
    return np.column_stack([x, x]), [
        (half & (d1 == d2), lambda k, u: Underdetermined(
            f"vertex {u}: pi = 1/2 with equal degrees leaves the coupling "
            "free; supply it explicitly")),
        (half, lambda k, u: Degenerate(
            f"vertex {u}: pi = 1/2 with unequal degrees admits no finite coupling")),
        (~((lo <= p1) & (p1 <= hi)), lambda k, u: Infeasible(
            f"vertex {u}: pi^1 = {p1[k]} outside feasible interval [{lo[k]}, {hi[k]}]",
            interval=(lo[k], hi[k]))),
        (x < 0.0, lambda k, u: Infeasible(
            f"vertex {u}: closed form gives negative coupling {x[k]}",
            interval=(lo[k], hi[k]))),
    ]


def _min_volume_residuals(pi, deg):
    """Residuals r = s pi - d >= 0 of each row at the smallest row-sum scale
    s that makes them realizable symmetrically, and the checks on them in
    order, as (row mask, make(row, vertex) -> exception) pairs.

    Realizability of non-negative symmetric off-diagonals with row sums r
    needs 2 max(r) <= sum(r), that is s (sum(pi) - 2 pi_i) >= sum(d) - 2 d_i;
    per layer a lower bound on s where pi_i < 1/2 and an upper bound where
    pi_i > 1/2. The bounds read sum(pi) as 1, which the pi-sum check holds
    only to 1e-12. On the boundary 2 max(r) = sum(r), where the bounds meet,
    that can part them, so a row whose bounds part is read as pi / sum(pi)
    when the bounds of that meet; every other row is kept to the last bit.
    One layer has no off-diagonal entries: its residual is 0, at s = d.
    """
    total_d = deg.sum(axis=1, keepdims=True)

    def scale_bounds(pi):  # (s_star, s_cap)
        bound = (total_d - 2.0 * deg) / (1.0 - 2.0 * pi)
        return (np.maximum((deg / pi).max(axis=1),
                           np.where(pi < 0.5, bound, -np.inf).max(axis=1)),
                np.where(pi > 0.5, bound, np.inf).min(axis=1))

    s_star, s_cap = scale_bounds(pi)
    unit = pi / pi.sum(axis=1, keepdims=True)
    unit_star, unit_cap = scale_bounds(unit)
    own = (s_star > s_cap * (1.0 + 1e-14)) & (unit_star <= unit_cap * (1.0 + 1e-14))
    pi = np.where(own[:, None], unit, pi)
    s_star[own], s_cap[own] = unit_star[own], unit_cap[own]
    half = (pi == 0.5) & (2.0 * deg < total_d)
    r = s_star[:, None] * pi - deg
    snap = 8.0 * np.finfo(np.float64).eps * np.maximum(s_star, deg.max(axis=1))
    r[np.abs(r) <= snap[:, None]] = 0.0
    scale = r.sum(axis=1)
    return r, [
        (half.any(axis=1), lambda k, u: Infeasible(
            f"vertex {u}: pi_{np.argmax(half[k])} = 1/2 requires layer "
            f"{np.argmax(half[k])} to carry at least half the degree mass",
            interval=None)),
        (s_star > s_cap * (1.0 + 1e-14), lambda k, u: Infeasible(
            f"vertex {u}: no scale satisfies all residual bounds "
            f"(need s in [{s_star[k]}, {s_cap[k]}])",
            interval=(s_star[k], s_cap[k]))),
        (r.min(axis=1) < 0.0, lambda k, u: Infeasible(
            f"vertex {u}: negative residual {r[k].min()}", interval=None)),
        (scale - 2.0 * r.max(axis=1) < -1e-9 * scale, lambda k, u: Infeasible(
            f"row sums {r[k]} violate 2 max <= sum", interval=None)),
    ]


def _symmetric_rowsum_fit(r):
    """Symmetric zero-diagonal non-negative blocks, one per row of r (k, l),
    with that row as row sums; 2 max(r) <= sum(r) holds up to rounding.

    On the boundary 2 max(r) = sum(r) the one realization is the star on the
    largest residual h, x_hj = r_j, copied with no arithmetic: two layers'
    equal residuals (x, x) always sit there, giving x off the diagonal, and
    one layer's zero residual gives the zero block. Inside it, the block is
    the rank-one fit x_ij = u_i u_j. With c = sum_{j != h} u_j and
    S = c + r_h / c the whole sum, u_h = r_h / c and every other u_i is the
    smaller root of u_i (S - u_i) = r_i, 2 r_i / (S + sqrt(S^2 - 4 r_i)),
    exactly 0 where r_i = 0. What remains is one equation per row,
    sum_{i != h} u_i = c, whose left side exceeds c for small c (by the
    slack) and falls below it from c = sqrt(2 sum r) on; bisection of all
    rows at once brackets the root to rounding, and u_h is taken from the
    sum it reaches.
    """
    k, l = r.shape
    rows, idx = np.arange(k), np.arange(l)
    hub = r.argmax(axis=1)
    rh = r[rows, hub][:, None]
    rest = r.copy()
    rest[rows, hub] = 0.0
    x = np.zeros((k, l, l))
    x[rows, hub], x[rows, :, hub] = rest, rest
    scale = r.sum(axis=1, keepdims=True)
    fit = (scale - 2.0 * rh > 1e-12 * scale)[:, 0]
    rh, rest = rh[fit], rest[fit]

    def spokes(c):
        # S^2 - 4 r_i rewritten as a sum of non-negative terms
        gap = c - rh / c
        return 2.0 * rest / (c + rh / c + np.sqrt(gap * gap + 4.0 * (rh - rest)))

    lo, hi = np.zeros_like(rh), np.sqrt(2.0 * scale[fit])
    c = 0.5 * hi
    while ((lo < c) & (c < hi)).any():
        above = spokes(c).sum(axis=1, keepdims=True) > c
        lo, hi = np.where(above, c, lo), np.where(above, hi, c)
        c = 0.5 * (lo + hi)
    u = spokes(c)
    u[np.arange(len(u)), hub[fit]] = rh[:, 0] / u.sum(axis=1)
    blocks = u[:, :, None] * u[:, None, :]
    blocks[:, idx, idx] = 0.0
    x[fit] = blocks
    return x


def compose_stationary(layers, pis) -> SuperAdjacency:
    """Super-adjacency from per-vertex stationary layer distributions.

    Requires undirected layers. Every vertex's slice, taken as an isolated
    ego system, has the requested stationary distribution. An all-NaN row
    of pis leaves that vertex uncoupled (no inter-layer edges), the natural
    choice for vertices absent from some layer; a partly-NaN row is invalid.
    """
    n, l = _check_layers(layers)
    for k, lay in enumerate(layers):
        if lay.directed:
            raise ValueError(f"layer {k} is directed; stationary composition "
                             "requires undirected layers")
    pis = np.asarray(pis, dtype=np.float64)
    if pis.shape != (n, l):
        raise DimensionMismatch(f"pis must have shape ({n}, {l})")
    x, failures = _stationary_blocks(pis, degree_table(layers))
    if failures:
        raise StationaryCompositionError(failures)
    return _assemble(layers, _block_couplings(x))


# ---------------------------------------------------------------------------
# distance-coupled composition


_DISTANCE_KERNELS = ("reciprocal", "uniform")


def compose_distance(layers, dist, c, kernel="reciprocal",
                     adjacent_only=False) -> SuperAdjacency:
    """Couple layers by pairwise distances with one global strength c.

    Every vertex present in both layers of a coupled pair receives the same
    inter-layer weight, c * kernel(distance): reciprocal weights decay with
    distance, uniform ignores it. adjacent_only restricts coupling to
    consecutive layers (temporal stacks).
    """
    n, l = _check_layers(layers)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (l, l):
        raise DimensionMismatch(f"distance matrix must be {l}x{l}")
    if np.any(dist != dist.T):
        raise AsymmetricDistance("distance matrix must be symmetric")
    if c <= 0.0:
        raise NonPositiveCoupling(f"coupling must be positive, got {c}")
    if kernel not in _DISTANCE_KERNELS:
        raise ValueError(f"kernel must be one of {_DISTANCE_KERNELS}")
    src, dst = (np.arange(l - 1), np.arange(1, l)) if adjacent_only else np.triu_indices(l, 1)
    d = dist[src, dst]
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        raise ValueError(f"coupled layers ({src[bad[0]]}, {dst[bad[0]]}) "
                         "need a positive distance")
    w = c / d if kernel == "reciprocal" else np.full(d.shape, c, dtype=np.float64)
    # couple both directions of every pair, at vertices present in both layers
    src, dst, w = np.r_[src, dst], np.r_[dst, src], np.r_[w, w]
    present = degree_table(layers) > 0.0  # (n, l)
    vertex, pair = np.nonzero(present[:, src] & present[:, dst])
    coupling = (w[pair], (src[pair] * n + vertex, dst[pair] * n + vertex))
    return _assemble(layers, _canonical(sparse.coo_array(coupling, shape=(n * l, n * l))))
