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
                 known; the undirected minimum-volume solution is built;
* distance    -- pairwise layer distances set one global coupling scale
                 (the temporal-stack case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    _degree_scaling,
)


def flat_index(u, layer, n):
    """Flat super-index of instance (vertex u, layer i)."""
    return layer * n + u


def split_flat(flat, n):
    """Inverse of flat_index: returns (vertex, layer)."""
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
class EgoBlock:
    """Egocentric adjacency of one vertex across layers.

    x is l x l with column i holding the out-weights of the vertex's layer-i
    instance: ``x[j, i]`` is the weight of the transition edge i -> j, and
    ``x[i, i]`` equals the vertex's intra-layer out-degree in layer i.
    """

    vertex: int
    x: np.ndarray

    @property
    def inter_layer(self):
        """The off-diagonal part (pure inter-layer weights, zero diagonal)."""
        w = self.x.copy()
        np.fill_diagonal(w, 0.0)
        return w


@dataclass(frozen=True)
class SuperAdjacency:
    """The composed ln x ln block matrix, layer-major flat indexing."""

    n: int
    l: int
    matrix: sparse.csc_array

    def __post_init__(self):
        mat = _canonical(self.matrix, shape=(self.n * self.l, self.n * self.l))
        object.__setattr__(self, "matrix", mat)
        coo = mat.tocoo()
        bad = np.flatnonzero(~np.isfinite(coo.data))
        if bad.size:
            raise ValueError(f"non-finite weight at 0-based flat "
                             f"({coo.row[bad[0]]}, {coo.col[bad[0]]})")
        if mat.data.size and mat.data.min() < 0.0:
            raise ValueError("super-adjacency weights must be non-negative")
        off = (coo.row // self.n) != (coo.col // self.n)
        if not np.all(coo.row[off] % self.n == coo.col[off] % self.n):
            raise ValueError(
                "off-diagonal blocks must be diagonal: inter-layer edges may "
                "only join instances of the same vertex"
            )

    def flat(self, u, layer):
        return flat_index(u, layer, self.n)

    def split(self, flat):
        return split_flat(flat, self.n)

    def block(self, i, j):
        """The n x n block coupling layer i to layer j (edges i -> j)."""
        rows = np.arange(self.n) + i * self.n
        cols = np.arange(self.n) + j * self.n
        return sparse.csc_array(self.matrix[rows, :][:, cols])

    def vertex_slice(self, u):
        """Dense l x l slice of vertex u: entry (i, j) = weight (u,i)->(u,j)."""
        idx = u + self.n * np.arange(self.l)
        return self.matrix[idx, :][:, idx].toarray()

    def out_degrees(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    @property
    def volume(self):
        return float(self.matrix.sum())

    @property
    def inter_layer_slots(self):
        """Settable scalars left once diagonal blocks are fixed: n(l^2 - l)."""
        return self.n * self.l * (self.l - 1)

    def vertex_major_matrix(self):
        """Pure permutation view grouping each vertex's instances together."""
        size = self.n * self.l
        new = np.arange(size)
        old = (new % self.l) * self.n + new // self.l
        return sparse.csc_array(self.matrix[old, :][:, old])

    def as_graph(self):
        return LayerGraph(self.n * self.l, self.matrix, directed=True)


# tagged union of composition modes


@dataclass(frozen=True)
class MultiplexSpec:
    mode = "multiplex"


@dataclass(frozen=True)
class EgoSpec:
    egos: EgoMarkov
    require_undirected: bool = False
    force_symmetrize: bool = False
    mode = "ego"


@dataclass(frozen=True)
class StationarySpec:
    pis: np.ndarray  # (n, l), strictly positive rows summing to 1
    mode = "stationary"


@dataclass(frozen=True)
class DistanceSpec:
    distances: np.ndarray  # (l, l) symmetric, zero diagonal
    coupling: float
    kernel: str = "reciprocal"
    adjacent_only: bool = False
    mode = "distance"


CompositionSpec = Union[MultiplexSpec, EgoSpec, StationarySpec, DistanceSpec]


# ---------------------------------------------------------------------------
# helpers


def degree_table(layers) -> np.ndarray:
    """Per-vertex transformed out-degrees, shape (n, l)."""
    return np.column_stack([lay.graph.out_degrees() for lay in layers])


def _check_layers(layers):
    if not layers:
        raise DimensionMismatch("at least one layer is required")
    n = layers[0].n
    for k, lay in enumerate(layers):
        if lay.n != n:
            raise DimensionMismatch(
                f"layer {k} has {lay.n} vertices, expected {n}"
            )
    return n, len(layers)


def _ego_matrices(egos: EgoMarkov, n, l):
    """The (n, l, l) stack of an EgoMarkov, checked against n vertices and l layers."""
    if len(egos.m) != n:
        raise DimensionMismatch(f"expected one ego matrix per vertex ({n})")
    if egos.l != l:
        raise DimensionMismatch(f"ego of vertex 0 is {egos.l}x{egos.l}, expected {l}x{l}")
    return egos.m


def _assemble(layers, vertex, src, dst, weight):
    """The one composition kernel: the layers as diagonal blocks plus one
    inter-layer edge (vertex, src) -> (vertex, dst) of the given weight per
    entry of the flat coupling arrays, built as a single COO matrix."""
    n, l = _check_layers(layers)
    diag = sparse.block_diag([lay.graph.matrix for lay in layers], format="coo")
    full = sparse.coo_array(
        (np.concatenate([diag.data, weight]),
         (np.concatenate([diag.row, src * n + vertex]),
          np.concatenate([diag.col, dst * n + vertex]))),
        shape=(n * l, n * l),
    )
    return SuperAdjacency(n=n, l=l, matrix=full)


def _block_couplings(x):
    """Flat coupling arrays of an (n, l, l) stack of ego blocks, where
    ``x[u, j, i]`` weighs (u, i) -> (u, j); the diagonal is ignored."""
    mask = (x != 0.0) & ~np.eye(x.shape[1], dtype=bool)
    vertex, dst, src = np.nonzero(mask)
    return vertex, src, dst, x[mask]


# ---------------------------------------------------------------------------
# multiplex composition


def compose_multiplex(layers) -> LayerGraph:
    """Entrywise sum of the transformed layers (no inter-layer structure)."""
    n, _ = _check_layers(layers)
    total = layers[0].graph.matrix
    for lay in layers[1:]:
        total = total + lay.graph.matrix
    directed = any(lay.graph.directed for lay in layers)
    return LayerGraph(n, total, directed=directed)


# ---------------------------------------------------------------------------
# ego composition


def ego_block(u, m_u, degrees) -> EgoBlock:
    """Realize vertex u's l x l inter-layer Markov matrix as edge weights.

    Scales column i of the ego matrix by degrees[i] / m[i, i], the unique
    choice that keeps the diagonal equal to the intra-layer out-degrees
    while the walk on the result reproduces m_u.
    """
    m_u = np.asarray(m_u, dtype=np.float64)
    _check_egos(m_u[None], first=u)
    deg = np.asarray(degrees, dtype=np.float64)
    if deg.shape != (len(m_u),):
        raise DimensionMismatch(f"expected {len(m_u)} degrees for vertex {u}")
    return EgoBlock(vertex=u, x=_ego_blocks(m_u[None], deg[None], first=u)[0])


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
    inputs are screened first and rejected when any block is asymmetric,
    unless force_symmetrize averages them.
    """
    n, l = _check_layers(layers)
    x = _ego_blocks(_ego_matrices(egos, n, l), degree_table(layers))
    if require_undirected:
        report = _feasibility_report(x, ITERATIVE_TOL)
        if not report.feasible:
            if not force_symmetrize:
                raise InfeasibleComposition(report)
            x = (x + x.transpose(0, 2, 1)) * 0.5
    return _assemble(layers, *_block_couplings(x))


# ---------------------------------------------------------------------------
# consistency verification


def _guarded_walk(block):
    """Column-stochastic walk of an adjacency, zero columns where degree is 0."""
    _, inverse = _degree_scaling(block, strict=False)
    return block.multiply(inverse[:, None]).T


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
    devs = np.zeros(l)
    worst = (0, 0, 0)
    worst_dev = -1.0
    for i in range(l):
        projected = _guarded_walk(s.block(i, i))
        # vertices absent from the layer have no walk on either side; their
        # columns stay zero and compare clean, keeping this a pure diagnostic
        reference = _guarded_walk(layers[i].graph.matrix)
        diff = sparse.coo_array(projected - reference)
        if diff.nnz:
            k = int(np.argmax(np.abs(diff.data)))
            devs[i] = float(np.abs(diff.data[k]))
            if devs[i] > worst_dev:
                worst_dev = devs[i]
                worst = (i, int(diff.row[k]), int(diff.col[k]))
    return LayerConsistencyReport(tol=tol, max_deviation_per_layer=devs, worst=worst)


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
    coo = s.matrix.tocoo()
    off = (coo.row // n) != (coo.col // n)
    inter = np.zeros((n, l, l))
    inter[coo.row[off] % n, coo.row[off] // n, coo.col[off] // n] = coo.data[off]
    total_out = outdeg.reshape(l, n).T
    # column i of the marginal = distribution from layer i; off the diagonal
    # M_slice (I - Q) reduces to the inter-layer weight over the total
    marginal = (inter / total_out[:, :, np.newaxis]).transpose(0, 2, 1)
    idx = np.arange(l)
    marginal[:, idx, idx] = (total_out - inter.sum(axis=2)) / total_out
    devs = np.abs(marginal - m).max(axis=(1, 2), initial=0.0)
    worst_vertex = int(np.argmax(devs)) if n else 0
    return EgoConsistencyReport(
        tol=tol, max_deviation_per_vertex=devs, worst_vertex=worst_vertex
    )


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


def ego_block_from_stationary(u, pi_u, degrees,
                              fit_tol: float = 1e-12,
                              max_fit_iter: int = 200_000) -> EgoBlock:
    """Symmetric ego block whose walk has the given layer distribution.

    Row sums of the block must be proportional to pi_u (the stationary
    distribution of a walk on a symmetric matrix is degree-proportional).
    l = 2 is fully determined and solved in closed form with its feasibility
    interval; l >= 3 is underdetermined and resolved by the minimum-volume
    solution: the smallest total row-sum scale admitting a symmetric
    non-negative realization, which is then fitted by iterative proportional
    scaling.
    """
    pi = np.asarray(pi_u, dtype=np.float64)
    deg = np.asarray(degrees, dtype=np.float64)
    l = pi.shape[0]
    if deg.shape != (l,):
        raise DimensionMismatch("pi and degrees must have equal length")
    if pi.min() <= 0.0 or abs(pi.sum() - 1.0) > STRUCTURAL_TOL:
        raise ValueError("pi must be strictly positive and sum to 1")
    if deg.min() <= 0.0:
        raise ZeroDegree(u, int(np.argmin(deg)))

    if l == 1:
        return EgoBlock(vertex=u, x=np.array([[deg[0]]]))

    if l == 2:
        return _stationary_block_l2(u, pi, deg)

    r, s = _min_volume_residuals(u, pi, deg)
    off = _symmetric_rowsum_fit(r, fit_tol, max_fit_iter)
    x = off + np.diag(deg)
    return EgoBlock(vertex=u, x=x)


def _stationary_block_l2(u, pi, deg):
    d1, d2 = deg
    p1 = pi[0]
    endpoint = d1 / (d1 + d2)
    if p1 == 0.5:
        if d1 == d2:
            raise Underdetermined(
                f"vertex {u}: pi = 1/2 with equal degrees leaves the coupling "
                "free; supply it explicitly"
            )
        raise Degenerate(
            f"vertex {u}: pi = 1/2 with unequal degrees admits no finite coupling"
        )
    lo, hi = min(0.5, endpoint), max(0.5, endpoint)
    if not (lo <= p1 <= hi):
        raise Infeasible(
            f"vertex {u}: pi^1 = {p1} outside feasible interval [{lo}, {hi}]",
            interval=(lo, hi),
        )
    numerator = p1 * (d1 + d2) - d1
    # the numerator vanishes at the degree-proportional endpoint; snap the
    # rounding residue so decoupling is exact
    if abs(numerator) <= 8.0 * np.finfo(np.float64).eps * (d1 + d2):
        x = 0.0
    else:
        x = numerator / (1.0 - 2.0 * p1)
    if x < 0.0:
        raise Infeasible(
            f"vertex {u}: closed form gives negative coupling {x}",
            interval=(lo, hi),
        )
    return EgoBlock(vertex=u, x=np.array([[d1, x], [x, d2]]))


def _min_volume_residuals(u, pi, deg):
    """Smallest row-sum scale s with r = s pi - d >= 0 realizable symmetrically.

    Realizability of non-negative symmetric off-diagonals with row sums r
    needs 2 max(r) <= sum(r); per layer that is a linear bound on s, a lower
    bound where pi_i < 1/2 and an upper bound where pi_i > 1/2.
    """
    total_d = deg.sum()
    s_star = np.max(deg / pi)
    s_cap = np.inf
    for i in range(len(pi)):
        if pi[i] < 0.5:
            s_star = max(s_star, (total_d - 2.0 * deg[i]) / (1.0 - 2.0 * pi[i]))
        elif pi[i] > 0.5:
            s_cap = min(s_cap, (2.0 * deg[i] - total_d) / (2.0 * pi[i] - 1.0))
        elif 2.0 * deg[i] < total_d:
            raise Infeasible(
                f"vertex {u}: pi_{i} = 1/2 requires layer {i} to carry at "
                "least half the degree mass",
                interval=None,
            )
    if s_star > s_cap * (1.0 + 1e-14):
        raise Infeasible(
            f"vertex {u}: no scale satisfies all residual bounds "
            f"(need s in [{s_star}, {s_cap}])",
            interval=(s_star, s_cap),
        )
    r = s_star * pi - deg
    snap = 8.0 * np.finfo(np.float64).eps * max(s_star, deg.max())
    r[np.abs(r) <= snap] = 0.0
    if r.min() < 0.0:
        raise Infeasible(f"vertex {u}: negative residual {r.min()}", interval=None)
    return r, s_star


def _symmetric_rowsum_fit(r, tol, max_iter):
    """Symmetric zero-diagonal non-negative matrix with row sums r.

    Generic case: diagonal scaling x_ij = u_i u_j fitted on the complete
    off-diagonal support. The boundary 2 max(r) = sum(r) forces a star and
    is built directly, and instances too close to it for the scaling to
    converge fall back to an exact pairing construction.
    """
    l = r.shape[0]
    x = np.zeros((l, l))
    active = np.flatnonzero(r > 0.0)
    if active.size == 0:
        return x
    if active.size == 1:
        raise Infeasible(f"row sums {r} violate 2 max <= sum", interval=None)
    ra = r[active]
    scale = ra.sum()
    slack = scale - 2.0 * ra.max()
    if slack < -1e-9 * scale:
        raise Infeasible(f"row sums {r} violate 2 max <= sum", interval=None)
    if slack <= 1e-12 * scale:
        hub = int(np.argmax(ra))
        block = np.zeros((active.size, active.size))
        for j in range(active.size):
            if j != hub:
                block[hub, j] = block[j, hub] = ra[j]
        x[np.ix_(active, active)] = block
        return x
    if active.size == 3:
        # three unknowns, three row sums: the fit is unique in closed form
        a, b, c = ra
        block = np.zeros((3, 3))
        block[0, 1] = block[1, 0] = (a + b - c) / 2.0
        block[0, 2] = block[2, 0] = (a + c - b) / 2.0
        block[1, 2] = block[2, 1] = (b + c - a) / 2.0
        if block.min() < 0.0:
            raise Infeasible(f"row sums {r} violate 2 max <= sum", interval=None)
        x[np.ix_(active, active)] = block
        return x
    u = ra / np.sqrt(scale)
    for _ in range(max_iter):
        u = 0.5 * (u + ra / (u.sum() - u))
        if np.max(np.abs(u * (u.sum() - u) - ra)) <= tol * scale:
            block = np.outer(u, u)
            np.fill_diagonal(block, 0.0)
            x[np.ix_(active, active)] = block
            return x
    x[np.ix_(active, active)] = _pairing_fit(ra)
    return x


def _pairing_fit(ra):
    """Exact symmetric realization of row sums by greedy largest-pair edges.

    Each step joins the two largest residuals with the heaviest weight that
    keeps the remainder realizable (2 max <= sum), so every step either
    zeroes a residual or reaches the star boundary; O(l) steps total.
    """
    k = ra.size
    block = np.zeros((k, k))
    res = ra.copy()
    for _ in range(4 * k):
        order = np.argsort(res)[::-1]
        a, b = order[0], order[1]
        third = res[order[2]] if k > 2 else 0.0
        w = min(res[b], res.sum() / 2.0 - third)
        if w <= 0.0:
            break
        block[a, b] += w
        block[b, a] += w
        res[a] -= w
        res[b] -= w
    return block


def compose_stationary(layers, pis) -> SuperAdjacency:
    """Super-adjacency from per-vertex stationary layer distributions.

    Requires undirected layers. Every vertex's slice, taken as an isolated
    ego system, has the requested stationary distribution. A row of NaN in
    pis leaves that vertex uncoupled (no inter-layer edges), the natural
    choice for vertices absent from some layer.
    """
    n, l = _check_layers(layers)
    for k, lay in enumerate(layers):
        if lay.graph.directed:
            raise ValueError(f"layer {k} is directed; stationary composition "
                             "requires undirected layers")
    pis = np.asarray(pis, dtype=np.float64)
    if pis.shape != (n, l):
        raise DimensionMismatch(f"pis must have shape ({n}, {l})")
    deg = degree_table(layers)
    x = np.zeros((n, l, l))  # NaN rows keep zero couplings
    failures = []
    for u in np.flatnonzero(~np.isnan(pis).any(axis=1)):
        try:
            x[u] = ego_block_from_stationary(int(u), pis[u], deg[u]).x
        except (Infeasible, Degenerate, Underdetermined, ZeroDegree) as exc:
            failures.append((int(u), exc))
    if failures:
        raise StationaryCompositionError(failures)
    return _assemble(layers, *_block_couplings(x))


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
    if adjacent_only:
        src = np.arange(l - 1)
        dst = src + 1
    else:
        src, dst = np.triu_indices(l, 1)
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
    return _assemble(layers, vertex, src[pair], dst[pair], w[pair])


# ---------------------------------------------------------------------------
# dispatch


def compose(layers, spec: CompositionSpec):
    """Run the composition selected by a CompositionSpec."""
    if isinstance(spec, MultiplexSpec):
        return compose_multiplex(layers)
    if isinstance(spec, EgoSpec):
        return compose_ego(layers, spec.egos,
                           require_undirected=spec.require_undirected,
                           force_symmetrize=spec.force_symmetrize)
    if isinstance(spec, StationarySpec):
        return compose_stationary(layers, spec.pis)
    if isinstance(spec, DistanceSpec):
        return compose_distance(layers, spec.distances, spec.coupling,
                                kernel=spec.kernel,
                                adjacent_only=spec.adjacent_only)
    raise TypeError(f"unknown composition spec {type(spec).__name__}")
