"""Property tests of the composition kernel against per-vertex oracles.

The oracles below are the straightforward per-vertex constructions: one l x l
ego block per vertex, one ``sparse.block_array`` grid of diagonal
off-diagonal blocks, and one dense vertex slice per vertex for the ego
check. The vectorised library code must reproduce their matrices bit for
bit, their ego deviations to 1e-15, and their first reported failure.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from multinet import (
    EgoMarkov,
    LayerGraph,
    SuperAdjacency,
    compose_distance,
    compose_ego,
    compose_stationary,
    degree_table,
    ego_block_from_stationary,
    split_flat,
    verify_ego_consistency,
    verify_layer_consistency,
)
from multinet.errors import (
    Degenerate,
    DimensionMismatch,
    Infeasible,
    InfeasibleComposition,
    IsolatedInstance,
    StationaryCompositionError,
    Underdetermined,
    ZeroDegree,
    ZeroDiagonal,
)

PROPERTY = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# oracles


def oracle_ego_block(u, m, deg):
    for i in np.flatnonzero(deg == 0.0):
        inbound = m[i, :].copy()
        inbound[i] = 0.0
        if inbound.max(initial=0.0) > 0.0:
            raise ZeroDegree(u, int(i))
    gamma = np.where(deg > 0.0, deg / np.diag(m), 0.0)
    x = m * gamma[np.newaxis, :]
    np.fill_diagonal(x, deg)
    return x


def oracle_ego_check(vertex, m):
    """The earlier per-vertex EgoMarkov check; it lets NaN entries through."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("ego matrix must be square")
    if m.min() < 0.0 or m.max() > 1.0 + 1e-12:
        raise ValueError("ego matrix entries must lie in [0, 1]")
    if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError("ego matrix columns must sum to 1")
    diag = np.diag(m)
    if diag.min() <= 0.0:
        raise ZeroDiagonal(vertex, int(np.argmin(diag)))


def oracle_assemble(layers, blocks):
    n, l = layers[0].n, len(layers)
    grid = [[None] * l for _ in range(l)]
    for i in range(l):
        grid[i][i] = layers[i].matrix
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            vec = np.array([blocks[u][j, i] for u in range(n)])
            if np.any(vec != 0.0):
                grid[i][j] = sparse.diags_array(vec, format="csc")
    return SuperAdjacency(n=n, l=l, matrix=sparse.block_array(grid, format="csc"))


def oracle_compose_ego(layers, egos, require_undirected, force_symmetrize):
    deg = degree_table(layers)
    blocks = [oracle_ego_block(u, egos.m[u], deg[u]) for u in range(len(deg))]
    if require_undirected:
        asym = np.array([np.max(np.abs(x - x.T), initial=0.0) for x in blocks])
        if asym.max(initial=0.0) > 1e-10:
            if not force_symmetrize:
                raise InfeasibleComposition(SimpleNamespace(
                    asymmetry_per_vertex=asym, max_asymmetry=asym.max()))
            blocks = [(x + x.T) * 0.5 for x in blocks]
    return oracle_assemble(layers, blocks)


def oracle_compose_stationary(layers, pis):
    n, l = layers[0].n, len(layers)
    deg = degree_table(layers)
    blocks, failures = [], []
    for u in range(n):
        if np.any(np.isnan(pis[u])):
            blocks.append(np.diag(deg[u]))
            continue
        try:
            blocks.append(ego_block_from_stationary(u, pis[u], deg[u]))
        except (Infeasible, Degenerate, Underdetermined, ZeroDegree) as exc:
            failures.append((u, exc))
            blocks.append(None)
    if failures:
        raise StationaryCompositionError(failures)
    return oracle_assemble(layers, blocks)


def oracle_compose_distance(layers, dist, c, kernel, adjacent_only):
    n, l = layers[0].n, len(layers)
    present = degree_table(layers) > 0.0
    grid = [[None] * l for _ in range(l)]
    for i in range(l):
        grid[i][i] = layers[i].matrix
    for i in range(l):
        for j in range(i + 1, l):
            if adjacent_only and j != i + 1:
                continue
            if dist[i, j] <= 0.0:
                raise ValueError(
                    f"coupled layers ({i}, {j}) need a positive distance"
                )
            w = c / dist[i, j] if kernel == "reciprocal" else c
            vec = np.where(present[:, i] & present[:, j], w, 0.0)
            if np.any(vec != 0.0):
                grid[i][j] = grid[j][i] = sparse.diags_array(vec, format="csc")
    return SuperAdjacency(n=n, l=l, matrix=sparse.block_array(grid, format="csc"))


def oracle_ego_deviations(s, egos):
    outdeg = s.out_degrees()
    for flat in np.flatnonzero(outdeg == 0.0):
        raise IsolatedInstance(*split_flat(int(flat), s.n))
    devs = np.zeros(s.n)
    for u in range(s.n):
        inter = s.vertex_slice(u)
        np.fill_diagonal(inter, 0.0)
        inter_out = inter.sum(axis=1)
        total_out = outdeg[u + s.n * np.arange(s.l)]
        q = (total_out - inter_out) / total_out
        safe = np.where(inter_out > 0.0, inter_out, 1.0)
        m_slice = (inter / safe[:, np.newaxis]).T
        marginal = np.diag(q) + m_slice * (1.0 - q)[np.newaxis, :]
        devs[u] = float(np.max(np.abs(marginal - egos.m[u])))
    return devs


def oracle_layer_deviations(s, layers):
    """The earlier per-layer loop: each diagonal block's walk against the
    layer's, the worst entry taken from the earliest layer that has it."""
    def walk(block):
        d = np.asarray(block.sum(axis=1)).ravel()
        return block.multiply((1.0 / np.where(d > 0.0, d, 1.0))[:, None]).T

    devs, worst, worst_dev = np.zeros(s.l), (0, 0, 0), -1.0
    for i in range(s.l):
        diff = sparse.coo_array(walk(s.block(i, i)) - walk(layers[i].matrix))
        if diff.nnz:
            k = int(np.argmax(np.abs(diff.data)))
            devs[i] = float(np.abs(diff.data[k]))
            if devs[i] > worst_dev:
                worst_dev, worst = devs[i], (i, int(diff.row[k]), int(diff.col[k]))
    return devs, worst


def assert_bit_identical(a, b):
    assert (a.n, a.l) == (b.n, b.l)
    for field in ("indptr", "indices", "data"):
        x, y = getattr(a.matrix, field), getattr(b.matrix, field)
        assert x.shape == y.shape
        assert np.array_equal(x, y)
    assert a.matrix.data.tobytes() == b.matrix.data.tobytes()


def outcome(fn, *args):
    """("ok", result) or (exception type, exception) for an oracle comparison."""
    try:
        return "ok", fn(*args)
    except (ValueError, ZeroDegree, IsolatedInstance, InfeasibleComposition,
            StationaryCompositionError) as exc:
        return type(exc), exc


# ---------------------------------------------------------------------------
# random inputs


@st.composite
def stacks(draw, directed=None, absent_p=0.2, max_n=7, max_l=4):
    """Random layers over one vertex set: self-loops, absent vertices."""
    n = draw(st.integers(1, max_n))
    l = draw(st.integers(1, max_l))
    if directed is None:
        directed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for _ in range(l):
        a = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        if not directed:
            a = np.triu(a, 1)
            a = a + a.T
        loops = np.where(rng.random(n) < 0.3, rng.uniform(0.5, 2.0, n), 0.0)
        a[np.diag_indices(n)] = loops
        # present vertices without edges get a self-loop, so that only the
        # absent ones have zero degree
        lonely = a.sum(axis=1) == 0.0
        a[lonely, lonely] = 1.0
        absent = rng.random(n) < absent_p
        a[absent, :] = 0.0
        a[:, absent] = 0.0
        layers.append(LayerGraph.from_dense(a, directed=directed))
    return layers, rng


def random_egos(rng, deg, respect_absence):
    """Column-stochastic egos with positive diagonals; with respect_absence
    no vertex transitions into a layer it is absent from."""
    n, l = deg.shape
    egos = []
    for u in range(n):
        m = rng.dirichlet(np.full(l, 2.0), size=l).T + np.eye(l) * 0.5
        if respect_absence:
            for i in np.flatnonzero(deg[u] == 0.0):
                m[i, :] = 0.0
                m[i, i] = 1.0
        egos.append(m / m.sum(axis=0))
    return EgoMarkov(np.array(egos).reshape(n, l, l))


def random_pis(rng, deg):
    n, l = deg.shape
    pis = rng.dirichlet(np.full(l, 3.0), size=n)
    for u in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            pis[u] = np.nan
        elif kind == 1 and l == 2 and deg[u].min() > 0.0:
            # strictly inside the feasible interval between 1/2 and d1/(d1+d2)
            endpoint = deg[u, 0] / deg[u].sum()
            p1 = 0.5 + rng.uniform(0.05, 0.95) * (endpoint - 0.5)
            pis[u] = [p1, 1.0 - p1]
        elif kind == 2 and deg[u].min() > 0.0:
            pis[u] = deg[u] / deg[u].sum()
    return pis


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(stacks(), st.booleans(), st.booleans(), st.booleans())
def test_compose_ego_matches_per_vertex_oracle(drawn, respect_absence,
                                              require_undirected,
                                              force_symmetrize):
    layers, rng = drawn
    egos = random_egos(rng, degree_table(layers), respect_absence)
    args = (layers, egos, require_undirected, force_symmetrize)
    got_kind, got = outcome(compose_ego, *args)
    want_kind, want = outcome(oracle_compose_ego, *args)
    assert got_kind == want_kind
    if got_kind == "ok":
        assert_bit_identical(got, want)
    elif got_kind is ZeroDegree:
        assert (got.vertex, got.layer) == (want.vertex, want.layer)
    else:
        assert np.array_equal(got.report.asymmetry_per_vertex,
                              want.report.asymmetry_per_vertex)


@PROPERTY
@given(stacks(absent_p=0.0))
def test_compose_ego_passes_both_checks(drawn):
    layers, rng = drawn
    egos = random_egos(rng, degree_table(layers), respect_absence=True)
    s = compose_ego(layers, egos)
    assert verify_layer_consistency(s, layers).passed
    assert verify_ego_consistency(s, egos).passed


@PROPERTY
@given(stacks(absent_p=0.1))
def test_ego_deviations_match_vertex_slice_oracle(drawn):
    layers, rng = drawn
    egos = random_egos(rng, degree_table(layers), respect_absence=True)
    s = compose_ego(layers, egos)
    # disturb every stored weight so the deviations are not all zero
    mat = s.matrix.copy()
    mat.data *= rng.uniform(0.5, 2.0, mat.data.size)
    disturbed = SuperAdjacency(n=s.n, l=s.l, matrix=mat)
    got_kind, got = outcome(verify_ego_consistency, disturbed, egos)
    want_kind, want = outcome(oracle_ego_deviations, disturbed, egos)
    assert got_kind == want_kind
    if got_kind is IsolatedInstance:
        assert (got.vertex, got.layer) == (want.vertex, want.layer)
    else:
        assert np.abs(got.max_deviation_per_vertex - want).max(initial=0.0) <= 1e-15


@PROPERTY
@given(stacks(absent_p=0.1), st.booleans())
def test_layer_deviations_match_per_layer_oracle(drawn, tied):
    layers, rng = drawn
    if tied:  # equal layers disturbed alike: every layer has the worst entry
        layers = [layers[0]] * len(layers)
    egos = random_egos(rng, degree_table(layers), respect_absence=True)
    s = compose_ego(layers, egos)
    # the same factor for an entry in every diagonal block, ties within a
    # block from the few factors
    factor = rng.choice([0.5, 1.0, 2.0], (s.n, s.n))
    coo = s.matrix.tocoo()
    own = coo.row // s.n == coo.col // s.n
    coo.data[own] *= factor[coo.row[own] % s.n, coo.col[own] % s.n]
    disturbed = SuperAdjacency(n=s.n, l=s.l, matrix=coo)
    report = verify_layer_consistency(disturbed, layers)
    devs, worst = oracle_layer_deviations(disturbed, layers)
    assert np.array_equal(report.max_deviation_per_layer, devs)
    assert report.worst == worst
    if tied and devs.max() > 0.0:
        assert report.worst[0] == 0


@PROPERTY
@given(stacks(directed=False))
def test_compose_stationary_matches_per_vertex_oracle(drawn):
    layers, rng = drawn
    pis = random_pis(rng, degree_table(layers))
    got_kind, got = outcome(compose_stationary, layers, pis)
    want_kind, want = outcome(oracle_compose_stationary, layers, pis)
    assert got_kind == want_kind
    if got_kind == "ok":
        assert_bit_identical(got, want)
    else:
        assert [(v, type(e), str(e)) for v, e in got.failures] == \
            [(v, type(e), str(e)) for v, e in want.failures]


@PROPERTY
@given(stacks(), st.sampled_from(["reciprocal", "uniform"]), st.booleans(),
       st.floats(0.1, 10.0))
def test_compose_distance_matches_block_oracle(drawn, kernel, adjacent_only, c):
    layers, rng = drawn
    l = len(layers)
    dist = np.triu(rng.uniform(0.5, 3.0, (l, l)), 1)
    if rng.random() < 0.2:
        dist[rng.integers(0, l), rng.integers(0, l)] = 0.0
        dist = np.triu(dist, 1)
    dist = dist + dist.T
    args = (layers, dist, c, kernel, adjacent_only)
    got_kind, got = outcome(compose_distance, *args)
    want_kind, want = outcome(oracle_compose_distance, *args)
    assert got_kind == want_kind
    if got_kind == "ok":
        assert_bit_identical(got, want)
    else:
        assert str(got) == str(want)



def inject_ego_fault(rng, m, kind):
    """Break one column of one vertex's matrix in place."""
    n, l, _ = m.shape
    u, i, j = rng.integers(0, n), rng.integers(0, l), rng.integers(0, l)
    if kind == "negative":
        m[u, j, i] = -rng.choice([1e-300, 1e-12, 0.25])
    elif kind == "above one":
        m[u, j, i] = 1.0 + rng.choice([5e-13, 2e-12, 0.5])
    elif kind == "column sum":
        # around the 1e-12 tolerance, so that some columns pass
        m[u, :, i] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.choice([5e-13, 9e-13, 2e-12, 1e-3])
    else:  # zero diagonal: the stay mass moves to layer j
        stay, m[u, i, i] = m[u, i, i], 0.0
        m[u, j, i] += stay


def first_ego_fault(m):
    """(type, message) of the lowest vertex the per-vertex check rejects."""
    for u in range(len(m)):
        try:
            oracle_ego_check(u, m[u])
        except (DimensionMismatch, ValueError, ZeroDiagonal) as exc:
            return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["negative", "above one", "column sum", "zero diagonal"]),
                max_size=3))
def test_ego_stack_reports_like_per_vertex_check(n, l, seed, faults):
    rng = np.random.default_rng(seed)
    m = rng.dirichlet(np.full(l, 2.0), size=(n, l)).transpose(0, 2, 1) + np.eye(l)
    m /= m.sum(axis=1, keepdims=True)
    for kind in faults if n else ():
        inject_ego_fault(rng, m, kind)
    want = first_ego_fault(m)
    try:
        got = EgoMarkov(m)
    except (DimensionMismatch, ValueError, ZeroDiagonal) as exc:
        assert (type(exc), str(exc)) == want
    else:
        assert want is None
        assert got.m.tobytes() == m.tobytes()
