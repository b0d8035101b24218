"""Property tests of the composition kernel against per-vertex oracles.

The oracles below are the straightforward per-vertex constructions: one l x l
ego block per vertex, one ``sparse.block_array`` grid of diagonal
off-diagonal blocks, and one dense vertex slice per vertex for the ego
check. The vectorised library code must reproduce their matrices bit for
bit, their ego deviations to 1e-15, and their first reported failure. The
stationary regime's oracle is the earlier per-vertex fit kept in
``stationary_oracle``; its fixed point matches the batched rank-one fit to
``FIT_TOL`` relative to the residual mass, and its l <= 2 blocks bit for bit.
"""

import contextlib
from types import SimpleNamespace
from unittest import mock

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
    split_flat,
    verify_ego_consistency,
    verify_layer_consistency,
)
from multinet import compose as compose_module
from multinet import graph as graph_module
from multinet.compose import _assemble, _block_couplings, _stationary_blocks
from multinet.graph import _canonical
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

import stationary_oracle
from stationary_oracle import FIT_TOL

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
    if require_undirected or force_symmetrize:
        asym = np.array([np.max(np.abs(x - x.T), initial=0.0) for x in blocks])
        if asym.max(initial=0.0) > 1e-10:
            if not force_symmetrize:
                raise InfeasibleComposition(SimpleNamespace(
                    asymmetry_per_vertex=asym, max_asymmetry=asym.max()))
            blocks = [(x + x.T) * 0.5 for x in blocks]
    return oracle_assemble(layers, blocks)


# The oracle's fixed point meets FIT_TOL within about 6,000 steps where the
# star-boundary slack is 5e-3 of the residual mass or more; much closer to the
# boundary it mostly runs all its 200,000 steps (3 to 4 s) and falls back to
# pairing. Capped at 20,000 steps, such a fallback takes about 0.3 s; a vertex
# that reaches the cap is checked like a paired one.
ORACLE_FIT_ITER = 20_000


def oracle_compose_stationary(layers, pis):
    """The super-adjacency and the vertices whose fit fell back to pairing."""
    n, l = layers[0].n, len(layers)
    deg = degree_table(layers)
    blocks, failures, paired = [], [], set()
    for u in range(n):
        if np.all(np.isnan(pis[u])):
            blocks.append(np.diag(deg[u]))
            continue
        try:
            with mock.patch.object(stationary_oracle, "MAX_FIT_ITER", ORACLE_FIT_ITER), \
                    mock.patch.object(stationary_oracle, "_pairing_fit",
                                      wraps=stationary_oracle._pairing_fit) as pairing:
                blocks.append(stationary_oracle.ego_block_from_stationary(u, pis[u], deg[u]))
        except (Infeasible, Degenerate, Underdetermined, ZeroDegree) as exc:
            failures.append((u, exc))
            blocks.append(None)
        if pairing.called:
            paired.add(u)
    if failures:
        raise StationaryCompositionError(failures)
    return oracle_assemble(layers, blocks), paired


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


# kinds meant to compose on vertices present in every layer, and kinds that
# often fail
FEASIBLE_PI_KINDS = ("inside", "pulled to uniform", "degree share", "nan", "star",
                     "near star")
PI_KINDS = FEASIBLE_PI_KINDS + ("dirichlet", "half", "endpoint")


def random_pi(rng, d, kind):
    """One vertex's stationary distribution of the given kind; a kind that
    needs more layers or positive degrees falls back to a Dirichlet draw."""
    l = d.size
    pi = rng.dirichlet(np.full(l, 3.0))
    if kind == "nan":
        return np.full(l, np.nan)
    if kind == "pulled to uniform" and l != 2:
        return 0.5 * pi + 0.5 / l
    if kind == "half" and l >= 2:
        # one layer at exactly 1/2; with l = 2 that is pi = (1/2, 1/2)
        i = rng.integers(0, l)
        pi = np.insert(0.5 * rng.dirichlet(np.full(l - 1, 3.0)), i, 0.0)
        pi[i] = 0.5
        return pi
    if d.min() <= 0.0:
        return pi
    if kind == "degree share":
        return d / d.sum()
    if kind in ("inside", "pulled to uniform") and l == 2:
        # strictly inside the feasible interval between 1/2 and d1/(d1+d2)
        p1 = 0.5 + rng.uniform(0.05, 0.95) * (d[0] / d.sum() - 0.5)
        return np.array([p1, 1.0 - p1])
    if kind in ("star", "near star", "endpoint") and l == 2:
        # at the degree-share endpoint of the interval or a few rounding
        # steps inside it, across the snap of the coupling to 0; an endpoint
        # draw may also step outside
        p1 = endpoint = d[0] / d.sum()
        toward = rng.choice((0.5, 0.0, 1.0) if kind == "endpoint" else (0.5,))
        for _ in range(rng.choice([0, 1, 4, 16, 64])):
            p1 = np.nextafter(p1, toward)
        return np.array([p1, 1.0 - p1])
    if kind in ("star", "near star") and l >= 3:
        # minimum-volume residuals r on the realizability boundary
        # 2 max(r) = sum(r), or inside it by a relative slack below 1e-6;
        # pi = (r + d) / s puts the smallest feasible scale at s
        r = rng.uniform(0.1, 2.0, l) * (rng.random(l) < 0.8)
        hub = rng.integers(0, l)
        r[hub] = 0.0
        slack = 0.0 if kind == "star" else rng.choice([1e-13, 1e-10, rng.uniform(0.0, 2e-6)])
        r[hub] = r.sum() * (1.0 - slack)
        return (r + d) / (r.sum() + d.sum())
    return pi


@st.composite
def stationary_inputs(draw):
    """Undirected stacks of up to 8 layers, one drawn pi kind per vertex.
    Half the stacks have no absent vertices and only feasible kinds, so that
    they compose; of the others, tied stacks repeat layer 0, giving equal
    degrees."""
    faults = draw(st.booleans())
    layers, rng = draw(stacks(directed=False, absent_p=0.2 if faults else 0.0, max_n=12,
                              max_l=8))
    if faults and draw(st.booleans()):
        layers = [layers[0]] * len(layers)
    deg = degree_table(layers)
    kinds = draw(st.lists(st.sampled_from(PI_KINDS if faults else FEASIBLE_PI_KINDS),
                          min_size=len(deg), max_size=len(deg)))
    pis = np.array([random_pi(rng, d, kind) for d, kind in zip(deg, kinds)])
    return layers, pis.reshape(deg.shape)


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


def assert_fit_agrees(got, want, paired, layers, pis):
    """Couplings within FIT_TOL of the residual mass of the oracle's fixed
    point; where the oracle fell back to pairing, a symmetric non-negative
    block whose row sums are s pi. Everything else is bit-identical."""
    n, l = got.n, got.l
    flat = np.arange(n * l)
    coupling = (flat[:, None] % n == flat % n) & (flat[:, None] // n != flat // n)
    assert not (got.matrix - want.matrix).toarray()[~coupling].any()
    deg = degree_table(layers)
    off = ~np.eye(l, dtype=bool)
    for u in range(n):
        x, y = got.vertex_slice(u) * off, want.vertex_slice(u) * off
        if u in paired:
            assert np.array_equal(x, x.T) and x.min() >= 0.0
            rows = x.sum(axis=1) + deg[u]
            assert np.abs(rows - rows.sum() * pis[u]).max() <= FIT_TOL * rows.sum()
        else:
            assert np.abs(x - y).max() <= FIT_TOL * y.sum()


@PROPERTY
@given(stationary_inputs())
def test_compose_stationary_matches_per_vertex_oracle(drawn):
    layers, pis = drawn
    got_kind, got = outcome(compose_stationary, layers, pis)
    want_kind, want = outcome(oracle_compose_stationary, layers, pis)
    assert got_kind == want_kind
    if got_kind == "ok":
        want, paired = want
        if len(layers) <= 2:
            assert_bit_identical(got, want)
        else:
            assert_fit_agrees(got, want, paired, layers, pis)
    else:
        def report(failures):
            return [(v, type(e), str(e), getattr(e, "interval", None)) for v, e in failures]
        assert report(got.failures) == report(want.failures)


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


# ---------------------------------------------------------------------------
# the sort-free kernel against the COO build


def coo_assemble(layers, vertex, src, dst, weight):
    """The reference build: every layer entry and one coupling entry
    (vertex, src) -> (vertex, dst) per weight in one COO, made canonical."""
    n, l = layers[0].n, len(layers)
    coos = [lay.matrix.tocoo() for lay in layers]
    rows = [coo.row.astype(np.int64) + k * n for k, coo in enumerate(coos)] + [src * n + vertex]
    cols = [coo.col.astype(np.int64) + k * n for k, coo in enumerate(coos)] + [dst * n + vertex]
    data = [coo.data for coo in coos] + [weight]
    return _canonical(sparse.coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n * l,) * 2))


@st.composite
def kernel_inputs(draw):
    """Layers, some empty, with isolated vertices; one coupling's flat arrays,
    and a call that builds the super-adjacency of the same inputs through the
    library."""
    n, l = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ego", "stationary", "distance adjacent", "distance all"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for _ in range(l):
        density = rng.choice([0.0, 0.2, 0.6])
        a = np.where(rng.random((n, n)) < density, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        directed = kind != "stationary" and rng.random() < 0.5
        layers.append(LayerGraph.from_dense(a if directed else np.triu(a) + np.triu(a, 1).T,
                                            directed=directed))
    deg = degree_table(layers)
    if kind.startswith("distance"):
        src, dst = (np.arange(l - 1), np.arange(1, l)) if kind.endswith("adjacent") \
            else np.triu_indices(l, 1)
        dist = np.zeros((l, l))
        dist[src, dst] = dist[dst, src] = rng.uniform(0.5, 2.0, len(src))
        w = 1.0 / dist[src, dst]  # the reciprocal kernel at coupling 1
        src, dst, w = np.r_[src, dst], np.r_[dst, src], np.r_[w, w]
        vertex, pair = np.nonzero((deg[:, src] > 0.0) & (deg[:, dst] > 0.0))
        arrays = vertex, src[pair], dst[pair], w[pair]
        return layers, arrays, lambda: compose_distance(layers, dist, 1.0, adjacent_only=(
            kind.endswith("adjacent")))
    if kind == "ego":
        x = np.where(rng.random((n, l, l)) < 0.4, 0.0, rng.uniform(0.1, 3.0, (n, l, l)))
    else:  # the blocks of stationary distributions, some rows all NaN (uncoupled)
        pis = rng.dirichlet(np.ones(l), n)
        pis[rng.random(n) < 0.3] = np.nan
        x, _ = _stationary_blocks(pis, deg)
    vertex, dst, src = np.nonzero((x != 0.0) & ~np.eye(l, dtype=bool))
    return layers, (vertex, src, dst, x[vertex, dst, src]), lambda: _assemble(
        layers, _block_couplings(x))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.booleans())
def test_sort_free_kernel_matches_the_coo_build(drawn, wide):
    # the same canonical arrays and index dtype, int32 or (patched) int64
    layers, arrays, build = drawn
    with mock.patch.object(graph_module, "_index_dtype", lambda *extents: np.int64) if wide \
            else contextlib.nullcontext(), \
            mock.patch.object(compose_module, "_index_dtype", graph_module._index_dtype):
        got, want = build().matrix, coo_assemble(layers, *arrays)
    assert got.indices.dtype == got.indptr.dtype == want.indices.dtype == want.indptr.dtype
    assert got.indices.dtype == (np.int64 if wide else np.int32)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
