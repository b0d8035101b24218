"""Super-adjacency composition: all four regimes plus the consistency checks."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from multinet import (
    EgoMarkov,
    LayerGraph,
    SuperAdjacency,
    check_undirected_feasibility,
    compose_distance,
    compose_ego,
    compose_multiplex,
    compose_stationary,
    degree_table,
    ego_block,
    ego_block_from_stationary,
    urw_transition,
    verify_ego_consistency,
    verify_layer_consistency,
)
from multinet.errors import (
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

from multinet.graph import _canonical

from conftest import identity_egos, random_ego, random_egos, random_graph


def interactions(rng, n, l, directed=False, **kw):
    return [random_graph(rng, n, directed=directed, **kw)
            for _ in range(l)]


def path_layer(n, edges):
    return LayerGraph.from_edges(n, edges, directed=False)


# ---------------------------------------------------------------------------
# multiplex


def test_multiplex_single_layer_is_identity(rng):
    lay = interactions(rng, 5, 1)[0]
    out = compose_multiplex([lay])
    assert np.array_equal(out.toarray(), lay.toarray())


def test_multiplex_disjoint_edges_form_path():
    a = path_layer(3, [(0, 1, 1.0)])
    b = path_layer(3, [(1, 2, 1.0)])
    out = compose_multiplex([a, b]).toarray()
    assert out[0, 1] == 1.0 and out[1, 2] == 1.0 and out[0, 2] == 0.0


def test_multiplex_doubling_preserves_walk(rng):
    lay = interactions(rng, 6, 1)[0]
    out = compose_multiplex([lay, lay])
    assert np.array_equal(out.toarray(), 2.0 * lay.toarray())
    m0 = urw_transition(lay).toarray()
    m1 = urw_transition(out).toarray()
    assert np.abs(m0 - m1).max() <= 1e-15


def test_multiplex_rejects_mismatched_sizes(rng):
    with pytest.raises(DimensionMismatch):
        compose_multiplex(interactions(rng, 4, 1) + interactions(rng, 5, 1))


# ---------------------------------------------------------------------------
# ego blocks


def test_ego_block_paper_worked_value():
    m = np.array([[0.6, 0.2, 0.3],
                  [0.1, 0.5, 0.3],
                  [0.3, 0.3, 0.4]])
    block = ego_block(0, m, np.array([3.0, 2.0, 1.0]))
    assert block[1, 0] == 0.5


def test_ego_block_identity_has_no_inter_layer_edges():
    block = ego_block(0, np.eye(3), np.array([2.0, 1.0, 4.0]))
    assert np.array_equal(block, np.diag([2.0, 1.0, 4.0]))


def test_ego_block_two_layer_example_with_marginal_oracle():
    m = np.array([[0.5, 0.25], [0.5, 0.75]])
    block = ego_block(0, m, np.array([2.0, 3.0]))
    assert np.array_equal(block, [[2.0, 1.0], [2.0, 3.0]])
    # recompute the walk marginals from X: column i normalized is m's column i
    recovered = block / block.sum(axis=0, keepdims=True)
    assert np.abs(recovered - m).max() <= 1e-15


def test_ego_block_diagonal_equals_degrees(rng):
    for _ in range(20):
        l = int(rng.integers(2, 5))
        deg = rng.uniform(0.5, 4.0, l)
        block = ego_block(3, random_ego(rng, l), deg)
        assert np.array_equal(np.diag(block), deg)
        assert block.min() >= 0.0


def test_ego_block_zero_diagonal_rejected():
    bad = np.array([[0.0, 0.5], [1.0, 0.5]])
    with pytest.raises(ZeroDiagonal) as exc:
        EgoMarkov(np.stack([np.eye(2), np.eye(2), bad, bad]))
    assert (exc.value.vertex, exc.value.layer) == (2, 0)
    with pytest.raises(ZeroDiagonal) as exc:
        ego_block(5, bad, np.array([1.0, 1.0]))
    assert (exc.value.vertex, exc.value.layer) == (5, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ego_stack_rejects_non_finite_entries(value):
    m = np.tile(np.eye(2), (3, 1, 1))
    m[1, :, 0] = value
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
        EgoMarkov(m)
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
        ego_block(1, m[1], np.array([1.0, 1.0]))


def test_ego_stack_shape_checked_against_layers(rng):
    layers = interactions(rng, 4, 2)
    with pytest.raises(DimensionMismatch, match=r"one ego matrix per vertex \(4\)"):
        compose_ego(layers, identity_egos(3, 2))
    with pytest.raises(DimensionMismatch, match="ego of vertex 0 is 3x3, expected 2x2"):
        compose_ego(layers, identity_egos(4, 3))
    s = compose_ego(layers, identity_egos(4, 2))
    with pytest.raises(DimensionMismatch, match="ego of vertex 0 is 1x1, expected 2x2"):
        verify_ego_consistency(s, identity_egos(4, 1))
    with pytest.raises(DimensionMismatch, match=r"one ego matrix per vertex \(4\)"):
        check_undirected_feasibility(identity_egos(5, 2), degree_table(layers))
    with pytest.raises(DimensionMismatch, match="ego matrix must be square"):
        EgoMarkov(np.eye(2))


def test_ego_block_zero_degree_with_inbound_transition():
    m = np.array([[0.5, 0.25], [0.5, 0.75]])
    with pytest.raises(ZeroDegree) as exc:
        ego_block(4, m, np.array([0.0, 3.0]))
    assert exc.value.layer == 0


def test_ego_block_absent_layer_without_transitions_is_fine():
    block = ego_block(0, np.eye(2), np.array([0.0, 3.0]))
    assert np.array_equal(block, np.diag([0.0, 3.0]))


# ---------------------------------------------------------------------------
# ego composition and verification


def test_compose_ego_identity_egos_block_diagonal(rng):
    layers = interactions(rng, 5, 3)
    egos = identity_egos(5, 3)
    s = compose_ego(layers, egos)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert (s.block(i, i) != layers[i].matrix).nnz == 0
            else:
                assert s.block(i, j).nnz == 0
    report = verify_ego_consistency(s, egos)
    assert report.passed


def test_compose_ego_round_trip_random(rng):
    for _ in range(15):
        n = int(rng.integers(3, 9))
        l = int(rng.integers(2, 5))
        directed = bool(rng.integers(0, 2))
        layers = interactions(rng, n, l, directed=directed, self_loop_p=0.3)
        egos = random_egos(rng, n, l)
        s = compose_ego(layers, egos)
        assert verify_layer_consistency(s, layers, tol=1e-10).passed
        assert verify_ego_consistency(s, egos, tol=1e-10).passed


def test_compose_ego_deterministic_bit_for_bit(rng):
    layers = interactions(rng, 6, 3)
    egos = random_egos(rng, 6, 3)
    s1 = compose_ego(layers, egos)
    s2 = compose_ego(layers, egos)
    assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)


def test_compose_ego_toy_alice_entry():
    # four people, three layers; alice's phone degree is 3 and her quoted
    # phone->email probability 0.1 against stay-probability 0.6 gives the
    # inter-layer weight 1/2
    n = 4
    phone = path_layer(n, [(0, 1, 2.0), (0, 2, 1.0), (1, 3, 1.0)])
    email = path_layer(n, [(0, 1, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    fb = path_layer(n, [(0, 2, 2.0), (1, 2, 1.0), (0, 1, 1.0), (1, 3, 1.0)])
    alice = np.array([[0.6, 0.2, 0.3],
                      [0.1, 0.5, 0.3],
                      [0.3, 0.3, 0.4]])
    others = [random_ego(np.random.default_rng(100 + u), 3) for u in (1, 2, 3)]
    egos = EgoMarkov(np.array([alice] + others))
    s = compose_ego([phone, email, fb], egos)
    assert s.matrix[0, n] == 0.5
    assert verify_ego_consistency(s, egos).passed


def test_verify_layer_detects_diagonal_perturbation(rng):
    layers = interactions(rng, 6, 2)
    egos = random_egos(rng, 6, 2)
    s = compose_ego(layers, egos)
    mat = s.matrix.tolil()
    # bump one intra-layer edge of layer 1
    block = layers[1].matrix.tocoo()
    u, v = int(block.row[0]), int(block.col[0])
    mat[6 + u, 6 + v] += 1e-3
    perturbed = SuperAdjacency(n=6, l=2, matrix=mat)
    report = verify_layer_consistency(perturbed, layers)
    assert not report.passed
    assert report.worst[0] == 1
    assert report.max_deviation_per_layer[0] <= 1e-12


def test_verify_layer_passes_block_diagonal(rng):
    layers = interactions(rng, 5, 2)
    egos = identity_egos(5, 2)
    s = compose_ego(layers, egos)
    report = verify_layer_consistency(s, layers)
    assert report.passed and report.max_deviation_per_layer.max() <= 1e-12


def test_verify_ego_detects_doubled_inter_layer_weight(rng):
    n = 5
    layers = interactions(rng, n, 3)
    egos = random_egos(rng, n, 3)
    s = compose_ego(layers, egos)
    target = 2
    mat = s.matrix.tolil()
    flat_a, flat_b = target, n + target
    assert mat[flat_a, flat_b] > 0.0
    mat[flat_a, flat_b] *= 2.0
    report = verify_ego_consistency(SuperAdjacency(n=n, l=3, matrix=mat), egos)
    assert not report.passed
    assert report.worst_vertex == target
    others = np.delete(report.max_deviation_per_vertex, target)
    assert others.max() <= 1e-12


def test_verify_layer_handles_absent_vertices():
    # vertex 2 is absent from layer 0: the projection and the reference are
    # both undefined there, and the diagnostic must stay raise-free
    a = path_layer(3, [(0, 1, 1.0)])
    b = path_layer(3, [(0, 1, 1.0), (1, 2, 1.0)])
    egos = identity_egos(3, 2)
    s = compose_ego([a, b], egos)
    report = verify_layer_consistency(s, [a, b])
    assert report.passed


def test_verify_ego_isolated_instance(rng):
    layers = interactions(rng, 4, 2)
    egos = identity_egos(4, 2)
    s = compose_ego(layers, egos)
    mat = s.matrix.tolil()
    # strip vertex 0 of all layer-1 weight
    for v in range(8):
        mat[4, v] = 0.0
        mat[v, 4] = 0.0
    with pytest.raises(IsolatedInstance) as exc:
        verify_ego_consistency(SuperAdjacency(n=4, l=2, matrix=mat), egos)
    assert (exc.value.vertex, exc.value.layer) == (0, 1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_super_adjacency_rejects_non_finite_weights(value):
    mat = sparse.coo_array(([1.0, value], ([0, 3], [1, 1])), shape=(4, 4))
    with pytest.raises(ValueError, match=r"non-finite weight at 0-based flat \(3, 1\)"):
        SuperAdjacency(n=2, l=2, matrix=mat)


@pytest.mark.parametrize("coupling", [np.nan, np.inf])
def test_compose_distance_rejects_non_finite_coupling(rng, coupling):
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite weight"):
        compose_distance(interactions(rng, 3, 2), dist, coupling)


def test_super_adjacency_rejects_cross_vertex_coupling(rng):
    layers = interactions(rng, 3, 2)
    egos = identity_egos(3, 2)
    s = compose_ego(layers, egos)
    mat = s.matrix.tolil()
    mat[0, 3 + 1] = 1.0  # (vertex 0, layer 0) -> (vertex 1, layer 1)
    with pytest.raises(ValueError):
        SuperAdjacency(n=3, l=2, matrix=mat)


def block_check_oracle(n, l, matrix):
    """The check SuperAdjacency ran on an expanded COO before it read one
    layer's columns at a time, kept as an oracle: its message, or None."""
    mat = _canonical(matrix, shape=(n * l, n * l))
    coo = mat.tocoo(copy=False)
    bad = np.flatnonzero(~np.isfinite(coo.data))
    if bad.size:
        return f"non-finite weight at 0-based flat ({coo.row[bad[0]]}, {coo.col[bad[0]]})"
    if mat.data.size and mat.data.min() < 0.0:
        return "super-adjacency weights must be non-negative"
    off = (coo.row // n) != (coo.col // n)
    if not np.all(coo.row[off] % n == coo.col[off] % n):
        return ("off-diagonal blocks must be diagonal: inter-layer edges may "
                "only join instances of the same vertex")
    return None


def block_check_message(n, l, matrix):
    try:
        SuperAdjacency(n=n, l=l, matrix=matrix)
    except ValueError as exc:
        return str(exc)
    return None


def coupled_stack(rng, n, l):
    """A valid composition: random diagonal blocks plus same-vertex couplings."""
    blocks = [[sparse.random_array((n, n), density=0.4, rng=rng) if i == j else
               sparse.diags_array(rng.uniform(0.5, 1.5, n) * (rng.random(n) < 0.7))
               for j in range(l)] for i in range(l)]
    return sparse.block_array(blocks, format="lil")


@pytest.mark.parametrize("l", [1, 2, 5])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_block_check_names_a_cross_vertex_entry_in_any_layer_as_the_oracle(rng, l, where):
    n = 4
    j = {"first": 0, "middle": l // 2, "last": l - 1}[where]
    mat = coupled_stack(rng, n, l)
    assert block_check_message(n, l, mat) is None and block_check_oracle(n, l, mat) is None
    i = (j + 1) % l  # another layer, or the same one when l = 1
    mat[i * n + 1, j * n + 2] = 0.75  # (vertex 1, layer i) -> (vertex 2, layer j)
    expected = block_check_oracle(n, l, mat)
    assert (expected is None) == (l == 1)  # one layer has no off-diagonal block
    assert block_check_message(n, l, mat) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("l", [1, 3])
def test_block_check_reports_the_first_bad_weight_as_the_oracle(rng, value, l):
    n = 4
    mat = coupled_stack(rng, n, l)
    mat[n * l - 1, n * l - 2] = value
    mat[1, n * l - 1] = value  # earlier in CSC order: the one named
    if l > 1:
        mat[0, n + 3] = 1.0  # a cross-vertex entry too, reported only after the weights
    expected = block_check_oracle(n, l, mat)
    assert expected is not None and block_check_message(n, l, mat) == expected


def test_block_check_agrees_with_the_oracle_on_random_stacks(rng):
    for _ in range(200):
        n, l = (int(k) for k in rng.integers(1, 6, 2))
        mat = coupled_stack(rng, n, l)
        for _ in range(int(rng.integers(0, 3))):  # entries anywhere, a few of them bad
            r, c = rng.integers(0, n * l, 2)
            mat[r, c] = rng.choice([1.0, 2.5, np.nan, -1.0], p=[0.7, 0.2, 0.05, 0.05])
        assert block_check_message(n, l, mat) == block_check_oracle(n, l, mat)


def ego_deviation_oracle(s, egos):
    """verify_ego_consistency's deviations as computed before it read one
    column block at a time, from the expanded COO, kept as an oracle."""
    n, l = s.n, s.l
    outdeg = s.out_degrees()
    coo = s.matrix.tocoo(copy=False)
    off = (coo.row // n) != (coo.col // n)
    inter = np.zeros((n, l, l))
    inter[coo.row[off] % n, coo.row[off] // n, coo.col[off] // n] = coo.data[off]
    total_out = outdeg.reshape(l, n).T
    marginal = (inter / total_out[:, :, np.newaxis]).transpose(0, 2, 1)
    idx = np.arange(l)
    marginal[:, idx, idx] = (total_out - inter.sum(axis=2)) / total_out
    return np.abs(marginal - egos.m).max(axis=(1, 2), initial=0.0)


@pytest.mark.parametrize("l", [1, 2, 4])
def test_verify_ego_deviations_are_bit_identical_to_the_oracle(rng, l):
    n = 7
    egos = random_egos(rng, n, l)
    s = compose_ego(interactions(rng, n, l, directed=True), egos)
    mat = s.matrix.tolil()
    mat[n - 1, (l - 1) * n + n - 1] *= 1.5  # one deviating vertex, in the last layer's columns
    disturbed = SuperAdjacency(n=n, l=l, matrix=mat)
    other = random_egos(rng, n, l)  # against egos it was not built from: large deviations
    for target in (egos, other):
        report = verify_ego_consistency(disturbed, target)
        expected = ego_deviation_oracle(disturbed, target)
        assert np.array_equal(report.max_deviation_per_vertex, expected)
        assert report.worst_vertex == int(np.argmax(expected))


# ---------------------------------------------------------------------------
# undirected feasibility


def test_feasibility_from_symmetric_block_round_trip(rng):
    # build a symmetric X, read off its walk, and feed the walk back in
    l = 3
    x = np.array([[2.0, 0.5, 1.0],
                  [0.5, 3.0, 0.7],
                  [1.0, 0.7, 1.5]])
    m = x / x.sum(axis=0, keepdims=True)
    deg = np.diag(x)
    block = ego_block(0, m, deg)
    assert np.abs(block - x).max() <= 1e-12
    report = check_undirected_feasibility(EgoMarkov(m[np.newaxis]), deg[np.newaxis, :])
    assert report.feasible


def test_feasibility_alice_toy_is_asymmetric():
    m = np.array([[0.6, 0.2, 0.3],
                  [0.1, 0.5, 0.3],
                  [0.3, 0.3, 0.4]])
    report = check_undirected_feasibility(
        EgoMarkov(m[np.newaxis]), np.array([[3.0, 2.0, 1.0]])
    )
    assert not report.feasible
    assert report.constraint_count == 3 * 4 // 2 - 1
    assert report.unknown_count == 3
    assert report.excess_constraints == 2


def test_feasibility_single_layer_trivial():
    report = check_undirected_feasibility(
        identity_egos(1, 1), np.array([[2.0]])
    )
    assert report.feasible
    assert report.unknown_count == 0


def test_compose_ego_require_undirected_aborts(rng):
    layers = interactions(rng, 4, 2)
    egos = random_egos(rng, 4, 2)
    with pytest.raises(InfeasibleComposition):
        compose_ego(layers, egos, require_undirected=True)
    s = compose_ego(layers, egos, require_undirected=True, force_symmetrize=True)
    assert (s.matrix != s.matrix.T).nnz == 0


# ---------------------------------------------------------------------------
# stationary composition


def brute_stationary(x):
    """Eigen-solve the walk on an ego system given as a column-oriented block."""
    m = x / x.sum(axis=0, keepdims=True)
    vals, vecs = np.linalg.eig(m)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, k])
    return pi / pi.sum()


def test_stationary_block_closed_form_example():
    block = ego_block_from_stationary(0, np.array([0.6, 0.4]), np.array([3.0, 1.0]))
    assert abs(block[0, 1] - 3.0) <= 1e-12
    rows = block.sum(axis=1)
    assert np.abs(rows / rows.sum() - [0.6, 0.4]).max() <= 1e-12
    assert np.abs(brute_stationary(block) - [0.6, 0.4]).max() <= 1e-10


def test_stationary_block_endpoint_decouples():
    d1, d2 = 1.0, 2.0
    pi1 = d1 / (d1 + d2)
    block = ego_block_from_stationary(0, np.array([pi1, 1 - pi1]),
                                      np.array([d1, d2]))
    assert block[0, 1] == 0.0


def test_stationary_block_infeasible_interval():
    with pytest.raises(Infeasible) as exc:
        ego_block_from_stationary(0, np.array([0.7, 0.3]), np.array([1.0, 1.0]))
    assert exc.value.interval == (0.5, 0.5)


def test_stationary_block_degenerate_and_underdetermined():
    with pytest.raises(Degenerate):
        ego_block_from_stationary(0, np.array([0.5, 0.5]), np.array([2.0, 1.0]))
    with pytest.raises(Underdetermined):
        ego_block_from_stationary(0, np.array([0.5, 0.5]), np.array([2.0, 2.0]))


def test_stationary_block_l3_properties(rng):
    for _ in range(40):
        l = int(rng.integers(3, 5))
        deg = rng.uniform(0.5, 5.0, l)
        while True:
            pi = rng.dirichlet(np.full(l, 4.0))
            if pi.max() < 0.495:
                break
        x = ego_block_from_stationary(0, pi, deg)
        assert np.abs(x - x.T).max() == 0.0
        assert x.min() >= 0.0
        assert np.array_equal(np.diag(x), deg)
        rows = x.sum(axis=1)
        assert np.abs(rows / rows.sum() - pi).max() <= 1e-9


def test_stationary_block_l3_zero_residual_layer_decouples():
    # layer 2's stationary mass is already carried by its own degree, so the
    # smallest feasible scale gives it no inter-layer edges at all
    deg = np.array([1.0, 1.0, 6.0])
    pi = np.array([0.25, 0.25, 0.5])
    x = ego_block_from_stationary(0, pi, deg)
    rows = x.sum(axis=1)
    assert np.abs(rows / rows.sum() - pi).max() <= 1e-9
    assert x[0, 2] == 0.0 and x[1, 2] == 0.0
    assert abs(x[0, 1] - 2.0) <= 1e-12


def test_stationary_block_l3_boundary_star():
    # the realizability bound binds (2 max r = sum r): the fit is a star
    deg = np.array([1.0, 1.0, 1.0])
    pi = np.array([3.0, 2.0, 2.0]) / 7.0
    x = ego_block_from_stationary(0, pi, deg)
    rows = x.sum(axis=1)
    assert np.abs(rows / rows.sum() - pi).max() <= 1e-9
    assert x[1, 2] == 0.0  # spokes only touch the hub layer
    assert abs(x[0, 1] - 1.0) <= 1e-9 and abs(x[0, 2] - 1.0) <= 1e-9


def test_stationary_block_l3_majority_layer_infeasible():
    deg = np.array([1.0, 1.0, 1.0])
    pi = np.array([0.1, 0.1, 0.8])
    with pytest.raises(Infeasible):
        ego_block_from_stationary(0, pi, deg)


def test_compose_stationary_degree_proportional_is_block_diagonal(rng):
    layers = interactions(rng, 5, 2)
    deg = degree_table(layers)
    pis = deg / deg.sum(axis=1, keepdims=True)
    s = compose_stationary(layers, pis)
    assert s.block(0, 1).nnz == 0 and s.block(1, 0).nnz == 0


def test_compose_stationary_slice_matches_pi(rng):
    for _ in range(5):
        n = int(rng.integers(3, 8))
        layers = interactions(rng, n, 2)
        deg = degree_table(layers)
        endpoint = deg[:, 0] / deg.sum(axis=1)
        t = rng.uniform(0.05, 0.95, n)
        pi1 = 0.5 + (endpoint - 0.5) * t
        pis = np.column_stack([pi1, 1.0 - pi1])
        s = compose_stationary(layers, pis)
        for u in range(n):
            ego_system = s.vertex_slice(u)
            np.fill_diagonal(ego_system, deg[u])
            assert np.abs(brute_stationary(ego_system) - pis[u]).max() <= 1e-10


def test_compose_stationary_nan_rows_uncoupled(rng):
    layers = interactions(rng, 4, 2)
    pis = np.full((4, 2), np.nan)
    s = compose_stationary(layers, pis)
    assert s.block(0, 1).nnz == 0


@pytest.mark.parametrize("p", [1.0, 1.0 - 5e-13, 1.0 + 5e-13])
def test_compose_stationary_single_layer_is_uncoupled_within_the_pi_tolerance(rng, p):
    # one layer has nothing to couple: any pi the check accepts composes
    layers = interactions(rng, 4, 1)
    s = compose_stationary(layers, np.full((4, 1), p))
    assert (s.matrix != layers[0].matrix).nnz == 0


@pytest.mark.parametrize("pi, deg", [
    ([0.6, 0.2, 0.2], [3.0, 1.0, 1.0]),  # the degree share: uncoupled
    ([5.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0], [3.0, 1.0, 1.0]),  # residuals (0, 0.2, 0.2)
    ([0.3, 0.3, 0.4], [1.0, 2.0, 3.0]),  # residuals (0, 2, 2)
])
def test_stationary_block_is_the_same_whichever_way_pi_sums_round(pi, deg):
    # every row is on the boundary 2 max(r) = sum(r), where the bounds on the
    # scale meet; the pi-sum check accepts both roundings, which must not part
    # them, and the blocks may differ by a small multiple of the 1e-12 between
    low, high = (ego_block_from_stationary(0, np.array(pi) * p, deg)
                 for p in (1.0 - 5e-13, 1.0 + 5e-13))
    assert np.abs(high - low).max() <= 1e-11 * sum(deg)


def test_compose_stationary_partly_nan_row_is_invalid(rng):
    # only an all-NaN row means "uncoupled"; a partly-NaN one is a bad pi
    layers = interactions(rng, 4, 2)
    pis = np.full((4, 2), np.nan)
    pis[2] = [np.nan, 1.0]
    with pytest.raises(ValueError, match="pi must be strictly positive and sum to 1"):
        compose_stationary(layers, pis)


def test_compose_stationary_aggregates_failures(rng):
    layers = interactions(rng, 4, 2)
    deg = degree_table(layers)
    pis = deg / deg.sum(axis=1, keepdims=True)
    pis[1] = [0.999, 0.001]  # far outside any feasible interval
    pis[3] = [0.001, 0.999]
    with pytest.raises(StationaryCompositionError) as exc:
        compose_stationary(layers, pis)
    assert [v for v, _ in exc.value.failures] == [1, 3]


def test_compose_stationary_rejects_directed_layers(rng):
    layers = interactions(rng, 4, 2, directed=True)
    with pytest.raises(ValueError):
        compose_stationary(layers, np.full((4, 2), 0.5))


# ---------------------------------------------------------------------------
# distance composition


def temporal_layers(rng, n, l):
    return interactions(rng, n, l)


def test_distance_adjacent_unit_spacing(rng):
    layers = temporal_layers(rng, 4, 3)
    dist = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    s = compose_distance(layers, dist, 0.5, adjacent_only=True)
    for i, j in ((0, 1), (1, 2)):
        vals = s.block(i, j).diagonal()
        assert np.all(vals == 0.5)
    assert s.block(0, 2).nnz == 0


def test_distance_coupling_five(rng):
    layers = temporal_layers(rng, 4, 3)
    dist = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    s = compose_distance(layers, dist, 5.0, adjacent_only=True)
    assert np.all(s.block(0, 1).diagonal() == 5.0)


def test_distance_reciprocal_all_pairs(rng):
    layers = temporal_layers(rng, 4, 3)
    dist = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    s = compose_distance(layers, dist, 1.0, adjacent_only=False)
    assert np.all(s.block(0, 2).diagonal() == 0.5)


def test_distance_scaling_coupling_scales_weights(rng):
    layers = temporal_layers(rng, 5, 3)
    dist = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    s1 = compose_distance(layers, dist, 1.0)
    s3 = compose_distance(layers, dist, 3.0)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.array_equal(s3.block(i, j).diagonal(),
                                      3.0 * s1.block(i, j).diagonal())


def test_distance_respects_presence(rng):
    a = path_layer(3, [(0, 1, 1.0)])          # vertex 2 absent
    b = path_layer(3, [(0, 1, 1.0), (1, 2, 1.0)])
    s = compose_distance([a, b], np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    vals = s.block(0, 1).diagonal()
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 0.0


def test_distance_uniform_kernel(rng):
    layers = temporal_layers(rng, 3, 3)
    dist = 2.0 * np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    s = compose_distance(layers, dist, 0.7, kernel="uniform", adjacent_only=False)
    assert np.all(s.block(0, 2).diagonal() == 0.7)


def test_distance_rejects_bad_inputs(rng):
    layers = temporal_layers(rng, 3, 2)
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(AsymmetricDistance):
        compose_distance(layers, np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)
    with pytest.raises(NonPositiveCoupling):
        compose_distance(layers, good, 0.0)


def test_compose_ego_traced_peak():
    """An n = 2,000, l = 10 ego composition (260,000 entries) allocates at most
    18 MiB at its peak. Built once, in int32, it takes about 14 MiB; through
    an int64 COO and a COO copy of the canonical matrix it took 29.2 MiB."""
    rng = np.random.default_rng(2016)
    n, l = 2000, 10
    rows = np.repeat(np.arange(n), 4)
    layers = []
    for _ in range(l):
        cols = rng.integers(0, n - 1, rows.size)
        cols += cols >= rows  # no self-loops
        adjacency = sparse.coo_array((rng.uniform(0.5, 1.5, rows.size), (rows, cols)),
                                     shape=(n, n))
        layers.append(LayerGraph(n, adjacency, directed=True))
    egos = random_egos(rng, n, l)
    tracemalloc.start()
    try:
        s = compose_ego(layers, egos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.matrix.nnz > 250_000
    assert peak <= 18 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
