"""Random-walk machinery: transitions, stationary vectors, detailed balance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from multinet import (
    LayerGraph,
    StationaryDistribution,
    components,
    is_detailed_balanced,
    reconstruct_adjacency,
    stationary,
    symmetrize_from_markov,
    urw_transition,
)
from multinet.errors import (
    DanglingVertex,
    NoConvergence,
    NonPositiveScale,
    NotDetailedBalanced,
)
from multinet.graph import _canonical, _index_dtype, _is_symmetric, component_matrix

from conftest import random_graph


def test_urw_two_cycle():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    m = urw_transition(g)
    assert np.array_equal(m.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_urw_self_loop_normalizes_to_one():
    g = LayerGraph.from_edges(1, [(0, 0, 3.0)], directed=True)
    assert np.array_equal(urw_transition(g).toarray(), [[1.0]])


def test_urw_path_column_of_middle_vertex():
    g = LayerGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=False)
    m = urw_transition(g).toarray()
    assert np.array_equal(m[:, 1], [0.5, 0.0, 0.5])


def test_urw_rejects_dangling_vertex():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=True)
    with pytest.raises(DanglingVertex) as exc:
        urw_transition(g)
    assert exc.value.vertex == 1


def test_urw_columns_stochastic_random(rng):
    for directed in (False, True):
        g = random_graph(rng, 9, directed=directed, self_loop_p=0.3)
        cols = urw_transition(g).toarray().sum(axis=0)
        assert np.abs(cols - 1.0).max() <= 1e-12


def test_reconstruct_identity_scaling():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    m = urw_transition(g)
    back = reconstruct_adjacency(m, np.ones(2))
    assert np.array_equal(back.toarray(), g.toarray())


def test_reconstruct_scales_each_vertex():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    m = urw_transition(g)
    back = reconstruct_adjacency(m, np.array([2.0, 5.0]))
    assert back.toarray()[0, 1] == 2.0
    assert back.toarray()[1, 0] == 5.0
    again = urw_transition(back)
    assert np.abs(again.toarray() - m.toarray()).max() <= 1e-12


def test_reconstruct_with_stationary_is_symmetric(rng):
    g = random_graph(rng, 7, directed=False)
    m = urw_transition(g)
    d = g.out_degrees()
    pi = d / d.sum()
    back = reconstruct_adjacency(m, pi).toarray()
    assert np.abs(back - back.T).max() <= 1e-12


def test_reconstruct_rejects_nonpositive_gamma():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    m = urw_transition(g)
    with pytest.raises(NonPositiveScale):
        reconstruct_adjacency(m, np.array([1.0, 0.0]))


def test_round_trip_transition_invariance(rng):
    # the n per-vertex scaling freedoms never change the walk
    for directed in (False, True):
        for _ in range(20):
            g = random_graph(rng, 8, directed=directed, self_loop_p=0.2)
            m = urw_transition(g)
            gamma = rng.uniform(0.1, 5.0, 8)
            again = urw_transition(reconstruct_adjacency(m, gamma))
            assert np.abs(again.toarray() - m.toarray()).max() <= 1e-12


def test_stationary_two_cycle_with_damping():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    pi = stationary(urw_transition(g))
    assert np.abs(pi.pi - 0.5).max() <= 1e-10


def test_stationary_path_degree_proportional():
    g = LayerGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=False)
    pi = stationary(urw_transition(g))
    assert np.abs(pi.pi - [0.25, 0.5, 0.25]).max() <= 1e-10


def test_stationary_matches_degree_volume(rng):
    for _ in range(10):
        g = random_graph(rng, 10, directed=False)
        d = g.out_degrees()
        pi = stationary(urw_transition(g))
        assert np.abs(pi.pi - d / d.sum()).max() <= 1e-9


def test_stationary_reports_residual_on_failure():
    # not reversible (0 -> 1 has no reverse), so the iteration starts uniform
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 2.0)]
    m = urw_transition(LayerGraph.from_edges(3, edges, directed=True))
    with pytest.raises(NoConvergence) as exc:
        stationary(m, tol=1e-12, max_iter=3)
    x = np.full(3, 1.0 / 3.0)
    for _ in range(3):
        x = 0.5 * (x + m.matrix @ x)
        x /= x.sum()
    assert exc.value.residual == np.abs(m.matrix @ x - x).sum() > 1e-12
    assert exc.value.iterations == 3


def test_detailed_balance_undirected_true(rng):
    g = random_graph(rng, 8, directed=False)
    m = urw_transition(g)
    pi = stationary(m)
    assert is_detailed_balanced(m, pi, tol=1e-9)


def test_detailed_balance_directed_cycle_false():
    g = LayerGraph.from_edges(
        3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], directed=True
    )
    m = urw_transition(g)
    pi = stationary(m)
    assert not is_detailed_balanced(m, pi, tol=1e-6)


def test_detailed_balance_single_state():
    g = LayerGraph.from_edges(1, [(0, 0, 2.0)], directed=True)
    m = urw_transition(g)
    assert is_detailed_balanced(m, stationary(m))


def test_symmetrize_path_alpha_four():
    g = LayerGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=False)
    out = symmetrize_from_markov(urw_transition(g), 4.0)
    expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.abs(out.toarray() - expect).max() <= 1e-12


def test_symmetrize_single_edge_alpha_two():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    out = symmetrize_from_markov(urw_transition(g), 2.0)
    assert np.abs(out.toarray() - [[0.0, 1.0], [1.0, 0.0]]).max() <= 1e-12


def test_symmetrize_output_is_symmetric(rng):
    for _ in range(10):
        g = random_graph(rng, 8, directed=False, self_loop_p=0.3)
        out = symmetrize_from_markov(urw_transition(g), 1.0).toarray()
        assert np.abs(out - out.T).max() == 0.0


def test_symmetrize_global_scale_freedom(rng):
    g = random_graph(rng, 6, directed=False)
    m = urw_transition(g)
    a = symmetrize_from_markov(m, 3.0).toarray()
    b = symmetrize_from_markov(m, 1.5).toarray()
    assert np.abs(a - 2.0 * b).max() <= 1e-12


def test_symmetrize_rejects_unbalanced_chain():
    g = LayerGraph.from_edges(
        3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], directed=True
    )
    with pytest.raises(NotDetailedBalanced):
        symmetrize_from_markov(urw_transition(g), 1.0)


@pytest.mark.parametrize("pi", [[np.nan], [0.5, np.nan, 0.5], [np.inf, 0.0]])
def test_stationary_type_rejects_non_finite_entries(pi):
    with pytest.raises(ValueError, match="finite"):
        StationaryDistribution(np.array(pi))


@pytest.mark.parametrize("directed", [False, True])
def test_stationary_of_a_graph_whose_volume_overflows(directed):
    # each degree is 1.5e308 and their sum overflows: the closed form cannot
    # be formed, and the walk's own balance ratios give the answer
    g = LayerGraph.from_dense([[0.0, 1.5e308], [1.5e308, 0.0]], directed=directed)
    assert np.array_equal(stationary(g).pi, [0.5, 0.5])


def test_layer_graph_rejects_negative_weight():
    with pytest.raises(ValueError):
        LayerGraph.from_edges(2, [(0, 1, -1.0)], directed=True)


def test_layer_graph_rejects_asymmetric_undirected():
    from scipy import sparse

    mat = sparse.csc_array(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        LayerGraph(2, mat, directed=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "mirrored", "mirrored then nudged"]))
def test_symmetry_check_matches_transpose_comparison(n, seed, kind):
    rng = np.random.default_rng(seed)
    a = rng.choice([0.0, 0.0, 1.0, 2.5], size=(n, n))
    if kind != "random":
        a = np.triu(a) + np.triu(a, 1).T
    if kind == "mirrored then nudged" and n:
        a[rng.integers(n), rng.integers(n)] += 1.0  # on the diagonal it stays symmetric
    mat = _canonical(a)
    assert _is_symmetric(mat) == ((mat != mat.T).nnz == 0)


def components_oracle(matrix):
    """The per-label scan that components() replaced, kept as an oracle."""
    count, labels = connected_components(sparse.csr_array(matrix), directed=True,
                                         connection="weak")
    comps = [np.flatnonzero(labels == c) for c in range(count)]
    comps.sort(key=len, reverse=True)
    return comps


def test_components_match_the_per_label_scan(rng):
    for n in [0, 1, 2] + rng.integers(3, 60, 40).tolist():
        # sparse directed edges leave many isolated vertices and equal-sized components
        a = sparse.csr_array(rng.random((n, n)) < rng.uniform(0.0, 3.0 / max(n, 1)))
        got, expected = components(a), components_oracle(a)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)


def components_split_oracle(matrix):
    """The np.split version that components() replaced, kept as an oracle."""
    count, labels = connected_components(sparse.csr_array(matrix), directed=True,
                                         connection="weak")
    sizes = np.bincount(labels, minlength=count)
    comps = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1]) if count else []
    comps.sort(key=len, reverse=True)
    return comps


@st.composite
def component_digraphs(draw):
    """Sparse directed graphs from drawn component sizes (repeats give ties,
    size 1 an isolated vertex), each component a random tree of one-way
    edges plus a few extra edges and self-loops, under a drawn vertex order."""
    sizes = draw(st.lists(st.integers(1, 5), max_size=12))
    n = sum(sizes)
    edges, start = [], 0
    for size in sizes:
        for k in range(start + 1, start + size):
            parent = draw(st.integers(start, k - 1))
            edges.append((k, parent) if draw(st.booleans()) else (parent, k))
        members = st.integers(start, start + size - 1)
        edges += draw(st.lists(st.tuples(members, members), max_size=2))
        start += size
    relabel = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    ends = relabel[np.asarray(edges, dtype=np.int64).reshape(-1, 2)]
    return sparse.coo_array((np.ones(len(edges)), (ends[:, 0], ends[:, 1])), shape=(n, n))


@settings(max_examples=200, deadline=None)
@given(component_digraphs(), st.sampled_from([sparse.csr_array, sparse.csc_array]))
def test_components_match_the_split_version(a, fmt):
    got, expected = components(fmt(a)), components_split_oracle(a)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)


@settings(max_examples=100, deadline=None)
@given(component_digraphs(), st.data())
def test_component_matrix_is_the_two_step_slice(a, data):
    """Any union of components, as the slice of rows then columns it
    replaced computes it: the same canonical arrays."""
    mat = _canonical(a)
    comps = components(mat)
    picked = data.draw(st.lists(st.sampled_from(range(len(comps))), unique=True) if comps
                       else st.just([]))
    kept = np.sort(np.concatenate([comps[k] for k in picked] + [np.empty(0, np.int64)]))
    got, expected = component_matrix(mat, kept), _canonical(mat[kept, :][:, kept])
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert got.shape == expected.shape and got.has_canonical_format
    # LayerGraph.subgraph: that slice, with components renumbered from the
    # parent's labels exactly as a search of the slice finds them
    sub = LayerGraph(mat.shape[0], mat, directed=True).subgraph(kept)
    assert sub.n == len(kept) and np.array_equal(sub.matrix.data, expected.data)
    found = components(expected)
    assert len(components(sub)) == len(found)
    for g, e in zip(components(sub), found):
        assert np.array_equal(g, e)


def test_index_dtype_is_int32_up_to_the_largest_int32():
    assert _index_dtype(2**31 - 1, 0) == np.int32
    assert _index_dtype(5, 2**31) == np.int64
    assert _index_dtype(2**31, 5) == np.int64
