"""Property tests of the stationary solver against closed forms and an oracle.

A detailed-balanced walk (any undirected graph, and any directed graph whose
walk is reversible) must come out as its closed form ``(|C| / n) d / vol_C``
on every weakly connected component C, without a single iteration. Any other
walk must reproduce bit for bit the lazy power iteration from the uniform
vector that is kept below as the oracle. Directed chains with several closed
classes, transient states, a period or a slow eps link must reach the limit
of that iteration, computed by dense repeated squaring.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from multinet import (
    LayerGraph,
    TransitionMatrix,
    compose_distance,
    reconstruct_adjacency,
    stationary,
    symmetrize_from_markov,
    urw_transition,
)
from multinet import graph
from multinet.errors import DanglingVertex, NoConvergence, NotDetailedBalanced

PROPERTY = settings(max_examples=60, deadline=None)


def oracle_lazy_iteration(m, tol=1e-10, max_iter=100_000):
    """Half-lazy power iteration from the uniform vector."""
    x = np.full(m.n, 1.0 / m.n)
    for _ in range(max_iter):
        y = m.matrix @ x
        if np.abs(y - x).sum() <= tol:
            return x
        x = 0.5 * (x + y)
        x /= x.sum()
    raise AssertionError("oracle did not converge")


def closed_form(adjacency):
    """(|C| / n) d / vol_C for the row sums d of a symmetric adjacency."""
    d = np.asarray(adjacency.sum(axis=1)).ravel()
    _, labels = connected_components(adjacency, directed=False)
    share = np.bincount(labels) / d.size / np.bincount(labels, d)
    return d * share[labels]


@st.composite
def undirected_graphs(draw):
    """Undirected graphs with self-loops and up to four components."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    part = rng.integers(0, draw(st.integers(1, 4)), n)
    mask = (rng.random((n, n)) < 0.4) & (part[:, None] == part[None, :])
    a = np.triu(np.where(mask, rng.uniform(0.1, 10.0, (n, n)), 0.0), 1)
    a = a + a.T
    a[np.diag_indices(n)] = np.where(rng.random(n) < 0.3,
                                     rng.uniform(0.1, 10.0, n), 0.0)
    lonely = a.sum(axis=1) == 0.0
    a[lonely, lonely] = 1.0
    return LayerGraph.from_dense(a, directed=False), rng


@st.composite
def non_reversible_graphs(draw):
    """Directed graphs around a ring 0 -> 1 -> ... -> 0 whose walks break
    detailed balance.

    Either the arc 1 -> 0 is missing (the pattern is not symmetric), or the
    ring runs both ways with clockwise weights in [1, 2] and counter-clockwise
    ones in [3, 4], so the two cycle products differ (Kolmogorov's criterion).
    """
    n = draw(st.integers(3, 12))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.where(rng.random((n, n)) < 0.3, rng.uniform(0.1, 10.0, (n, n)), 0.0)
    ring = np.arange(n)
    a[ring, (ring + 1) % n] = rng.uniform(1.0, 2.0, n)
    if symmetric:
        a = np.where((a > 0.0) | (a.T > 0.0), rng.uniform(0.1, 10.0, (n, n)), 0.0)
        a[ring, (ring + 1) % n] = rng.uniform(1.0, 2.0, n)
        a[(ring + 1) % n, ring] = rng.uniform(3.0, 4.0, n)
    else:
        a[1, 0] = 0.0
    return LayerGraph.from_dense(a, directed=True)


non_reversible_chains = non_reversible_graphs().map(urw_transition)


@PROPERTY
@given(undirected_graphs())
def test_undirected_walk_is_the_closed_form(drawn):
    g, _ = drawn
    m = urw_transition(g)
    pi = stationary(m, max_iter=0).pi  # no iteration: the start is fixed
    assert np.abs(pi - closed_form(g.matrix)).sum() <= 1e-12


@PROPERTY
@given(undirected_graphs())
def test_reversible_directed_walk_is_the_closed_form(drawn):
    g, rng = drawn
    walk = urw_transition(reconstruct_adjacency(urw_transition(g),
                                                rng.uniform(0.1, 10.0, g.n)))
    pi = stationary(walk, max_iter=0).pi
    assert np.abs(pi - closed_form(g.matrix)).sum() <= 1e-12


@PROPERTY
@given(undirected_graphs())
def test_graph_is_its_closed_form(drawn):
    g, _ = drawn
    pi = stationary(g).pi
    assert np.abs(pi - closed_form(g.matrix)).sum() <= 1e-12
    assert np.abs(pi - stationary(urw_transition(g)).pi).sum() <= 1e-12


@PROPERTY
@given(undirected_graphs())
def test_each_component_gets_mass_in_proportion_to_its_size(drawn):
    g, _ = drawn
    pi = stationary(g).pi
    _, labels = connected_components(g.matrix, directed=False)
    assert np.abs(np.bincount(labels, pi) - np.bincount(labels) / g.n).max() <= 1e-12


@PROPERTY
@given(undirected_graphs())
def test_symmetric_graph_flagged_directed_takes_the_closed_form(drawn):
    # as_graph() of a super-adjacency says directed whatever its matrix; a
    # symmetric one builds no transition matrix
    g, _ = drawn
    s = compose_distance([g, g.scaled(2.0)], [[0.0, 1.0], [1.0, 0.0]], 0.5)
    walk = s.as_graph()
    assert walk.directed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "urw_transition", None)
        pi = stationary(walk).pi
    assert np.abs(pi - closed_form(s.matrix)).sum() <= 1e-12


@pytest.mark.parametrize("directed", [False, True])
def test_isolated_instance_raises_dangling_vertex(directed):
    g = LayerGraph.from_dense([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                              directed=directed)
    with pytest.raises(DanglingVertex) as caught:
        stationary(g)
    assert caught.value.vertex == 2


@PROPERTY
@given(non_reversible_graphs())
def test_directed_graph_is_its_transition_matrix_route(g):
    assert np.array_equal(stationary(g).pi, stationary(urw_transition(g)).pi)


@PROPERTY
@given(undirected_graphs())
def test_reversible_directed_graph_is_its_transition_matrix_route(drawn):
    # a reversible walk on an asymmetric matrix: the balance ratios, not the degrees
    g, rng = drawn
    h = reconstruct_adjacency(urw_transition(g), rng.uniform(0.1, 10.0, g.n))
    assert np.array_equal(stationary(h).pi, stationary(urw_transition(h)).pi)


@PROPERTY
@given(undirected_graphs(), st.floats(0.1, 10.0))
def test_symmetrize_is_the_scaled_adjacency(drawn, alpha):
    g, _ = drawn
    d = g.out_degrees()
    expect = alpha * g.toarray() * (closed_form(g.matrix) / d)[:, None]
    out = symmetrize_from_markov(urw_transition(g), alpha).toarray()
    assert np.abs(out - expect).max() <= 1e-12 * alpha


@PROPERTY
@given(non_reversible_chains)
def test_non_reversible_walk_matches_uniform_start_oracle(m):
    pi = stationary(m).pi
    assert np.array_equal(pi, oracle_lazy_iteration(m))
    with pytest.raises(NotDetailedBalanced):
        symmetrize_from_markov(m, 1.0)


def arc_chain(n, arcs, links=()):
    """Walk of weighted arcs (u, v, w), each state's weights normalised, then
    each link (u, v, eps) moves probability eps of u's column to v."""
    a = np.zeros((n, n))
    for u, v, w in arcs:
        a[v, u] += w
    a /= a.sum(axis=0)
    for u, v, eps in links:
        a[:, u] *= 1.0 - eps
        a[v, u] += eps
    return TransitionMatrix(n, sparse.csc_array(a))


def lazy_limit(m):
    """Limit of the lazy chain (I + M)/2 started uniform, by dense repeated
    squaring, each square renormalised to stay column-stochastic."""
    p = 0.5 * (np.eye(m.n) + m.toarray())
    for _ in range(64):
        p = p @ p
        p /= p.sum(axis=0)
    return p @ np.full(m.n, 1.0 / m.n)


# closed classes of unequal size with uneven weights, so that the uniform start
# is far from the limit: a 3-cycle with a chord back, and a 6-cycle with two chords
SMALL_CLASS = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (1, 0, 2.0)]
LARGE_CLASS = [(3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0), (7, 8, 1.0), (8, 3, 1.0),
               (5, 3, 3.0), (7, 4, 0.5)]
DIRECTED_CHAINS = {
    # three transient states feed both closed classes unevenly
    "closed-classes-and-transients": arc_chain(12, SMALL_CLASS + LARGE_CLASS + [
        (9, 10, 1.0), (10, 11, 1.0), (11, 9, 1.0), (9, 0, 0.2), (10, 5, 1.0), (11, 11, 0.5)]),
    # a cycle of period 5, fed by a transient tail
    "periodic": arc_chain(7, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0),
                              (5, 6, 1.0), (6, 0, 1.0), (5, 5, 1.0)]),
    # the two classes joined both ways by probability eps: one class whose slow
    # mode decays at a rate of about eps; the loop's 100k steps cannot finish 1e-6
    **{f"eps-link-{eps:.0e}": arc_chain(9, SMALL_CLASS + LARGE_CLASS, [(0, 3, eps), (3, 0, eps)])
       for eps in (1e-1, 1e-2, 1e-3, 1e-6)},
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=NoConvergence, reason="needs ROADMAP item 3's LU phase"))
    if name == "eps-link-1e-06" else name for name in DIRECTED_CHAINS])
def test_directed_chain_is_the_lazy_limit(name):
    m = DIRECTED_CHAINS[name]
    tol = 1e-10
    pi = stationary(m, tol=tol).pi
    matrix = m.toarray()
    assert np.abs(matrix @ pi - pi).sum() <= tol
    # the loop stops at |M x - x|_1 <= tol, where a lazy mode of modulus 1 - gap
    # can still hold about (tol / 2) / gap; the slowest one that decays sets the bound
    modulus = np.abs(np.linalg.eigvals(0.5 * (np.eye(m.n) + matrix)))
    gap = 1.0 - modulus[np.abs(modulus - 1.0) > 1e-9].max()
    assert np.abs(pi - lazy_limit(m)).sum() <= tol / gap


def test_two_layer_grid_composition_is_degree_over_volume():
    side = 100
    rng = np.random.default_rng(7)
    grid = np.arange(side * side).reshape(side, side)
    u = np.concatenate([grid[:, :-1].ravel(), grid[:-1, :].ravel()])
    v = np.concatenate([grid[:, 1:].ravel(), grid[1:, :].ravel()])
    layers = []
    for _ in range(2):
        w = rng.uniform(0.5, 1.5, u.size)
        a = sparse.coo_array((np.concatenate([w, w]), (np.concatenate([u, v]),
                                                      np.concatenate([v, u]))),
                             shape=(side * side, side * side))
        layers.append(LayerGraph(side * side, a, directed=False))
    s = compose_distance(layers, [[0.0, 1.0], [1.0, 0.0]], 1.0)
    d = np.asarray(s.matrix.sum(axis=1)).ravel()
    pi = stationary(urw_transition(s.as_graph()), max_iter=0).pi
    assert np.abs(pi - d / d.sum()).sum() <= 1e-12


def test_birth_death_chain_stays_finite():
    # up 0.9, down 0.1 on 400 states: pi_k is proportional to 9^k, a range
    # of 9^399 that overflows unless the logs are shifted before exp
    n = 400
    k = np.arange(n)
    rows = np.concatenate([k[1:], k[:-1], [0, n - 1]])
    cols = np.concatenate([k[:-1], k[1:], [0, n - 1]])
    vals = np.concatenate([np.full(n - 1, 0.9), np.full(n - 1, 0.1), [0.1, 0.9]])
    m = TransitionMatrix(n, sparse.coo_array((vals, (rows, cols)), shape=(n, n)))
    log_pi = k * np.log(9.0)
    expect = np.exp(log_pi - log_pi.max())
    expect /= expect.sum()
    pi = stationary(m, max_iter=0).pi
    assert np.all(np.isfinite(pi))
    assert np.abs(pi - expect).sum() <= 1e-12


def path_graph(n, rng):
    """An undirected path 0 - 1 - ... - n-1 with random weights."""
    k = np.arange(n - 1)
    return LayerGraph.from_edges(n, np.column_stack([k, k + 1, rng.uniform(0.1, 10.0, n - 1)]),
                                 directed=False)


def pairs_and_loops(pairs, loops, rng):
    """`pairs` two-state components, some with self-loops, then `loops`
    states whose only edge is a self-loop."""
    k = 2 * np.arange(pairs)
    edges = [np.column_stack([k, k + 1, rng.uniform(0.1, 10.0, pairs)])]
    looped = (k + rng.integers(0, 2, pairs))[rng.random(pairs) < 0.5]
    edges.append(np.column_stack([looped, looped, rng.uniform(0.1, 10.0, looped.size)]))
    alone = np.arange(2 * pairs, 2 * pairs + loops)
    edges.append(np.column_stack([alone, alone, rng.uniform(0.1, 10.0, loops)]))
    return LayerGraph.from_edges(2 * pairs + loops, np.concatenate(edges), directed=False)


# balance-route shapes that the drawn graphs of at most 14 states cannot have:
# a spanning forest 1,999 steps deep (11 rounds of pointer jumping), and a
# forest of 700 trees, 500 of them one step deep and 200 a bare root
BALANCE_PROBES = {
    "path-2000": lambda rng: path_graph(2000, rng),
    "500-pairs-200-loops": lambda rng: pairs_and_loops(500, 200, rng),
}


@pytest.mark.parametrize("name", list(BALANCE_PROBES))
def test_large_reversible_walk_is_the_closed_form(name):
    rng = np.random.default_rng(34)
    g = BALANCE_PROBES[name](rng)
    walk = urw_transition(reconstruct_adjacency(urw_transition(g), rng.uniform(0.1, 10.0, g.n)))
    assert (walk.matrix != walk.matrix.T).nnz  # the balance ratios are not all 1
    pi = stationary(walk, max_iter=0).pi
    assert np.abs(pi - closed_form(g.matrix)).sum() <= 1e-12
