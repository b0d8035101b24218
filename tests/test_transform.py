"""Bias/delay layer transformations and the dynamics equivalence identity."""

import numpy as np
import pytest

from multinet import (
    DynamicsParams,
    LayerGraph,
    bias_transform,
    delay_transform,
    laplacian_of,
    transform_layer,
    urw_transition,
)
from multinet.errors import DelayBelowOne, DimensionMismatch, NegativeEntry

from conftest import random_graph


def reference_laplacian(g, b, tau):
    """Dense (D' - A')(D' T)^{-1} straight from the dynamics parameters."""
    a = g.toarray()
    b = np.asarray(b, dtype=float)
    if g.directed:
        a_prime = np.diag(b) @ a
    else:
        a_prime = np.diag(b) @ a @ np.diag(b)
    d_prime = a_prime.sum(axis=1)
    return (np.diag(d_prime) - a_prime) @ np.diag(1.0 / (d_prime * np.asarray(tau)))


def test_bias_undirected_two_sided():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    out = bias_transform(g, [2.0, 3.0]).toarray()
    assert out[0, 1] == 6.0 and out[1, 0] == 6.0


def test_bias_identity_leaves_graph_unchanged(rng):
    g = random_graph(rng, 6, directed=False)
    out = bias_transform(g, np.ones(6))
    assert np.array_equal(out.toarray(), g.toarray())


def test_bias_directed_one_sided():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    out = bias_transform(g, [2.0, 1.0]).toarray()
    assert out[0, 1] == 2.0 and out[1, 0] == 1.0


@pytest.mark.parametrize("directed", [True, False])
def test_bias_underflow_drops_the_edge_and_leaves_the_input_intact(directed):
    g = LayerGraph.from_edges(3, [(0, 1, 1e-300), (1, 2, 1.0)], directed=directed)
    before = g.toarray()
    out = bias_transform(g, [1e-300, 1.0, 1.0])
    assert out.toarray()[0, 1] == 0.0 and out.toarray()[1, 2] == 1.0
    assert np.array_equal(g.toarray(), before)


def test_bias_rejects_nonpositive_entries():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    with pytest.raises(NegativeEntry):
        bias_transform(g, [1.0, -2.0])
    with pytest.raises(DimensionMismatch):
        bias_transform(g, [1.0, 1.0, 1.0])


def test_delay_one_is_identity(rng):
    g = random_graph(rng, 5, directed=False)
    w = delay_transform(g, np.ones(5))
    assert np.array_equal(w.toarray(), g.toarray())


def test_delay_single_edge_self_loop():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    w = delay_transform(g, [3.0, 1.0]).toarray()
    assert w[0, 0] == 2.0 and w[1, 1] == 0.0
    assert w[0, 1] == 1.0 and w[1, 0] == 1.0


def test_delay_scalar_rescales_clock(rng):
    # uniform delay adds (alpha - 1) d'_u at every vertex
    g = random_graph(rng, 5, directed=False)
    alpha = 2.5
    w = delay_transform(g, alpha).toarray()
    d = g.out_degrees()
    expect = g.toarray() + np.diag((alpha - 1.0) * d)
    assert np.abs(w - expect).max() == 0.0


def test_delay_rejects_below_one(rng):
    g = random_graph(rng, 4, directed=False)
    with pytest.raises(DelayBelowOne):
        delay_transform(g, [1.0, 0.5, 1.0, 1.0])


def test_delay_adds_to_existing_self_loop():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (0, 0, 2.0)], directed=False)
    w = delay_transform(g, [2.0, 1.0]).toarray()
    # d'_0 = 3 (loop counted once), so the delay adds 3 on top of the loop
    assert w[0, 0] == 2.0 + 3.0


def test_transform_identity_params_is_identity(rng):
    g = random_graph(rng, 6, directed=True)
    w = transform_layer(g, DynamicsParams.identity(6))
    assert np.array_equal(w.toarray(), g.toarray())


def test_transform_triangle_worked_example():
    g = LayerGraph.from_edges(
        3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], directed=False
    )
    w = transform_layer(g, DynamicsParams([1.0, 1.0, 2.0], [1.0, 2.0, 1.0]))
    out = w.toarray()
    assert out[0, 1] == 1.0 and out[0, 2] == 2.0 and out[1, 2] == 2.0
    reweighed = bias_transform(g, [1.0, 1.0, 2.0]).out_degrees()
    assert np.array_equal(reweighed, [3.0, 3.0, 4.0])
    assert out[1, 1] == 3.0  # (tau_2 - 1) * d'_2
    assert out[0, 0] == 0.0 and out[2, 2] == 0.0


def test_laplacian_single_self_loop():
    g = LayerGraph.from_edges(1, [(0, 0, 2.0)], directed=True)
    w = delay_transform(g, np.ones(1))
    assert np.array_equal(laplacian_of(w).toarray(), [[0.0]])


def test_laplacian_two_cycle():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=True)
    w = delay_transform(g, np.ones(2))
    assert np.array_equal(laplacian_of(w).toarray(), [[1.0, -1.0], [-1.0, 1.0]])


def test_equivalence_identity_random(rng):
    # the transformed walk realizes the parameterized dynamics exactly
    for directed in (False, True):
        for _ in range(25):
            n = int(rng.integers(3, 12))
            g = random_graph(rng, n, directed=directed, self_loop_p=0.2)
            b = rng.uniform(0.2, 3.0, n)
            tau = rng.uniform(1.0, 4.0, n)
            w = transform_layer(g, DynamicsParams(b, tau))
            lhs = reference_laplacian(g, b, tau)
            rhs = laplacian_of(w).toarray()
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_undirected_transform_stays_symmetric(rng):
    for _ in range(10):
        g = random_graph(rng, 8, directed=False, self_loop_p=0.3)
        w = transform_layer(
            g, DynamicsParams(rng.uniform(0.2, 3.0, 8), rng.uniform(1.0, 4.0, 8))
        ).toarray()
        assert np.abs(w - w.T).max() == 0.0


def test_uniform_bias_preserves_transition_law(rng):
    g = random_graph(rng, 7, directed=False)
    w = transform_layer(g, DynamicsParams(np.full(7, 3.0), np.ones(7)))
    m0 = urw_transition(g).toarray()
    m1 = urw_transition(w).toarray()
    assert np.abs(m0 - m1).max() <= 1e-15


def test_scaling_freedom_under_fixed_params(rng):
    # scaling the input globally scales the interaction matrix globally
    g = random_graph(rng, 6, directed=False)
    params = DynamicsParams(rng.uniform(0.5, 2.0, 6), rng.uniform(1.0, 3.0, 6))
    w1 = transform_layer(g, params).toarray()
    w2 = transform_layer(g.scaled(2.0), params).toarray()
    assert np.abs(w2 - 2.0 * w1).max() <= 1e-12


def test_degree_proportional_delay(rng):
    from multinet import degree_proportional_delay

    g = random_graph(rng, 6, directed=False)
    tau = degree_proportional_delay(g, 0.5)
    assert np.array_equal(tau, 1.0 + 0.5 * g.out_degrees())
    with pytest.raises(DelayBelowOne):
        degree_proportional_delay(g, -0.1)
