"""Fiedler sweep bisection, conductance, and layer load."""

import warnings

import numpy as np
import pytest

from multinet import (
    LayerGraph,
    as_interaction,
    bisect,
    compose_distance,
    compose_ego,
    conductance,
    fiedler_vector,
    layer_load,
    sweep_cut,
)
from multinet.errors import Disconnected, EmptySide

from conftest import identity_egos, random_connected_graph, random_graph


def barbell(k=5):
    """Two K_k cliques joined by one unit edge."""
    edges = []
    for base in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((base + i, base + j, 1.0))
    edges.append((k - 1, k, 1.0))
    return LayerGraph.from_edges(2 * k, edges, directed=False)


def dense_fiedler_oracle(g):
    """Full eigendecomposition of the symmetric normalized Laplacian."""
    w = g.toarray()
    w = (w + w.T) / 2.0
    d = w.sum(axis=1)
    lsym = np.eye(len(d)) - w / np.sqrt(np.outer(d, d))
    vals, vecs = np.linalg.eigh(lsym)
    return vals, vecs


def brute_prefix_minimum(g, order):
    """Independent conductance of every prefix, via dense arithmetic."""
    w = g.toarray()
    w = (w + w.T) / 2.0
    d = w.sum(axis=1)
    total = d.sum()
    best = np.inf
    for k in range(1, len(order)):
        side = np.zeros(len(order), dtype=bool)
        side[np.asarray(order)[:k]] = True
        cut = w[side][:, ~side].sum()
        best = min(best, cut / min(d[side].sum(), total - d[side].sum()))
    return best


def test_fiedler_path_of_four_splits_in_half():
    g = LayerGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                              directed=False)
    x = fiedler_vector(g)
    assert np.sign(x[0]) == np.sign(x[1])
    assert np.sign(x[2]) == np.sign(x[3])
    assert np.sign(x[0]) != np.sign(x[3])


def test_fiedler_two_triangles_bridge():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)]
    g = LayerGraph.from_edges(6, edges, directed=False)
    x = fiedler_vector(g)
    assert len({np.sign(v) for v in x[:3]}) == 1
    assert len({np.sign(v) for v in x[3:]}) == 1
    assert np.sign(x[0]) != np.sign(x[5])


def test_fiedler_matches_dense_oracle(rng):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 10)))
        x = fiedler_vector(g, tol=1e-10)
        vals, vecs = dense_fiedler_oracle(g)
        gap_next = vals[2] - vals[1]
        if gap_next < 1e-6:
            continue  # eigenvector not unique enough to compare directions
        assert abs(abs(x @ vecs[:, 1]) - 1.0) <= 1e-6


def test_fiedler_residual_and_orthogonality(rng):
    g = random_connected_graph(rng, 12, p=0.4)
    tol = 1e-8
    x = fiedler_vector(g, tol=tol)
    w = (g.toarray() + g.toarray().T) / 2.0
    d = w.sum(axis=1)
    lsym = np.eye(12) - w / np.sqrt(np.outer(d, d))
    lam = x @ lsym @ x
    assert np.linalg.norm(lsym @ x - lam * x) <= tol
    null = np.sqrt(d) / np.linalg.norm(np.sqrt(d))
    assert abs(null @ x) <= tol


def test_fiedler_complete_graph_multiplicity():
    g = LayerGraph.from_edges(
        4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)],
        directed=False,
    )
    x = fiedler_vector(g, tol=1e-8)
    d = g.out_degrees()
    null = np.sqrt(d) / np.linalg.norm(np.sqrt(d))
    assert abs(null @ x) <= 1e-8


def test_fiedler_rejects_disconnected():
    g = LayerGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], directed=False)
    with pytest.raises(Disconnected) as exc:
        fiedler_vector(g)
    assert len(exc.value.components) == 2


def test_sweep_barbell_conductance():
    g = barbell(5)
    result = bisect(g)
    assert result.conductance == 1.0 / 21.0
    assert result.conductance_one_sided == 1.0 / 21.0
    assert result.side.sum() == 5
    # the reported value must match a fresh recomputation from the graph
    assert conductance(g, result.side) == result.conductance


def test_sweep_path_of_two():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    result = sweep_cut(g, [0, 1])
    assert result.conductance == 1.0
    assert result.sweep_profile.tolist() == [1.0]


def test_sweep_profile_minimum_matches_brute_force(rng):
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        x = fiedler_vector(g)
        order = np.argsort(x, kind="stable")
        result = sweep_cut(g, order)
        assert abs(result.conductance - brute_prefix_minimum(g, order)) <= 1e-12
        assert result.conductance == result.sweep_profile.min()


def test_sweep_rejects_non_permutation(rng):
    g = random_connected_graph(rng, 4)
    with pytest.raises(ValueError):
        sweep_cut(g, [0, 1, 2, 2])


def test_bisect_partition_invariant_under_scaling(rng):
    g = random_connected_graph(rng, 10, p=0.35)
    a = bisect(g)
    b = bisect(g.scaled(7.0))
    assert np.array_equal(a.side, b.side)
    assert abs(a.conductance - b.conductance) <= 1e-12


def test_conductance_barbell_bridge_split():
    g = barbell(5)
    side = np.zeros(10, dtype=bool)
    side[:5] = True
    assert conductance(g, side) == 1.0 / 21.0


def test_conductance_k4_even_split():
    g = LayerGraph.from_edges(
        4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)],
        directed=False,
    )
    side = np.array([True, True, False, False])
    assert conductance(g, side) == 4.0 / 6.0


def test_conductance_single_edge():
    g = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    assert conductance(g, np.array([True, False])) == 1.0


def test_conductance_scale_invariant(rng):
    g = random_connected_graph(rng, 8)
    side = np.zeros(8, dtype=bool)
    side[:3] = True
    assert abs(conductance(g, side) - conductance(g.scaled(11.0), side)) <= 1e-12


def test_conductance_rejects_empty_side(rng):
    g = random_connected_graph(rng, 4)
    with pytest.raises(EmptySide):
        conductance(g, np.zeros(4, dtype=bool))


def test_conductance_one_sided_variant():
    g = barbell(5)
    side = np.zeros(10, dtype=bool)
    side[:4] = True  # strictly smaller side: one-sided equals symmetric here
    sym = conductance(g, side)
    one = conductance(g, side, one_sided=True)
    assert one == sym
    big = conductance(g, ~side, one_sided=True)
    assert big < one  # the big side's own volume dilutes the one-sided value


def test_directed_input_symmetrized_with_warning(rng):
    g = random_graph(rng, 6, directed=True)
    with pytest.warns(UserWarning):
        conductance(g, np.array([True] * 3 + [False] * 3))


def test_bisect_builds_the_symmetrized_matrix_once(rng):
    g = random_connected_graph(rng, 6, directed=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = bisect(g)
    assert [str(w.message) for w in caught] == [
        "directed graph symmetrized as (W + W^T)/2 for spectral analysis"]
    assert result.side.shape == (6,)


def test_layer_load_identical_layers(rng):
    lay = as_interaction(random_graph(rng, 5, directed=False))
    egos = identity_egos(5, 2)
    s = compose_ego([lay, lay], egos)
    assert np.abs(layer_load(s).loads - 0.5).max() <= 1e-12


def test_layer_load_one_to_three_ratio(rng):
    g = random_graph(rng, 6, directed=False)
    lay, lay3 = as_interaction(g), as_interaction(g.scaled(3.0))
    egos = identity_egos(6, 2)
    s = compose_ego([lay, lay3], egos)
    assert np.abs(layer_load(s).loads - [0.25, 0.75]).max() <= 1e-12


def test_layer_load_monotone_in_layer_scale(rng):
    g = random_graph(rng, 6, directed=False)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    base = compose_distance([as_interaction(g), as_interaction(g)], dist, 1.0)
    boosted = compose_distance(
        [as_interaction(g), as_interaction(g.scaled(2.0))], dist, 1.0
    )
    assert boosted and layer_load(boosted).loads[1] > layer_load(base).loads[1]
    assert abs(layer_load(boosted).loads.sum() - 1.0) <= 1e-12


def test_bisect_on_super_adjacency(rng):
    lay = as_interaction(random_connected_graph(rng, 6))
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = compose_distance([lay, lay], dist, 0.05)
    result = bisect(s)
    assert result.side.shape == (12,)
    assert 0 < result.side.sum() < 12
