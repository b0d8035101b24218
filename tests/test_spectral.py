"""Fiedler sweep bisection, conductance, and layer load."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

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
from multinet.errors import Disconnected, EmptyGraph, EmptySide

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


def loop_sweep_oracle(g, order):
    """The per-vertex sweep that the prefix sums replaced, kept as an oracle.

    It differs from the replaced loop in one line: the total volume is summed
    in sweep order, so a complement of zero-degree vertices has volume exactly
    0 rather than the residue between two summation orders. Returns the
    profile, each prefix's volume and denominator, the side of the first
    minimum (None when no prefix has volume on both sides) and its one-sided
    conductance.
    """
    mat = g.matrix
    if (mat != mat.T).nnz != 0:
        mat = (mat + mat.T) * 0.5
    w = sparse.csr_array(mat)
    d = np.asarray(w.sum(axis=1)).ravel()
    n = w.shape[0]
    order = np.asarray(order)
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    total_vol = float(np.cumsum(d[order.astype(int)])[-1])
    in_s = np.zeros(n, dtype=bool)
    profile, vols, denoms = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1)
    vol_s = cut = 0.0
    best_phi, best_side, one_sided = np.inf, None, None
    for k in range(n - 1):
        v = int(order[k])
        lo, hi = w.indptr[v], w.indptr[v + 1]
        idx = w.indices[lo:hi]
        dat = w.data[lo:hi]
        to_s = float(dat[in_s[idx]].sum())
        self_loop = float(dat[idx == v].sum())
        cut += d[v] - self_loop - 2.0 * to_s
        vol_s += d[v]
        in_s[v] = True
        denom = min(vol_s, total_vol - vol_s)
        profile[k] = phi = cut / denom if denom > 0.0 else np.inf
        vols[k], denoms[k] = vol_s, denom
        if phi < best_phi:
            best_phi, best_side, one_sided = phi, in_s.copy(), cut / vol_s
    return profile, vols, denoms, best_side, one_sided


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


def test_sweep_without_a_two_sided_prefix_is_empty():
    with pytest.raises(EmptyGraph):
        sweep_cut(LayerGraph.from_edges(2, [], directed=False), [0, 1])


def test_sweep_complement_of_isolated_vertices_has_no_volume():
    # degrees whose pairwise total differs from their running sum: the last
    # prefix leaves only the isolated vertex 8, a complement of volume 0
    path = [(i, i + 1, round(0.7 * (i + 1), 1)) for i in range(7)]
    g = LayerGraph.from_edges(9, path, directed=False)
    result = sweep_cut(g, np.arange(9))
    assert result.sweep_profile[-1] == np.inf
    assert result.side.tolist() == [True] * 5 + [False] * 4
    assert result.conductance == pytest.approx(0.2, rel=1e-12)


@st.composite
def sweep_cases(draw):
    """A weighted graph (self-loops, directed ones, weights 1e-3 to 1e3 or all
    1 for exact ties) and an arbitrary vertex order, integer or float, now and
    then not a permutation."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directed = draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    spread = 10.0 ** rng.uniform(-3.0, 3.0, (n, n)) if draw(st.booleans()) else 1.0
    a = np.where(rng.random((n, n)) < density, spread, 0.0)
    if not draw(st.booleans()):
        np.fill_diagonal(a, 0.0)
    if not directed:
        a = np.triu(a) + np.triu(a, 1).T
    order = rng.permutation(n).astype(draw(st.sampled_from([np.int64, np.float64])))
    fault = draw(st.sampled_from([None] * 4 + ["repeat", "out of range", "short", "fraction"]))
    if fault == "repeat":
        order[-1] = order[0]
    elif fault == "out of range":
        order[np.argmax(order)] = n
    elif fault == "short":
        order = order[:-1]
    elif fault == "fraction":
        order = order + np.eye(n)[0] * 0.5
    return LayerGraph.from_dense(a, directed=directed), order


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_sweep_matches_the_per_vertex_loop(case):
    g, order = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # directed input is symmetrized
        try:
            profile, vol, denom, side, one_sided = loop_sweep_oracle(g, order)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                sweep_cut(g, order)
            return
        if side is None:
            with pytest.raises(EmptyGraph):
                sweep_cut(g, order)
            return
        result = sweep_cut(g, order)
    finite = np.isfinite(profile)
    assert np.array_equal(np.isfinite(result.sweep_profile), finite)
    # both sums round the cut to about eps * vol, so a prefix's conductance
    # is compared on the scale vol / denom, which is 1 when vol is the smaller side
    scale = np.divide(vol, denom, out=np.zeros_like(vol), where=finite)
    assert np.all(np.abs(result.sweep_profile[finite] - profile[finite]) <= 1e-12 * scale[finite])
    best = int(np.argmin(profile))
    assert result.conductance == result.sweep_profile.min()
    margin = np.delete(profile - profile[best], best)
    decisive = np.all(margin > 1e-9 * (np.delete(scale, best) + scale[best]))
    if decisive or np.array_equal(result.sweep_profile, profile):
        assert np.array_equal(result.side, side)
        assert abs(result.conductance_one_sided - one_sided) <= 1e-12


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


def test_conductance_complement_of_isolated_vertices_has_no_volume():
    # the pairwise total of these degrees differs from the side's own sum
    path = [(i + 1, i + 2, round(0.1 * (i + 1), 1)) for i in range(7)]
    g = LayerGraph.from_edges(9, path, directed=False)  # vertex 0 isolated
    assert conductance(g, np.arange(9) > 0) == np.inf


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
