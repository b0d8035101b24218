"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 8's real-road check needs the external DIMACS DC dataset
and is skipped unless MULTINET_DIMACS_DIR points at it.
"""

import os
import time

import numpy as np
import pytest

from multinet import (
    DynamicsParams,
    LayerGraph,
    SuperAdjacency,
    bisect,
    compose_distance,
    compose_ego,
    ego_block,
    ego_block_from_stationary,
    laplacian_of,
    layer_load,
    read_dimacs_gr,
    reconstruct_adjacency,
    sweep_cut,
    transform_layer,
    urw_transition,
    verify_ego_consistency,
    verify_layer_consistency,
    fiedler_vector,
)
from multinet.errors import Infeasible

from conftest import identity_egos, random_egos, random_graph
from graph_enum import adjacency_from_code, connected_graphs_up_to
from test_spectral import barbell, brute_prefix_minimum


def _report(number, name, elapsed=None, extra=""):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    detail = f" {extra}" if extra else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{timing}{detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_transform_identity():
    """(D' - A')(D' T)^{-1} equals the walk Laplacian of the transformed layer."""
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 16))
        directed = bool(trial % 2)
        g = random_graph(rng, n, directed=directed, self_loop_p=0.2)
        b = rng.uniform(0.2, 3.0, n)
        tau = rng.uniform(1.0, 4.0, n)
        w = transform_layer(g, DynamicsParams(b, tau))
        a = g.toarray()
        a_prime = np.diag(b) @ a if directed else np.diag(b) @ a @ np.diag(b)
        d_prime = a_prime.sum(axis=1)
        lhs = (np.diag(d_prime) - a_prime) @ np.diag(1.0 / (d_prime * tau))
        rhs = laplacian_of(w).toarray()
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(1, "transform identity", elapsed, f"max deviation {worst:.2e}")


def test_criterion_2_composition_round_trip():
    """compose_ego output passes both checks; any >= 1e-3 off-diagonal bump fails."""
    rng = np.random.default_rng(1002)
    start = time.time()
    worst_layer = worst_ego = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 21))
        l = int(rng.integers(2, 5))
        directed = bool(trial % 3 == 0)
        layers = [
            random_graph(rng, n, directed=directed, self_loop_p=0.2)
            for _ in range(l)
        ]
        egos = random_egos(rng, n, l)
        s = compose_ego(layers, egos)
        layer_report = verify_layer_consistency(s, layers, tol=1e-10)
        ego_report = verify_ego_consistency(s, egos, tol=1e-10)
        assert layer_report.passed and ego_report.passed
        worst_layer = max(worst_layer, layer_report.max_deviation_per_layer.max())
        worst_ego = max(worst_ego, ego_report.max_deviation_per_vertex.max())

        u = int(rng.integers(0, n))
        i = int(rng.integers(0, l))
        j = (i + 1 + int(rng.integers(0, l - 1))) % l
        mat = s.matrix.tolil()
        mat[i * n + u, j * n + u] += 1e-3
        perturbed = SuperAdjacency(n=n, l=l, matrix=mat)
        assert not verify_ego_consistency(perturbed, egos, tol=1e-10).passed
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(2, "composition round-trip", elapsed,
            f"worst devs layer {worst_layer:.2e} ego {worst_ego:.2e}")


def test_criterion_3_paper_worked_ego_value():
    """Phone degree 3 with stay 0.6 and switch 0.1 gives coupling exactly 1/2."""
    m = np.array([[0.6, 0.2, 0.3],
                  [0.1, 0.5, 0.3],
                  [0.3, 0.3, 0.4]])
    block = ego_block(0, m, np.array([3.0, 2.0, 1.0]))
    assert block[1, 0] == 0.5
    _report(3, "worked ego value", extra="X^{pe} = 0.5 exactly")


def _brute_pi(x):
    m = x / x.sum(axis=0, keepdims=True)
    vals, vecs = np.linalg.eig(m)
    pi = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    return pi / pi.sum()


def test_criterion_4_stationary_closed_form():
    """l=2 closed form: feasible triples solve exactly, infeasible ones raise."""
    rng = np.random.default_rng(1004)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(0.5, 5.0, 2)
        endpoint = d[0] / d.sum()
        t = rng.uniform(0.02, 0.98)
        p1 = 0.5 + (endpoint - 0.5) * t
        block = ego_block_from_stationary(0, np.array([p1, 1.0 - p1]), d)
        assert block[0, 1] >= 0.0
        worst = max(worst, float(np.abs(_brute_pi(block) - [p1, 1 - p1]).max()))
    assert worst <= 1e-10
    raised = 0
    for _ in range(1000):
        d = rng.uniform(0.5, 5.0, 2)
        endpoint = d[0] / d.sum()
        lo, hi = min(0.5, endpoint), max(0.5, endpoint)
        if bool(rng.integers(0, 2)) and hi < 0.99:
            p1 = rng.uniform(hi + 0.005, 1.0 - 0.001)
        elif lo > 0.01:
            p1 = rng.uniform(0.001, lo - 0.005)
        else:
            p1 = rng.uniform(hi + 0.005, 1.0 - 0.001)
        with pytest.raises(Infeasible):
            ego_block_from_stationary(0, np.array([p1, 1.0 - p1]), d)
        raised += 1
    elapsed = time.time() - start
    assert raised == 1000
    assert elapsed < 2.0
    _report(4, "l=2 stationary closed form", elapsed, f"worst pi dev {worst:.2e}")


def _greedy_symmetric_rowsums(r):
    """Independent realizer: largest-pair matching, exact row sums."""
    k = r.size
    x = np.zeros((k, k))
    res = r.astype(float).copy()
    for _ in range(4 * k):
        order = np.argsort(res)[::-1]
        a, b = int(order[0]), int(order[1])
        third = res[order[2]] if k > 2 else 0.0
        w = min(res[b], res.sum() / 2.0 - third)
        if w <= 0.0:
            break
        x[a, b] += w
        x[b, a] += w
        res[a] -= w
        res[b] -= w
    return x


def test_criterion_5_min_volume_stationary():
    """l >= 3 construction is valid and no random same-family member is lighter."""
    rng = np.random.default_rng(1005)
    start = time.time()
    for _ in range(200):
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
        # degree-proportional stationary: verified by direct substitution so
        # the check also covers systems with a decoupled layer
        pi_hat = x.sum(axis=1) / x.sum()
        m = x / x.sum(axis=0, keepdims=True)
        assert np.abs(m @ pi_hat - pi_hat).max() <= 1e-12
        assert np.abs(pi_hat - pi).max() <= 1e-8

        volume = x.sum()
        s_star = volume  # row sums are s pi with sum(pi) = 1
        for _ in range(100):
            s_alt = s_star * (1.0 + rng.uniform(0.001, 1.0))
            r_alt = s_alt * pi - deg
            assert r_alt.min() > 0.0 and 2.0 * r_alt.max() <= r_alt.sum()
            alt = _greedy_symmetric_rowsums(r_alt) + np.diag(deg)
            assert np.abs(alt.sum(axis=1) - s_alt * pi).max() <= 1e-9 * s_alt
            assert volume <= alt.sum() + 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(5, "min-volume stationary (l >= 3)", elapsed)


def _planted_stack(rng, n_per_side=10, l=3, p_in=0.8, p_out=0.05):
    n = 2 * n_per_side
    community = np.arange(n) < n_per_side
    layers = []
    for _ in range(l):
        a = np.zeros((n, n))
        for u in range(n):
            for v in range(u + 1, n):
                p = p_in if community[u] == community[v] else p_out
                if rng.random() < p:
                    a[u, v] = a[v, u] = 1.0
        layers.append(LayerGraph.from_dense(a, directed=False))
    return layers


def test_criterion_6_coupling_sweep_bisection():
    """Weak coupling cuts between layers, strong coupling never splits a vertex."""
    rng = np.random.default_rng(1006)
    start = time.time()
    layers = _planted_stack(rng)
    n, l = 20, 3
    dist = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))

    weak = compose_distance(layers, dist, 0.1, adjacent_only=True)
    cut = bisect(weak)
    coo = weak.matrix.tocoo()
    for a, b in zip(coo.row, coo.col):
        if a < b and cut.side[a] != cut.side[b]:
            assert a // n != b // n, "weak coupling must cut inter-layer edges only"

    strong = compose_distance(layers, dist, 10.0, adjacent_only=True)
    cut = bisect(strong)
    for u in range(n):
        for i in range(l - 1):
            assert cut.side[i * n + u] == cut.side[(i + 1) * n + u], (
                "strong coupling must keep each vertex's instances together"
            )
    assert 0 < cut.side.sum() < n * l
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(6, "coupling-sweep bisection", elapsed)


def test_criterion_7_conductance_oracle():
    """Sweep minimum equals the brute-force prefix minimum on every small graph."""
    start = time.time()
    levels = connected_graphs_up_to(7)
    counts = {n: len(codes) for n, codes in levels.items()}
    # known counts of connected graphs up to isomorphism (OEIS A001349)
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    checked = 0
    for n in range(2, 8):
        for code in levels[n]:
            adj = adjacency_from_code(code, n)
            edges = [
                (u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                if (adj[u] >> v) & 1
            ]
            g = LayerGraph.from_edges(n, edges, directed=False)
            x = fiedler_vector(g)
            order = np.argsort(x, kind="stable")
            swept = sweep_cut(g, order).conductance
            assert abs(swept - brute_prefix_minimum(g, order)) <= 1e-12
            checked += 1
    assert bisect(barbell(5)).conductance == 1.0 / 21.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(7, "conductance oracle", elapsed, f"{checked} graphs checked")


def test_criterion_8_layer_load():
    """Loads are volume shares; a monotone search recovers the closed-form scale."""
    rng = np.random.default_rng(1008)
    start = time.time()
    g = random_graph(rng, 8, directed=False)
    uncoupled = identity_egos(8, 2)

    def stack(scale):
        return compose_ego(
            [g, g.scaled(3.0 * scale)],
            uncoupled,
        )

    loads = layer_load(stack(1.0)).loads
    assert np.abs(loads - [0.25, 0.75]).max() <= 1e-12

    target = 0.20
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if layer_load(stack(mid)).loads[1] < target:
            lo = mid
        else:
            hi = mid
    v1, v2 = g.volume, 3.0 * g.volume
    closed_form = (target / (1.0 - target)) * v1 / v2
    assert abs(0.5 * (lo + hi) - closed_form) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(8, "layer load", elapsed, f"scale {closed_form:.6f} recovered")


@pytest.mark.skipif(
    not os.environ.get("MULTINET_DIMACS_DIR"),
    reason="external DIMACS DC dataset not provided",
)
def test_criterion_8_optional_dc_road_network():
    """Real DC figures: 12.7% conventional load; x3.14 highway scale gives 20%."""
    root = os.environ["MULTINET_DIMACS_DIR"]
    ds = read_dimacs_gr(os.path.join(root, "dc.gr"), os.path.join(root, "dc.cat"))
    n = ds.n
    edge_count = sum(g.matrix.nnz // 2 for g in ds.layers)
    assert n == 10834
    assert edge_count == 28137
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    local, highway = ds.layers

    def load_at(scale):
        s = compose_distance(
            [local, highway.scaled(scale)],
            dist, 1.0,
        )
        return layer_load(s).loads[1]

    assert abs(load_at(1.0) - 0.127) <= 0.005
    assert abs(load_at(3.14) - 0.20) <= 0.005
    _report("8b", "DC road network figures")


def test_criterion_9_lemma_suite():
    """Walk-family invariance and symmetric members of balanced walks."""
    rng = np.random.default_rng(1009)
    start = time.time()
    worst_round = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, directed=bool(trial % 2), self_loop_p=0.2)
        m = urw_transition(g)
        gamma = rng.uniform(0.1, 5.0, n)
        again = urw_transition(reconstruct_adjacency(m, gamma))
        worst_round = max(worst_round,
                          float(np.abs(again.toarray() - m.toarray()).max()))
    assert worst_round <= 1e-12

    worst_sym = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, directed=False, self_loop_p=0.2)
        m = urw_transition(g).toarray()
        d = g.out_degrees()
        pi = d / d.sum()  # exact stationary of an undirected walk
        alpha = float(rng.uniform(0.1, 10.0))
        flow = alpha * m * pi[np.newaxis, :]
        worst_sym = max(worst_sym, float(np.abs(flow - flow.T).max()))
    assert worst_sym <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 2.0
    _report(9, "lemma suite", elapsed,
            f"round-trip {worst_round:.2e} symmetry {worst_sym:.2e}")
