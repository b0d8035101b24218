"""Fiedler sweep bisection, conductance, and layer load."""

import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from multinet import (
    LayerGraph,
    LayerLoad,
    SuperAdjacency,
    bisect,
    components,
    compose_distance,
    compose_ego,
    conductance,
    fiedler_vector,
    layer_load,
    spectral,
    sweep_cut,
    write_super,
)
from multinet.cli import main
from multinet.errors import Disconnected, EmptyGraph, EmptySide, NoConvergence

from conftest import identity_egos, random_connected_graph, random_graph


def barbell(k=5, bridge=1.0):
    """Two K_k cliques joined by one edge of weight bridge."""
    edges = []
    for base in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((base + i, base + j, 1.0))
    edges.append((k - 1, k, bridge))
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


def loop_fiedler_oracle(g, tol=1e-8, max_iter=100_000, seed=42):
    """The per-step power loop that the blocked one replaced, kept as an oracle.

    Before every step it checks the residual; after every step it deflates
    against the null vector and normalises. Returns the vector, or raises
    NoConvergence as the loop did. Its own arithmetic, a dense matrix up to
    512 vertices and a sparse one above, keeps it an independent reference
    for fiedler_vector's sparse one.
    """
    mat = g.matrix
    if (mat != mat.T).nnz != 0:
        mat = (mat + mat.T) * 0.5
    w = sparse.csr_array(mat)
    d = np.asarray(w.sum(axis=1)).ravel()
    n = w.shape[0]
    inv_sqrt = 1.0 / np.sqrt(d)
    if n <= 512:
        normalized = inv_sqrt[:, np.newaxis] * w.toarray() * inv_sqrt[np.newaxis, :]
    else:
        scale = sparse.diags_array(inv_sqrt)
        normalized = sparse.csr_array(scale @ w @ scale)
    null = np.sqrt(d)
    null /= np.linalg.norm(null)
    x = np.random.default_rng(seed).standard_normal(n)
    x -= (null @ x) * null
    x /= np.linalg.norm(x)
    for _ in range(max_iter):
        nx = normalized @ x
        rayleigh = x @ nx
        residual = np.linalg.norm(nx - rayleigh * x)
        if residual <= tol:
            break
        x = x + nx
        x -= (null @ x) * null
        norm = np.linalg.norm(x)
        if norm < 1e-300:
            raise NoConvergence(float("nan"), max_iter)
        x /= norm
    else:
        nx = normalized @ x
        rayleigh = x @ nx
        residual = np.linalg.norm(nx - rayleigh * x)
        if residual > tol:
            raise NoConvergence(float(residual), max_iter)
    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    return x


def grid(rows, cols, rng=None):
    """rows x cols grid with unit weights, or U(0.5, 1.5) ones drawn from rng."""
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    weights = np.ones(len(edges)) if rng is None else rng.uniform(0.5, 1.5, len(edges))
    return LayerGraph.from_edges(rows * cols, [(u, v, float(w)) for (u, v), w in zip(edges, weights)],
                                 directed=False)


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


@st.composite
def connected_graphs(draw):
    """A connected weighted graph: small and random (3 to 40 vertices), or two
    planted communities of 100 to 500 vertices, where the oracle's matrix is
    dense, or of 520 to 900, where it is sparse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = draw(st.sampled_from(["small", "mid", "large"]))
    if band == "small":
        n = draw(st.integers(3, 40))
        return random_connected_graph(rng, n, p=draw(st.sampled_from([0.2, 0.5, 0.9])))
    n = draw(st.integers(100, 500) if band == "mid" else st.integers(520, 900))
    first = np.arange(n) < rng.integers(n // 3, 2 * n // 3)
    p = np.where(first[:, np.newaxis] == first, 24.0 / n, 1.0 / n)
    unit = draw(st.booleans())
    while True:
        a = np.triu(np.where(rng.random((n, n)) < p,
                             1.0 if unit else rng.uniform(0.5, 2.0, (n, n)), 0.0), 1)
        g = LayerGraph.from_dense(a + a.T, directed=False)
        if len(components(g.matrix)) == 1:
            return g


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1))
def test_fiedler_matches_the_per_step_loop(g, seed):
    tol, max_iter = 1e-10, 20_000
    try:
        x_loop = loop_fiedler_oracle(g, tol, max_iter, seed)
    except NoConvergence as exc:
        with pytest.raises(NoConvergence) as caught:
            fiedler_vector(g, tol, max_iter, seed)
        assert caught.value.iterations == max_iter
        assert abs(caught.value.residual - exc.residual) <= 1e-6 * exc.residual
        return
    x = fiedler_vector(g, tol, max_iter, seed)
    assert x[int(np.argmax(np.abs(x)))] > 0.0
    w = g.toarray()
    d = w.sum(axis=1)
    lsym = np.eye(len(d)) - w / np.sqrt(np.outer(d, d))
    eigenvalue = x @ lsym @ x
    # recomputing L x in another order rounds differently, by about 1e-15
    assert np.linalg.norm(lsym @ x - eigenvalue * x) <= tol + 1e-13
    null = np.sqrt(d) / np.linalg.norm(np.sqrt(d))
    assert abs(null @ x) <= tol
    vals, vecs = np.linalg.eigh(lsym)
    if vals[2] - vals[1] >= 1e-6:
        assert abs(x @ x_loop) >= 1.0 - 1e-6
        assert abs(x @ vecs[:, 1]) >= 1.0 - 1e-6
        assert abs(eigenvalue - vals[1]) <= 1e-8


@pytest.mark.parametrize("max_iter", [0, 1, 15, 16, 17, 100])
@pytest.mark.parametrize("shape", [(30, 30), (1, 4)])  # sparse and dense oracle
def test_fiedler_stops_after_exactly_max_iter_steps(shape, max_iter):
    g = grid(*shape)
    try:
        x_loop = loop_fiedler_oracle(g, max_iter=max_iter)
    except NoConvergence as exc:
        with pytest.raises(NoConvergence) as caught:
            fiedler_vector(g, max_iter=max_iter)
        assert caught.value.iterations == max_iter
        assert abs(caught.value.residual - exc.residual) <= 1e-6 * exc.residual
        return
    assert abs(fiedler_vector(g, max_iter=max_iter) @ x_loop) >= 1.0 - 1e-6


# (graph, lambda_2 where it is known in closed form, whether lambda_2 is simple);
# a unit path (grid(1, n)) on n vertices has lambda_k = 1 - cos(pi k / (n - 1)) (Chung,
# Spectral Graph Theory), a cycle 1 - cos(2 pi k / n), twice each, K_n n/(n-1) and a
# star 1. Weighted paths and 4 x m strips take the dense oracle. 200 vertices is about
# the most today's solvers finish: Lanczos spends its budget there and the loop converges
HARD_SPECTRA = {
    **{f"cliques-{eps:.0e}": (barbell(8, eps), None, True)
       for eps in 10.0 ** -np.arange(3, 13)},
    **{f"cycle-{n}": (LayerGraph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)],
                                            directed=False), 1.0 - np.cos(2.0 * np.pi / n), False)
       for n in (50, 200)},
    **{f"complete-{n}": (LayerGraph.from_edges(n, [(i, j, 1.0) for i in range(n) for j in range(i)],
                                               directed=False), n / (n - 1.0), False)
       for n in (8, 40)},
    **{f"star-{n}": (LayerGraph.from_edges(n, [(0, i, 1.0) for i in range(1, n)], directed=False),
                     1.0, False) for n in (9, 50)},
    "n-2": (grid(1, 2), 2.0, True),
    "n-3": (grid(1, 3), 1.0, True),
    **{f"path-{n}": (grid(1, n), 1.0 - np.cos(np.pi / (n - 1)), True)
       for n in (4, 10, 30, 100, 200)},
    **{f"weighted-path-{n}": (grid(1, n, np.random.default_rng(n)), None, True) for n in (50, 200)},
    "strip-4x50": (grid(4, 50), None, True),
    "weighted-strip-4x50": (grid(4, 50, np.random.default_rng(4)), None, True),
}


@pytest.mark.parametrize("name", HARD_SPECTRA)
def test_fiedler_on_hard_spectra(name):
    g, exact, simple = HARD_SPECTRA[name]
    tol = 1e-8
    x = fiedler_vector(g, tol=tol)
    vals, vecs = dense_fiedler_oracle(g)
    lam2 = vals[1] if exact is None else exact
    w = g.toarray()
    d = w.sum(axis=1)
    lsym = np.eye(len(d)) - w / np.sqrt(np.outer(d, d))
    eigenvalue = x @ lsym @ x
    assert abs(eigenvalue - lam2) <= 1e-12
    assert np.linalg.norm(lsym @ x - eigenvalue * x) <= tol + 1e-13
    assert abs(np.sqrt(d) @ x) / np.linalg.norm(np.sqrt(d)) <= tol
    if simple:  # a repeated lambda_2 leaves the vector free within its eigenspace
        assert x[int(np.argmax(np.abs(x)))] > 0.0
        # eigh's vector is good to about eps over the gaps around lambda_2
        if min(vals[1] - vals[0], vals[2:].min(initial=np.inf) - vals[1]) >= 1e-8:
            assert abs(x @ vecs[:, 1]) >= 1.0 - 1e-6
    result = sweep_cut(g, np.argsort(x, kind="stable"))  # bisect's cut, without a second solve
    # Cheeger: lambda2 / 2 <= phi(G) <= phi(sweep cut) <= sqrt(2 lambda2); K_2 and
    # K_n meet the lower bound, so both sides get a rounding margin
    assert lam2 / 2.0 <= result.conductance * (1.0 + 1e-9) + 1e-15
    assert result.conductance <= np.sqrt(2.0 * lam2) * (1.0 + 1e-9)
    if name.startswith("cliques"):
        # swapping the cliques maps the graph onto itself, and the vector to its negative
        assert np.abs(x + x[::-1]).max() <= 1e-6
        assert result.side.tolist() in ([True] * 8 + [False] * 8, [False] * 8 + [True] * 8)


@pytest.mark.parametrize("name", ["complete-8", "complete-40", "star-9", "star-50", "n-3"])
def test_fiedler_with_lambda_2_at_least_one_finishes_in_lanczos(monkeypatch, name):
    # the deflated null direction reads 0 on I + N, below 2 - lambda_2 > 0, so ARPACK's
    # restart vectors cannot make it the answer where lambda_2 >= 1 (n >= 3)
    monkeypatch.setattr(spectral, "_power_loop", lambda *args: pytest.fail("Lanczos missed"))
    fiedler_vector(HARD_SPECTRA[name][0])


def test_fiedler_on_two_vertices_starts_no_arpack(monkeypatch):
    # the deflated I + N is the zero map at n = 2, where eigsh would fail on a
    # zero start after one product; the power loop accepts the deflated start
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *args, **kwargs: pytest.fail("ARPACK ran"))
    fiedler_vector(HARD_SPECTRA["n-2"][0])


def test_fiedler_after_a_spent_lanczos_budget_is_the_power_loop(monkeypatch):
    # a 200-vertex path needs more than _LANCZOS_MATVECS products, so the
    # blocked power loop runs from the seeded start, as before the Lanczos phase
    loops = []

    def recording(*args):
        loops.append(args[-1])
        return power_loop(*args)

    power_loop = spectral._power_loop
    monkeypatch.setattr(spectral, "_power_loop", recording)
    g = HARD_SPECTRA["path-200"][0]
    x = fiedler_vector(g)
    assert loops == [100_000]
    assert x[int(np.argmax(np.abs(x)))] > 0.0
    assert abs(x @ loop_fiedler_oracle(g)) >= 1.0 - 1e-6


def two_community_stack(seed, n=400, l=20):
    """A temporal stack of l snapshots of n vertices with two planted
    communities, every layer coupled to the next: n * l instances."""
    rng = np.random.default_rng(seed)
    first = rng.permutation(n) < n // 2
    p = np.where(first[:, np.newaxis] == first, 0.04, 0.004)
    layers = []
    for _ in range(l):
        a = np.triu(np.where(rng.random((n, n)) < p, rng.uniform(0.5, 1.5, (n, n)), 0.0), 1)
        layers.append(LayerGraph.from_dense(a + a.T, directed=False))
    steps = np.arange(l)
    return compose_distance(layers, np.abs(steps[:, np.newaxis] - steps).astype(float), 0.5,
                            adjacent_only=True)


def test_fiedler_is_deterministic_for_a_seed(monkeypatch):
    monkeypatch.setattr(spectral, "_power_loop", lambda *args: pytest.fail("Lanczos missed"))
    s = two_community_stack(3, n=100, l=10)
    keep = max(components(s.matrix), key=len)
    g = LayerGraph(len(keep), s.matrix[keep][:, keep], directed=False)
    assert np.array_equal(fiedler_vector(g, seed=5), fiedler_vector(g, seed=5))


def test_bisect_report_is_the_same_for_any_blas_thread_count(tmp_path):
    # analyze --bisect in fresh interpreters with one and with two BLAS threads,
    # which may split the solver's dot products and norms differently
    write_super(two_community_stack(1), tmp_path / "stack.mtx")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"bisect-{threads}.json"
        subprocess.run([sys.executable, "-m", "multinet.cli", "analyze", "--super",
                        str(tmp_path / "stack.mtx"), "--bisect", "--largest-component",
                        "--seed", "7", "--out", str(out)], check=True, timeout=120,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src))
        reports.append(out.read_bytes())
    assert b'"bisection"' in reports[0]
    assert reports[0] == reports[1]


def test_bisect_reports_the_eigensolve():
    g = barbell(5)
    result = bisect(g)
    vals, _ = dense_fiedler_oracle(g)
    assert abs(result.eigenvalue - vals[1]) <= 1e-8
    assert 0.0 <= result.residual <= 1e-8
    order = np.argsort(fiedler_vector(g), kind="stable")
    assert sweep_cut(g, order).eigenvalue is None


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


def test_sweep_cut_of_a_union_of_components_is_zero():
    # the prefix {0, 1, 2} is a whole component; its running-sum cut rounds
    # to -5.6e-16 unless clamped
    g = LayerGraph.from_edges(5, [(0, 1, 0.1), (1, 2, 0.7), (3, 4, 0.1)],
                              directed=False)
    result = sweep_cut(g, [0, 1, 2, 3, 4])
    assert result.conductance == 0.0
    assert result.conductance_one_sided == 0.0
    assert result.sweep_profile.min() == 0.0
    assert result.side.tolist() == [True, True, True, False, False]


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


@st.composite
def weighted_connected_graphs(draw):
    """A spanning path in random vertex order plus random extra edges, every
    weight in [0.1, 10], so the power loop converges."""
    n = draw(st.integers(3, 30))
    weight = st.floats(0.1, 10.0)
    path = draw(st.permutations(range(n)))
    edges = {tuple(sorted(pair)): draw(weight) for pair in zip(path, path[1:])}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    for extra in draw(st.lists(pair, max_size=3 * n)):
        edges.setdefault(tuple(sorted(extra)), draw(weight))
    return LayerGraph.from_edges(n, [(u, v, w) for (u, v), w in edges.items()], directed=False)


@settings(max_examples=200, deadline=None)
@given(weighted_connected_graphs())
def test_sweep_conductance_within_cheeger_bounds(g):
    # Cheeger: lambda2 / 2 <= phi(G) <= phi(sweep cut) <= sqrt(2 lambda2)
    lam2 = dense_fiedler_oracle(g)[0][1]
    phi = bisect(g).conductance
    assert lam2 / 2.0 - 1e-9 <= phi <= np.sqrt(2.0 * lam2) + 1e-9


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
    lay = random_graph(rng, 5, directed=False)
    egos = identity_egos(5, 2)
    s = compose_ego([lay, lay], egos)
    assert np.abs(layer_load(s).loads - 0.5).max() <= 1e-12


def test_layer_load_one_to_three_ratio(rng):
    g = random_graph(rng, 6, directed=False)
    lay, lay3 = g, g.scaled(3.0)
    egos = identity_egos(6, 2)
    s = compose_ego([lay, lay3], egos)
    assert np.abs(layer_load(s).loads - [0.25, 0.75]).max() <= 1e-12


def test_layer_load_monotone_in_layer_scale(rng):
    g = random_graph(rng, 6, directed=False)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    base = compose_distance([g, g], dist, 1.0)
    boosted = compose_distance(
        [g, g.scaled(2.0)], dist, 1.0
    )
    assert boosted and layer_load(boosted).loads[1] > layer_load(base).loads[1]
    assert abs(layer_load(boosted).loads.sum() - 1.0) <= 1e-12


def overflowing_stack():
    """One layer of two instances joined both ways by 1.5e308: each degree is
    finite, their sum is not."""
    return SuperAdjacency(2, 1, sparse.csc_array([[0.0, 1.5e308], [1.5e308, 0.0]]))


def test_layer_load_rejects_an_overflowing_total_degree():
    with pytest.raises(ValueError, match="total degree overflows float64"):
        layer_load(overflowing_stack())


@pytest.mark.parametrize("loads", [[np.nan], [0.5, np.nan], [np.inf, 0.0]])
def test_layer_load_type_rejects_non_finite_entries(loads):
    with pytest.raises(ValueError, match="finite"):
        LayerLoad(np.array(loads))


def test_analyze_of_an_overflowing_stack_exits_1(tmp_path, capsys):
    path = tmp_path / "big.mtx"
    write_super(overflowing_stack(), path)
    assert main(["analyze", "--super", str(path), "--layer-load"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ValueError", "message": "total degree overflows float64; rescale the weights"}]


def test_bisect_on_super_adjacency(rng):
    lay = random_connected_graph(rng, 6)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = compose_distance([lay, lay], dist, 0.05)
    result = bisect(s)
    assert result.side.shape == (12,)
    assert 0 < result.side.sum() < 12
