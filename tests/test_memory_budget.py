"""Traced memory of read -> analyze, per stored entry of the super-adjacency,
and of reading a layered file, per edge line.

The canonical CSC of a super-adjacency takes 12 bytes per stored entry
(float64 weights, int32 row indices). Each stage below holds that matrix
plus at most a few more arrays of its size; the budgets pin how many.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from multinet import (
    LayerGraph,
    cli,
    compose_distance,
    read_layers,
    stationary,
    urw_transition,
)
from multinet.io import read_super, write_super

# bytes per stored entry. read_super holds the file's COO (16) next to the
# CSC built from it (12), and nothing more
READ_SUPER_BUDGET = 34
# analyze reads, takes the largest component, then holds one matrix with at
# most two more arrays of its size at a time (a transpose, a scaled copy, a
# spanning forest) and per-instance vectors: about 42 bytes at this stack's
# 20 entries per instance
ANALYZE_BUDGET = 52
# the stationary vector of a symmetric walk comes from its degrees: besides
# the matrix, one CSR copy for the symmetry check and per-instance vectors,
# about 32 bytes; a transition matrix and its balance forest take about 42
STATIONARY_BUDGET = 40
# bytes per stored entry of a directed walk's transition matrix: its CSC (12),
# one range of rows' scale factors and per-vertex vectors, about 15 on the
# graph below; a scaled copy of all the weights next to the CSC took 21
TRANSITION_BUDGET = 18
# bytes per stored entry of a reversible walk's stationary(m, max_iter=0), the
# balance route: the transition matrix's transposed copy (12), the spanning
# forest and per-state vectors, about 29.4 on the grid below; reading each
# forest edge's two probabilities by a batched bisection of the columns took 33.8
BALANCE_BUDGET = 36
# bytes per edge line. read_layers keeps 32 per edge in its buffers (layer,
# ends, weight), about 34 with their growth; the repeated-edge check, then the
# layers it builds, add about 40 at their peak: about 74 on the file below.
# Buffers of 40 bytes per edge, with the check's keys held while the layers
# were built, took 98
READ_LAYERS_BUDGET = 84


def two_community_stack(seed, n=600, l=8, degree=24):
    """A distance-coupled stack of undirected layers over two planted
    communities; about a tenth of the vertices is absent from each layer,
    which leaves isolated instances outside the largest component."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(l):
        u = rng.integers(0, n, n * degree // 2)
        # same parity is the same community; one edge in twenty crosses
        v = (u + 2 * rng.integers(1, n // 2, u.size) + (rng.random(u.size) < 0.05)) % n
        present = rng.random(n) < 0.9
        keep = (u != v) & present[u] & present[v]
        pairs = np.unique(np.sort(np.column_stack([u[keep], v[keep]]), axis=1), axis=0)
        weights = rng.uniform(0.5, 1.5, len(pairs))
        layers.append(LayerGraph.from_edges(n, np.column_stack([pairs, weights]), directed=False))
    dist = np.abs(np.subtract.outer(np.arange(l), np.arange(l))).astype(float)
    return compose_distance(layers, dist, 0.5, adjacent_only=True)


def traced_peak(call, *args):
    """The traced peak of one call, in bytes above what was held before it."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stack_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "stack.mtx"
    s = two_community_stack(2016)
    write_super(s, path)
    return path, s.matrix.nnz


def analyze(path, out, *flags):
    argv = ["analyze", "--super", str(path), *flags, "--largest-component", "--out", str(out)]
    assert cli.main(argv) == 0


def test_the_stack_has_about_1e5_entries_and_a_smaller_largest_component(stack_file, tmp_path):
    path, nnz = stack_file
    assert 80_000 <= nnz <= 200_000
    analyze(path, tmp_path / "report.json", "--bisect")
    assert "restricted_to_component" in (tmp_path / "report.json").read_text()


@pytest.mark.parametrize("stage, budget", [
    ("read_super", READ_SUPER_BUDGET),
    ("bisect", ANALYZE_BUDGET),
    ("stationary", STATIONARY_BUDGET),
])
def test_read_to_analyze_keeps_its_bytes_per_entry_budget(stack_file, tmp_path, stage, budget):
    path, nnz = stack_file
    # a first run loads csgraph, ARPACK and scipy.io, which are not the matrix's cost
    analyze(path, tmp_path / "warm.json", "--bisect", "--stationary")
    out = tmp_path / "report.json"
    calls = {
        "read_super": (read_super, path),
        "bisect": (analyze, path, out, "--bisect"),
        "stationary": (analyze, path, out, "--stationary", "--layer-load"),
    }
    peak = traced_peak(*calls[stage])
    assert peak <= budget * nnz, f"{stage}: {peak / nnz:.1f} bytes per stored entry"


def test_read_layers_keeps_its_bytes_per_edge_budget(tmp_path):
    """Six layers over 3,000 labels, every other one undirected: 67,402 edge
    lines, each edge given once, in random order within its layer."""
    rng = np.random.default_rng(7)
    n, l, m = 3000, 6, 15_000
    parts = [f"layer L{k} {'directed' if k % 2 else 'undirected'}\n" for k in range(l)]
    for k in range(l):
        u, v = np.divmod(rng.choice(n * n, m, replace=False), n)
        keep = u != v if k % 2 else u < v
        weights = rng.uniform(0.5, 2.0, int(keep.sum()))
        parts += [f"edge L{k} v{a} v{b} {w!r}\n"
                  for a, b, w in zip(u[keep].tolist(), v[keep].tolist(), weights.tolist())]
    path = tmp_path / "stack.layers"
    path.write_text("".join(parts), encoding="utf-8")
    edges = len(parts) - l
    assert 60_000 <= edges <= 70_000
    read_layers(path)  # a first read is not the file's cost
    peak = traced_peak(read_layers, path)
    assert peak <= READ_LAYERS_BUDGET * edges, f"{peak / edges:.1f} bytes per edge line"


def test_a_directed_walk_keeps_its_bytes_per_entry_budget():
    """10,000 vertices with 30 distinct out-neighbours each, one per band."""
    rng = np.random.default_rng(11)
    n, out = 10_000, 30
    band = n // out
    rows = np.repeat(np.arange(n), out)
    cols = (rows + rng.integers(1, band, rows.size) + np.tile(np.arange(out) * band, n)) % n
    g = LayerGraph(n, sparse.csc_array((rng.uniform(0.5, 1.5, rows.size), (rows, cols)),
                                       shape=(n, n)), directed=True)
    assert g.matrix.nnz == n * out and not g.symmetric
    urw_transition(g)
    peak = traced_peak(urw_transition, g)
    assert peak <= TRANSITION_BUDGET * g.matrix.nnz, f"{peak / g.matrix.nnz:.1f} bytes per entry"


def test_a_reversible_walk_keeps_its_balance_budget():
    """A 300 x 300 grid whose steps to the right weigh 1.5 and all others 1:
    a symmetric pattern, weights biased one way, a reversible walk."""
    side = 300
    grid = np.arange(side * side).reshape(side, side)
    left, right = grid[:, :-1].ravel(), grid[:, 1:].ravel()
    low, high = grid[:-1, :].ravel(), grid[1:, :].ravel()
    weights = np.concatenate([np.full(left.size, 1.5), np.ones(left.size + 2 * low.size)])
    a = sparse.csc_array((weights, (np.concatenate([left, right, low, high]),
                                    np.concatenate([right, left, high, low]))),
                         shape=(side * side, side * side))
    m = urw_transition(LayerGraph(side * side, a, directed=True))
    stationary(m, max_iter=0)  # a first call loads csgraph
    peak = traced_peak(lambda: stationary(m, max_iter=0))
    assert peak <= BALANCE_BUDGET * m.matrix.nnz, f"{peak / m.matrix.nnz:.1f} bytes per entry"
