"""The whole pipeline through the command-line entry point on small random
multilayer datasets: compose, verify, analyze, and the super-adjacency file
between them.

Distance compositions take undirected layers, ego compositions directed ones
with an ego file; a vertex may be absent from any layer. Each run asserts the
commands' exit codes, a bit-identical round trip of the composed file, a
stationary distribution checked against a dense walk built from that file,
layer loads that sum to one and a report that a second run reproduces byte
for byte.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import read_super, write_super
from multinet.cli import main

PIPELINE = settings(max_examples=100, deadline=None, derandomize=True)
WEIGHTS = st.floats(0.1, 10.0)


@st.composite
def datasets(draw):
    """(layered file text, ego file payload or None, compose arguments,
    whether a vertex is absent from a layer)."""
    n, l, directed = draw(st.integers(2, 12)), draw(st.integers(1, 3)), draw(st.booleans())
    vertices = st.integers(0, n - 1)
    gaps = draw(st.booleans())  # whether a directed layer may leave vertices out
    edges = []  # (layer, u, v, weight)
    for k in range(l):
        if directed:  # a vertex present in the layer has an out-edge; any other, no edge
            absent = draw(st.sets(vertices)) if gaps else set()
            present = [u for u in range(n) if u not in absent]
            for u in present if len(present) > 1 else ():
                targets = draw(st.sets(st.sampled_from([v for v in present if v != u]),
                                       min_size=1, max_size=3))
                edges += [(k, u, v, draw(WEIGHTS)) for v in sorted(targets)]
        else:  # a vertex no edge touches is absent from the layer
            pairs = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))),
                                 max_size=2 * n))
            edges += [(k, u, v, draw(WEIGHTS)) for u, v in sorted(pairs)]
    if not edges:  # one edge, both ways round in a directed layer
        edges += [(0, 0, 1, draw(WEIGHTS))] + [(0, 1, 0, draw(WEIGHTS))] * directed
    kind = "directed" if directed else "undirected"
    text = "".join([*(f"layer L{k} {kind}\n" for k in range(l)),
                    *(f"vertex v{u}\n" for u in range(n)),
                    *(f"edge L{k} v{u} v{v} {w!r}\n" for k, u, v, w in edges)])
    present = np.zeros((n, l), dtype=bool)
    for k, u, v, _ in edges:
        present[u, k] = present[v, k] = True
    if not directed:
        return (text, None, ["--mode", "distance", "--coupling", repr(draw(WEIGHTS))],
                not present.all())
    # an ego matrix moves a vertex only into the layers it has out-edges in
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    egos = {}
    for u in range(n):
        m = np.zeros((l, l))
        for i in range(l):
            into = present[u] | (np.arange(l) == i)
            m[into, i] = rng.dirichlet(np.ones(into.sum()))
            m[i, i] += 0.1  # a stay probability of at least 0.1 / 1.1
            m[:, i] /= m[:, i].sum()
        egos[f"v{u}"] = m.tolist()
    return text, egos, ["--mode", "ego", "--ego-file", "{ego}"], not present.all()


def run(argv):
    """The exit code of one command, its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def dense_walk(matrix):
    """M[v, u] = a[u, v] / out_degree(u), the unbiased walk, densely."""
    return (matrix / matrix.sum(axis=1)[:, None]).T


@PIPELINE
@given(datasets())
def test_compose_verify_analyze(dataset):
    text, egos, mode, absent = dataset
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: str(Path(tmp) / name) for name in
                ("layers.txt", "ego.json", "super.mtx", "again.mtx", "r1.json", "r2.json")}
        Path(path["layers.txt"]).write_text(text)
        if egos is not None:
            Path(path["ego.json"]).write_text(json.dumps(egos))
        mode = [arg.format(ego=path["ego.json"]) for arg in mode]
        assert run(["compose", "--layers", path["layers.txt"], *mode,
                    "--out", path["super.mtx"]]) == 0
        if egos is not None and not absent:  # verify refuses an absent vertex: see below
            assert run(["verify", "--super", path["super.mtx"], "--layers", path["layers.txt"],
                        "--ego-file", path["ego.json"]]) == 0

        s = read_super(path["super.mtx"])
        write_super(s, path["again.mtx"])
        assert Path(path["again.mtx"]).read_bytes() == Path(path["super.mtx"]).read_bytes()
        again = read_super(path["again.mtx"])
        assert np.array_equal(again.matrix.data.view(np.uint64), s.matrix.data.view(np.uint64))
        assert np.array_equal(again.matrix.indices, s.matrix.indices)
        assert np.array_equal(again.matrix.indptr, s.matrix.indptr)

        analyze = ["analyze", "--super", path["super.mtx"], "--stationary", "--layer-load",
                   "--largest-component", "--out"]
        assert run([*analyze, path["r1.json"]]) == 0
        assert run([*analyze, path["r2.json"]]) == 0
        report = Path(path["r1.json"]).read_bytes()
        assert Path(path["r2.json"]).read_bytes() == report

    report = json.loads(report)
    kept = report.get("restricted_to_component", range(s.n * s.l))
    pi = np.array(report["stationary"])
    walk = dense_walk(s.matrix.toarray()[np.ix_(kept, kept)])
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.abs(walk @ pi - pi).sum() <= 1e-10
    assert abs(sum(report["layer_load"]) - 1.0) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: verify_ego_consistency raises IsolatedInstance (exit 1) at a vertex absent "
    "from a layer, a composition compose_ego accepts and verify_layer_consistency passes"))
def test_ego_composition_with_an_absent_vertex_verifies(tmp_path):
    layers, egos, out = tmp_path / "layers.txt", tmp_path / "ego.json", tmp_path / "super.mtx"
    # v2 is absent from L0, and its ego matrix never moves it there
    layers.write_text("layer L0 directed\nlayer L1 directed\n"
                      "edge L0 v0 v1 1.0\nedge L0 v1 v0 1.0\n"
                      "edge L1 v0 v2 1.0\nedge L1 v2 v0 1.0\nedge L1 v1 v2 1.0\nedge L1 v2 v1 1.0\n")
    egos.write_text(json.dumps({f"v{u}": np.eye(2).tolist() for u in range(3)}))
    assert run(["compose", "--layers", str(layers), "--mode", "ego", "--ego-file", str(egos),
                "--out", str(out)]) == 0
    assert run(["verify", "--super", str(out), "--layers", str(layers),
                "--ego-file", str(egos)]) == 0
