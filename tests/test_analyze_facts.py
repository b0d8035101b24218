"""analyze decides each fact about its matrix once, and reports as if it had
recomputed every one: its symmetry, its components and its degrees."""

import contextlib
import io
import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import (
    LayerGraph,
    bisect,
    components,
    compose_distance,
    graph,
    layer_load,
    stationary,
    write_super,
)
from multinet.cli import main
from multinet.errors import MultinetError, NoConvergence
from multinet.graph import component_matrix
from multinet.io import write_json


def stack(rng, n, l, groups, directed=False, presence=0.8):
    """A distance-coupled stack of l random layers over n vertices split into
    `groups` groups that no edge joins, with a self-loop at each vertex
    present in a layer; a vertex is absent from a layer with probability
    1 - presence, which leaves an isolated instance."""
    group = rng.integers(0, groups, n)
    layers = []
    for _ in range(l):
        a = np.where((rng.random((n, n)) < 0.5) & (group[:, None] == group[None, :]),
                     rng.uniform(0.5, 1.5, (n, n)), 0.0)
        present = rng.random(n) < presence
        a *= np.outer(present, present)
        a += np.diag(present.astype(float))
        layers.append(LayerGraph.from_dense(a if directed else np.triu(a) + np.triu(a).T,
                                            directed=directed))
    dist = np.abs(np.subtract.outer(np.arange(l), np.arange(l))).astype(float)
    return compose_distance(layers, dist, 0.5, adjacent_only=True)


def write_general(s, path):
    """The Matrix Market file of `s` under the general banner, both triangles."""
    with open(path, "wb") as handle:
        scipy.io.mmwrite(handle, s.matrix, field="real", symmetry="general",
                         comment=f" multinet super-adjacency n={s.n} l={s.l}")


def analyze(path, flags, out):
    """(exit code, report bytes or the error line) of one analyze command."""
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["analyze", "--super", str(path), *flags, "--out", str(out)])
    return code, out.read_bytes() if code == 0 else err.getvalue()


def recomputed(s, flags, seed, out):
    """analyze's outcome from public calls on fresh objects, each deciding
    every fact about its matrix again: the components, the symmetry, the
    degrees."""
    def fresh():
        return LayerGraph(s.n * s.l, s.matrix, directed=True)

    report, kept, n = {"seed": seed}, np.arange(s.n * s.l), s.n * s.l
    try:
        if "--largest-component" in flags:
            comps = components(s.matrix)
            if len(comps) > 1:
                kept = comps[0]
                report["restricted_to_component"] = kept.tolist()
        restricted = "restricted_to_component" in report

        def walk():
            return (LayerGraph(len(kept), component_matrix(s.matrix, kept), directed=True)
                    if restricted else fresh())

        if "--bisect" in flags:
            b = bisect(walk(), seed=seed)
            side = np.zeros(n, dtype=bool)
            side[kept[b.side]] = True
            report["bisection"] = {"side": np.flatnonzero(side).tolist(),
                                   "conductance": b.conductance,
                                   "conductance_one_sided": b.conductance_one_sided,
                                   "eigenvalue": b.eigenvalue, "residual": b.residual}
        if "--layer-load" in flags:
            report["layer_load"] = layer_load(s).loads
        if "--stationary" in flags:
            report["stationary"] = stationary(walk()).pi
    except (MultinetError, ValueError) as exc:
        error = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        return (3 if isinstance(exc, NoConvergence) else 1), error + "\n"
    write_json(report, out)
    return 0, out.read_bytes()


FLAGS = [["--stationary", "--layer-load"], ["--bisect"],
         ["--bisect", "--stationary", "--layer-load"]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 12), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.sampled_from([1.0, 0.8]), st.sampled_from(FLAGS), st.booleans())
@pytest.mark.filterwarnings("ignore:directed graph symmetrized")
def test_report_is_the_one_recomputed_from_public_calls(tmp_path_factory, seed, n, l, groups,
                                                        directed, presence, flags, largest):
    tmp = tmp_path_factory.mktemp("facts")
    s = stack(np.random.default_rng(seed), n, l, groups, directed, presence)
    flags = [*flags, "--largest-component"] if largest else flags
    expected = recomputed(s, flags, 42, tmp / "expected.json")
    # the writer's banner (symmetric exactly when the matrix is), the same
    # matrix under the general banner, and the JSON layout, which has none
    paths = [tmp / "super.mtx", tmp / "general.mtx", tmp / "super.json"]
    write_super(s, paths[0])
    write_general(s, paths[1])
    write_super(s, paths[2])
    symmetric = (s.matrix != s.matrix.T).nnz == 0
    assert paths[0].read_text().startswith(
        "%%MatrixMarket matrix coordinate real " + ("symmetric" if symmetric else "general"))
    for path in paths:
        assert analyze(path, flags, tmp / "report.json") == expected, path.name


@pytest.fixture
def counted(monkeypatch):
    """Calls of csgraph's connected_components and of the transposed-copy
    symmetry check, from here on."""
    calls = {"connected_components": 0, "_is_symmetric": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    counting(scipy.sparse.csgraph, "connected_components")
    counting(graph, "_is_symmetric")
    return calls


@pytest.mark.parametrize("flags", [["--stationary", "--layer-load"], ["--bisect"]])
@pytest.mark.parametrize("name, symmetry_checks", [
    ("super.json", 1),
    # the symmetric banner decides it: each entry was read with its mirror
    ("super.mtx", 0),
])
def test_each_fact_is_decided_once(name, symmetry_checks, flags, tmp_path, counted):
    s = stack(np.random.default_rng(7), 40, 3, 2)
    assert (s.matrix != s.matrix.T).nnz == 0
    path = tmp_path / name
    write_super(s, path)
    counted.update(connected_components=0, _is_symmetric=0)
    code, report = analyze(path, [*flags, "--largest-component"], tmp_path / "report.json")
    assert code == 0 and b"restricted_to_component" in report
    assert counted == {"connected_components": 1, "_is_symmetric": symmetry_checks}


@pytest.mark.parametrize("largest", [False, True])
def test_a_directed_walk_is_counted_once_and_built_unchecked(largest, tmp_path, monkeypatch):
    # the walk's pattern is the graph's transposed: the one pattern count made
    # for LayerGraph.symmetric also turns the chain away from the balance start
    s = stack(np.random.default_rng(3), 40, 3, 2, directed=True, presence=1.0)
    path = tmp_path / "super.mtx"
    write_super(s, path)
    calls = {"_symmetric_counts": 0, "__post_init__": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, count)

    counting(graph, "_symmetric_counts")
    counting(graph.TransitionMatrix, "__post_init__")
    flags = ["--stationary", "--layer-load", *(["--largest-component"] if largest else [])]
    code, report = analyze(path, flags, tmp_path / "report.json")
    assert code == 0
    assert calls == {"_symmetric_counts": 1, "__post_init__": 0}
    monkeypatch.undo()
    assert report == recomputed(s, flags, 42, tmp_path / "expected.json")[1]
