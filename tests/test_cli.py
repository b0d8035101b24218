"""End-to-end CLI runs with exit-code checks."""

import argparse
import json

import numpy as np
import pytest

from multinet import (
    EgoMarkov,
    LayerGraph,
    bisect,
    cli,
    components,
    compose_distance,
    compose_ego,
    compose_multiplex,
    compose_stationary,
    layer_load,
    read_ego_file,
    read_layers,
    read_super,
    stationary,
    urw_transition,
    verify_ego_consistency,
    verify_layer_consistency,
)
from multinet.cli import main
from multinet.io import write_json
from multinet.errors import NoConvergence

from test_io import CATS, GR, TOY


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.layers"
    path.write_text(TOY)
    return path


@pytest.fixture
def temporal_path(tmp_path):
    lines = ["layer t1 undirected", "layer t2 undirected", "layer t3 undirected"]
    for name in ("t1", "t2", "t3"):
        lines += [f"edge {name} a b 1.0", f"edge {name} b c 1.0"]
    path = tmp_path / "temporal.layers"
    path.write_text("\n".join(lines) + "\n")
    return path


def barbell_file(tmp_path):
    lines = ["layer net undirected"]
    for base in ("l", "r"):
        for i in range(5):
            for j in range(i + 1, 5):
                lines.append(f"edge net {base}{i} {base}{j} 1.0")
    lines.append("edge net l4 r0 1.0")
    path = tmp_path / "barbell.layers"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_transform_subcommand(tmp_path, toy_path):
    delay = tmp_path / "delay.json"
    delay.write_text(json.dumps({"phone": {"alice": 3.0}}))
    out = tmp_path / "transformed.layers"
    assert main(["transform", "--layers", str(toy_path),
                 "--delay-file", str(delay), "--out", str(out)]) == 0
    ds = read_layers(out)
    # alice's phone delay 3 becomes a self-loop of (3-1) * degree 3 = 6
    assert ds.layer("phone").toarray()[0, 0] == 6.0


def test_transform_degree_delay(tmp_path, toy_path):
    out = tmp_path / "congested.layers"
    assert main(["transform", "--layers", str(toy_path),
                 "--degree-delay", "1.0", "--out", str(out)]) == 0
    ds = read_layers(out)
    # tau = 1 + deg, so every vertex gains a self-loop of deg^2
    assert ds.layer("phone").toarray()[0, 0] == 9.0

    delay = tmp_path / "delay.json"
    delay.write_text(json.dumps({"phone": {"alice": 3.0}}))
    assert main(["transform", "--layers", str(toy_path),
                 "--delay-file", str(delay), "--degree-delay", "1.0",
                 "--out", str(out)]) == 1


def assert_report(text, expected):
    """One top-level key per line, values bit-identical to `expected`."""
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    keys = [json.loads("{" + line.removesuffix(",") + "}") for line in lines[1:-1]]
    assert [list(k) for k in keys] == [[key] for key in expected]
    # float repr round-trips, so equal dumps mean bit-identical values
    assert json.dumps(json.loads(text)) == json.dumps(expected)


def test_analyze_report_matches_library(tmp_path, temporal_path):
    # vertex d lives in t1 only, leaving isolated instances in t2 and t3
    path = tmp_path / "stack.layers"
    path.write_text(temporal_path.read_text() + "edge t1 c d 2.0\n")
    super_path, out = tmp_path / "super.mtx", tmp_path / "report.json"
    assert main(["compose", "--layers", str(path), "--mode", "distance",
                 "--coupling", "0.5", "--out", str(super_path)]) == 0
    assert main(["analyze", "--super", str(super_path), "--bisect", "--stationary",
                 "--layer-load", "--largest-component", "--out", str(out)]) == 0
    s = read_super(super_path)
    kept = components(s.matrix)[0]
    assert kept.size < s.n * s.l
    walk = LayerGraph(kept.size, s.matrix[kept, :][:, kept], directed=False)
    b = bisect(walk, seed=42)
    assert_report(out.read_text(), {
        "seed": 42,
        "restricted_to_component": kept.tolist(),
        "bisection": {"side": np.sort(kept[b.side]).tolist(),
                      "conductance": b.conductance,
                      "conductance_one_sided": b.conductance_one_sided,
                      "eigenvalue": b.eigenvalue, "residual": b.residual},
        "layer_load": layer_load(s).loads.tolist(),
        "stationary": stationary(walk).pi.tolist(),
    })


def test_analyze_directed_stationary_is_the_transition_matrix_route(tmp_path, toy_path):
    # an ego composition's matrix is not symmetric: its report is that of the
    # walk's transition matrix, byte for byte
    ds = read_layers(toy_path)
    rng = np.random.default_rng(11)
    ego_path, super_path = tmp_path / "egos.json", tmp_path / "super.mtx"
    ego_path.write_text(json.dumps({label: rng.dirichlet(np.ones(3), size=3).T.tolist()
                                    for label in ds.labels}))
    assert main(["compose", "--layers", str(toy_path), "--mode", "ego",
                 "--ego-file", str(ego_path), "--out", str(super_path)]) == 0
    out, expected = tmp_path / "report.json", tmp_path / "expected.json"
    assert main(["analyze", "--super", str(super_path), "--stationary", "--out", str(out)]) == 0
    walk = read_super(super_path).as_graph()
    assert (walk.matrix != walk.matrix.T).nnz > 0
    write_json({"seed": 42, "stationary": stationary(urw_transition(walk)).pi}, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_verify_report_matches_library(tmp_path, toy_path, capsys):
    ds = read_layers(toy_path)
    rng = np.random.default_rng(5)
    ego_path, super_path = tmp_path / "egos.json", tmp_path / "super.mtx"
    ego_path.write_text(json.dumps({label: rng.dirichlet(np.ones(3), size=3).T.tolist()
                                    for label in ds.labels}))
    assert main(["compose", "--layers", str(toy_path), "--mode", "ego",
                 "--ego-file", str(ego_path), "--out", str(super_path)]) == 0
    assert main(["verify", "--super", str(super_path), "--layers", str(toy_path),
                 "--ego-file", str(ego_path), "--tol", "1e-12"]) == 0
    s = read_super(super_path)
    layers = verify_layer_consistency(s, ds.layers, tol=1e-12)
    egos = verify_ego_consistency(s, read_ego_file(ego_path, ds), tol=1e-12)
    assert_report(capsys.readouterr().out, {
        "tol": 1e-12,
        "layer_consistency": {"passed": True,
                              "max_deviation_per_layer": layers.max_deviation_per_layer.tolist(),
                              "worst": list(layers.worst)},
        "ego_consistency": {"passed": True,
                            "max_deviation_per_vertex": egos.max_deviation_per_vertex.tolist(),
                            "worst_vertex": egos.worst_vertex},
    })


def test_compose_distance_and_analyze(tmp_path, temporal_path, capsys):
    out = tmp_path / "super.mm"
    assert main(["compose", "--layers", str(temporal_path), "--mode", "distance",
                 "--coupling", "0.5", "--out", str(out)]) == 0
    s = read_super(out)
    inter = s.block(0, 1).diagonal()
    assert np.all(inter[inter > 0] == 0.5)
    assert s.block(0, 2).nnz == 0  # adjacent-only by default

    assert main(["analyze", "--super", str(out), "--bisect", "--layer-load"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "bisection" in report and "layer_load" in report
    assert abs(sum(report["layer_load"]) - 1.0) <= 1e-12


def test_compose_ego_verify_round_trip(tmp_path, toy_path, capsys):
    ds = read_layers(toy_path)
    rng = np.random.default_rng(3)
    egos = {}
    for label in ds.labels:
        m = rng.dirichlet(np.full(3, 2.0), size=3).T + np.eye(3)
        m /= m.sum(axis=0)
        egos[label] = m.tolist()
    ego_path = tmp_path / "egos.json"
    ego_path.write_text(json.dumps(egos))
    super_path = tmp_path / "super.mm"
    assert main(["compose", "--layers", str(toy_path), "--mode", "ego",
                 "--ego-file", str(ego_path), "--out", str(super_path)]) == 0
    assert main(["verify", "--super", str(super_path), "--layers", str(toy_path),
                 "--ego-file", str(ego_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["layer_consistency"]["passed"]
    assert report["ego_consistency"]["passed"]

    # perturb one inter-layer entry: verify must now fail with exit 1
    text = super_path.read_text().splitlines()
    for k, line in enumerate(text):
        if line.startswith("%") or k < 3:
            continue
        i, j, w = line.split()
        if (int(i) - 1) // ds.n != (int(j) - 1) // ds.n:
            text[k] = f"{i} {j} {float(w) * 2}"
            break
    super_path.write_text("\n".join(text) + "\n")
    assert main(["verify", "--super", str(super_path), "--layers", str(toy_path),
                 "--ego-file", str(ego_path)]) == 1


def test_verify_dynamics_composition_against_transformed_layers(tmp_path,
                                                                 toy_path,
                                                                 capsys):
    # verify compares with the layers it is given: a composition made with
    # dynamics verifies against `transform` run with the same flags
    ds = read_layers(toy_path)
    m = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.2, 0.6]])
    ego_path = tmp_path / "egos.json"
    ego_path.write_text(json.dumps({label: m.tolist() for label in ds.labels}))
    super_path = tmp_path / "super.mm"
    transformed = tmp_path / "transformed.layers"
    assert main(["compose", "--layers", str(toy_path), "--mode", "ego",
                 "--ego-file", str(ego_path), "--degree-delay", "0.5",
                 "--out", str(super_path)]) == 0
    assert main(["transform", "--layers", str(toy_path),
                 "--degree-delay", "0.5", "--out", str(transformed)]) == 0
    assert main(["verify", "--super", str(super_path),
                 "--layers", str(transformed), "--ego-file", str(ego_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["layer_consistency"]["passed"]
    assert report["ego_consistency"]["passed"]
    # against the raw layers the delay self-loops show up as a mismatch
    assert main(["verify", "--super", str(super_path),
                 "--layers", str(toy_path), "--ego-file", str(ego_path)]) == 1


def test_compose_multiplex_writes_layered_file(tmp_path, temporal_path):
    out = tmp_path / "flat.layers"
    assert main(["compose", "--layers", str(temporal_path),
                 "--mode", "multiplex", "--out", str(out)]) == 0
    ds = read_layers(out)
    assert ds.layer_names == ["composed"]
    assert ds.layer("composed").toarray()[0, 1] == 3.0  # three unit layers summed


# one CLI compose per flag set, against the library call it stands for
ASYMMETRIC_EGO = [[0.6, 0.3, 0.2], [0.3, 0.5, 0.3], [0.1, 0.2, 0.5]]
EGOS = EgoMarkov(np.tile(ASYMMETRIC_EGO, (3, 1, 1)))
DISTANCES = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
PI = {"a": [0.3, 0.3, 0.4], "b": [0.25, 0.4, 0.35], "c": [1 / 3, 1 / 3, 1 / 3]}
POSITION = np.arange(3.0)
UNIT_SPACED = np.abs(POSITION[:, None] - POSITION[None, :])
COMPOSE_FLAGS = {
    "multiplex": (["--mode", "multiplex"], compose_multiplex),
    "ego": (["--mode", "ego", "--ego-file", "{ego}"],
            lambda layers: compose_ego(layers, EGOS)),
    "ego symmetrized": (["--mode", "ego", "--ego-file", "{ego}", "--require-undirected",
                         "--force-symmetrize"],
                        lambda layers: compose_ego(layers, EGOS, require_undirected=True,
                                                   force_symmetrize=True)),
    "stationary": (["--mode", "stationary", "--pi-file", "{pi}"],
                   lambda layers: compose_stationary(layers, [PI[v] for v in "abc"])),
    "distance adjacent": (["--mode", "distance", "--coupling", "0.5"],
                          lambda layers: compose_distance(layers, UNIT_SPACED, 0.5,
                                                          adjacent_only=True)),
    "distance all pairs uniform": (["--mode", "distance", "--coupling", "0.5", "--all-pairs",
                                    "--kernel", "uniform"],
                                   lambda layers: compose_distance(layers, UNIT_SPACED, 0.5,
                                                                   kernel="uniform")),
    "distance file": (["--mode", "distance", "--coupling", "0.5", "--distances", "{dist}"],
                      lambda layers: compose_distance(layers, DISTANCES, 0.5)),
}


@pytest.mark.parametrize("case", COMPOSE_FLAGS)
def test_compose_flags_match_library(case, tmp_path, temporal_path):
    flags, library = COMPOSE_FLAGS[case]
    files = {"ego": {v: ASYMMETRIC_EGO for v in "abc"}, "pi": PI, "dist": DISTANCES}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    out = tmp_path / ("flat.layers" if case == "multiplex" else "super.mtx")
    argv = ["compose", "--layers", str(temporal_path), "--out", str(out)]
    argv += [flag.format(**{k: tmp_path / f"{k}.json" for k in files}) for flag in flags]
    assert main(argv) == 0
    want = library(read_layers(temporal_path).layers)
    got = read_layers(out).layers[0] if case == "multiplex" else read_super(out)
    assert want.matrix.shape == got.matrix.shape
    assert np.array_equal(got.matrix.indptr, want.matrix.indptr)
    assert np.array_equal(got.matrix.indices, want.matrix.indices)
    assert np.array_equal(got.matrix.data, want.matrix.data)


def test_force_symmetrize_alone_symmetrizes(tmp_path):
    layers = tmp_path / "two.layers"
    layers.write_text("layer p undirected\nlayer q undirected\n"
                      "edge p a b 1.0\nedge q a b 1.0\n")
    ego = tmp_path / "ego.json"
    ego.write_text(json.dumps({v: [[0.8, 0.3], [0.2, 0.7]] for v in "ab"}))
    out = tmp_path / "super.mtx"
    assert main(["compose", "--layers", str(layers), "--mode", "ego", "--ego-file", str(ego),
                 "--force-symmetrize", "--out", str(out)]) == 0
    mat = read_super(out).matrix
    assert (mat != mat.T).nnz == 0


def test_compose_ego_force_symmetrize_alone_symmetrizes():
    edge = LayerGraph.from_edges(2, [(0, 1, 1.0)], directed=False)
    egos = EgoMarkov(np.array([[[0.8, 0.3], [0.2, 0.7]]] * 2))
    plain = compose_ego([edge, edge], egos).matrix
    assert (plain != plain.T).nnz == 4  # asymmetric without the flag
    alone = compose_ego([edge, edge], egos, force_symmetrize=True).matrix
    assert (alone != alone.T).nnz == 0
    both = compose_ego([edge, edge], egos, require_undirected=True, force_symmetrize=True)
    assert np.array_equal(alone.toarray(), both.matrix.toarray())


def test_compose_json_name_round_trips_through_analyze(tmp_path, temporal_path, capsys):
    out = tmp_path / "s.json"
    assert main(["compose", "--layers", str(temporal_path), "--mode", "distance",
                 "--coupling", "0.5", "--out", str(out)]) == 0
    assert out.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric\n")
    assert main(["analyze", "--super", str(out), "--layer-load"]) == 0
    assert abs(sum(json.loads(capsys.readouterr().out)["layer_load"]) - 1.0) <= 1e-12


def test_analyze_barbell_bisection(tmp_path, capsys):
    path = barbell_file(tmp_path)
    assert main(["analyze", "--layers", str(path), "--bisect"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["bisection"]["conductance"] - 1.0 / 21.0) <= 1e-15
    assert len(report["bisection"]["side"]) == 5
    assert report["bisection"]["residual"] <= 1e-8
    assert 0.0 < report["bisection"]["eigenvalue"] < 2.0


def test_analyze_has_no_conductance_flag(tmp_path, capsys):
    # the conductance is part of the --bisect report
    path = barbell_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--layers", str(path), "--conductance"])
    assert exc.value.code == 2
    assert "--conductance" in capsys.readouterr().err


@pytest.mark.parametrize("command", [None, "transform", "compose", "verify", "analyze",
                                     "ingest-dimacs"])
def test_help_is_the_full_parsers(command, capsys):
    # main builds only the subcommand it runs; its help, and the top level's,
    # are those of the parser with every subcommand built
    full = cli._build_parser()
    subparsers = next(action for action in full._actions
                      if isinstance(action, argparse._SubParsersAction))
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    parser = subparsers.choices[command] if command else full
    assert capsys.readouterr().out == parser.format_help()


def test_top_level_error_of_one_command_is_the_full_parsers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--stationary", "extra"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (cli._build_parser().format_usage()
                                       + "multinet: error: unrecognized arguments: extra\n")


def test_analyze_stationary_and_dot(tmp_path, temporal_path, capsys):
    dot = tmp_path / "out.dot"
    assert main(["analyze", "--layers", str(temporal_path), "--layer", "t1",
                 "--stationary", "--bisect", "--dot", str(dot)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(sum(report["stationary"]) - 1.0) <= 1e-9
    assert 'color=' in dot.read_text()


def test_analyze_super_dot_names_instances_and_colors_both_sides(tmp_path, temporal_path,
                                                                  capsys):
    # with --super there are no labels: instance u of layer k is "u@k"
    out, dot = tmp_path / "super.mm", tmp_path / "out.dot"
    assert main(["compose", "--layers", str(temporal_path), "--mode", "distance",
                 "--coupling", "0.5", "--out", str(out)]) == 0
    assert main(["analyze", "--super", str(out), "--bisect", "--dot", str(dot)]) == 0
    side = set(json.loads(capsys.readouterr().out)["bisection"]["side"])
    nodes = [line for line in dot.read_text().splitlines() if line.endswith("];")
             and "--" not in line]
    assert nodes == [f'  "{u}@{k}" [color="{"firebrick" if 3 * k + u in side else "steelblue"}"];'
                     for k in range(3) for u in range(3)]
    assert 0 < len(side) < 9


def test_analyze_passes_max_iter_to_both_solvers(temporal_path, capsys, monkeypatch):
    received = {}

    def recording(name, solver):
        def call(*args, **kwargs):
            received[name] = kwargs.get("max_iter")
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "stationary", recording("stationary", cli.stationary))
    monkeypatch.setattr(cli, "bisect", recording("bisect", cli.bisect))
    assert main(["analyze", "--layers", str(temporal_path), "--layer", "t1",
                 "--stationary", "--bisect"]) == 0
    # both solvers keep their own default iteration caps
    assert received == {"stationary": None, "bisect": None}


def test_ingest_dimacs_cli(tmp_path, capsys):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR)
    cats = tmp_path / "roads.cat"
    cats.write_text(CATS)
    out = tmp_path / "roads.layers"
    assert main(["ingest-dimacs", "--gr", str(gr), "--categories", str(cats),
                 "--scale-layer", "highway=3.14", "--out", str(out)]) == 0
    ds = read_layers(out)
    assert set(np.unique(ds.layer("highway").matrix.data)) == {2.0 * 3.14}


@pytest.mark.parametrize("header, flags, code, error, message", [
    ("p sp 6 5", ["--scale-layer", "nope=2"], 1, "ValueError",
     "unknown layer 'nope'; the layers are ['local', 'highway']"),
    ("p sp x y", [], 2, "ParseError", "{gr}:2: expected: p sp <n> <m>"),
], ids=["unknown scale layer", "header counts not integers"])
def test_ingest_dimacs_faults(header, flags, code, error, message, tmp_path, capsys):
    gr, cats = tmp_path / "roads.gr", tmp_path / "roads.cat"
    gr.write_text(GR.replace("p sp 6 5", header))
    cats.write_text(CATS)
    assert main(["ingest-dimacs", "--gr", str(gr), "--categories", str(cats), *flags,
                 "--out", str(tmp_path / "out.layers")]) == code
    assert json.loads(capsys.readouterr().err) == {"error": error,
                                                   "message": message.format(gr=gr)}


def test_ingest_dimacs_id_past_int64(tmp_path, capsys):
    gr, cats = tmp_path / "roads.gr", tmp_path / "roads.cat"
    gr.write_text(GR + "a 6 99999999999999999999 5\n")
    cats.write_text(CATS)
    assert main(["ingest-dimacs", "--gr", str(gr), "--categories", str(cats),
                 "--out", str(tmp_path / "out.layers")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ParseError",
                                    "message": f"{gr}:8: vertex id outside 1..6"}
    assert not (tmp_path / "out.layers").exists()


@pytest.mark.parametrize("weight", [0, -1])
def test_ingest_class_weights_must_be_positive(weight, tmp_path, capsys):
    gr, cats, weights = tmp_path / "roads.gr", tmp_path / "roads.cat", tmp_path / "w.json"
    gr.write_text(GR)
    cats.write_text(CATS)
    weights.write_text(json.dumps({"A1": 3.0, "A4": weight}))
    assert main(["ingest-dimacs", "--gr", str(gr), "--categories", str(cats),
                 "--class-weights", str(weights), "--out", str(tmp_path / "out.layers")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParseError", "message": f"{weights}:1: weight of 'A4' must be positive"}


# analyze's usage errors: exit 1 and the message, before any analysis runs
ANALYZE_USAGE = {
    "neither input": ([], "analyze needs exactly one of --super or --layers"),
    "both inputs": (["--super", "{super}", "--layers", "{layers}"],
                    "analyze needs exactly one of --super or --layers"),
    "several layers, none picked": (["--layers", "{layers}"],
                                    "layered input has several layers; pick one with "
                                    "--layer or compose first"),
    "unknown layer": (["--layers", "{layers}", "--layer", "nope"],
                      "unknown layer 'nope'; the layers are ['phone', 'email', 'facebook']"),
    "layer load on a layer": (["--layers", "{layers}", "--layer", "phone", "--layer-load"],
                              "--layer-load needs a super-adjacency (--super)"),
    "layer of a super-adjacency": (["--super", "{super}", "--layer", "nope"],
                                   "--layer needs a layered file (--layers)"),
}


@pytest.mark.parametrize("case", list(ANALYZE_USAGE))
def test_analyze_usage_errors(case, tmp_path, toy_path, capsys, monkeypatch):
    argv, message = ANALYZE_USAGE[case]
    monkeypatch.setattr(cli, "bisect", lambda *args, **kwargs: pytest.fail("bisect ran"))
    paths = {"super": str(tmp_path / "absent.mtx"), "layers": str(toy_path)}
    assert main(["analyze", *(arg.format(**paths) for arg in argv), "--bisect"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}


# compose's usage errors: a mode without its side file or coupling exits 1
COMPOSE_USAGE = {
    "ego without a file": ("ego", "--mode ego requires --ego-file"),
    "stationary without a file": ("stationary", "--mode stationary requires --pi-file"),
    "distance without a coupling": ("distance", "--mode distance requires --coupling"),
}


@pytest.mark.parametrize("case", list(COMPOSE_USAGE))
def test_compose_usage_errors(case, tmp_path, toy_path, capsys):
    mode, message = COMPOSE_USAGE[case]
    out = tmp_path / "super.mm"
    assert main(["compose", "--layers", str(toy_path), "--mode", mode, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_exit_code_no_convergence(toy_path, capsys, monkeypatch):
    def unconverged(*args, **kwargs):
        raise NoConvergence(1e-3, 7)

    monkeypatch.setattr(cli, "bisect", unconverged)
    assert main(["analyze", "--layers", str(toy_path), "--layer", "phone", "--bisect"]) == 3
    assert capsys.readouterr().err == ('{"error": "NoConvergence", '
                                       '"message": "residual 1.000e-03 after 7 iterations"}\n')


@pytest.mark.parametrize("kind", ["undirected", "directed"])
def test_analyze_stationary_of_a_layer_with_no_vertices(kind, tmp_path, capsys):
    path = tmp_path / "empty.layers"
    path.write_text(f"layer a {kind}\n")
    assert main(["analyze", "--layers", str(path), "--stationary"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "EmptyGraph", "message": "a walk on no vertices has no stationary distribution"}


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.layers"
    bad.write_text("edge nowhere a b 1.0\n")
    assert main(["analyze", "--layers", str(bad), "--bisect"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownLayer"


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["analyze", "--layers", str(tmp_path / "nope.layers"),
                 "--bisect"]) == 2


def test_exit_code_validation_error(tmp_path, temporal_path, capsys):
    out = tmp_path / "super.mm"
    code = main(["compose", "--layers", str(temporal_path), "--mode", "distance",
                 "--coupling", "-1.0", "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonPositiveCoupling"


def test_exit_code_infeasible_stationary(tmp_path, temporal_path, capsys):
    pis = tmp_path / "pis.json"
    pis.write_text(json.dumps({"a": [0.999, 0.0005, 0.0005]}))
    out = tmp_path / "super.mm"
    code = main(["compose", "--layers", str(temporal_path), "--mode", "stationary",
                 "--pi-file", str(pis), "--out", str(out)])
    assert code == 1


def test_seed_flag_reaches_the_report(tmp_path, temporal_path, capsys):
    out = tmp_path / "super.mm"
    main(["compose", "--layers", str(temporal_path), "--mode", "distance",
          "--coupling", "0.5", "--out", str(out)])
    assert main(["analyze", "--super", str(out), "--layer-load", "--seed", "123"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 123


@pytest.mark.parametrize("flag, name", [("--super", "bad.json"),
                                        ("--layers", "bad.layers")])
def test_exit_code_non_utf8_input(tmp_path, capsys, flag, name):
    bad = tmp_path / name
    bad.write_bytes(b"\xff\xfe\x00layer t1 undirected\n")
    assert main(["analyze", flag, str(bad), "--stationary"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and err["message"].startswith(f"{bad}:1: ")


# a file fault in any reader: exit 2 and one ParseError, or a subclass under
# its own name, naming the file and the line (0 where no one line holds the
# fault), a decode fault the line of its first byte that is not UTF-8; no
# stdlib ValueError leaks (exit 1). name: (file name, content, argv with
# {bad} for the file, error name, message)
NOT_UTF8 = b"\xff\xfe not utf-8\n"
# a super-adjacency file of any other layout fails on its first line
BANNER_FAULT = ("expected the banner '%%MatrixMarket matrix coordinate real general' or "
                "'%%MatrixMarket matrix coordinate real symmetric'")
READER_FAULTS = {
    "pi file, trailing comma": (
        "pi.json", b'{"alice": [0.5, 0.5, 0.0],}',
        ["compose", "--layers", "{toy}", "--mode", "stationary", "--pi-file", "{bad}"],
        "ParseError", "{bad}:1: Expecting property name enclosed in double quotes (column 27)"),
    "JSON super-adjacency, trailing comma": (
        "super.json", b'{"n": 2,\n "l": 1,\n}',
        ["analyze", "--super", "{bad}", "--stationary"],
        "ParseError", "{bad}:1: " + BANNER_FAULT),
    "JSON super-adjacency, the old block layout": (
        "super.json", b'{"n": 2, "l": 1, "diagonal_blocks": [[[0, 1, 1.5], [1, 0, 1.5]]]}',
        ["analyze", "--super", "{bad}", "--stationary"], "ParseError", "{bad}:1: " + BANNER_FAULT),
    "JSON super-adjacency, not UTF-8": (
        "super.json", NOT_UTF8, ["analyze", "--super", "{bad}", "--stationary"],
        "ParseError", "{bad}:1: " + BANNER_FAULT),
    "bias file, not UTF-8": (
        "bias.json", NOT_UTF8, ["transform", "--layers", "{toy}", "--bias-file", "{bad}"],
        "ParseError", "{bad}:1: not UTF-8 text (invalid start byte)"),
    "layered file, not UTF-8": (
        "bad.layers", NOT_UTF8, ["analyze", "--layers", "{bad}", "--stationary"],
        "ParseError", "{bad}:1: not UTF-8 text (invalid start byte)"),
    "DIMACS graph, not UTF-8": (
        "roads.gr", NOT_UTF8, ["ingest-dimacs", "--gr", "{bad}", "--categories", "{cats}"],
        "ParseError", "{bad}:1: not UTF-8 text (invalid start byte)"),
    "DIMACS categories, not UTF-8": (
        "roads.cat", NOT_UTF8, ["ingest-dimacs", "--gr", "{gr}", "--categories", "{bad}"],
        "ParseError", "{bad}:1: not UTF-8 text (invalid start byte)"),
    "layered file, duplicate edge": (
        "bad.layers", b"layer a undirected\nedge a x y 1\nedge a y x 2\n",
        ["analyze", "--layers", "{bad}", "--stationary"],
        "DuplicateEdge", "{bad}:3: edge y-x in layer 'a' given twice"),
    "layered file, undeclared layer": (
        "bad.layers", b"layer a undirected\nedge b x y 1\n",
        ["analyze", "--layers", "{bad}", "--stationary"],
        "UnknownLayer", "{bad}:2: edge in undeclared layer 'b'"),
    "DIMACS categories, missing road class": (
        "roads.cat", b"1 2 A1\n", ["ingest-dimacs", "--gr", "{gr}", "--categories", "{bad}"],
        "MissingCategory", "{bad}:0: no road class for edge 2-3"),
}


@pytest.mark.parametrize("case", list(READER_FAULTS))
def test_reader_faults_name_their_file(case, tmp_path, toy_path, capsys):
    name, content, argv, error, message = READER_FAULTS[case]
    paths = {"bad": tmp_path / name, "toy": toy_path,
             "gr": tmp_path / "good.gr", "cats": tmp_path / "good.cat"}
    paths["bad"].write_bytes(content)
    paths["gr"].write_text(GR)
    paths["cats"].write_text(CATS)
    out = ["--out", str(tmp_path / "out")] if argv[0] != "analyze" else []
    assert main([arg.format(**paths) for arg in argv] + out) == 2
    assert json.loads(capsys.readouterr().err) == {"error": error,
                                                   "message": message.format(**paths)}


def test_compose_distances_rejects_duplicate_key(tmp_path, temporal_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text('{"0": [0, 1, 2], "0": [1, 0, 1]}')
    code = main(["compose", "--layers", str(temporal_path), "--mode", "distance",
                 "--coupling", "1.0", "--distances", str(dist),
                 "--out", str(tmp_path / "super.mm")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "'0'" in err["message"]


def test_ingest_class_weights_rejects_duplicate_key(tmp_path, capsys):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR)
    cats = tmp_path / "roads.cat"
    cats.write_text(CATS)
    weights = tmp_path / "weights.json"
    weights.write_text('{"A1": 3.0, "A1": 5.0}')
    code = main(["ingest-dimacs", "--gr", str(gr), "--categories", str(cats),
                 "--class-weights", str(weights), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "'A1'" in err["message"]


# ---------------------------------------------------------------------------
# ego-file faults: compose and verify stop on the same error and exit code

PAIR = "layer a undirected\nlayer b undirected\nedge a x y 1.0\nedge b x y 2.0\n"
EYE = [[1.0, 0.0], [0.0, 1.0]]


# name: (ego file text, exit code, error name, message with {path} for the file)
EGO_FAULTS = {
    "non-square": ({"x": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "y": EYE},
                   1, "DimensionMismatch", "ego matrix must be square"),
    "wrong l": ({"x": EYE, "y": np.eye(3).tolist()},
                1, "DimensionMismatch", "ego of vertex 1 is 3x3, expected 2x2"),
    "entry above 1": ({"x": [[1.5, 0.0], [-0.5, 1.0]], "y": EYE},
                      1, "ValueError", "ego matrix entries must lie in [0, 1]"),
    "column sum": ({"x": EYE, "y": [[0.5, 0.0], [0.0, 1.0]]},
                   1, "ValueError", "ego matrix columns must sum to 1"),
    "non-numeric": ({"x": [["a", 0.0], [0.0, 1.0]], "y": EYE}, 2, "ParseError",
                    "{path}:1: ego matrix of 'x' must be finite JSON numbers"),
    "ragged": ({"x": EYE, "y": [[1.0, 0.0], [0.0]]}, 2, "ParseError",
               "{path}:1: ego matrix of 'y' must be finite JSON numbers"),
    "zero diagonal": ({"x": EYE, "y": [[0.0, 0.5], [1.0, 0.5]]},
                      1, "ZeroDiagonal", "ego matrix of vertex 1 has zero stay-probability "
                                         "in layer 0; composition undefined"),
    "unknown label": ({"x": EYE, "y": EYE, "z": EYE},
                      2, "ParseError", "{path}:1: unknown vertex label 'z'"),
    "missing label": ({"x": EYE}, 2, "ParseError", "{path}:0: missing ego matrices for ['y']"),
    "NaN": ({"x": [[float("nan"), 0.5], [float("nan"), 0.5]], "y": EYE}, 2, "ParseError",
            "{path}:1: ego matrix of 'x' must be finite JSON numbers"),
    "non-object top level": (EYE, 2, "ParseError",
                             "{path}:0: top level must be a JSON object keyed by vertex label"),
}


@pytest.mark.parametrize("command", ["compose", "verify"])
@pytest.mark.parametrize("case", list(EGO_FAULTS))
def test_ego_file_faults(case, command, tmp_path, capsys):
    payload, code, error, message = EGO_FAULTS[case]
    layers, good, bad = tmp_path / "pair.layers", tmp_path / "good.json", tmp_path / "bad.json"
    layers.write_text(PAIR)
    good.write_text(json.dumps({"x": EYE, "y": EYE}))
    bad.write_text(json.dumps(payload))
    super_path = tmp_path / "super.mm"
    assert main(["compose", "--layers", str(layers), "--mode", "ego",
                 "--ego-file", str(good), "--out", str(super_path)]) == 0
    if command == "compose":
        argv = ["compose", "--layers", str(layers), "--mode", "ego",
                "--ego-file", str(bad), "--out", str(tmp_path / "out.mm")]
    else:
        argv = ["verify", "--super", str(super_path), "--layers", str(layers),
                "--ego-file", str(bad)]
    assert main(argv) == code
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": error, "message": message.format(path=bad)}


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    layers, deep = tmp_path / "pair.layers", tmp_path / "deep.json"
    layers.write_text(PAIR)
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["compose", "--layers", str(layers), "--mode", "distance", "--coupling", "1",
                 "--distances", str(deep), "--out", str(tmp_path / "super.mm")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParseError", "message": f"{deep}:0: JSON nested too deeply"}


def test_pi_file_non_object_top_level(tmp_path, temporal_path, capsys):
    pis = tmp_path / "pis.json"
    pis.write_text("[[0.5, 0.25, 0.25]]")
    code = main(["compose", "--layers", str(temporal_path), "--mode", "stationary",
                 "--pi-file", str(pis), "--out", str(tmp_path / "super.mm")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParseError",
                   "message": f"{pis}:0: top level must be a JSON object keyed by vertex label"}


@pytest.mark.parametrize("coupling", ["nan", "inf"])
def test_compose_rejects_non_finite_coupling(coupling, tmp_path, temporal_path, capsys):
    out = tmp_path / "super.mm"
    code = main(["compose", "--layers", str(temporal_path), "--mode", "distance",
                 "--coupling", coupling, "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "non-finite weight" in err["message"]
    assert not out.exists()


# JSON companion faults on the temporal layers (t1, t2, t3 over a, b, c):
# each is a parse error (exit 2) naming the file, never a traceback
I3 = np.eye(3).tolist()
COMPANION_FAULTS = {
    "ego matrix object": (["compose", "--mode", "ego", "--ego-file"],
                          {"a": {"k": 1}, "b": I3, "c": I3},
                          "ego matrix of 'a' must be finite JSON numbers"),
    "pi vector object": (["compose", "--mode", "stationary", "--pi-file"], {"a": {"k": 1}},
                         "pi of 'a' must be a list of 3 finite JSON numbers"),
    "pi strings": (["compose", "--mode", "stationary", "--pi-file"], {"a": ["0.4", "0.3", "0.3"]},
                   "pi of 'a' must be a list of 3 finite JSON numbers"),
    "pi booleans": (["compose", "--mode", "stationary", "--pi-file"], {"a": [True, False, False]},
                    "pi of 'a' must be a list of 3 finite JSON numbers"),
    "pi NaN": (["compose", "--mode", "stationary", "--pi-file"], {"a": [float("nan"), 0.5, 0.5]},
               "pi of 'a' must be a list of 3 finite JSON numbers"),
    "bias top level list": (["transform", "--bias-file"], ["t1"],
                            "top level must be a JSON object keyed by layer name"),
    "bias layer list": (["transform", "--bias-file"], {"t1": ["a"]},
                        "layer 't1' must be a JSON object keyed by vertex label"),
    "bias layer int": (["transform", "--bias-file"], {"t1": 5},
                       "layer 't1' must be a JSON object keyed by vertex label"),
    "bias value object": (["transform", "--bias-file"], {"t1": {"a": {"k": 1}}},
                          "value of 'a' in layer 't1' must be a finite JSON number"),
    "bias value text": (["transform", "--bias-file"], {"t1": {"a": "abc"}},
                        "value of 'a' in layer 't1' must be a finite JSON number"),
    "delay value list": (["compose", "--mode", "distance", "--delay-file"], {"t2": {"b": [2]}},
                         "value of 'b' in layer 't2' must be a finite JSON number"),
    # an unknown label is reported before a faulty value of a later key
    "ego unknown label first": (["compose", "--mode", "ego", "--ego-file"],
                                {"zz": I3, "a": [["bad"] * 3] * 3, "b": I3, "c": I3},
                                "unknown vertex label 'zz'"),
    "pi unknown label first": (["compose", "--mode", "stationary", "--pi-file"],
                               {"zz": [0.5, 0.25, 0.25], "a": ["bad", 0.5, 0.5]},
                               "unknown vertex label 'zz'"),
    "bias unknown label first": (["transform", "--bias-file"], {"t1": {"zz": 2.0, "a": "bad"}},
                                 "unknown vertex label 'zz'"),
    "delay unknown label first": (["compose", "--mode", "distance", "--delay-file"],
                                  {"t2": {"zz": 2.0, "b": [2]}}, "unknown vertex label 'zz'"),
}


@pytest.mark.parametrize("case", list(COMPANION_FAULTS))
def test_json_companion_faults(case, tmp_path, temporal_path, capsys):
    argv, payload, message = COMPANION_FAULTS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main([argv[0], "--layers", str(temporal_path), *argv[1:], str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    line = 0 if isinstance(payload, list) else 1  # the line of the key, one a list lacks
    assert err == {"error": "ParseError", "message": f"{bad}:{line}: {message}"}


# Every side file through the one number rule: each fault swaps one number of
# a valid file (or its top level) and must exit 2 with one ParseError naming
# the file and the key. name: (argv with {file}, valid payload, path to the
# swapped number, the key's wording in the message, a wrong top level)
SIDE_FILES = {
    "ego": (["compose", "--layers", "{layers}", "--mode", "ego", "--ego-file", "{file}"],
            {"a": I3, "b": I3, "c": I3}, ("b", 1, 1), "ego matrix of 'b'", I3),
    "pi": (["compose", "--layers", "{layers}", "--mode", "stationary", "--pi-file", "{file}"],
           {"a": [0.3, 0.3, 0.4]}, ("a", 2), "pi of 'a'", [[0.3, 0.3, 0.4]]),
    "bias": (["transform", "--layers", "{layers}", "--bias-file", "{file}"],
             {"t1": {"a": 2.0, "c": 0.5}}, ("t1", "c"), "value of 'c' in layer 't1'", [2.0]),
    "delay": (["compose", "--layers", "{layers}", "--mode", "multiplex", "--delay-file", "{file}"],
              {"t2": {"b": 3}}, ("t2", "b"), "value of 'b' in layer 't2'", 3),
    "distances": (["compose", "--layers", "{layers}", "--mode", "distance", "--coupling", "1",
                   "--distances", "{file}"],
                  [[0, 1, 2], [1, 0, 1], [2, 1, 0]], (0, 1), "distance matrix", {"a": 1}),
    "class weights": (["ingest-dimacs", "--gr", "{gr}", "--categories", "{cats}",
                       "--class-weights", "{file}"],
                      {"A1": 3.5, "A4": 0.5}, ("A4",), "weight of 'A4'", [1, 2]),
}
NOT_NUMBERS = {"true": True, "string": "1", "null": None, "object": {}, "list": [1],
               "NaN": float("nan"), "Infinity": float("inf"), "400 digits": 10 ** 399}


@pytest.mark.parametrize("fault", [*NOT_NUMBERS, "top level"])
@pytest.mark.parametrize("side", list(SIDE_FILES))
def test_side_file_values_must_be_finite_numbers(side, fault, tmp_path, temporal_path, capsys):
    argv, valid, key, where, top = SIDE_FILES[side]
    (tmp_path / "roads.gr").write_text(GR)
    (tmp_path / "roads.cat").write_text(CATS)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    places = {"layers": temporal_path, "gr": tmp_path / "roads.gr",
              "cats": tmp_path / "roads.cat"}

    def run(path):
        return main([arg.format(file=path, **places) for arg in argv]
                    + ["--out", str(tmp_path / "out")])

    good.write_text(json.dumps(valid))
    assert run(good) == 0
    if fault == "top level":
        payload = top
    else:
        payload = json.loads(good.read_text())
        *outer, last = key
        container = payload
        for step in outer:
            container = container[step]
        container[last] = NOT_NUMBERS[fault]
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(bad) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    line = 1 if fault != "top level" and isinstance(valid, dict) else 0  # the key's line
    assert err["error"] == "ParseError" and err["message"].startswith(f"{bad}:{line}: ")
    if fault != "top level":
        assert err["message"].startswith(f"{bad}:{line}: {where} must be ")
