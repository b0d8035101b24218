"""End-to-end CLI runs with exit-code checks."""

import functools
import json

import numpy as np
import pytest

from multinet import cli, read_layers, read_super
from multinet.cli import main
from multinet.io import RunConfig

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


def test_analyze_barbell_bisection(tmp_path, capsys):
    path = barbell_file(tmp_path)
    assert main(["analyze", "--layers", str(path), "--bisect"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["bisection"]["conductance"] - 1.0 / 21.0) <= 1e-15
    assert len(report["bisection"]["side"]) == 5


def test_analyze_stationary_and_dot(tmp_path, temporal_path, capsys):
    dot = tmp_path / "out.dot"
    assert main(["analyze", "--layers", str(temporal_path), "--layer", "t1",
                 "--stationary", "--bisect", "--dot", str(dot)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(sum(report["stationary"]) - 1.0) <= 1e-9
    assert 'color=' in dot.read_text()


def test_analyze_passes_max_iter_to_both_solvers(temporal_path, capsys, monkeypatch):
    received = {}

    def recording(name, solver):
        def call(*args, **kwargs):
            received[name] = kwargs.get("max_iter")
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "stationary", recording("stationary", cli.stationary))
    monkeypatch.setattr(cli, "bisect", recording("bisect", cli.bisect))
    monkeypatch.setattr(cli.mio, "RunConfig", functools.partial(RunConfig, max_iter=5000))
    assert main(["analyze", "--layers", str(temporal_path), "--layer", "t1",
                 "--stationary", "--bisect"]) == 0
    assert received == {"stationary": 5000, "bisect": 5000}


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


def test_seed_env_override(tmp_path, temporal_path, capsys, monkeypatch):
    monkeypatch.setenv("MULTINET_SEED", "123")
    out = tmp_path / "super.mm"
    main(["compose", "--layers", str(temporal_path), "--mode", "distance",
          "--coupling", "0.5", "--out", str(out)])
    assert main(["analyze", "--super", str(out), "--layer-load"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 123


@pytest.mark.parametrize("flag, name", [("--super", "bad.json"),
                                        ("--layers", "bad.layers")])
def test_exit_code_non_utf8_input(tmp_path, capsys, flag, name):
    bad = tmp_path / name
    bad.write_bytes(b"\xff\xfe\x00layer t1 undirected\n")
    assert main(["analyze", flag, str(bad), "--stationary"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnicodeDecodeError"


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
