"""File formats: layered edge lists, companion JSON, DIMACS, super matrices."""

import json

import numpy as np
import pytest

from multinet import (
    compose_ego,
    degree_table,
    read_dimacs_gr,
    read_dynamics,
    read_ego_file,
    read_layers,
    read_pi_file,
    read_super,
    write_dot,
    write_ego_file,
    write_layers,
    write_pi_file,
    write_super,
)
from multinet.errors import (
    DuplicateEdge,
    MissingCategory,
    ParseError,
    UnknownLayer,
    ZeroDiagonal,
)

from conftest import identity_egos, random_egos

TOY = """\
# toy three-layer social fixture; weights synthetic except alice's
# phone degree of 3
layer phone undirected
layer email undirected
layer facebook undirected
edge phone alice bob 2.0
edge phone alice carol 1.0
edge phone bob dave 1.0
edge email alice bob 1.0
edge email carol dave 1.0
edge email alice dave 1.0
edge facebook alice carol 2.0
edge facebook bob carol 1.0
edge facebook alice bob 1.0
edge facebook bob dave 1.0
"""


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.layers"
    path.write_text(TOY)
    return path


def test_read_layers_minimal(tmp_path):
    path = tmp_path / "tiny.layers"
    path.write_text("layer a undirected\nedge a x y 1.5\n")
    ds = read_layers(path)
    assert ds.n == 2
    assert ds.layers[0].toarray()[0, 1] == 1.5


def test_read_layers_toy_fixture(toy_path):
    ds = read_layers(toy_path)
    assert ds.layer_names == ["phone", "email", "facebook"]
    assert ds.labels == ["alice", "bob", "carol", "dave"]
    assert ds.layer("phone").out_degrees()[0] == 3.0  # alice's phone degree


def test_read_layers_unknown_layer(tmp_path):
    path = tmp_path / "bad.layers"
    path.write_text("layer a undirected\nedge b x y 1.0\n")
    with pytest.raises(UnknownLayer):
        read_layers(path)


def test_read_layers_duplicate_edge(tmp_path):
    path = tmp_path / "dup.layers"
    path.write_text(
        "layer a undirected\nedge a x y 1.0\nedge a y x 1.0\n"
    )
    with pytest.raises(DuplicateEdge):
        read_layers(path)


def test_read_layers_parse_errors(tmp_path):
    path = tmp_path / "broken.layers"
    path.write_text("layer a undirected\nedge a x y nope\n")
    with pytest.raises(ParseError) as exc:
        read_layers(path)
    assert exc.value.line == 2
    path.write_text("layer a sideways\n")
    with pytest.raises(ParseError):
        read_layers(path)
    path.write_text("layer a undirected\nedge a x y 0.0\n")
    with pytest.raises(ParseError):
        read_layers(path)


def test_layers_round_trip(toy_path, tmp_path):
    ds = read_layers(toy_path)
    out = tmp_path / "copy.layers"
    write_layers(ds, out)
    again = read_layers(out)
    assert again.layer_names == ds.layer_names
    assert again.labels == ds.labels
    for a, b in zip(again.layers, ds.layers):
        assert (a.matrix != b.matrix).nnz == 0


def test_write_layers_row_major_undirected_once(tmp_path):
    source = tmp_path / "in.layers"
    source.write_text("layer d directed\nlayer u undirected\nvertex z\n"
                      "edge u b a 0.1\nedge d b a 2\nedge d a b 1e-3\n"
                      "edge u a a 3\nedge u c a 1.5\n")
    ds = read_layers(source)
    write_layers(ds, tmp_path / "out.layers")
    assert (tmp_path / "out.layers").read_text() == (
        "layer d directed\nlayer u undirected\n"
        "vertex z\nvertex b\nvertex a\nvertex c\n"
        "edge d b a 2.0\nedge d a b 0.001\n"
        "edge u b a 0.1\nedge u a a 3.0\nedge u a c 1.5\n")


def test_ego_file_stack_in_id_order(toy_path, tmp_path):
    ds = read_layers(toy_path)  # ids: alice 0, bob 1, carol 2, dave 3
    egos = random_egos(np.random.default_rng(6), ds.n, 3)
    order = [3, 1, 0, 2]
    path = tmp_path / "egos.json"
    path.write_text(json.dumps({ds.labels[u]: egos.m[u].tolist() for u in order}))
    assert read_ego_file(path, ds).m.tobytes() == egos.m.tobytes()


def test_ego_file_lowest_faulty_vertex_reported(toy_path, tmp_path):
    ds = read_layers(toy_path)
    eye = np.eye(3).tolist()
    zero_stay = [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    path = tmp_path / "egos.json"
    # file order dave, carol, bob, alice; carol and bob are faulty
    path.write_text(json.dumps({"dave": eye, "carol": zero_stay, "bob": zero_stay,
                                "alice": eye}))
    with pytest.raises(ZeroDiagonal) as exc:
        read_ego_file(path, ds)
    assert (exc.value.vertex, exc.value.layer) == (1, 0)


def test_ego_file_round_trip(toy_path, tmp_path):
    ds = read_layers(toy_path)
    rng = np.random.default_rng(5)
    egos = random_egos(rng, ds.n, 3)
    path = tmp_path / "egos.json"
    write_ego_file(egos, ds, path)
    again = read_ego_file(path, ds)
    assert again.m.tobytes() == egos.m.tobytes()


def test_ego_file_missing_vertex(toy_path, tmp_path):
    ds = read_layers(toy_path)
    path = tmp_path / "egos.json"
    path.write_text(json.dumps({"alice": np.eye(3).tolist()}))
    with pytest.raises(ParseError):
        read_ego_file(path, ds)


def test_pi_file_round_trip_with_gaps(toy_path, tmp_path):
    ds = read_layers(toy_path)
    pis = np.full((4, 3), np.nan)
    pis[0] = [0.5, 0.3, 0.2]
    pis[2] = [0.2, 0.2, 0.6]
    path = tmp_path / "pis.json"
    write_pi_file(pis, ds, path)
    again = read_pi_file(path, ds)
    assert np.array_equal(again[0], pis[0])
    assert np.all(np.isnan(again[1]))
    assert np.array_equal(again[2], pis[2])


def test_read_dynamics_defaults_and_values(toy_path, tmp_path):
    ds = read_layers(toy_path)
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps({"phone": {"alice": 2.0}}))
    delay = tmp_path / "delay.json"
    delay.write_text(json.dumps({"email": {"bob": 3.0}}))
    dyn = read_dynamics(bias, delay, ds)
    assert dyn["phone"].bias[0] == 2.0
    assert dyn["phone"].bias[1] == 1.0
    assert dyn["email"].delay[1] == 3.0
    assert dyn["facebook"].delay.tolist() == [1.0] * 4


@pytest.mark.parametrize("payload, reason", [
    ({"fax": {"alice": 2.0}}, "unknown layer 'fax'"),
    ({"phone": {"alice": 2.0, "mallory": 2.0}}, "unknown vertex label 'mallory'"),
])
@pytest.mark.parametrize("kind", ["bias", "delay"])
def test_read_dynamics_rejects_unknown_names(toy_path, tmp_path, payload, reason, kind):
    ds = read_layers(toy_path)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    files = {"bias": None, "delay": None, kind: path}
    with pytest.raises(ParseError) as exc:
        read_dynamics(files["bias"], files["delay"], ds)
    assert exc.value.reason == reason


GR = """\
c synthetic road fixture
p sp 6 5
a 1 2 4
a 2 3 5
a 3 4 2
a 4 5 7
a 5 6 3
"""

CATS = """\
1 2 A1
2 3 A4
3 4 A2
4 5 A4
5 6 A4
"""


def test_dimacs_splits_layers(tmp_path):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR)
    cats = tmp_path / "roads.cat"
    cats.write_text(CATS)
    ds = read_dimacs_gr(gr, cats)
    assert ds.layer_names == ["local", "highway"]
    highway = ds.layer("highway")
    local = ds.layer("local")
    assert highway.matrix.nnz == 2 * 2  # 2 undirected edges
    assert local.matrix.nnz == 3 * 2
    assert set(np.unique(highway.matrix.data)) == {2.0}
    assert set(np.unique(local.matrix.data)) == {1.0}


def test_dimacs_vertex_absent_from_highway(tmp_path):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR)
    cats = tmp_path / "roads.cat"
    cats.write_text(CATS)
    ds = read_dimacs_gr(gr, cats)
    deg = degree_table(ds.layers)
    vertex_six = ds.labels.index("6")
    assert deg[vertex_six, 1] == 0.0  # appears only in the local layer


def test_dimacs_drops_small_components(tmp_path):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR.replace("p sp 6 5", "p sp 8 6") + "a 7 8 1\n")
    cats = tmp_path / "roads.cat"
    cats.write_text(CATS + "7 8 A4\n")
    ds = read_dimacs_gr(gr, cats)
    assert ds.n == 6
    assert "7" not in ds.labels and "8" not in ds.labels


def test_dimacs_missing_category(tmp_path):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR)
    cats = tmp_path / "roads.cat"
    cats.write_text("1 2 A1\n")
    with pytest.raises(MissingCategory):
        read_dimacs_gr(gr, cats)


def test_dimacs_custom_weights(tmp_path):
    gr = tmp_path / "roads.gr"
    gr.write_text(GR)
    cats = tmp_path / "roads.cat"
    cats.write_text(CATS)
    ds = read_dimacs_gr(gr, cats, class_weights={"A1": 3.5, "A4": 0.5})
    assert 3.5 in ds.layer("highway").matrix.data
    assert set(np.unique(ds.layer("local").matrix.data)) == {0.5}


def _random_super(rng, n=5, l=3):
    from conftest import random_graph

    layers = [random_graph(rng, n) for _ in range(l)]
    egos = random_egos(rng, n, l)
    return compose_ego(layers, egos)


def test_super_mm_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    s = _random_super(rng)
    path = tmp_path / "super.mm"
    write_super(s, path)
    again = read_super(path)
    assert (again.n, again.l) == (s.n, s.l)
    assert np.array_equal(again.matrix.data, s.matrix.data)
    assert (again.matrix != s.matrix).nnz == 0


def test_super_json_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(12)
    s = _random_super(rng)
    path = tmp_path / "super.json"
    write_super(s, path)
    again = read_super(path)
    assert np.array_equal(again.matrix.data, s.matrix.data)
    assert (again.matrix != s.matrix).nnz == 0


def test_super_mm_block_diagonal_entry_count(tmp_path, rng):
    from conftest import random_graph

    layers = [random_graph(rng, 4) for _ in range(2)]
    egos = identity_egos(4, 2)
    s = compose_ego(layers, egos)
    path = tmp_path / "blockdiag.mm"
    write_super(s, path)
    triples = [
        line for line in path.read_text().splitlines()
        if line and not line.startswith("%")
    ][1:]
    expected = sum(lay.matrix.nnz for lay in layers)
    assert len(triples) == expected


def test_write_dot_colors_sides(tmp_path, rng):
    from conftest import random_connected_graph

    g = random_connected_graph(rng, 5)
    side = np.array([True, True, False, False, False])
    path = tmp_path / "graph.dot"
    write_dot(g, path, side=side, labels=list("abcde"))
    text = path.read_text()
    assert text.count('color="firebrick"') == 2
    assert text.count('color="steelblue"') == 3
    assert '"a" -- ' in text


# ---------------------------------------------------------------------------
# a key given twice in one JSON object is a ParseError, never a silent overwrite


def assert_rejects_duplicate_key(read, path, key):
    with pytest.raises(ParseError) as exc:
        read(path)
    assert f"duplicate JSON object key {key!r}" in str(exc.value)


def test_ego_file_rejects_duplicate_key(toy_path, tmp_path):
    ds = read_layers(toy_path)
    eye = json.dumps(np.eye(3).tolist())
    path = tmp_path / "egos.json"
    path.write_text(f'{{"alice": {eye}, "bob": {eye}, "carol": {eye}, '
                    f'"dave": {eye}, "alice": {eye}}}')
    assert_rejects_duplicate_key(lambda p: read_ego_file(p, ds), path, "alice")


def test_pi_file_rejects_duplicate_key(toy_path, tmp_path):
    ds = read_layers(toy_path)
    path = tmp_path / "pis.json"
    path.write_text('{"alice": [0.5, 0.3, 0.2], "alice": [0.2, 0.2, 0.6]}')
    assert_rejects_duplicate_key(lambda p: read_pi_file(p, ds), path, "alice")


def test_read_dynamics_rejects_duplicate_key(toy_path, tmp_path):
    ds = read_layers(toy_path)
    path = tmp_path / "bias.json"
    path.write_text('{"phone": {"alice": 2.0, "alice": 3.0}}')
    assert_rejects_duplicate_key(lambda p: read_dynamics(p, None, ds), path, "alice")


def test_super_json_rejects_duplicate_block_key(tmp_path):
    # before, the second "0,1" block replaced the first one's couplings
    path = tmp_path / "super.json"
    path.write_text('{"n": 2, "l": 2, "diagonal_blocks": [[[0, 1, 1.5], [1, 0, 1.5]], '
                    '[[0, 1, 2.0], [1, 0, 2.0]]], "off_diagonal_blocks": '
                    '{"0,1": [[0, 0.25]], "0,1": [[1, 0.75]]}}')
    assert_rejects_duplicate_key(read_super, path, "0,1")
