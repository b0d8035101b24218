"""File formats: layered edge lists, companion JSON, DIMACS, super matrices."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from multinet import (
    LayerGraph,
    components,
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
from multinet.compose import EgoMarkov, _check_egos
from multinet.io import (
    LayeredDataset,
    _check_utf8,
    _ids,
    _numbers,
    _repeat_line,
    read_class_weights,
    read_distances,
    read_json,
    write_json,
)
from multinet.errors import (
    DimensionMismatch,
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


# any JSON integer a float holds, any finite float, -0.0 included
NUMBERS = st.one_of(st.integers(-10 ** 300, 10 ** 300),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(NUMBERS, min_size=3, max_size=3), min_size=4, max_size=4))
def test_side_file_numbers_read_as_float64_conversion(rows):
    # the readers give what np.asarray(..., float64) makes of the numbers
    want = np.asarray(rows, dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.layers"
        path.write_text(TOY)
        ds = read_layers(path)  # four vertices, three layers
        path = Path(tmp) / "side.json"
        path.write_text(json.dumps(rows))
        assert read_distances(path).tobytes() == want.tobytes()
        path.write_text(json.dumps(dict(zip(ds.labels, rows))))
        assert read_pi_file(path, ds).tobytes() == want.tobytes()


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


# every ParseError of the DIMACS readers: (file, its text, line, reason)
DIMACS_FAULTS = {
    "header of three tokens": ("gr", GR.replace("p sp 6 5", "p sp 6"), 2,
                               "expected: p sp <n> <m>"),
    "header not sp": ("gr", GR.replace("p sp", "p max"), 2, "expected: p sp <n> <m>"),
    "header counts not integers": ("gr", GR.replace("p sp 6 5", "p sp x y"), 2,
                                   "expected: p sp <n> <m>"),
    "header count negative": ("gr", GR.replace("p sp 6 5", "p sp 6 -5"), 2,
                              "expected: p sp <n> <m>"),
    "missing header": ("gr", GR.replace("p sp 6 5\n", ""), 0, "missing 'p sp' header"),
    "arc of three tokens": ("gr", GR.replace("a 2 3 5", "a 2 3"), 4,
                            "expected: a <u> <v> <w>"),
    "arc vertex not an integer": ("gr", GR.replace("a 2 3 5", "a 2 x 5"), 4, "bad arc line"),
    "arc weight not a number": ("gr", GR.replace("a 2 3 5", "a 2 3 w"), 4, "bad arc line"),
    "conflicting duplicate arc": ("gr", GR + "a 3 2 9\n", 8, "conflicting duplicate arc 3-2"),
    "unknown line type": ("gr", GR + "e 1 2\n", 8, "unknown line type 'e'"),
    "category of two tokens": ("cat", CATS.replace("2 3 A4", "2 3"), 2,
                               "expected: <u> <v> <class>"),
    "category vertex not an integer": ("cat", CATS.replace("2 3 A4", "2 x A4"), 2,
                                       "bad vertex id"),
    "second header": ("gr", GR.replace("p sp 6 5\n", "p sp 6 5\np sp 6 5\n"), 3,
                      "second 'p sp' header"),
    "header count past 2**31 - 1": ("gr", GR.replace("p sp 6 5", "p sp 6 2147483648"), 2,
                                    "p sp counts must be below 2**31"),
    "arc vertex zero": ("gr", GR.replace("a 2 3 5", "a 2 0 5"), 4, "vertex id outside 1..6"),
    "arc vertex negative": ("gr", GR.replace("a 2 3 5", "a -1 3 5"), 4,
                            "vertex id outside 1..6"),
    "arc vertex past n": ("gr", GR.replace("a 2 3 5", "a 2 99 5"), 4, "vertex id outside 1..6"),
    "arc vertex past int64": ("gr", GR + "a 6 99999999999999999999 5\n", 8,
                              "vertex id outside 1..6"),
    "arc vertex past n, header after the arcs": (
        "gr", "a 1 2 4\na 2 7 5\np sp 6 2\n", 2, "vertex id outside 1..6"),
    "arc vertex past n before a malformed line": (
        "gr", GR.replace("a 2 3 5", "a 2 99 5") + "e 1 2\n", 4, "vertex id outside 1..6"),
    "arc length nan": ("gr", GR.replace("a 1 2 4", "a 1 2 nan") + "a 2 1 nan\n", 3,
                       "arc length must be finite"),
    "arc length infinite": ("gr", GR.replace("a 2 3 5", "a 2 3 -inf"), 4,
                            "arc length must be finite"),
    "conflicting arc before a malformed line": ("gr", GR + "a 3 2 9\ne 1 2\n", 8,
                                                "conflicting duplicate arc 3-2"),
    "category repeat with another class": ("cat", CATS + "3 2 A1\n", 6,
                                           "conflicting road class for edge 3-2"),
    "category repeat before a malformed line": ("cat", CATS + "3 2 A1\n1 2\n", 6,
                                                "conflicting road class for edge 3-2"),
    "category vertex zero": ("cat", CATS.replace("2 3 A4", "0 3 A4"), 2,
                             "vertex id outside 1..2147483647"),
    "category vertex past int64": ("cat", CATS + "1 99999999999999999999 A1\n", 6,
                                   "vertex id outside 1..2147483647"),
    "header declares too many arcs": ("gr", GR.replace("p sp 6 5", "p sp 6 99"), 0,
                                      "header declares 99 arcs, the file has 5"),
    "header declares too few arcs": ("gr", GR.replace("p sp 6 5", "p sp 6 4"), 0,
                                     "header declares 4 arcs, the file has 5"),
    "arc count wrong after a malformed arc": (
        "gr", GR.replace("p sp 6 5", "p sp 6 99").replace("a 2 3 5", "a 2 3"), 4,
        "expected: a <u> <v> <w>"),
}


@pytest.mark.parametrize("case", list(DIMACS_FAULTS))
def test_dimacs_parse_errors_name_the_line(case, tmp_path):
    which, text, line, reason = DIMACS_FAULTS[case]
    paths = {"gr": tmp_path / "roads.gr", "cat": tmp_path / "roads.cat"}
    paths["gr"].write_text(GR)
    paths["cat"].write_text(CATS)
    paths[which].write_text(text)
    with pytest.raises(ParseError) as exc:
        read_dimacs_gr(paths["gr"], paths["cat"])
    assert (exc.value.path, exc.value.line, exc.value.reason) == (paths[which], line, reason)


@pytest.mark.parametrize("weight", [0, -0.0, -1, float("nan"), float("inf"), float("-inf")])
def test_dimacs_class_weights_must_be_positive_and_finite(weight, tmp_path):
    gr, cats = tmp_path / "roads.gr", tmp_path / "roads.cat"
    gr.write_text(GR)
    cats.write_text(CATS)
    with pytest.raises(ValueError, match="weight of road class 'A4' must be a positive"):
        read_dimacs_gr(gr, cats, class_weights={"A1": 3.0, "A4": weight})


def _random_road(rng):
    """A random small road network as the generator's own arrays -- the
    1-based ends (m, 2) and classes of m distinct undirected edges, some
    self-loops, often several components -- and its .gr and category text
    in shuffled line order: each edge as one to four arcs of one length,
    either way round, the header anywhere, ``c`` comments, and category
    lines in either orientation, some repeated, one for an edge the graph
    lacks."""
    n = int(rng.integers(2, 12))
    pairs = np.sort(rng.integers(1, n + 1, (int(rng.integers(1, 16)), 2)), axis=1)
    ends = np.unique(pairs, axis=0)
    length = rng.integers(1, 50, len(ends))
    road_class = rng.choice(["A1", "A2", "A3", "A4", "A5"], len(ends))
    arcs = [(u, v, w) for (a, b), w in zip(ends.tolist(), length.tolist())
            for u, v in [(a, b), (b, a), (a, b), (b, a)][rng.integers(0, 2):rng.integers(2, 5)]]
    arcs = [f"p sp {n} {len(arcs)}"] + [f"a {u} {v} {w}" for u, v, w in arcs] + ["c a comment"] * 3
    cats = [f"{u} {v} {c}" if rng.random() < 0.5 else f"{v} {u} {c}  # again"
            for (u, v), c in zip(ends.tolist(), road_class) for _ in range(rng.integers(1, 3))]
    cats += [f"{n + 1} {n + 2} A1", "c not an edge line"]
    shuffled = [list(rng.permutation(lines)) for lines in (arcs, cats)]
    return ends, road_class, *("".join(f"{line}\n" for line in text) for text in shuffled)


@pytest.mark.parametrize("seed", range(40))
def test_dimacs_equals_layers_from_the_generator(seed, tmp_path):
    rng = np.random.default_rng(seed)
    ends, road_class, gr_text, cat_text = _random_road(rng)
    highway = {c for c in ["A1", "A2", "A3", "A4"] if rng.random() < 0.5}
    weights = {"A2": 0.25, "A5": 4.0} if seed % 2 else None
    gr, cats = tmp_path / "roads.gr", tmp_path / "roads.cat"
    gr.write_text(gr_text)
    cats.write_text(cat_text)
    ds = read_dimacs_gr(gr, cats, highway_classes=highway, class_weights=weights)

    vertices = np.unique(ends)
    local = np.searchsorted(vertices, ends)
    union = LayerGraph.from_edges(len(vertices), [(u, v, 1.0) for u, v in local.tolist()],
                                  directed=False)
    kept = components(union.matrix)[0]
    new_id = dict(zip(kept.tolist(), range(len(kept))))
    assert ds.labels == [str(vertices[k]) for k in kept]
    for graph, on_highway in zip(ds.layers, (False, True), strict=True):
        edges = [(new_id[u], new_id[v], (weights or {}).get(c, 2.0 if c in highway else 1.0))
                 for (u, v), c in zip(local.tolist(), road_class)
                 if u in new_id and (c in highway) == on_highway]
        want = LayerGraph.from_edges(len(kept), edges, directed=False)
        for field in ("indptr", "indices", "data"):
            got, expected = getattr(graph.matrix, field), getattr(want.matrix, field)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field


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


def test_write_json_float_vectors_read_back_bit_identical(tmp_path):
    rng = np.random.default_rng(29)
    special = np.array([0.0, -0.0, 1.0, 9.0, 10.0, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308])
    bits = rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64)  # every exponent
    payload = {
        "seed": 7,
        "special": special,
        "negated": -special,
        "random": bits[np.isfinite(bits)],
        "probabilities": rng.dirichlet(np.ones(500)),
        "integral": rng.integers(-10**6, 10**6, 200).astype(np.float64),
        "empty": np.zeros(0),
        "non-finite": np.array([np.nan, np.inf, -np.inf, 0.5]),
        "nested": {"list": [0.1, 2.0]},
    }
    path = tmp_path / "report.json"
    write_json(payload, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    keys = [json.loads("{" + line.removesuffix(",") + "}") for line in lines[1:-1]]
    assert [list(k) for k in keys] == [[key] for key in payload]
    back = json.loads(text)
    assert back["seed"] == 7 and back["nested"] == payload["nested"]
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            assert all(type(x) is float for x in back[key]), key
            read = np.array(back[key], dtype=np.float64)
            assert np.array_equal(read.view(np.uint64), value.view(np.uint64)), key


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
    # undirected layers: a symmetric file, which lists the entries with row >= col
    assert path.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric\n")
    expected = sum(sparse.tril(lay.matrix).nnz for lay in layers)
    assert len(triples) == expected
    assert all(int(row) >= int(col) for row, col, _ in map(str.split, triples))


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


def assert_rejects_duplicate_key(read, path, key, line):
    """The fault names the key and the line of its second occurrence."""
    with pytest.raises(ParseError) as exc:
        read(path)
    assert (exc.value.line, exc.value.reason) == (line, f"duplicate JSON object key {key!r}")


def test_ego_file_rejects_duplicate_key(toy_path, tmp_path):
    ds = read_layers(toy_path)
    eye = json.dumps(np.eye(3).tolist())
    path = tmp_path / "egos.json"
    path.write_text(f'{{"alice": {eye}, "bob": {eye}, "carol": {eye},\n'
                    f' "dave": {eye},\n "alice": {eye}}}')
    assert_rejects_duplicate_key(lambda p: read_ego_file(p, ds), path, "alice", 3)


def test_pi_file_rejects_duplicate_key(toy_path, tmp_path):
    ds = read_layers(toy_path)
    path = tmp_path / "pis.json"
    path.write_text('{"alice": [0.5, 0.3, 0.2],\n\n "alice": [0.2, 0.2, 0.6]}')
    assert_rejects_duplicate_key(lambda p: read_pi_file(p, ds), path, "alice", 3)


@pytest.mark.parametrize("trailing", ["x", "\n\n  {}", " ,", "}", '\n"alice"'])
def test_extra_data_is_one_fault_on_both_json_routes(toy_path, tmp_path, trailing):
    # the ego file streams its matrices, the pi file goes through json.loads;
    # the same bytes after the object are the same "Extra data" fault
    ds = read_layers(toy_path)
    eye = json.dumps(np.eye(3).tolist())
    faults = []
    for name, read, row in [("egos.json", read_ego_file, eye),
                            ("pis.json", read_pi_file, "[0.5, 0.25, 0.25]")]:
        path = tmp_path / name  # values padded to one width: the trailing bytes share a column
        entries = ",".join(f'"{label}": {row:>{len(eye)}}' for label in ds.labels)
        path.write_text("{" + entries + "}" + trailing)
        with pytest.raises(ParseError) as exc:
            read(path, ds)
        faults.append((exc.value.line, exc.value.reason))
    assert faults[0] == faults[1]
    assert faults[0][1].startswith("Extra data (column ")


def test_read_dynamics_rejects_duplicate_key(toy_path, tmp_path):
    ds = read_layers(toy_path)
    path = tmp_path / "bias.json"
    path.write_text('{"phone": {"alice": 2.0,\n "alice": 3.0}}')
    assert_rejects_duplicate_key(lambda p: read_dynamics(p, None, ds), path, "alice", 2)


@pytest.mark.parametrize("depth, line", [(100, 2), (400, 0)])
def test_repeated_key_deep_inside_is_found_while_the_search_can_recurse(tmp_path, depth, line):
    # the line search decodes again in pure Python, which takes more frames
    # per level of nesting than the C decoder that found the repeat
    path = tmp_path / "deep.json"
    path.write_text('{"a":' * depth + '{"b": 1,\n "b": 2}' + "}" * depth)
    assert_rejects_duplicate_key(read_json, path, "b", line)


def test_super_json_rejects_duplicate_block_key(tmp_path):
    # before, the second "0,1" block replaced the first one's couplings
    path = tmp_path / "super.json"
    path.write_text('{"n": 2, "l": 2, "diagonal_blocks": [[[0, 1, 1.5], [1, 0, 1.5]], '
                    '[[0, 1, 2.0], [1, 0, 2.0]]], "off_diagonal_blocks":\n'
                    ' {"0,1": [[0, 0.25]],\n  "0,1": [[1, 0.75]]}}')
    assert_rejects_duplicate_key(read_super, path, "0,1", 3)


# ---------------------------------------------------------------------------
# a side-file fault that one key holds names the line that key is written on

EYE3 = "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"
SIDE_READERS = {
    "pi": lambda path, ds: read_pi_file(path, ds),
    "ego": lambda path, ds: read_ego_file(path, ds),
    "bias": lambda path, ds: read_dynamics(path, None, ds),
    "delay": lambda path, ds: read_dynamics(None, path, ds),
    "class weights": lambda path, ds: read_class_weights(path),
}
# name: (reader, file text, line, reason); the toy's labels and layers
KEY_LINE_FAULTS = {
    "pi unknown label": ("pi", '{\n "alice": [0.5, 0.25, 0.25],\n\n "zz": [1, 0, 0]\n}\n',
                         4, "unknown vertex label 'zz'"),
    "pi value": ("pi", '{"alice": [0.5, 0.25, 0.25],\n "bob":\n  [0.5, "x", 0.5]}',
                 2, "pi of 'bob' must be a list of 3 finite JSON numbers"),
    "ego unknown label": ("ego", "{\n" + ",\n".join(f' "{label}": {EYE3}' for label in
                                                    ["alice", "bob", "zz", "carol", "dave"])
                          + "\n}", 4, "unknown vertex label 'zz'"),
    "ego matrix, escaped key": (
        "ego", f'{{"alice": {EYE3}, "bob": {EYE3},\n "dave": {EYE3},\n "c\\u0061rol":\n'
               '   [[1, 0, 0], [0, "x", 0], [0, 0, 1]]}', 3,
        "ego matrix of 'carol' must be finite JSON numbers"),
    "bias unknown layer": ("bias", '{\n "phone": {"alice": 2},\n "fax": {}\n}', 3,
                           "unknown layer 'fax'"),
    "bias layer not an object": ("bias", '{"phone": {"alice": 2},\n\n "email": [1]}', 3,
                                 "layer 'email' must be a JSON object keyed by vertex label"),
    "bias label in the second layer": (
        "bias", '{\n "phone": {"alice": 2},\n "email": {\n  "bob": 1,\n  "zz": 2}}', 5,
        "unknown vertex label 'zz'"),
    "delay value of the second layer": (
        "delay", '{\n "phone": {"alice": 2},\n "email": {\n  "bob": 1,\n  "alice": "x"\n }\n}',
        5, "value of 'alice' in layer 'email' must be a finite JSON number"),
    "class weight not positive": ("class weights", '{\n "A1": 3,\n "A4": 0\n}', 3,
                                  "weight of 'A4' must be positive"),
    "class weight on the next line": ("class weights", '{"A1": 3, "A4":\n null}', 1,
                                      "weight of 'A4' must be a finite JSON number"),
    # a repeated key: the line of its second occurrence, in the first object to
    # close with one (read_json's hook sees an inner object before its parent)
    "class weight repeated": ("class weights", '{"A1": 3,\n "A4": 1,\n "A1": 5}', 3,
                              "duplicate JSON object key 'A1'"),
    "pi label repeated, escaped": ("pi", '{"carol": [1, 0, 0],\n "c\\u0061rol": [0, 1, 0]}',
                                   2, "duplicate JSON object key 'carol'"),
    "bias label repeated in a repeated layer": (
        "bias", '{"phone": {"alice": 2},\n "phone": {"bob": 1,\n  "bob": 2}}', 3,
        "duplicate JSON object key 'bob'"),
    # no one line holds these
    "ego missing label": ("ego", f'{{\n "alice": {EYE3}\n}}', 0,
                          "missing ego matrices for ['bob', 'carol', 'dave']"),
    "pi top level": ("pi", "[\n [0.5, 0.25, 0.25]\n]", 0,
                     "top level must be a JSON object keyed by vertex label"),
}


@pytest.mark.parametrize("case", list(KEY_LINE_FAULTS))
def test_side_file_fault_names_the_line_of_its_key(case, toy_path, tmp_path):
    reader, text, line, reason = KEY_LINE_FAULTS[case]
    path = tmp_path / "side.json"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        SIDE_READERS[reader](path, read_layers(toy_path))
    assert (exc.value.line, exc.value.reason) == (line, reason)


# ---------------------------------------------------------------------------
# the matrix-by-matrix ego decode against the earlier whole-file route


def oracle_read_ego_file(path, ds):
    """The earlier reader: json.loads of the whole file into nested lists,
    one _numbers call over every matrix, then the per-label fault loop; a
    repeated key on the line of its second occurrence, as read_json finds it."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(_repeat_line(text, key), f"duplicate JSON object key {key!r}",
                                 path)
            seen.add(key)
        return dict(pairs)

    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    if not text.isascii():
        _check_utf8(text, path)
    try:
        payload = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{exc.msg} (column {exc.colno})", path) from None
    if not isinstance(payload, dict):
        raise ParseError(0, "top level must be a JSON object keyed by vertex label", path)
    l, order = len(ds.layer_names), _ids(payload, ds, path)
    if len(payload) != ds.n:
        missing = set(ds.labels) - payload.keys()
        raise ParseError(0, f"missing ego matrices for {sorted(missing)}", path)
    values = _numbers(list(payload.values()) or np.empty((0, l, l)), shape=(ds.n, l, l))
    if values is None:
        for u, label in enumerate(ds.labels):
            m_u = _numbers(payload[label], path, f"ego matrix of {label!r}", keys=(label,))
            _check_egos(m_u[None], first=u)
            if m_u.shape != (l, l):
                k = len(m_u)
                raise DimensionMismatch(f"ego of vertex {u} is {k}x{k}, expected {l}x{l}")
    m = np.empty_like(values)
    m[order] = values
    return EgoMarkov(m)


def outcome(read, path, ds):
    """The stack's bytes, or the fault's type, message and line."""
    try:
        return read(path, ds).m.tobytes()
    except Exception as exc:  # noqa: BLE001 -- any fault must match the oracle's
        return type(exc), str(exc), getattr(exc, "line", None)


def ego_dataset(n, l):
    """n vertices v0, v1, ... and l edgeless layers: all an ego file is read against."""
    edgeless = LayerGraph(n, sparse.csc_array((n, n)), directed=False)
    return LayeredDataset([f"layer{k}" for k in range(l)], [edgeless] * l,
                          [f"v{u}" for u in range(n)])


# whole tokens that replace a number of the file, and bytes spliced in anywhere
TOKENS = ["NaN", "Infinity", "1e999", "-1e999", "true", "null", "{}", "[]", '"0.5"', "1" * 400,
          "0", "-0.0", "0.75", "2", "[0.5]"]
SPLICES = [b"nan", b"1e999", b"true", b"{}", b"\0", b",", b"\xff", b"]", b"\n"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def ego_files(draw):
    """A small ego file's bytes: matrices in a random order, perhaps a label
    repeated, unknown or missing, then numbers replaced and bytes mutated."""
    n, l = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    m = random_egos(np.random.default_rng(draw(st.integers(0, 2**16))), n, l).m
    entries = [(f"v{u}", json.dumps(m[u].tolist())) for u in draw(st.permutations(range(n)))]
    k = draw(st.integers(0, n - 1))
    label = draw(st.sampled_from(["", "", "", "repeated", "unknown", "missing", "renamed"]))
    if label in ("repeated", "unknown"):
        entries.append(entries[k] if label == "repeated" else (f"w{k}", entries[k][1]))
    elif label:
        entries[k:k + 1] = [] if label == "missing" else [(f"w{k}", entries[k][1])]
    data = ("{" + ",\n ".join(f'"{key}": {value}' for key, value in entries) + "}\n").encode()
    for _ in range(draw(st.integers(0, 3))):
        spans = list(NUMBER.finditer(data))
        span = spans[draw(st.integers(0, len(spans) - 1))] if spans else None
        if span:
            data = data[:span.start()] + draw(st.sampled_from(TOKENS)).encode() + data[span.end():]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["splice", "truncate", "flip", "trailing comma"]))
        at = draw(st.integers(0, len(data)))
        if kind == "splice":
            data = data[:at] + draw(st.sampled_from(SPLICES)) + data[at:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "flip" and at < len(data):
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "trailing comma" and (close := data.rfind(b"}")) >= 0:
            data = data[:close] + b"," + data[close:]
    return n, l, data


@settings(max_examples=400, deadline=None)
@given(ego_files())
def test_ego_decode_matches_the_whole_file_route(case):
    # the same stack, or the same fault with the same line and column
    n, l, data = case
    ds = ego_dataset(n, l)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "egos.json"
        path.write_bytes(data)
        assert outcome(read_ego_file, path, ds) == outcome(oracle_read_ego_file, path, ds)


def test_ego_fault_after_a_full_batch_of_good_matrices(tmp_path):
    # 256 good matrices v1..v256 come first in the file, then the faulty v257
    # and then v0, the lowest id, whose matrix is good
    ds = ego_dataset(300, 2)
    m = random_egos(np.random.default_rng(3), ds.n, 2).m.tolist()
    path = tmp_path / "egos.json"

    def read_with(fault, at=257):
        m[at][1][0] = fault
        path.write_text("{" + ", ".join(f'"v{u}": {json.dumps(m[u])}'
                                        for u in [*range(1, 258), 0, *range(258, 300)]) + "}")
        got = outcome(read_ego_file, path, ds)
        assert got == outcome(oracle_read_ego_file, path, ds)
        return got

    assert read_with(float("nan")) == (
        ParseError, f"{path}:1: ego matrix of 'v257' must be finite JSON numbers", 1)
    assert read_with(0.0) == (ValueError, "ego matrix columns must sum to 1", None)
    # a lower vertex whose matrix was converted but whose columns do not sum
    # to 1 comes first
    m[257][1][0] = float("nan")
    assert read_with(0.0, at=5) == (ValueError, "ego matrix columns must sum to 1", None)


def test_ego_file_of_an_empty_dataset(tmp_path):
    # no vertices and the file {}: an empty (0, l, l) stack, as the oracle gives
    ds, path = ego_dataset(0, 3), tmp_path / "egos.json"
    path.write_text("{}")
    assert read_ego_file(path, ds).m.shape == (0, 3, 3)
    assert outcome(read_ego_file, path, ds) == outcome(oracle_read_ego_file, path, ds)
