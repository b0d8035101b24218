"""Layered edge-list files: the one-pass reader against the line-by-line one.

Random datasets, written with comments, blank lines, odd spacing and CRLF
endings, must read back bit-identically to the earlier line-by-line reader,
which is kept here as the oracle; malformed variants must fail with the same
exception type and message, which names the earliest faulty line.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from multinet import LayeredDataset, LayerGraph, read_layers
from multinet.errors import DuplicateEdge, ParseError, UnknownLayer

PROPERTY = settings(max_examples=150, deadline=None)


def read_layers_by_line(path):
    """The earlier reader: one id lookup per endpoint, a set of seen edge
    keys, and per-edge lists for each layer's matrix."""
    layer_decl = {}
    layer_order = []
    labels = []
    ids = {}
    edges = {}
    seen = set()

    def vertex_id(label):
        if label not in ids:
            ids[label] = len(labels)
            labels.append(label)
        return ids[label]

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "layer":
                if len(tokens) != 3 or tokens[2] not in ("directed", "undirected"):
                    raise ParseError(lineno, "expected: layer <name> directed|undirected", path)
                name = tokens[1]
                if name in layer_decl:
                    raise ParseError(lineno, f"layer {name!r} declared twice", path)
                layer_decl[name] = tokens[2] == "directed"
                layer_order.append(name)
                edges[name] = []
            elif kind == "vertex":
                if len(tokens) != 2:
                    raise ParseError(lineno, "expected: vertex <label>", path)
                vertex_id(tokens[1])
            elif kind == "edge":
                if len(tokens) != 5:
                    raise ParseError(lineno, "expected: edge <layer> <u> <v> <weight>", path)
                name = tokens[1]
                if name not in layer_decl:
                    raise UnknownLayer(lineno, f"edge in undeclared layer {name!r}", path)
                try:
                    weight = float(tokens[4])
                except ValueError:
                    raise ParseError(lineno, f"bad weight {tokens[4]!r}", path) from None
                if not np.isfinite(weight) or weight <= 0.0:
                    raise ParseError(lineno, "edge weight must be a positive finite number", path)
                u = vertex_id(tokens[2])
                v = vertex_id(tokens[3])
                key = (name, u, v) if layer_decl[name] or u <= v else (name, v, u)
                if key in seen:
                    raise DuplicateEdge(lineno, f"edge {tokens[2]}-{tokens[3]} "
                                                f"in layer {name!r} given twice", path)
                seen.add(key)
                edges[name].append((u, v, weight))
            else:
                raise ParseError(lineno, f"unknown directive {kind!r}", path)

    n = len(labels)
    layers = []
    for name in layer_order:
        rows, cols, vals = [], [], []
        for u, v, w in edges[name]:
            rows.append(u)
            cols.append(v)
            vals.append(w)
            if not layer_decl[name] and u != v:
                rows.append(v)
                cols.append(u)
                vals.append(w)
        mat = sparse.coo_array((vals, (rows, cols)), shape=(n, n))
        layers.append(LayerGraph(n, mat, layer_decl[name]))
    return LayeredDataset(layer_names=layer_order, layers=layers, labels=labels)


# ---------------------------------------------------------------------------
# documents: lines as token lists ([] is a blank or comment-only line)

# small alphabet, so that labels and layer names collide with each other
LABEL = st.text(alphabet="abxyé数_.-0", min_size=1, max_size=3)
WEIGHT = st.one_of(
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False).map(repr),
    st.integers(1, 99).map(str),
    st.sampled_from(["1e-3", "2.50", "+3", "1_0"]),
)
BAD_WEIGHTS = ("nope", "0", "0.0", "-0.0", "-1.5", "inf", "-inf", "nan", "1e400", "0x1p3")
SPACE = st.sampled_from([" ", "\t", "  ", " \t "])
COMMENT = st.text(alphabet="ab #edge\t", max_size=6)
TOKENS = {"layer": 3, "vertex": 2, "edge": 5}


def positions(lines, kind):
    """Lines of a directive with its token count (mutations may break some)."""
    return [i for i, t in enumerate(lines) if t[:1] == [kind] and len(t) == TOKENS[kind]]


@st.composite
def documents(draw):
    """A valid dataset: every layer declared once before its first edge, no
    edge repeated, vertex-only labels and blank lines anywhere."""
    labels = draw(st.lists(LABEL, min_size=1, max_size=8, unique=True))
    names = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
    directed = [draw(st.booleans()) for _ in names]
    endpoint = st.integers(0, len(labels) - 1)
    raw = draw(st.lists(st.tuples(st.integers(0, len(names) - 1), endpoint, endpoint, WEIGHT),
                        max_size=30))
    lines, seen = [], set()
    for k, u, v, w in raw:
        key = (k, u, v) if directed[k] else (k, min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            lines.append(["edge", names[k], labels[u], labels[v], w])
    lines += [["vertex", label] for label in draw(st.lists(st.sampled_from(labels), max_size=5))]
    lines += [[] for _ in range(draw(st.integers(0, 3)))]
    lines = list(draw(st.permutations(lines)))
    for k, name in enumerate(names):
        first = next((i for i, t in enumerate(lines) if t[:2] == ["edge", name]), len(lines))
        lines.insert(draw(st.integers(0, first)),
                     ["layer", name, "directed" if directed[k] else "undirected"])
    return lines


@st.composite
def rendered(draw, lines):
    """File text: random separators, indentation, trailing comments, line ends."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    out = []
    for tokens in lines:
        text = draw(SPACE).join(tokens)
        if draw(st.booleans()):
            text = draw(SPACE) + text + draw(SPACE)
        if not tokens or draw(st.integers(0, 3)) == 0:
            text += draw(st.sampled_from(["", "#" + draw(COMMENT)]))
        out.append(text + eol)
    text = "".join(out)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


# ---------------------------------------------------------------------------
# mutations: each makes a document malformed, or returns False where it
# finds nothing to apply to


def bad_weight(draw, lines):
    edges = positions(lines, "edge")
    if not edges:
        return False
    i = draw(st.sampled_from(edges))
    lines[i] = lines[i][:4] + [draw(st.sampled_from(BAD_WEIGHTS))]


def token_count(draw, lines):
    i = draw(st.sampled_from([i for i, t in enumerate(lines) if t]))
    # never blank a line or restore a count an earlier mutation broke
    shapes = [t for t in (lines[i][:-1], lines[i] + ["x"]) if t and len(t) != TOKENS.get(t[0])]
    if not shapes:
        return False
    lines[i] = draw(st.sampled_from(shapes))


def unknown_directive(draw, lines):
    i = draw(st.sampled_from([i for i, t in enumerate(lines) if t]))
    lines[i] = [draw(st.sampled_from(["edges", "Edge", "node", "layers"]))] + lines[i][1:]


def undeclared_layer(draw, lines):
    edges = positions(lines, "edge")
    if not edges:
        return False
    i = draw(st.sampled_from(edges))
    lines[i] = lines[i][:1] + ["undeclared"] + lines[i][2:]


def layer_after_first_edge(draw, lines):
    decls = [i for i in positions(lines, "layer")
             if any(t[:2] == ["edge", lines[i][1]] for t in lines[i + 1:])]
    if not decls:
        return False
    tokens = lines.pop(draw(st.sampled_from(decls)))
    first = next(i for i, t in enumerate(lines) if t[:2] == ["edge", tokens[1]])
    lines.insert(draw(st.integers(first + 1, len(lines))), tokens)


def layer_twice(draw, lines):
    decls = positions(lines, "layer")
    if not decls:
        return False
    i = draw(st.sampled_from(decls))
    flag = draw(st.sampled_from(["directed", "undirected"]))
    lines.insert(draw(st.integers(i + 1, len(lines))), ["layer", lines[i][1], flag])


def duplicate_edge(draw, lines):
    edges = positions(lines, "edge")
    if not edges:
        return False
    i = draw(st.sampled_from(edges))
    _, name, u, v, _ = lines[i]
    if ["layer", name, "undirected"] in lines[:i] and draw(st.booleans()):
        u, v = v, u
    lines.insert(draw(st.integers(i + 1, len(lines))), ["edge", name, u, v, draw(WEIGHT)])


def structural_error(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))), ["bogus"])


# the first always applies, so that the smallest example is small
MUTATIONS = (structural_error, bad_weight, token_count, unknown_directive, undeclared_layer,
             layer_after_first_edge, layer_twice, duplicate_edge)


def outcome(reader, path):
    try:
        return reader(path)
    except ParseError as exc:
        return exc


def assert_same_dataset(a, b):
    assert a.labels == b.labels
    assert a.layer_names == b.layer_names
    for x, y in zip(a.layers, b.layers, strict=True):
        assert (x.n, x.directed) == (y.n, y.directed)
        for field in ("indptr", "indices"):
            got, want = getattr(x.matrix, field), getattr(y.matrix, field)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(x.matrix.data.view(np.uint64), y.matrix.data.view(np.uint64))


def read_both(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.layers"
        path.write_bytes(text.encode("utf-8"))
        return outcome(read_layers, path), outcome(read_layers_by_line, path)


@PROPERTY
@given(st.data())
def test_random_datasets_read_bit_identically(data):
    got, want = read_both(data.draw(rendered(data.draw(documents()))))
    assert isinstance(want, LayeredDataset)
    assert isinstance(got, LayeredDataset)
    assert_same_dataset(got, want)


@PROPERTY
@given(st.data())
def test_malformed_datasets_fail_like_the_oracle(data):
    lines = data.draw(documents())
    wanted, applied = data.draw(st.integers(1, 3)), 0
    while applied < wanted:
        applied += data.draw(st.sampled_from(MUTATIONS))(data.draw, lines) is not False
    got, want = read_both(data.draw(rendered(lines)))
    assert isinstance(want, Exception)
    assert type(got) is type(want)
    assert str(got) == str(want)


@pytest.mark.parametrize("text, error, line", [
    # a repeated edge on an earlier line wins over a later structural fault
    ("layer a undirected\nedge a x y 1\nedge a y x 2\nbogus\n", DuplicateEdge, 3),
    ("layer a directed\nedge a x y 1\nedge a x y 1\nedge b x y 1\n", DuplicateEdge, 3),
    ("layer a directed\nedge a x y 1\nedge a x y 1\nedge a x z 0\n", DuplicateEdge, 3),
    # a structural fault before the repeat wins
    ("layer a undirected\nedge a x y 1\nlayer a directed\nedge a y x 2\n", ParseError, 3),
    ("layer a directed\nedge a x y 1\nedge b x y 1\nedge a x y 1\n", UnknownLayer, 3),
    # the earliest of two repeats, even when the other's first copy comes first
    ("layer a directed\nlayer b undirected\nedge a x y 1\nedge b x y 1\n"
     "edge b y x 1\nedge a x y 1\n", DuplicateEdge, 5),
])
def test_earliest_faulty_line_is_reported(tmp_path, text, error, line):
    path = tmp_path / "faulty.layers"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_layers(path)
    assert type(exc.value) is error  # pytest.raises accepts a subclass too
    assert (exc.value.path, exc.value.line) == (path, line)
    assert f"{path}:{line}:" in str(exc.value)
    with pytest.raises(error) as oracle:
        read_layers_by_line(path)
    assert str(exc.value) == str(oracle.value)


def test_bytes_not_utf8_are_a_deferred_parse_error(tmp_path):
    path = tmp_path / "faulty.layers"
    # the bad byte within, then past, the first block of about 8 KB the decoder reads
    for padding in (0, 1000):
        pad = b"# padding\n" * padding
        path.write_bytes(b"layer a undirected\nedge a x y 1\n" + pad + b"\xff\n")
        with pytest.raises(ParseError) as exc:
            read_layers(path)
        assert type(exc.value) is ParseError
        assert str(exc.value) == f"{path}:{3 + padding}: not UTF-8 text (invalid start byte)"
        # a repeated edge on an earlier line wins, wherever a block boundary falls
        path.write_bytes(b"layer a undirected\nedge a x y 1\nedge a y x 2\n" + pad + b"\xff\n")
        with pytest.raises(DuplicateEdge) as exc:
            read_layers(path)
        assert str(exc.value) == f"{path}:3: edge y-x in layer 'a' given twice"


# ---------------------------------------------------------------------------
# each layer against LayerGraph.from_edges, and the reader's memory


@st.composite
def edge_lists(draw):
    """(lines, flags, triples): a valid file as token lists, each layer's
    directed flag, and each layer's edges as (u, v, weight) tokens. Self-loops
    may appear in any layer, vertex lines anywhere among the edges."""
    labels = draw(st.lists(LABEL, min_size=1, max_size=6, unique=True))
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    endpoint = st.sampled_from(labels)
    triples = [[(u, v, draw(WEIGHT)) for u, v in draw(st.lists(
        st.tuples(endpoint, endpoint), max_size=8,
        unique_by=lambda e, flag=flag: e if flag else frozenset(e)))] for flag in flags]
    lines = [["edge", f"L{k}", *edge] for k, edges in enumerate(triples) for edge in edges]
    lines += [["vertex", label] for label in draw(st.lists(endpoint, max_size=6))]
    return ([["layer", f"L{k}", "directed" if flag else "undirected"]
             for k, flag in enumerate(flags)] + draw(st.permutations(lines)), flags, triples)


# an undirected self-loop; a label first seen on a vertex line; vertex lines
# after the edges that name their labels
@example(([["layer", "L0", "undirected"], ["layer", "L1", "directed"], ["vertex", "b"],
           ["edge", "L0", "a", "a", "2.5"], ["edge", "L1", "a", "b", "1"],
           ["edge", "L0", "b", "a", "3"], ["vertex", "c"], ["vertex", "a"]],
          [False, True], [[("a", "a", "2.5"), ("b", "a", "3")], [("a", "b", "1")]]))
@PROPERTY
@given(edge_lists())
def test_each_layer_equals_from_edges(document):
    lines, flags, triples = document
    ids = {}  # first appearance in file order
    for tokens in lines:
        for label in {"edge": tokens[2:4], "vertex": tokens[1:]}.get(tokens[0], []):
            ids.setdefault(label, len(ids))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.layers"
        path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines), encoding="utf-8")
        ds = read_layers(path)
    assert ds.labels == list(ids)
    for graph, flag, edges in zip(ds.layers, flags, triples, strict=True):
        want = LayerGraph.from_edges(len(ids), [(ids[u], ids[v], float(w)) for u, v, w in edges],
                                     directed=flag)
        for field in ("indptr", "indices", "data"):
            got, expected = getattr(graph.matrix, field), getattr(want.matrix, field)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field
        # an undirected edge is stored in both orientations, a self-loop once
        assert graph.matrix.nnz == sum(1 if flag or u == v else 2 for u, v, _ in edges)


def test_read_layers_traced_peak(tmp_path):
    """A directed file of the ego benchmark's shape (2,000 vertices, 10 layers,
    4 out-edges per vertex and layer: 80,000 edges, 3 MB) reads with a traced
    peak of at most 10 MiB. Flat typed buffers take about 6.5 MiB; a str per
    label token and per-edge Python lists took 23.2 MiB."""
    rng = np.random.default_rng(2016)
    n, l, out = 2000, 10, 4
    band = (n - 1) // out  # one offset per band: distinct targets, no self-loops
    parts = [f"layer e{k} directed\n" for k in range(l)] + [f"vertex v{u}\n" for u in range(n)]
    rows = np.repeat(np.arange(n), out)
    for k in range(l):
        cols = (rows + rng.integers(1, band, rows.size) + np.tile(np.arange(out) * band, n)) % n
        weights = rng.uniform(0.5, 1.5, rows.size)
        parts += [f"edge e{k} v{u} v{v} {w!r}\n"
                  for u, v, w in zip(rows.tolist(), cols.tolist(), weights.tolist())]
    path = tmp_path / "ego.layers"
    path.write_text("".join(parts), encoding="utf-8")
    tracemalloc.start()
    try:
        ds = read_layers(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(graph.matrix.nnz for graph in ds.layers) == n * l * out
    assert peak <= 10 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
