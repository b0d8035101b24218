"""File formats and dataset ingestion.

Layered edge-list format (line oriented, ``#`` comments allowed)::

    layer phone undirected
    layer email directed
    vertex alice            # optional isolated-vertex declaration
    edge phone alice bob 2.0
    edge email alice carol 1.0

Every file fault is a ParseError ``<path>:<line>: <reason>``, line 0 where
no one line holds it; DuplicateEdge, UnknownLayer and MissingCategory are
its subclasses. A byte that is not UTF-8 is a fault on its own line.

Vertex labels are shared across layers; ids follow first appearance. The
layered and the DIMACS readers scan a file once into flat typed buffers, 32
bytes per edge each, then find repeated edges (and DIMACS ids out of range)
with array operations and raise at the earliest faulty line. A DIMACS ``.gr``
file has one ``p sp <n> <m>`` header (counts below 2**31), m arc lines, arc
ends in 1..n and finite lengths; an arc, or a category line, given again
merges when its length, or class, is the same and is a fault otherwise.
Companion JSON files hold ego matrices or stationary layer distributions
keyed by vertex label, bias/delay values keyed by layer then vertex label,
layer distances, or positive road-class weights; each value a finite JSON
number, or a ParseError names the file and the key, as it does JSON that
does not parse. A fault that one key holds is on the line of that key, and
a key repeated in one object on the line of its second occurrence, found by
scanning the file again once the fault is known. Each ego matrix becomes a
float64 array as soon as it is decoded. Super-adjacencies serialize to
Matrix-Market coordinate files (a header comment records n, l and the
layer-major indexing) or to a JSON block layout, picked by the file name
alone: a name ending in ``.json`` is JSON, any other name Matrix Market, for
writing and reading, and one ending in ``.gz`` or ``.bz2`` is refused. A
matrix equal to its transpose is written under the ``symmetric`` banner, its
entries with row >= col alone; any other under ``general``. The reader
accepts both; under ``symmetric`` each entry off the diagonal also stands
for its mirror, so one above the diagonal reads as its mirror, a file
listing both triangles repeats every entry, and the matrix read is known to
equal its transpose (``LayerGraph.symmetric`` of its graph) without a check.
Both formats round-trip weights bit-identically; entry order and float
spelling are not part of either format. Both reject indices out of range,
non-numeric or non-finite weights and duplicate entries; the Matrix-Market
reader also rejects a missing or foreign banner, a NUL byte, a line past the
header comments with more than three tokens, and a size line whose size is
not n*l or whose entry count the file's tokens do not match, both checked
before scipy's reader, given the file's name, allocates for the entries.
Either reader's COO entries are freed as soon as their canonical CSC exists,
so read_super's SuperAdjacency check and its caller see only that CSC.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import re
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from io import BytesIO

import numpy as np
from scipy import sparse

from .compose import EgoMarkov, SuperAdjacency, _check_egos
from .errors import DimensionMismatch, DuplicateEdge, MissingCategory, ParseError, UnknownLayer
from .graph import _canonical, _layer_graphs, components, first_repeat
from .transform import DynamicsParams

@dataclass(frozen=True)
class LayeredDataset:
    """Named layers over one shared vertex-label space."""

    layer_names: list
    layers: list  # LayerGraph per name, same order
    labels: list  # id -> label

    @property
    def n(self):
        return len(self.labels)

    def index(self, name):
        """Position of layer `name`; a ValueError names an unknown one and the others."""
        if name not in self.layer_names:
            raise ValueError(f"unknown layer {name!r}; the layers are {list(self.layer_names)}")
        return self.layer_names.index(name)

    def layer(self, name):
        return self.layers[self.index(name)]


def _check_utf8(text, path, line=1):
    """A ParseError naming the line of the first byte that is not UTF-8 in
    `text`, which starts on `line` and was read with errors="surrogateescape"
    (each such byte a lone surrogate), and giving the decoder's reason."""
    data = text.encode("utf-8", "surrogateescape")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(line + data.count(b"\n", 0, exc.start),
                         f"not UTF-8 text ({exc.reason})", path) from None


# ---------------------------------------------------------------------------
# layered edge-list format


def read_layers(path) -> LayeredDataset:
    """Parse the layered edge-list format; the earliest faulty line is reported.
    One pass checks each line and appends each edge's layer, ids and weight
    to flat typed buffers, 32 bytes per edge. One check over all layers finds
    a repeated edge, either way round in an undirected layer (which mirrors
    it), and each layer's matrix is built from views of those buffers."""
    declared, flags = {}, []  # layer name -> index, in declaration order; directed flags
    ids = defaultdict(itertools.count().__next__)  # label -> id, in order of first appearance
    edges, weight = array("q"), array("d")  # per edge: layer, u, v; weight
    put, put_weight, inf = edges.append, weight.append, np.inf
    fault = None  # raised after the lines before it are checked for a repeated edge
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, raw in enumerate(handle, start=1):
                if not raw.isascii():
                    _check_utf8(raw, path, lineno)
                if "#" in raw:
                    raw = raw.split("#", 1)[0]
                tokens = raw.split()
                if not tokens:
                    continue
                kind = tokens[0]
                if kind == "edge":
                    if len(tokens) != 5:
                        raise ParseError(lineno, "expected: edge <layer> <u> <v> <weight>", path)
                    k = declared.get(tokens[1])
                    if k is None:
                        raise UnknownLayer(lineno, f"edge in undeclared layer {tokens[1]!r}", path)
                    try:
                        w = float(tokens[4])
                    except ValueError:
                        raise ParseError(lineno, f"bad weight {tokens[4]!r}", path) from None
                    if not 0.0 < w < inf:
                        raise ParseError(lineno, "edge weight must be a positive finite number",
                                         path)
                    put(k)
                    put(ids[tokens[2]])
                    put(ids[tokens[3]])
                    put_weight(w)
                elif kind == "vertex":
                    if len(tokens) != 2:
                        raise ParseError(lineno, "expected: vertex <label>", path)
                    ids[tokens[1]]  # a new label takes the next id
                elif kind == "layer":
                    if len(tokens) != 3 or tokens[2] not in ("directed", "undirected"):
                        raise ParseError(lineno, "expected: layer <name> directed|undirected", path)
                    if tokens[1] in declared:
                        raise ParseError(lineno, f"layer {tokens[1]!r} declared twice", path)
                    declared[tokens[1]] = len(flags)
                    flags.append(tokens[2] == "directed")
                else:
                    raise ParseError(lineno, f"unknown directive {kind!r}", path)
    except ParseError as exc:
        fault = exc

    n, triples = len(ids), np.frombuffer(edges, np.int64).reshape(-1, 3)
    index, pairs = triples[:, 0], triples[:, 1:]
    np.copyto(pairs, np.sort(pairs, axis=1), where=~np.array(flags, dtype=bool)[index, None])
    repeat = first_repeat(np.ravel_multi_index((index, *pairs.T), (len(flags), n, n)))
    if repeat is not None:
        line, (_, name, u, v, _) = _edge_line(path, repeat)
        raise DuplicateEdge(line, f"edge {u}-{v} in layer {name!r} given twice", path)
    if fault is not None:
        raise fault
    return LayeredDataset(layer_names=list(declared), labels=list(ids),
                          layers=_layer_graphs(n, pairs, np.frombuffer(weight), index, flags))


def _edge_line(path, k):
    """(line, tokens) of edge k (from 0) of a layered file: only a repeat reads it again."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        lines = ((at, raw.split("#", 1)[0].split()) for at, raw in enumerate(handle, 1))
        return next(itertools.islice(((at, t) for at, t in lines if t[:1] == ["edge"]), k, None))


def write_layers(ds: LayeredDataset, path):
    """Inverse of read_layers: each layer's edges in row-major order,
    undirected edges once."""
    parts = [f"layer {name} {'directed' if graph.directed else 'undirected'}\n"
             for name, graph in zip(ds.layer_names, ds.layers)]
    parts += [f"vertex {label}\n" for label in ds.labels]
    for name, graph in zip(ds.layer_names, ds.layers):
        parts += [f"edge {name} {ds.labels[u]} {ds.labels[v]} {w!r}\n"
                  for u, v, w in _edge_triples(graph.matrix, graph.directed)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))


def _edge_triples(matrix, directed):
    """(u, v, weight) of each stored entry in row-major order, as Python
    numbers; an undirected matrix gives each edge once, with u <= v."""
    csr = matrix.tocsr()  # of a canonical matrix: sorted columns in each row
    row = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    keep = slice(None) if directed else row <= csr.indices
    return zip(row[keep].tolist(), csr.indices[keep].tolist(), csr.data[keep].tolist())


# ---------------------------------------------------------------------------
# companion JSON payloads


def read_json(path, convert=None):
    """A UTF-8 JSON file's value; a repeated key, bad syntax or non-UTF-8 bytes
    are a ParseError. With `convert`, each value of a top-level object passes
    through it as soon as it is scanned, before the next one is read."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(_repeat_line(text, key), f"duplicate JSON object key {key!r}",
                                 path)
            seen.add(key)
        return dict(pairs)

    def scan(text, end):
        value, end = decoder.scan_once(text, end)
        return convert(value), end

    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    if not text.isascii():
        _check_utf8(text, path)
    space = json.decoder.WHITESPACE.match
    decoder, start = json.JSONDecoder(object_pairs_hook=unique_keys), space(text).end()
    try:
        if convert is None or not text.startswith("{", start):
            return json.loads(text, object_pairs_hook=unique_keys)
        # the stdlib's own object parser, then decode's "Extra data" rule
        value, end = json.decoder.JSONObject((text, start + 1), True, scan, None, unique_keys)
        if (end := space(text, end).end()) != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
        return value
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{exc.msg} (column {exc.colno})", path) from None
    except RecursionError:
        raise ParseError(0, "JSON nested too deeply", path) from None


def _read_object(path, keys="vertex label", convert=None):
    payload = read_json(path, convert)
    if not isinstance(payload, dict):
        raise ParseError(0, f"top level must be a JSON object keyed by {keys}", path)
    return payload


def _key_line(path, keys):
    """The line on which the last of `keys`, a chain of object keys from the
    top of a JSON file that read_json accepted, is written; 0 where the chain
    is not in the file. The file is scanned again, so only a fault pays."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    at, line = 0, 0
    for key in keys:
        # read_json refused a repeated key: the first member of that name is the one
        member = next((member for member in _members(text, at) if member[0] == key), None)
        if member is None:
            return 0
        line, at = text.count("\n", 0, member[1]) + 1, member[2]
    return line


def _members(text, at):
    """(name, start of the name, start of the value) of each member of the
    JSON object at `at`, after any whitespace, in file order; none where no
    object starts there. Each member must decode."""
    space, skip = json.decoder.WHITESPACE.match, json.JSONDecoder().raw_decode
    at = space(text, at).end()
    if not text.startswith("{", at):
        return
    at = space(text, at + 1).end()
    while text.startswith('"', at):  # each member: "name" : value , or }
        name, end = json.decoder.scanstring(text, at + 1)
        start = space(text, space(text, end).end() + 1).end()
        yield name, at, start
        at = space(text, space(text, skip(text, start)[1]).end() + 1).end()


def _repeat_line(text, key):
    """The line on which `key` is written the second time in the object that
    read_json refused for it, the first to repeat a key in the order objects
    close, found by decoding `text` again with the pure-Python scanner, which
    shows where each object starts: only a fault pays. 0 where that scanner
    recurses too deeply."""
    line = 0

    def parse_object(s_and_end, strict, scan_once, object_hook, pairs_hook, memo):
        nonlocal line
        pairs, end = json.decoder.JSONObject(s_and_end, strict, scan_once, None, list, memo)
        if not line and len(dict(pairs)) < len(pairs):
            at = [at for name, at, _ in _members(text, s_and_end[1] - 1) if name == key][1]
            line = text.count("\n", 0, at) + 1
        return None, end

    decoder = json.JSONDecoder()
    decoder.parse_object = parse_object
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    with contextlib.suppress(ValueError, RecursionError):  # past the repeat the text may not parse
        decoder.decode(text)
    return line


def _numbers(value, path=None, where=None, shape=None, keys=()):
    """A JSON value of finite JSON numbers as float64 of `shape` (any shape
    when None). Anything else -- a string, boolean, null, object, ragged
    list, NaN, an infinity, an integer beyond float range or another shape --
    is a ParseError naming `where` on the line of `keys` (see _key_line), or
    None when `where` is None."""
    try:
        cells = np.array(value, dtype=object)
        if shape in (None, cells.shape) and set(map(type, cells.flat)) <= {int, float}:
            values = cells.astype(np.float64)
            if np.isfinite(values).all():
                return values
    except (ValueError, OverflowError):
        pass
    if where is not None:
        wanted = ("finite JSON numbers" if shape is None else "a finite JSON number"
                  if shape == () else f"a list of {shape[0]} finite JSON numbers")
        raise ParseError(_key_line(path, keys) if keys else 0, f"{where} must be {wanted}", path)


def _values(payload, path, where, shape=(), within=()):
    """The values of a JSON object as float64, one row of `shape` per key in
    file order; a fault names the first faulty key, as `where(key)`, on its
    line. `within` is the chain of keys that leads to the object."""
    values = _numbers(list(payload.values()) or np.empty((0, *shape)))
    if values is None or values.shape[1:] != shape:
        for key, value in payload.items():
            _numbers(value, path, where(key), shape, (*within, key))
    return values


def _ids(labels, ds, path, within=()):
    """Vertex ids of `labels`, the keys of the object that the chain of keys
    `within` leads to, in `ds`; an unknown label is a ParseError on its line."""
    ids = dict(zip(ds.labels, range(ds.n)))
    try:
        return np.fromiter(map(ids.__getitem__, labels), np.int64, len(labels))
    except KeyError as exc:
        label = exc.args[0]
        raise ParseError(_key_line(path, (*within, label)), f"unknown vertex label {label!r}",
                         path) from None


def read_ego_file(path, ds: LayeredDataset) -> EgoMarkov:
    """Ego matrices keyed by vertex label, layer order as in the dataset, as
    one (n, l, l) stack in vertex-id order. Each matrix of l x l finite
    numbers becomes a float64 array as soon as it is decoded, so the file is
    never held as nested lists. A label fault (unknown, then missing) comes
    first; of several faulty matrices, the lowest vertex's."""
    l = len(ds.layer_names)

    def convert(matrix):
        values = _numbers(matrix, shape=(l, l))
        return matrix if values is None else values

    payload = _read_object(path, convert=convert)
    _ids(payload, ds, path)
    if len(payload) != ds.n:
        missing = set(ds.labels) - payload.keys()
        raise ParseError(0, f"missing ego matrices for {sorted(missing)}", path)
    if not all(isinstance(m_u, np.ndarray) for m_u in payload.values()):
        for u, label in enumerate(ds.labels):  # raises what its matrix alone would
            m_u = _numbers(payload[label], path, f"ego matrix of {label!r}", keys=(label,))
            _check_egos(m_u[None], first=u)
            if m_u.shape != (l, l):
                k = len(m_u)
                raise DimensionMismatch(f"ego of vertex {u} is {k}x{k}, expected {l}x{l}")
    return EgoMarkov(np.stack([payload[label] for label in ds.labels]) if ds.n
                     else np.empty((0, l, l)))


def write_ego_file(egos: EgoMarkov, ds: LayeredDataset, path):
    write_json(dict(zip(ds.labels, egos.m.tolist())), path)


def write_json(payload, path=None):
    """Write a JSON object to `path`, or to stdout when None: one top-level
    key per line, each value compact JSON from json's C encoder (any indent
    would switch it to the pure-Python one), except that a finite 1-D
    float64 array is spelled by _float_list."""
    lines = ",\n".join(f"{json.dumps(key)}: {_json_value(value)}" for key, value in payload.items())
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as out:
        out.write("{\n" + lines + "\n}\n")


def _json_value(value):
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        return _float_list(value) if np.isfinite(value).all() else json.dumps(value.tolist())
    return json.dumps(value)


def _float_list(vector):
    """A finite float64 vector as a JSON list, its numbers those of one
    mmwrite of it as a dense column: the super-adjacency files' spelling,
    round-trip exact like float repr in about a tenth of its time. A bare
    integral token (scipy writes 0, -0 and 1 so, which JSON reads as ints,
    -0 as 0) gets a ".0", so every number reads back as the float written."""
    import scipy.io  # imported here, as for Matrix Market files: 0.02 s of start-up
    buffer = BytesIO()
    scipy.io.mmwrite(buffer, vector[:, None], field="real", symmetry="general")
    text = buffer.getvalue()
    body = text[re.search(rb"^[^%].*\n", text, re.M).end():].rstrip()  # after the size line
    if (vector == np.trunc(vector)).any():  # only an integral value can be spelled bare
        body = re.sub(rb"^(-?[0-9]+)$", rb"\1.0", body, flags=re.M)
    return "[" + body.replace(b"\n", b", ").decode("ascii") + "]"


def read_pi_file(path, ds: LayeredDataset) -> np.ndarray:
    """Per-vertex stationary layer distributions, NaN rows where unlisted.

    Vertices absent from the file are composed without inter-layer coupling;
    a listed vertex needs l finite JSON numbers.
    """
    payload = _read_object(path)
    pis, ids = np.full((ds.n, len(ds.layer_names)), np.nan), _ids(payload, ds, path)
    pis[ids] = _values(payload, path, lambda label: f"pi of {label!r}", pis.shape[1:])
    return pis


def write_pi_file(pis, ds: LayeredDataset, path):
    pis = np.asarray(pis, dtype=np.float64)
    write_json(dict(itertools.compress(zip(ds.labels, pis.tolist()), ~np.isnan(pis).all(axis=1))),
               path)


def read_dynamics(bias_path, delay_path, ds: LayeredDataset) -> dict:
    """Per-layer DynamicsParams from bias/delay JSON files.

    Each file maps layer name -> {vertex label -> value}; missing layers or
    vertices default to 1.0 (identity). Either path may be None.
    """
    def load(path):
        vectors = {}
        payload = {} if path is None else _read_object(path, "layer name")
        for name, entry in payload.items():
            if name not in ds.layer_names:
                raise ParseError(_key_line(path, (name,)), f"unknown layer {name!r}", path)
            if not isinstance(entry, dict):
                raise ParseError(_key_line(path, (name,)),
                                 f"layer {name!r} must be a JSON object keyed by vertex label", path)
            vectors[name], ids = np.ones(ds.n), _ids(entry, ds, path, (name,))
            vectors[name][ids] = _values(
                entry, path, lambda label: f"value of {label!r} in layer {name!r}", within=(name,))
        return vectors

    bias, delay = load(bias_path), load(delay_path)
    return {name: DynamicsParams(bias=bias.get(name, np.ones(ds.n)),
                                 delay=delay.get(name, np.ones(ds.n)))
            for name in ds.layer_names}


def read_distances(path) -> np.ndarray:
    """An l x l layer-distance matrix, checked by compose_distance."""
    return _numbers(read_json(path), path, "distance matrix")


def read_class_weights(path) -> dict:
    """Road class -> positive affinity weight, for read_dimacs_gr."""
    payload = _read_object(path, "road class")
    weights = _values(payload, path, lambda c: f"weight of {c!r}")
    for name, weight in zip(payload, weights):
        if weight <= 0:
            raise ParseError(_key_line(path, (name,)), f"weight of {name!r} must be positive",
                             path)
    return dict(zip(payload, weights.tolist()))


# ---------------------------------------------------------------------------
# DIMACS road networks


def read_dimacs_gr(gr_path, category_path, highway_classes=("A1", "A2", "A3"),
                   class_weights=None) -> LayeredDataset:
    """Split a DIMACS ``.gr`` road graph into local/highway layers.

    The companion category file holds ``<u> <v> <class>`` lines; edges in
    `highway_classes` form the highway layer, everything else the local
    layer, weighted by `class_weights` (default 2.0 for highway classes,
    1.0 otherwise; each positive and finite, or a ValueError names it), not
    by the travel-time column. Everything outside the largest connected
    component of the union graph is dropped.
    """
    weights, highway = dict(class_weights or {}), set(highway_classes)
    for name, weight in weights.items():
        if not 0.0 < weight < np.inf:
            raise ValueError(f"weight of road class {name!r} must be a positive finite number")
    cat_keys, _, cat_code, names = _read_dimacs(category_path, arcs=False)
    keys, pairs, _, _ = _read_dimacs(gr_path, arcs=True)
    if not (found := np.isin(keys, cat_keys)).all():
        u, v = divmod(int(keys[np.argmin(found)]), 2**31)
        raise MissingCategory(0, f"no road class for edge {u}-{v}", category_path)
    code = cat_code[np.searchsorted(cat_keys, keys)].astype(np.int64)
    on_highway = np.array([c in highway for c in names], dtype=np.int64)[code]
    weight = np.array([weights.get(c, 2.0 if c in highway else 1.0) for c in names], float)[code]

    # restrict everything to the largest component of the union graph
    vertices, ends = np.unique(pairs, return_inverse=True)
    ends = ends.reshape(-1, 2)
    union = sparse.coo_array((np.ones(len(keys)), tuple(ends.T)), shape=(vertices.size,) * 2)
    kept = components(union)[0] if vertices.size else np.empty(0, dtype=np.int64)
    inside = np.isin(ends[:, 0], kept)  # kept is sorted: searchsorted gives new ids
    layers = _layer_graphs(kept.size, np.searchsorted(kept, ends[inside]), weight[inside],
                           on_highway[inside], (False, False))
    return LayeredDataset(layer_names=["local", "highway"], layers=layers,
                          labels=[str(label) for label in vertices[kept]])


def _read_dimacs(path, arcs):
    """One pass over an arc file (``p sp <n> <m>`` and ``a <u> <v> <length>``
    lines) or, if not `arcs`, a category file (``<u> <v> <class>`` lines,
    ``#`` comments too) into flat typed buffers, ids outside 1..2**31 - 1
    stored as 0; the header's m must count the arc lines. Returns the sorted
    keys min * 2**31 + max of its edges, each key's first (u, v) and value (a
    class code) and the class names."""
    n, m, ends, value, where, names, fault = None, 0, array("q"), array("d"), array("q"), {}, None
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, raw in enumerate(handle, start=1):
                if not raw.isascii():
                    _check_utf8(raw, path, lineno)
                tokens = (raw if arcs else raw.split("#", 1)[0]).split()
                if not tokens or tokens[0].startswith("c"):
                    continue
                if arcs and tokens[0] != "a":
                    if tokens[0] != "p":
                        raise ParseError(lineno, f"unknown line type {tokens[0]!r}", path)
                    if n is not None:
                        raise ParseError(lineno, "second 'p sp' header", path)
                    if not re.fullmatch("p sp [0-9]+ [0-9]+", " ".join(tokens)):
                        raise ParseError(lineno, "expected: p sp <n> <m>", path)
                    if max(int(tokens[2]), int(tokens[3])) >= 2**31:
                        raise ParseError(lineno, "p sp counts must be below 2**31", path)
                    n, m = int(tokens[2]), int(tokens[3])
                    continue
                if len(tokens) != 3 + arcs:
                    raise ParseError(lineno, "expected: a <u> <v> <w>" if arcs
                                     else "expected: <u> <v> <class>", path)
                u, v, x = tokens[1:] if arcs else tokens
                try:
                    u, v = int(u), int(v)
                    x = float(x) if arcs else names.setdefault(x, len(names))
                except ValueError:
                    raise ParseError(lineno, "bad arc line" if arcs else "bad vertex id",
                                     path) from None
                if not -np.inf < x < np.inf:
                    raise ParseError(lineno, "arc length must be finite", path)
                ends.extend((u if 0 < u < 2**31 else 0, v if 0 < v < 2**31 else 0))
                value.append(x)
                where.append(lineno)
    except ParseError as exc:
        fault = exc
    pairs, values = np.frombuffer(ends, np.int64).reshape(-1, 2), np.frombuffer(value)
    low, high, top = pairs.min(axis=1), pairs.max(axis=1), 2**31 - 1 if n is None else n
    keys, first, inverse = np.unique(low * 2**31 + high, return_index=True, return_inverse=True)
    outside = (low < 1) | (high > top)
    if (bad := outside | (values != values[first[inverse]])).any():
        k = int(np.argmax(bad))
        u, v = pairs[k].tolist()
        what = "duplicate arc" if arcs else "road class for edge"
        raise ParseError(where[k], f"vertex id outside 1..{top}" if outside[k]
                         else f"conflicting {what} {u}-{v}", path)
    if fault is not None or (arcs and n is None):
        raise fault or ParseError(0, "missing 'p sp' header", path)
    if arcs and m != len(where):
        raise ParseError(0, f"header declares {m} arcs, the file has {len(where)}", path)
    return keys, pairs[first], values[first], list(names)


# ---------------------------------------------------------------------------
# super-adjacency serialization


def _is_json(path):
    """The one format rule: a name ending in .json holds the JSON block
    layout, any other name Matrix Market, and one ending in .gz or .bz2 is a
    ValueError: scipy's reader decompresses it, the writer writes plain text."""
    if str(path).endswith((".gz", ".bz2")):
        raise ValueError("a super-adjacency file name may not end in .gz or .bz2")
    return str(path).endswith(".json")


def write_super(s: SuperAdjacency, path):
    """Serialize a super-adjacency in the format its file name picks;
    read_super restores it bit-identically."""
    (_write_super_json if _is_json(path) else _write_super_mm)(s, path)


def read_super(path) -> SuperAdjacency:
    try:
        read = _read_super_json if _is_json(path) else _read_super_mm
    except ValueError as exc:  # raised before scipy's reader sees the name
        raise ParseError(0, str(exc), path) from None
    n, l, mat, mirrored = read(path)  # the reader's COO is gone: the check sees the CSC alone
    try:
        s = SuperAdjacency(n=n, l=l, matrix=mat)
    except ValueError as exc:
        raise ParseError(0, str(exc), path) from None
    if mirrored:  # each entry was read with its mirror: the matrix equals its transpose
        vars(s.as_graph())["symmetric"] = True
    return s


# the banners read_super accepts; write_super picks symmetric for a matrix equal
# to its transpose and lists only its entries on and below the diagonal
_BANNERS = (b"%%MatrixMarket matrix coordinate real general",
            b"%%MatrixMarket matrix coordinate real symmetric")


def _write_super_mm(s, path):
    import scipy.io  # imported here: only Matrix Market files need it, 0.02 s of start-up
    mat, symmetry = s.matrix, "general"
    if s.as_graph().symmetric:
        mat, symmetry = _lower_triangle(mat), "symmetric"
    # an open handle stops mmwrite from appending ".mtx" to the name
    with open(path, "wb") as handle:
        scipy.io.mmwrite(handle, mat, field="real", symmetry=symmetry,
                         comment=f" multinet super-adjacency n={s.n} l={s.l} "
                                 "indexing=layer-major flat=layer*n+vertex (1-based below)")


def _lower_triangle(mat):
    """The entries of a CSC with row >= col, as a COO built from its arrays:
    given the CSC, mmwrite would hold a full COO of it next to its copy of the
    lower triangle, 25 bytes per stored entry at its peak against 17."""
    col = np.repeat(np.arange(mat.shape[1], dtype=mat.indices.dtype), np.diff(mat.indptr))
    keep = mat.indices >= col
    return sparse.coo_array((mat.data[keep], (mat.indices[keep], col[keep])), shape=mat.shape)


def _read_super_mm(path):
    import scipy.io  # imported here: only Matrix Market files need it, 0.02 s of start-up
    with open(path, "rb") as handle:
        banner = handle.readline().strip()
        if banner not in _BANNERS:
            raise ParseError(1, "expected the banner " + " or ".join(
                repr(known.decode()) for known in _BANNERS), path)
        header = b"".join(itertools.takewhile(  # comments and blank lines
            lambda line: line.startswith(b"%") or line.isspace(), handle))
        found = [re.search(rb"\b%s=(\d+)\b" % key, header) for key in (b"n", b"l")]
        if not all(found):
            raise ParseError(2, "header comment must record n= and l=", path)
        n, l = (int(match[1]) for match in found)
        size_line = header.count(b"\n") + 2
        tokens = _scan(handle, path)  # scipy's reader crashes on a NUL byte
        # scipy gets the name, never this handle: one closed under its reader
        # thread as an error unwinds aborts the interpreter
        try:
            rows, cols, entries = scipy.io.mminfo(str(path))[:3]  # the header alone
            if not rows == cols == n * l:
                raise ParseError(size_line, f"matrix size {(rows, cols)} is not n*l = {n * l} "
                                            "square", path)
            # scipy's reader ignores tokens past the third on a line: banner 5, size line 3
            body = tokens - 5 - len(_TOKEN.findall(header)) - 3
            if body != 3 * entries:
                handle.seek(0)
                line = next((k for k, text in enumerate(handle, start=1)
                             if k >= size_line and len(_TOKEN.findall(text)) > 3), None)
                if line:
                    raise ParseError(line, "more than 3 tokens on a line", path)
                raise ParseError(size_line, f"size line declares {entries} entries; the "
                                            f"lines after it hold {body} tokens", path)
            coo = sparse.coo_array(scipy.io.mmread(str(path)))  # sized by checked entries
        except (ValueError, OverflowError) as exc:
            where = re.match(r"Line (\d+): (.*)", str(exc))
            line, reason = (int(where[1]), where[2]) if where else (0, str(exc))
            raise ParseError(line, reason, path) from None
    mirrored = banner == _BANNERS[1]
    return n, l, _csc_of_entries(path, n * l, coo.row, coo.col, coo.data, mirrored), mirrored


_TOKEN = re.compile(rb"[^\0-\x20]+")  # bytes up to 32 (space) separate tokens


def _scan(handle, path):
    """The token count of a binary file (see _TOKEN), read from the start
    into one 256 KiB buffer, which with its two flag arrays is all the scan
    holds; a NUL byte is a ParseError naming its line, counted only after a
    find."""
    handle.seek(0)
    buf, offset, tokens, gap = bytearray(1 << 18), 0, 0, True
    while size := handle.readinto(buf):
        at = buf.find(b"\0", 0, size)
        if at >= 0:
            handle.seek(0)
            line, head = 1, offset + at  # head: bytes before the NUL
            while head:
                size = handle.readinto(memoryview(buf)[:min(head, len(buf))])
                line += buf.count(b"\n", 0, size)
                head -= size
            raise ParseError(line, "NUL byte", path)
        solid = np.frombuffer(buf, np.uint8, size) > 32  # a token starts after a gap
        tokens += int(np.count_nonzero(solid[1:] > solid[:-1]) + (gap and solid[0]))
        gap, offset = not solid[-1], offset + size
    return tokens


def _write_super_json(s, path):
    coo = s.matrix.tocoo(copy=False)
    (bi, u), (bj, v) = np.divmod(coo.row, s.n), np.divmod(coo.col, s.n)
    order = np.lexsort((v, u, bj, bi))
    cuts = np.flatnonzero(np.diff(bi[order]) | np.diff(bj[order])) + 1
    diagonal, off = [[] for _ in range(s.l)], {}
    for k in filter(len, np.split(order, cuts)):  # one sorted run per block
        i, j, w = int(bi[k[0]]), int(bj[k[0]]), coo.data[k].tolist()
        if i == j:
            diagonal[i] = list(zip(u[k].tolist(), v[k].tolist(), w))
        else:
            off[f"{i},{j}"] = list(zip(u[k].tolist(), w))
    write_json({"n": s.n, "l": s.l, "diagonal_blocks": diagonal,
                "off_diagonal_blocks": off}, path)


def _count(value, path, key):
    """A JSON number that is an integer in 1..2**31 - 1, as an int; else a
    ParseError naming `key`. Two such counts keep n * l within int64."""
    count = _numbers(value, path, key, ())
    if not (count == np.floor(count) and 1 <= count < 2**31):
        raise ParseError(0, f"{key} must be an integer from 1 to 2**31 - 1", path)
    return int(count)


def _read_super_json(path):
    payload = read_json(path)
    try:
        n, l = (_count(payload[key], path, key) for key in ("n", "l"))
        blocks = [((i, i), _numbers(t, path, f"diagonal block {i}").reshape(len(t), 3))
                  for i, t in enumerate(payload["diagonal_blocks"])]
        if len(blocks) != l:
            raise ValueError(f"{len(blocks)} diagonal blocks for l = {l}")
        for key, pairs in payload.get("off_diagonal_blocks", {}).items():
            entries = _numbers(pairs, path, f"off-diagonal block {key!r}").reshape(len(pairs), 2)
            blocks.append((tuple(map(int, key.split(","))), entries[:, [0, 0, 1]]))
        offset = np.repeat([ij for ij, _ in blocks], [len(t) for _, t in blocks], axis=0)
        table = np.concatenate([t for _, t in blocks] + [np.empty((0, 3))])
        index = table[:, :2]
        if not np.all((index == np.floor(index)) & (index >= 0) & (index < n)):
            raise ValueError(f"a vertex index is not an integer in 0..{n - 1}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(0, f"malformed super-adjacency JSON: {exc}", path) from None
    flat = (offset.reshape(-1, 2) * n + index).astype(np.int64)
    return n, l, _csc_of_entries(path, n * l, flat[:, 0], flat[:, 1], table[:, 2]), False


def _csc_of_entries(path, size, rows, cols, vals, mirrored=False):
    """The canonical CSC of flat COO arrays; rejects what summing would hide.
    A `mirrored` matrix is read as its transpose, itself: mmread gives a file
    write_super wrote as its lower triangle, column by column, then the
    mirrors, so each row arrives sorted and the CSC needs no sort."""
    try:
        coo = sparse.coo_array((vals, (cols, rows) if mirrored else (rows, cols)),
                               shape=(size, size))
        mat = _canonical(coo)  # only a summed repeat or a dropped zero loses entries
        repeat = None if mat.nnz == coo.nnz else first_repeat(rows.astype(np.int64) * size + cols)
        if repeat is not None:
            raise ValueError(f"duplicate entry at 0-based flat ({rows[repeat]}, {cols[repeat]})")
        return mat
    except ValueError as exc:
        raise ParseError(0, str(exc), path) from None


# ---------------------------------------------------------------------------
# DOT export


def write_dot(graph, path, side=None, labels=None, layer_names=None):
    """Graphviz export; bisection sides color the nodes when given."""
    def named(given, count):
        return [given[k] if given else str(k) for k in range(count)]

    mat = graph.matrix
    if isinstance(graph, SuperAdjacency):
        names = [f"{vertex}@{layer}" for layer in named(layer_names, graph.l)
                 for vertex in named(labels, graph.n)]
        graph = graph.as_graph()
    else:
        names = named(labels, mat.shape[0])
    colors = [""] * len(names) if side is None else \
        [' [color="firebrick"]' if side[k] else ' [color="steelblue"]' for k in range(len(names))]
    directed = not graph.symmetric
    keyword, arrow = ("digraph", "->") if directed else ("graph", "--")
    parts = [f"{keyword} multinet {{\n"]
    parts += [f'  "{name}"{color};\n' for name, color in zip(names, colors)]
    parts += [f'  "{names[u]}" {arrow} "{names[v]}" [label="{w:g}"];\n'
              for u, v, w in _edge_triples(mat, directed)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts) + "}\n")
