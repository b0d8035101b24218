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

Vertex labels are shared across layers; ids follow first appearance. A
malformed file raises at its earliest faulty line, a repeated edge included.
Its reader keeps each edge in flat typed buffers, about 40 bytes per edge
while parsing, and checks for a repeated edge once, over all layers.
Companion JSON files hold ego matrices or stationary layer distributions
keyed by vertex label, bias/delay values keyed by layer then vertex label,
layer distances, or road-class weights; each value a finite JSON number, or
a ParseError names the file and the key, as it does a text file that is not
UTF-8 or JSON that does not parse. Super-adjacencies serialize to
Matrix-Market coordinate files (header comment records n, l, and the
layer-major index convention) or to a JSON block layout, picked by the
file name alone: a name ending in ``.json`` is JSON, any other name Matrix
Market, for writing and reading alike. Both formats round-trip
weights bit-identically. Entry order and float spelling are not part of
either format. Both readers reject indices out of range, non-numeric or
non-finite weights and duplicate entries; the Matrix-Market reader also
rejects a missing or foreign banner, an entry count other than declared and
a line past the header comments with more than three tokens.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .compose import EgoMarkov, SuperAdjacency, _check_egos
from .errors import DimensionMismatch, DuplicateEdge, MissingCategory, ParseError, UnknownLayer
from .graph import LayerGraph, _canonical, _is_symmetric, components, first_repeat
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
    One pass checks each line and appends each edge's ids, layer, weight and
    line number to flat typed buffers, about 40 bytes per edge; one check
    over all layers finds a repeated edge, and each layer's matrix is built
    from views of those buffers."""
    declared = {}  # layer name -> (index, directed flag), in declaration order
    ids = {}  # label -> id, in order of first appearance
    ends, layer, where = array("q"), array("q"), array("q")  # per edge: u, v; layer; line
    weight = array("d")
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
                    name = tokens[1]
                    if name not in declared:
                        raise UnknownLayer(lineno, f"edge in undeclared layer {name!r}", path)
                    try:
                        w = float(tokens[4])
                    except ValueError:
                        raise ParseError(lineno, f"bad weight {tokens[4]!r}", path) from None
                    if not 0.0 < w < np.inf:
                        raise ParseError(lineno, "edge weight must be a positive finite number",
                                         path)
                    ends.append(ids.setdefault(tokens[2], len(ids)))
                    ends.append(ids.setdefault(tokens[3], len(ids)))
                    layer.append(declared[name][0])
                    weight.append(w)
                    where.append(lineno)
                elif kind == "vertex":
                    if len(tokens) != 2:
                        raise ParseError(lineno, "expected: vertex <label>", path)
                    ids.setdefault(tokens[1], len(ids))
                elif kind == "layer":
                    if len(tokens) != 3 or tokens[2] not in ("directed", "undirected"):
                        raise ParseError(lineno, "expected: layer <name> directed|undirected", path)
                    if tokens[1] in declared:
                        raise ParseError(lineno, f"layer {tokens[1]!r} declared twice", path)
                    declared[tokens[1]] = (len(declared), tokens[2] == "directed")
                else:
                    raise ParseError(lineno, f"unknown directive {kind!r}", path)
    except ParseError as exc:
        fault = exc

    labels, n, flags = list(ids), len(ids), [flag for _, flag in declared.values()]
    pairs, index = np.frombuffer(ends, np.int64).reshape(-1, 2), np.frombuffer(layer, np.int64)
    keys = np.where(np.array(flags, dtype=bool)[index, None], pairs, np.sort(pairs, axis=1))
    repeat = first_repeat(np.ravel_multi_index((index, *keys.T), (len(flags), n, n)))
    if repeat is not None:
        u, v = (labels[k] for k in pairs[repeat])
        raise DuplicateEdge(where[repeat], f"edge {u}-{v} in layer "
                            f"{list(declared)[layer[repeat]]!r} given twice", path)
    if fault is not None:
        raise fault
    weights, order = np.frombuffer(weight), np.argsort(index, kind="stable")
    cuts = np.searchsorted(index, np.arange(len(flags) + 1), sorter=order).tolist()
    layers = []
    for k, flag in enumerate(flags):
        pick = order[cuts[k]:cuts[k + 1]]
        (u, v), w = pairs[pick].T, weights[pick]
        if not flag:  # an undirected layer mirrors its off-diagonal edges
            off = u != v
            u, v, w = (np.concatenate(part) for part in ((u, v[off]), (v, u[off]), (w, w[off])))
        layers.append(LayerGraph(n, sparse.coo_array((w, (u, v)), shape=(n, n)), flag))
    return LayeredDataset(layer_names=list(declared), layers=layers, labels=labels)


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
    coo = matrix.tocoo()
    keep = slice(None) if directed else coo.row <= coo.col
    row, col, weight = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((col, row))
    return zip(row[order].tolist(), col[order].tolist(), weight[order].tolist())


# ---------------------------------------------------------------------------
# companion JSON payloads


def read_json(path):
    """A UTF-8 JSON file's value; a repeated key, bad syntax or non-UTF-8 bytes are a ParseError."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(0, f"duplicate JSON object key {key!r}", path)
            seen.add(key)
        return dict(pairs)

    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    if not text.isascii():
        _check_utf8(text, path)
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{exc.msg} (column {exc.colno})", path) from None
    except RecursionError:
        raise ParseError(0, "JSON nested too deeply", path) from None


def _read_object(path, keys="vertex label"):
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ParseError(0, f"top level must be a JSON object keyed by {keys}", path)
    return payload


def _numbers(value, path=None, where=None, shape=None):
    """A JSON value of finite JSON numbers as float64 of `shape` (any shape
    when None). Anything else -- a string, boolean, null, object, ragged
    list, NaN, an infinity, an integer beyond float range or another shape --
    is a ParseError naming `where`, or None when `where` is None."""
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
        raise ParseError(0, f"{where} must be {wanted}", path)


def _values(payload, path, where, shape=()):
    """The values of a JSON object as float64, one row of `shape` per key in
    file order; a fault names the first faulty key, as `where(key)`."""
    values = _numbers(list(payload.values()) or np.empty((0, *shape)))
    if values is None or values.shape[1:] != shape:
        for key, value in payload.items():
            _numbers(value, path, where(key), shape)
    return values


def _ids(labels, ds, path):
    """Vertex ids of `labels` in `ds`; an unknown label is a ParseError."""
    ids = dict(zip(ds.labels, range(ds.n)))
    try:
        return np.fromiter(map(ids.__getitem__, labels), np.int64, len(labels))
    except KeyError as exc:
        raise ParseError(0, f"unknown vertex label {exc.args[0]!r}", path) from None


def read_ego_file(path, ds: LayeredDataset) -> EgoMarkov:
    """Ego matrices keyed by vertex label, layer order as in the dataset, as
    one (n, l, l) stack in vertex-id order. A label fault (unknown, then
    missing) comes first; of several faulty matrices, the lowest vertex's."""
    payload = _read_object(path)
    l, order = len(ds.layer_names), _ids(payload, ds, path)
    if len(payload) != ds.n:
        missing = set(ds.labels) - payload.keys()
        raise ParseError(0, f"missing ego matrices for {sorted(missing)}", path)
    values = _numbers(list(payload.values()) or np.empty((0, l, l)), shape=(ds.n, l, l))
    if values is None:
        for u, label in enumerate(ds.labels):  # raises what its matrix alone would
            m_u = _numbers(payload[label], path, f"ego matrix of {label!r}")
            _check_egos(m_u[None], first=u)
            if m_u.shape != (l, l):
                k = len(m_u)
                raise DimensionMismatch(f"ego of vertex {u} is {k}x{k}, expected {l}x{l}")
    m = np.empty_like(values)
    m[order] = values
    return EgoMarkov(m)


def write_ego_file(egos: EgoMarkov, ds: LayeredDataset, path):
    payload = dict(zip(ds.labels, egos.m.tolist()))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def read_pi_file(path, ds: LayeredDataset) -> np.ndarray:
    """Per-vertex stationary layer distributions, NaN rows where unlisted.

    Vertices absent from the file are composed without inter-layer coupling;
    a listed vertex needs l finite JSON numbers.
    """
    payload = _read_object(path)
    pis = np.full((ds.n, len(ds.layer_names)), np.nan)
    pis[_ids(payload, ds, path)] = _values(
        payload, path, lambda label: f"pi of {label!r}", pis.shape[1:])
    return pis


def write_pi_file(pis, ds: LayeredDataset, path):
    pis = np.asarray(pis, dtype=np.float64)
    payload = dict(itertools.compress(zip(ds.labels, pis.tolist()), ~np.isnan(pis).all(axis=1)))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


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
                raise ParseError(0, f"unknown layer {name!r}", path)
            if not isinstance(entry, dict):
                raise ParseError(0, f"layer {name!r} must be a JSON object keyed by vertex label",
                                 path)
            vectors[name] = np.ones(ds.n)
            vectors[name][_ids(entry, ds, path)] = _values(
                entry, path, lambda label: f"value of {label!r} in layer {name!r}")
        return vectors

    bias, delay = load(bias_path), load(delay_path)
    return {name: DynamicsParams(bias=bias.get(name, np.ones(ds.n)),
                                 delay=delay.get(name, np.ones(ds.n)))
            for name in ds.layer_names}


def read_distances(path) -> np.ndarray:
    """An l x l layer-distance matrix, checked by compose_distance."""
    return _numbers(read_json(path), path, "distance matrix")


def read_class_weights(path) -> dict:
    """Road class -> affinity weight, for read_dimacs_gr."""
    payload = _read_object(path, "road class")
    return dict(zip(payload, _values(payload, path, lambda c: f"weight of {c!r}").tolist()))


# ---------------------------------------------------------------------------
# DIMACS road networks


DEFAULT_HIGHWAY_CLASSES = ("A1", "A2", "A3")


def read_dimacs_gr(gr_path, category_path,
                   highway_classes=DEFAULT_HIGHWAY_CLASSES,
                   class_weights=None) -> LayeredDataset:
    """Split a DIMACS ``.gr`` road graph into local/highway layers.

    The companion category file holds ``<u> <v> <class>`` lines; edges in
    `highway_classes` form the highway layer, everything else the local
    layer. Affinity weights come from `class_weights` (default 2.0 for
    highway classes, 1.0 otherwise), not from the travel-time column.
    Reverse duplicate arcs merge into one undirected edge; everything
    outside the largest connected component of the union graph is dropped.
    """
    categories = _read_categories(category_path)
    arcs, header = {}, False
    with open(gr_path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.isascii():
                _check_utf8(raw, gr_path, lineno)
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if tokens[0] == "p":
                if not re.fullmatch("p sp [0-9]+ [0-9]+", " ".join(tokens)):
                    raise ParseError(lineno, "expected: p sp <n> <m>", gr_path)
                header = True
            elif tokens[0] == "a":
                if len(tokens) != 4:
                    raise ParseError(lineno, "expected: a <u> <v> <w>", gr_path)
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                    w = float(tokens[3])
                except ValueError:
                    raise ParseError(lineno, "bad arc line", gr_path) from None
                key = (min(u, v), max(u, v))
                if key in arcs and arcs[key] != w:
                    raise ParseError(lineno, f"conflicting duplicate arc {u}-{v}", gr_path)
                arcs[key] = w
            else:
                raise ParseError(lineno, f"unknown line type {tokens[0]!r}", gr_path)
    if not header:
        raise ParseError(0, "missing 'p sp' header", gr_path)

    keys = sorted(arcs)
    missing = next((key for key in keys if key not in categories), None)
    if missing is not None:
        raise MissingCategory(0, f"no road class for edge {missing[0]}-{missing[1]}",
                              category_path)
    road_class = [categories[key] for key in keys]
    weights, highway = dict(class_weights or {}), set(highway_classes)
    on_highway = np.array([c in highway for c in road_class], dtype=bool)
    weight = [float(weights.get(c, 2.0 if c in highway else 1.0)) for c in road_class]
    vertices, ends = np.unique(np.array(keys, dtype=np.int64).reshape(-1), return_inverse=True)
    ends = ends.reshape(-1, 2)

    # restrict everything to the largest component of the union graph
    union = sparse.coo_array((np.ones(len(keys)), tuple(ends.T)), shape=(vertices.size,) * 2)
    kept = components(union)[0] if vertices.size else np.empty(0, dtype=np.int64)
    final = np.full(vertices.size, -1)
    final[kept] = np.arange(kept.size)
    table = np.column_stack((final[ends], weight))
    inside = (table[:, :2] >= 0).all(axis=1)
    layers = [LayerGraph.from_edges(kept.size, table[inside & (on_highway == on)], directed=False)
              for on in (False, True)]
    return LayeredDataset(layer_names=["local", "highway"], layers=layers,
                          labels=[str(label) for label in vertices[kept]])


def _read_categories(path):
    categories = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.isascii():
                _check_utf8(raw, path, lineno)
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: <u> <v> <class>", path)
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(lineno, "bad vertex id", path) from None
            categories[(min(u, v), max(u, v))] = tokens[2]
    return categories


# ---------------------------------------------------------------------------
# super-adjacency serialization


def _is_json(path):
    """The one format rule: a name ending in .json holds the JSON block
    layout, any other name Matrix Market."""
    return str(path).endswith(".json")


def write_super(s: SuperAdjacency, path):
    """Serialize a super-adjacency in the format its file name picks;
    read_super restores it bit-identically."""
    (_write_super_json if _is_json(path) else _write_super_mm)(s, path)


def read_super(path) -> SuperAdjacency:
    return _read_super_json(path) if _is_json(path) else _read_super_mm(path)


def _write_super_mm(s, path):
    import scipy.io  # imported here: only Matrix Market files need it, 0.02 s of start-up
    # an open handle stops mmwrite from appending ".mtx" to the name
    with open(path, "wb") as handle:
        scipy.io.mmwrite(handle, s.matrix, field="real", symmetry="general",
                         comment=f" multinet super-adjacency n={s.n} l={s.l} "
                                 "indexing=layer-major flat=layer*n+vertex (1-based below)")


def _read_super_mm(path):
    import scipy.io  # imported here: only Matrix Market files need it, 0.02 s of start-up
    with open(path, "rb") as handle:
        banner = "%%MatrixMarket matrix coordinate real general"
        if handle.readline().strip() != banner.encode():
            raise ParseError(1, f"expected the banner {banner!r}", path)
        header = b"".join(itertools.takewhile(  # comments and blank lines
            lambda line: line.startswith(b"%") or line.isspace(), handle))
        found = [re.search(rb"\b%s=(\d+)\b" % key, header) for key in (b"n", b"l")]
        if not all(found):
            raise ParseError(2, "header comment must record n= and l=", path)
        n, l = (int(match[1]) for match in found)
        size_line = header.count(b"\n") + 2
        tokens = _scan(handle, path)  # scipy's reader crashes on a NUL byte
        handle.seek(0)
        try:
            coo = sparse.coo_array(scipy.io.mmread(handle))
        except (ValueError, OverflowError) as exc:
            where = re.match(r"Line (\d+): (.*)", str(exc))
            line, reason = (int(where[1]), where[2]) if where else (0, str(exc))
            raise ParseError(line, reason, path) from None
        # scipy's reader ignores tokens past the third on a line: banner 5, size line 3
        if tokens != 5 + len(_TOKEN.findall(header)) + 3 + 3 * coo.nnz:
            handle.seek(0)
            line = next((k for k, text in enumerate(handle, start=1)
                         if k >= size_line and len(_TOKEN.findall(text)) > 3), 0)
            raise ParseError(line, "more than 3 tokens on a line", path)
    if coo.shape != (n * l, n * l):
        raise ParseError(size_line, f"matrix size {coo.shape} is not n*l = {n * l} square", path)
    return _super_from_entries(path, n, l, coo.row, coo.col, coo.data)


_TOKEN = re.compile(rb"[^\0-\x20]+")  # bytes up to 32 (space) separate tokens


def _scan(handle, path):
    """The token count of a binary file (see _TOKEN), read from the start
    into one 1 MB buffer; a NUL byte is a ParseError naming its line,
    counted only after a find."""
    handle.seek(0)
    buf, offset, tokens, gap = bytearray(1 << 20), 0, 0, True
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
    payload = {"n": s.n, "l": s.l, "diagonal_blocks": diagonal,
               "off_diagonal_blocks": off}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))


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
    return _super_from_entries(path, n, l, flat[:, 0], flat[:, 1], table[:, 2])


def _super_from_entries(path, n, l, rows, cols, vals):
    """SuperAdjacency from flat COO arrays; rejects what summing would hide."""
    try:
        coo = sparse.coo_array((vals, (rows, cols)), shape=(n * l, n * l))
        mat = _canonical(coo)  # only a summed repeat or a dropped zero loses entries
        repeat = None if mat.nnz == coo.nnz else first_repeat(
            coo.row.astype(np.int64) * (n * l) + coo.col)
        if repeat is not None:
            raise ValueError(f"duplicate entry at 0-based flat "
                             f"({coo.row[repeat]}, {coo.col[repeat]})")
        return SuperAdjacency(n=n, l=l, matrix=mat)
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
    else:
        names = named(labels, mat.shape[0])
    colors = [""] * len(names) if side is None else \
        [' [color="firebrick"]' if side[k] else ' [color="steelblue"]' for k in range(len(names))]
    directed = not _is_symmetric(mat)
    keyword, arrow = ("digraph", "->") if directed else ("graph", "--")
    parts = [f"{keyword} multinet {{\n"]
    parts += [f'  "{name}"{color};\n' for name, color in zip(names, colors)]
    parts += [f'  "{names[u]}" {arrow} "{names[v]}" [label="{w:g}"];\n'
              for u, v, w in _edge_triples(mat, directed)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts) + "}\n")
