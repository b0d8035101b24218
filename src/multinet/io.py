"""File formats and dataset ingestion.

Layered edge-list format (line oriented, ``#`` comments allowed)::

    layer phone undirected
    layer email directed
    vertex alice            # optional isolated-vertex declaration
    edge phone alice bob 2.0
    edge email alice carol 1.0

Vertex labels are shared across layers; ids follow first appearance. A
malformed file raises at its earliest faulty line, a repeated edge included.
Companion JSON files carry per-vertex ego matrices or stationary layer
distributions keyed by vertex label, and per-layer bias/delay vectors keyed
by layer name then vertex label. Super-adjacencies serialize to
Matrix-Market coordinate files (header comment records n, l, and the
layer-major index convention) or to a JSON block layout, picked by the
file name alone: a name ending in ``.json`` is JSON, any other name Matrix
Market, for writing and reading alike. Both formats round-trip
weights bit-identically. Entry order and float spelling are not part of
either format. Both readers reject indices out of range, non-numeric or
non-finite weights and duplicate entries; the Matrix-Market reader also
rejects a missing or foreign banner and an entry count other than declared.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

import numpy as np
import scipy.io
from scipy import sparse

from .compose import EgoMarkov, SuperAdjacency, _check_egos
from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    MissingCategory,
    ParseError,
    UnknownLayer,
)
from .graph import LayerGraph, components, first_repeat
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

    @property
    def label_ids(self):
        return dict(zip(self.labels, range(len(self.labels))))

    def layer(self, name):
        return self.layers[self.layer_names.index(name)]


# ---------------------------------------------------------------------------
# layered edge-list format


def read_layers(path) -> LayeredDataset:
    """Parse the layered edge-list format; the earliest faulty line is reported.
    One pass checks each line; ids, repeated edges and matrices come from arrays."""
    declared = {}  # layer name -> (index, directed flag), in declaration order
    seq, lone = [], []  # label occurrences in file order; where vertex lines put theirs
    layer, weight, where = [], [], []  # per edge: layer index, weight, line number
    fault = None  # raised after the lines before it are checked for a repeated edge
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
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
                        raise UnknownLayer(f"{path}:{lineno}: edge in undeclared layer {name!r}")
                    try:
                        w = float(tokens[4])
                    except ValueError:
                        raise ParseError(lineno, f"bad weight {tokens[4]!r}", path) from None
                    if not 0.0 < w < np.inf:
                        raise ParseError(lineno, "edge weight must be a positive finite number",
                                         path)
                    layer.append(declared[name][0])
                    seq += tokens[2:4]
                    weight.append(w)
                    where.append(lineno)
                elif kind == "vertex":
                    if len(tokens) != 2:
                        raise ParseError(lineno, "expected: vertex <label>", path)
                    lone.append(len(seq))
                    seq.append(tokens[1])
                elif kind == "layer":
                    if len(tokens) != 3 or tokens[2] not in ("directed", "undirected"):
                        raise ParseError(lineno, "expected: layer <name> directed|undirected", path)
                    if tokens[1] in declared:
                        raise ParseError(lineno, f"layer {tokens[1]!r} declared twice", path)
                    declared[tokens[1]] = (len(declared), tokens[2] == "directed")
                else:
                    raise ParseError(lineno, f"unknown directive {kind!r}", path)
    except (ParseError, UnknownLayer, UnicodeDecodeError) as exc:
        fault = exc

    labels = list(dict.fromkeys(seq))
    ids = dict(zip(labels, range(len(labels))))
    ends = np.delete(np.fromiter(map(ids.__getitem__, seq), np.int64, len(seq)),
                     lone).reshape(-1, 2)
    index = np.array(layer, dtype=np.int64)
    directed = np.array([flag for _, flag in declared.values()], dtype=bool)[index]
    src, dst = np.where(directed[:, None], ends, np.sort(ends, axis=1)).T
    repeat = first_repeat(np.ravel_multi_index((index, src, dst),
                                               (len(declared), len(ids), len(ids))))
    if repeat is not None:
        u, v = (labels[k] for k in ends[repeat])
        raise DuplicateEdge(f"{path}:{where[repeat]}: edge {u}-{v} "
                            f"in layer {list(declared)[layer[repeat]]!r} given twice")
    if fault is not None:
        raise fault
    order = np.argsort(index, kind="stable")
    groups = np.split(np.column_stack((ends, weight))[order],
                      np.searchsorted(index[order], np.arange(1, len(declared))))
    layers = [LayerGraph.from_edges(len(labels), edges, directed=flag)
              for edges, (_, flag) in zip(groups, declared.values())]
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
    """Parse a UTF-8 JSON file; a key repeated in one object raises ParseError."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(0, f"duplicate JSON object key {key!r}", path)
            seen.add(key)
        return dict(pairs)

    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, object_pairs_hook=unique_keys)


def _read_object(path, keys="vertex label"):
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ParseError(0, f"top level must be a JSON object keyed by {keys}", path)
    return payload


def _floats(value, path, what):
    """A JSON payload as float64; a JSON object inside it is a ParseError."""
    try:
        return np.asarray(value, dtype=np.float64)
    except TypeError:
        raise ParseError(0, f"{what} must hold numbers, not JSON objects", path) from None


def read_ego_file(path, ds: LayeredDataset) -> EgoMarkov:
    """Ego matrices keyed by vertex label, layer order as in the dataset, as
    one (n, l, l) stack in vertex-id order. A label fault (unknown, then
    missing) comes first; of several faulty matrices, the lowest vertex's."""
    payload = _read_object(path)
    ids, l = ds.label_ids, len(ds.layer_names)
    if not payload.keys() <= ids.keys():
        unknown = next(label for label in payload if label not in ids)
        raise ParseError(0, f"unknown vertex label {unknown!r}", path)
    if len(payload) != ds.n:
        missing = set(ds.labels) - payload.keys()
        raise ParseError(0, f"missing ego matrices for {sorted(missing)}", path)
    try:
        values = np.asarray(list(payload.values()) or np.empty((0, l, l)), dtype=np.float64)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (ds.n, l, l):
        for u, label in enumerate(ds.labels):  # raises what its matrix alone would
            m_u = _floats(payload[label], path, f"ego matrix of {label!r}")
            _check_egos(m_u[None], first=u)
            if m_u.shape != (l, l):
                k = len(m_u)
                raise DimensionMismatch(f"ego of vertex {u} is {k}x{k}, expected {l}x{l}")
    m = np.empty_like(values)
    m[np.fromiter(map(ids.__getitem__, payload), np.int64, ds.n)] = values
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
    ids, l = ds.label_ids, len(ds.layer_names)
    pis = np.full((ds.n, l), np.nan)
    for label, vec in payload.items():
        if label not in ids:
            raise ParseError(0, f"unknown vertex label {label!r}", path)
        if isinstance(vec, list) and any(isinstance(v, (str, bool)) for v in vec):
            raise ParseError(0, f"pi of {label!r} must hold numbers, not JSON strings or "
                                "booleans", path)
        arr = _floats(vec, path, f"pi of {label!r}")
        if arr.shape != (l,):
            raise ParseError(0, f"pi of {label!r} must have length {l}", path)
        if not np.isfinite(arr).all():
            raise ParseError(0, f"pi of {label!r} must hold finite numbers", path)
        pis[ids[label]] = arr
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
    ids = ds.label_ids

    def load(path):
        vectors = {}
        payload = {} if path is None else _read_object(path, "layer name")
        for name, entry in payload.items():
            if name not in ds.layer_names:
                raise ParseError(0, f"unknown layer {name!r}", path)
            if not isinstance(entry, dict):
                raise ParseError(0, f"layer {name!r} must be a JSON object keyed by vertex label",
                                 path)
            values = vectors[name] = np.ones(ds.n)
            for label, value in entry.items():
                if label not in ids:
                    raise ParseError(0, f"unknown vertex label {label!r}", path)
                try:
                    values[ids[label]] = float(value)
                except (TypeError, ValueError):
                    raise ParseError(0, f"value of {label!r} in layer {name!r} must be a number",
                                     path) from None
        return vectors

    bias, delay = load(bias_path), load(delay_path)
    return {name: DynamicsParams(bias=bias.get(name, np.ones(ds.n)),
                                 delay=delay.get(name, np.ones(ds.n)))
            for name in ds.layer_names}


# ---------------------------------------------------------------------------
# DIMACS road networks


DEFAULT_HIGHWAY_CLASSES = ("A1", "A2", "A3")


def read_dimacs_gr(gr_path, category_path,
                   highway_classes=DEFAULT_HIGHWAY_CLASSES,
                   class_weights=None,
                   layer_names=("local", "highway")) -> LayeredDataset:
    """Split a DIMACS ``.gr`` road graph into local/highway layers.

    The companion category file holds ``<u> <v> <class>`` lines; edges in
    `highway_classes` form the highway layer, everything else the local
    layer. Affinity weights come from `class_weights` (default 2.0 for
    highway classes, 1.0 otherwise), not from the travel-time column.
    Reverse duplicate arcs merge into one undirected edge; everything
    outside the largest connected component of the union graph is dropped.
    """
    categories = _read_categories(category_path)
    arcs = {}
    declared = None
    with open(gr_path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if tokens[0] == "p":
                if len(tokens) != 4 or tokens[1] != "sp":
                    raise ParseError(lineno, "expected: p sp <n> <m>", gr_path)
                declared = (int(tokens[2]), int(tokens[3]))
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
    if declared is None:
        raise ParseError(0, "missing 'p sp' header", gr_path)

    keys = sorted(arcs)
    missing = next((key for key in keys if key not in categories), None)
    if missing is not None:
        raise MissingCategory(f"no road class for edge {missing[0]}-{missing[1]}")
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
    return LayeredDataset(layer_names=list(layer_names), layers=layers,
                          labels=[str(label) for label in vertices[kept]])


def _read_categories(path):
    categories = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    # an open handle stops mmwrite from appending ".mtx" to the name
    with open(path, "wb") as handle:
        scipy.io.mmwrite(handle, s.matrix, field="real", symmetry="general",
                         comment=f" multinet super-adjacency n={s.n} l={s.l} "
                                 "indexing=layer-major flat=layer*n+vertex (1-based below)")


def _read_super_mm(path):
    with open(path, "rb") as handle:
        banner = "%%MatrixMarket matrix coordinate real general"
        if handle.readline().strip() != banner.encode():
            raise ParseError(1, f"expected the banner {banner!r}", path)
        header = b"".join(itertools.takewhile(lambda line: line.startswith(b"%"), handle))
        found = [re.search(rb"\b%s=(\d+)\b" % key, header) for key in (b"n", b"l")]
        if not all(found):
            raise ParseError(2, "header comment must record n= and l=", path)
        n, l = (int(match[1]) for match in found)
        handle.seek(0)
        try:
            coo = sparse.coo_array(scipy.io.mmread(handle))
        except ValueError as exc:
            where = re.match(r"Line (\d+): (.*)", str(exc))
            line, reason = (int(where[1]), where[2]) if where else (0, str(exc))
            raise ParseError(line, reason, path) from None
    if coo.shape != (n * l, n * l):
        raise ParseError(header.count(b"\n") + 2,
                         f"matrix size {coo.shape} is not n*l = {n * l} square", path)
    return _super_from_entries(path, n, l, coo.row, coo.col, coo.data)


def _write_super_json(s, path):
    coo = s.matrix.tocoo()
    (bi, u), (bj, v) = np.divmod(coo.row, s.n), np.divmod(coo.col, s.n)
    order = np.lexsort((v, u, bj, bi))
    cuts = np.flatnonzero(np.diff((bi * s.l + bj)[order])) + 1
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


def _read_super_json(path):
    payload = read_json(path)
    try:
        n, l = int(payload["n"]), int(payload["l"])
        blocks = [((i, i), np.asarray(t, dtype=np.float64).reshape(len(t), 3))
                  for i, t in enumerate(payload["diagonal_blocks"])]
        if len(blocks) != l:
            raise ValueError(f"{len(blocks)} diagonal blocks for l = {l}")
        for key, pairs in payload.get("off_diagonal_blocks", {}).items():
            entries = np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2)
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
        keys = coo.row.astype(np.int64) * (n * l) + coo.col
        keys.sort()
        dup = keys[1:][keys[1:] == keys[:-1]]
        if dup.size:
            raise ValueError(f"duplicate entry at 0-based flat {divmod(int(dup[0]), n * l)}")
        return SuperAdjacency(n=n, l=l, matrix=coo)
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
    directed = (mat != mat.T).nnz != 0
    keyword, arrow = ("digraph", "->") if directed else ("graph", "--")
    parts = [f"{keyword} multinet {{\n"]
    parts += [f'  "{name}"{color};\n' for name, color in zip(names, colors)]
    parts += [f'  "{names[u]}" {arrow} "{names[v]}" [label="{w:g}"];\n'
              for u, v, w in _edge_triples(mat, directed)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts) + "}\n")
