"""Super-adjacency files: bit-identical round trips and malformed-file rejection."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from multinet import (
    SuperAdjacency,
    compose_distance,
    compose_ego,
    read_super,
    write_super,
)
from multinet.cli import main
from multinet.errors import ParseError

from conftest import random_egos, random_graph

PROPERTY = settings(max_examples=60, deadline=None)

# weights whose shortest round-trip spelling differs from a short decimal
EXTREME_WEIGHTS = (5e-324, 2.5e-310, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0)


def write_super_mm_row_order(s, path):
    """The earlier writer: one entry per line, row-major order, repr floats."""
    coo = s.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"% multinet super-adjacency n={s.n} l={s.l} "
                     "indexing=layer-major flat=layer*n+vertex (1-based below)\n")
        handle.write(f"{s.n * s.l} {s.n * s.l} {coo.nnz}\n")
        for k in order:
            handle.write(f"{coo.row[k] + 1} {coo.col[k] + 1} {float(coo.data[k])!r}\n")


def assert_bit_identical(a, b):
    assert (a.n, a.l) == (b.n, b.l)
    assert np.array_equal(a.matrix.data.view(np.uint64), b.matrix.data.view(np.uint64))
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)


@st.composite
def compositions(draw):
    """Random ego or distance composition, some weights swapped for extremes.

    Distance compositions of undirected layers are symmetric, as is an ego
    composition of one undirected layer; a weight is swapped for the same
    extreme value wherever it occurs, so symmetry survives the swap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, l = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ego", "distance"]))
    directed = kind == "ego" and draw(st.booleans())
    layers = [random_graph(rng, n, directed=directed) for _ in range(l)]
    if kind == "ego":
        s = compose_ego(layers, random_egos(rng, n, l))
    else:
        position = np.arange(l, dtype=np.float64)
        s = compose_distance(layers, np.abs(np.subtract.outer(position, position)),
                             c=draw(st.floats(0.1, 10.0)))
    values = np.unique(s.matrix.data)
    swaps = draw(st.lists(st.sampled_from(EXTREME_WEIGHTS), max_size=values.size))
    data = s.matrix.data.copy()
    for old, new in zip(values, swaps):
        data[s.matrix.data == old] = new
    mat = sparse.csc_array((data, s.matrix.indices, s.matrix.indptr), shape=s.matrix.shape)
    return SuperAdjacency(n=s.n, l=s.l, matrix=mat)


@PROPERTY
@given(compositions())
def test_super_round_trip_bit_identical_both_formats(s):
    with tempfile.TemporaryDirectory() as tmp:
        # the writer keeps the name it is given (no .mtx appended), and the
        # name alone picks the format: .json is the block layout, else Matrix Market
        names = ["super.json", "super.mm", "super.mtx"]
        for name in names:
            write_super(s, Path(tmp) / name)
        assert sorted(p.name for p in Path(tmp).iterdir()) == names
        json.loads((Path(tmp) / "super.json").read_text())
        for name in names[1:]:
            assert (Path(tmp) / name).read_text().startswith(
                "%%MatrixMarket matrix coordinate real general\n")
        for name in names:
            assert_bit_identical(read_super(Path(tmp) / name), s)


@PROPERTY
@given(compositions())
def test_row_order_repr_files_still_read(s):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "super.mtx"
        write_super_mm_row_order(s, path)
        assert_bit_identical(read_super(path), s)


def test_empty_super_round_trips(tmp_path):
    s = SuperAdjacency(n=3, l=2, matrix=sparse.csc_array((6, 6)))
    for name in ("empty.mm", "empty.json"):
        write_super(s, tmp_path / name)
        assert_bit_identical(read_super(tmp_path / name), s)


# ---------------------------------------------------------------------------
# malformed files

BANNER = "%%MatrixMarket matrix coordinate real general"
COMMENT = "% multinet super-adjacency n=2 l=2 indexing=layer-major"
# vertex 0 and 1 in layers 0 and 1; 1-based flat indices
ENTRIES = ["1 2 1.5", "2 1 1.5", "1 3 0.25", "3 1 0.25", "3 4 2.0", "4 3 2.0"]


def mm_text(banner=BANNER, comment=COMMENT, size="4 4", count=None, entries=ENTRIES):
    count = len(entries) if count is None else count
    lines = [banner, comment, f"{size} {count}", *entries]
    return "\n".join(line for line in lines if line is not None) + "\n"


def test_well_formed_fixture_reads(tmp_path):
    path = tmp_path / "ok.mtx"
    path.write_text(mm_text())
    s = read_super(path)
    assert (s.n, s.l, s.matrix.nnz) == (2, 2, 6)
    assert s.matrix[0, 2] == 0.25


MALFORMED_MM = {
    "missing banner": dict(banner=None),
    "array banner": dict(banner="%%MatrixMarket matrix array real general"),
    "symmetric banner": dict(banner="%%MatrixMarket matrix coordinate real symmetric"),
    "pattern banner": dict(banner="%%MatrixMarket matrix coordinate pattern general"),
    "fewer entries than declared": dict(count=7),
    "more entries than declared": dict(count=5),
    "0-based index": dict(entries=["0 1 1.5", *ENTRIES[1:]]),
    "index beyond size": dict(entries=["5 1 1.5", *ENTRIES[1:]]),
    "non-numeric weight": dict(entries=["1 2 heavy", *ENTRIES[1:]]),
    "nan weight": dict(entries=["1 2 nan", *ENTRIES[1:]]),
    "infinite weight": dict(entries=["1 2 inf", *ENTRIES[1:]]),
    "missing n= and l=": dict(comment="% some other tool"),
    "missing l=": dict(comment="% multinet super-adjacency n=2"),
    "size not n*l": dict(comment="% multinet super-adjacency n=2 l=3"),
    "non-square size": dict(size="4 5"),
    "duplicate entry": dict(entries=[*ENTRIES, "1 2 1.5"]),
    "coupling between different vertices": dict(entries=["1 4 1.0"]),
    "negative weight": dict(entries=["1 2 -1.0"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MM))
def test_mm_reader_rejects(case, tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(**MALFORMED_MM[case]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.path == path


def test_mm_reader_reports_scipy_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(entries=[*ENTRIES[:2], "1 3 heavy", *ENTRIES[3:]]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.line == 6
    assert str(exc.value).startswith(f"{path}:6: ")


def test_mm_reader_reports_banner_and_size_lines(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(banner="%%MatrixMarket matrix coordinate pattern general"))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.line == 1
    path.write_text(mm_text(comment="% multinet super-adjacency n=2 l=3"))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.line == 3


GOOD_JSON = {"n": 2, "l": 2,
             "diagonal_blocks": [[[0, 1, 1.5], [1, 0, 1.5]], [[0, 1, 2.0], [1, 0, 2.0]]],
             "off_diagonal_blocks": {"0,1": [[0, 0.25]], "1,0": [[0, 0.25]]}}


def json_with(**changes):
    payload = json.loads(json.dumps(GOOD_JSON))
    payload.update(changes)
    return payload


MALFORMED_JSON = {
    "duplicate diagonal entry": json_with(
        diagonal_blocks=[[[0, 1, 1.5], [1, 0, 1.5], [0, 1, 1.5]], [[0, 1, 2.0], [1, 0, 2.0]]]),
    "duplicate coupling across keys": json_with(
        off_diagonal_blocks={"0,1": [[0, 0.25]], "0, 1": [[0, 0.25]], "1,0": [[0, 0.25]]}),
    "non-finite weight": json_with(off_diagonal_blocks={"0,1": [[0, float("inf")]]}),
    "vertex index out of range": json_with(off_diagonal_blocks={"0,1": [[2, 0.25]]}),
    "negative vertex index": json_with(off_diagonal_blocks={"0,1": [[-1, 0.25]]}),
    "fractional vertex index": json_with(off_diagonal_blocks={"0,1": [[0.5, 0.25]]}),
    "layer out of range": json_with(off_diagonal_blocks={"0,2": [[0, 0.25]]}),
    "too few diagonal blocks": json_with(diagonal_blocks=[[[0, 1, 1.5], [1, 0, 1.5]]]),
    "short triple": json_with(diagonal_blocks=[[[0, 1]], []]),
    "missing l": {k: v for k, v in GOOD_JSON.items() if k != "l"},
    "not an object": [1, 2, 3],
}


def test_json_fixture_reads(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(GOOD_JSON))
    s = read_super(path)
    assert (s.n, s.l, s.matrix.nnz) == (2, 2, 6)
    assert s.matrix[0, 2] == 0.25


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_json_reader_rejects(case, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_JSON[case]))
    with pytest.raises(ParseError):
        read_super(path)


@pytest.mark.parametrize("case", ["duplicate entry", "fewer entries than declared",
                                  "symmetric banner"])
def test_cli_analyze_bad_super_exits_2(case, tmp_path, capsys):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(**MALFORMED_MM[case]))
    assert main(["analyze", "--super", str(path), "--stationary"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert str(path) in err["message"]


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_non_finite_weight_names_its_flat_position(weight, tmp_path, capsys):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(entries=[*ENTRIES[:2], f"1 3 {weight}", *ENTRIES[3:]]))
    assert main(["analyze", "--super", str(path), "--stationary"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParseError",
                   "message": f"{path}:0: non-finite weight at 0-based flat (0, 2)"}
