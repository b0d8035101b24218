"""Super-adjacency files: bit-identical round trips and malformed-file rejection."""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from multinet import (
    LayerGraph,
    SuperAdjacency,
    TransitionMatrix,
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
        # the symmetric banner exactly when the matrix equals its transpose
        symmetry = "symmetric" if (s.matrix != s.matrix.T).nnz == 0 else "general"
        for name in names[1:]:
            assert (Path(tmp) / name).read_text().startswith(
                f"%%MatrixMarket matrix coordinate real {symmetry}\n")
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
# symmetric storage: the lower triangle of a matrix equal to its transpose

SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric"


def mm_entries(path):
    """The (row, col) pairs, 1-based, that a Matrix Market file lists."""
    lines = [line.split() for line in path.read_text().splitlines() if not line.startswith("%")]
    return [(int(row), int(col)) for row, col, _ in lines[1:]]


def test_symmetric_lower_triangle_reads_as_its_general_twin(tmp_path):
    general, symmetric = tmp_path / "general.mtx", tmp_path / "symmetric.mtx"
    general.write_text(mm_text())
    symmetric.write_text(mm_text(banner=SYMMETRIC, entries=["2 1 1.5", "3 1 0.25", "4 3 2.0"]))
    assert_bit_identical(read_super(symmetric), read_super(general))
    reports = []
    for path in (general, symmetric):
        out = tmp_path / f"{path.stem}.json"
        assert main(["analyze", "--super", str(path), "--stationary", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_symmetric_entry_above_the_diagonal_reads_as_its_mirror(tmp_path):
    path = tmp_path / "upper.mtx"
    path.write_text(mm_text(banner=SYMMETRIC, entries=["1 2 1.5", "1 3 0.25", "4 3 2.0"]))
    (twin := tmp_path / "twin.mtx").write_text(mm_text())
    assert_bit_identical(read_super(path), read_super(twin))


def test_symmetric_file_listing_both_triangles_is_a_duplicate(tmp_path):
    path = tmp_path / "both.mtx"
    path.write_text(mm_text(**MALFORMED_MM["symmetric banner"]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert (exc.value.line, exc.value.reason) == (0, "duplicate entry at 0-based flat (1, 0)")


@pytest.mark.parametrize("seed", range(8))
def test_a_symmetric_file_write_super_wrote_reads_without_an_index_sort(seed, tmp_path,
                                                                       monkeypatch):
    # mmread lists the lower triangle column by column, then the mirrors:
    # read as rows, every column of the matrix arrives sorted
    rng = np.random.default_rng(seed)
    n, l = int(rng.integers(2, 30)), int(rng.integers(1, 5))
    position = np.arange(l, dtype=np.float64)
    s = compose_distance([random_graph(rng, n, directed=False) for _ in range(l)],
                         np.abs(np.subtract.outer(position, position)), c=0.5)
    path = tmp_path / "super.mtx"
    write_super(s, path)
    assert path.read_text().startswith(SYMMETRIC + "\n")
    sorts, sort_indices = [], sparse.csc_array.sort_indices

    def counting(mat):
        sorts.append(mat.has_sorted_indices)
        return sort_indices(mat)
    monkeypatch.setattr(sparse.csc_array, "sort_indices", counting)
    read = read_super(path)
    assert False not in sorts  # no call found its indices unsorted
    assert_bit_identical(read, s)
    assert read.as_graph().symmetric


def test_compose_distance_of_undirected_layers_writes_the_lower_triangle(tmp_path):
    layers, path = tmp_path / "layers.txt", tmp_path / "super.mtx"
    layers.write_text("layer a undirected\nlayer b undirected\nedge a x y 1.0\n"
                      "edge a y y 0.5\nedge b x y 2.0\nedge b y z 3.0\n")
    assert main(["compose", "--layers", str(layers), "--mode", "distance", "--coupling", "1",
                 "--out", str(path)]) == 0
    assert path.read_text().startswith(SYMMETRIC + "\n")
    s = read_super(path)
    lower = sparse.tril(s.matrix).tocoo()
    assert (s.matrix != s.matrix.T).nnz == 0 and s.matrix.nnz > lower.nnz
    assert sorted(mm_entries(path)) == sorted(zip((lower.row + 1).tolist(),
                                                  (lower.col + 1).tolist()))


def test_compose_ego_of_directed_layers_keeps_general(tmp_path):
    layers, egos, path = tmp_path / "layers.txt", tmp_path / "ego.json", tmp_path / "super.mtx"
    layers.write_text("layer a directed\nlayer b directed\nedge a x y 1.0\nedge a y x 2.0\n"
                      "edge b x y 2.0\nedge b y x 1.0\n")
    egos.write_text(json.dumps({"x": [[0.75, 0.5], [0.25, 0.5]], "y": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["compose", "--layers", str(layers), "--mode", "ego", "--ego-file", str(egos),
                 "--out", str(path)]) == 0
    assert path.read_text().startswith(BANNER + "\n")
    s = read_super(path)
    assert (s.matrix != s.matrix.T).nnz > 0
    assert len(mm_entries(path)) == s.matrix.nnz


def test_zero_entry_composition_round_trips(tmp_path):
    layers, path = tmp_path / "layers.txt", tmp_path / "super.mtx"
    layers.write_text("layer a undirected\nlayer b undirected\nvertex x\nvertex y\n")
    assert main(["compose", "--layers", str(layers), "--mode", "distance", "--coupling", "1",
                 "--out", str(path)]) == 0
    assert path.read_text().startswith(SYMMETRIC + "\n") and mm_entries(path) == []
    s = read_super(path)
    assert (s.n, s.l, s.matrix.shape, s.matrix.nnz) == (2, 2, (4, 4), 0)
    write_super(s, again := tmp_path / "again.mtx")
    assert again.read_bytes() == path.read_bytes()
    assert_bit_identical(read_super(again), s)


# scipy's reader decompresses a name ending in .gz or .bz2, so a file written
# as plain text under such a name would never read back: both sides refuse it
COMPRESSED = "a super-adjacency file name may not end in .gz or .bz2"


@pytest.mark.parametrize("suffix", [".gz", ".bz2"])
def test_compressed_names_are_refused(suffix, tmp_path):
    s = SuperAdjacency(n=3, l=2, matrix=sparse.csc_array((6, 6)))
    path = tmp_path / f"super.mtx{suffix}"
    with pytest.raises(ValueError, match=r"may not end in \.gz or \.bz2"):
        write_super(s, path)
    assert not path.exists()
    path.write_text(mm_text())
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert (exc.value.line, exc.value.reason) == (0, COMPRESSED)


@pytest.mark.parametrize("suffix", [".gz", ".bz2"])
def test_cli_compressed_names_exit_1_on_write_and_2_on_read(suffix, tmp_path, capsys):
    layers, path = tmp_path / "layers.txt", tmp_path / f"super.mtx{suffix}"
    layers.write_text("layer a undirected\nlayer b undirected\nedge a x y 1.0\nedge b x y 2.0\n")
    assert main(["compose", "--layers", str(layers), "--mode", "distance", "--coupling", "1",
                 "--out", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": COMPRESSED}
    assert not path.exists()
    path.write_text(mm_text())
    assert main(["analyze", "--super", str(path), "--stationary"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ParseError",
                                                   "message": f"{path}:0: {COMPRESSED}"}


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
    "skew-symmetric banner": dict(banner="%%MatrixMarket matrix coordinate real skew-symmetric"),
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
    "extra token on an entry": dict(entries=[ENTRIES[0], "2 1 1.0 5E-1", *ENTRIES[2:]]),
    "extra token on the last entry": dict(entries=[*ENTRIES[:5], "4 3 2.0 %"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MM))
def test_mm_reader_rejects(case, tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(**MALFORMED_MM[case]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.path == path


def test_duplicate_named_at_its_earliest_repeat_in_file_order(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(entries=["3 4 2.0", "1 2 1.5", "3 4 2.0", "1 2 1.5"]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.reason == "duplicate entry at 0-based flat (2, 3)"


def test_mm_reader_reports_scipy_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(entries=[*ENTRIES[:2], "1 3 heavy", *ENTRIES[3:]]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.line == 6
    assert str(exc.value).startswith(f"{path}:6: ")


def test_mm_reader_names_the_line_with_an_extra_token(tmp_path):
    # scipy's reader keeps the first three tokens of a line and ignores the rest
    path = tmp_path / "bad.mtx"
    path.write_text(mm_text(entries=[ENTRIES[0], "2 1 1.0 5E-1", *ENTRIES[2:]]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert (exc.value.line, exc.value.reason) == (5, "more than 3 tokens on a line")
    # a control byte separates tokens too; blank lines hold none
    path.write_text(mm_text(entries=[*ENTRIES[:3], "3 1 0.25\x015", "", *ENTRIES[4:], ""],
                            count=6))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.line == 7
    path.write_text(mm_text(comment=COMMENT + "\n\n% a comment after a blank line",
                            entries=[*ENTRIES[:3], "", *ENTRIES[3:], "", ""], count=6))
    assert read_super(path).matrix.nnz == 6


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


# size lines scipy's header reader refuses, most of them without a line number
UNREADABLE_SIZE_LINES = {
    "4 x 6": "Invalid integer value.",
    "4 4 1 9": "Header dimension line not of length 3",
    "4 4 -1": "Matrix NNZ can't be negative.",
    "99999999999999999999999 4 6": "Integer out of range.",
}


@pytest.mark.parametrize("line", sorted(UNREADABLE_SIZE_LINES))
def test_unreadable_size_line_is_named(line, tmp_path, capsys):
    path = tmp_path / "sz.mtx"
    size, count = line.rsplit(" ", 1)
    path.write_text(mm_text(size=size, count=count))
    assert main(["analyze", "--super", str(path), "--stationary"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParseError", "message": f"{path}:3: {UNREADABLE_SIZE_LINES[line]}"}


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
    "FOUND: scipy's mmread parses the leading number of a weight token and drops the "
    "rest, so read_super reads 1.0x, 1.0e and 1..0 as 1.0; an exact token check is one "
    "more pass over the body, unmeasured on ego's 8 MB file"))
@pytest.mark.parametrize("weight", ["1.0x", "1.0e", "1..0"])
def test_weight_with_trailing_junk_is_refused(weight, tmp_path):
    path = tmp_path / "junk.mtx"
    path.write_text(mm_text(entries=[f"1 2 {weight}", *ENTRIES[1:]]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.line == 4


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
    "n as a string": json_with(n="2"),
    "fractional n": json_with(n=2.5),
    "n beyond any index": json_with(n=1e300),
    "weight as a string": json_with(
        diagonal_blocks=[[[0, 1, "1.5"], [1, 0, 1.5]], [[0, 1, 2.0], [1, 0, 2.0]]]),
    "vertex index as a string": json_with(off_diagonal_blocks={"0,1": [["0", 0.25]]}),
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


def test_json_counts_and_weights_are_not_converted_from_strings_or_booleans(tmp_path, capsys):
    path = tmp_path / "sj.json"
    path.write_text(json.dumps({"n": "2", "l": True, "diagonal_blocks": [
        [[0, 1, "1.5"], [1, 0, "1.5"]]], "off_diagonal_blocks": {}}))
    assert main(["analyze", "--super", str(path), "--stationary"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParseError",
                   "message": f"{path}:0: n must be a finite JSON number"}


@pytest.mark.parametrize("key, value", [("n", 2.5), ("n", 1e300), ("l", 0.5), ("l", 0)])
def test_json_counts_must_be_positive_integers(key, value, tmp_path, capsys):
    # n = 2.5 read as n = 2 and n = 1e300 overflowed the flat int64 index
    path = tmp_path / "sj.json"
    path.write_text(json.dumps({"n": 2, "l": 1, "diagonal_blocks": [
        [[0, 1, 1.5], [1, 0, 1.5]]], "off_diagonal_blocks": {}, key: value}))
    assert main(["analyze", "--super", str(path), "--stationary"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ParseError", "message":
                   f"{path}:0: {key} must be an integer from 1 to 2**31 - 1"}


@pytest.mark.parametrize("case", ["duplicate entry", "fewer entries than declared",
                                  "symmetric banner", "extra token on an entry"])
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


# scipy's reader crashed the interpreter on a NUL byte and raised a bare
# OverflowError on a huge index; each case runs in its own interpreter, so
# a crash fails the test instead of ending the run
HOSTILE_MM = {
    "NUL byte in an entry": (dict(entries=[ENTRIES[0], "2 1 1\x005", *ENTRIES[2:]]),
                             "5: NUL byte"),
    "NUL byte in the header comment": (dict(comment=COMMENT + " \x00"), "2: NUL byte"),
    "NUL byte past the first megabyte": (
        dict(comment="\n".join([COMMENT] + ["% padding" + "." * 90] * 11_000),
             entries=[*ENTRIES[:5], "4 3 2\x00"]),
        "11009: NUL byte"),
    "oversized index": (dict(entries=[ENTRIES[0], "99999999999999999999999 1 1.5",
                                      *ENTRIES[2:]]),
                        "5: Integer out of range."),
    # mmread sized its arrays by the declared count: the failed allocation closed
    # the file under scipy's reader thread, which aborted the interpreter
    "declared entries beyond memory": (dict(count=999_999_999_999),
                                       "3: size line declares 999999999999 entries; "
                                       "the lines after it hold 18 tokens"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_MM))
def test_cli_analyze_hostile_super_exits_2(case, tmp_path):
    fields, where = HOSTILE_MM[case]
    path = tmp_path / "bad.mtx"
    path.write_bytes(mm_text(**fields).encode())
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "multinet.cli", "analyze", "--super",
                           str(path), "--stationary"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stderr) == {"error": "ParseError", "message": f"{path}:{where}"}


# a few bytes that declare 2**31 - 1 instances: the allocation fails under the
# address-space limit, and the CLI reports it as a file fault
HUGE_SUPER = {
    "huge.json": '{"n": 2147483647, "l": 1, "diagonal_blocks": [[[0, 1, 1.0], [1, 0, 1.0]]]}',
    "huge.mtx": mm_text(comment="% multinet super-adjacency n=2147483647 l=1",
                        size="2147483647 2147483647", entries=["1 2 1.0", "2 1 1.0"]),
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("name", sorted(HUGE_SUPER))
def test_cli_unallocatable_size_exits_2(name, tmp_path):
    path = tmp_path / name
    path.write_text(HUGE_SUPER[name])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "multinet.cli", "analyze", "--super",
                           str(path), "--stationary"], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_address_space)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stderr)["error"] == "MemoryError"


# ---------------------------------------------------------------------------
# flat indices whose products pass the int32 range

# n * l = 70,000 instances, so row * (n * l) reaches 4.9e9: past 2**31, and
# past 2**32, where an int32 key of a flat (row, col) pair would wrap and
# collide; 0-based (0, 1) and (61356, 47297) are such a pair
WIDE_N = 35_000


def test_wide_composition_round_trips_with_int32_indices(tmp_path):
    n = WIDE_N
    edges = [(0, 1, 1.5), (n - 2, n - 1, EXTREME_WEIGHTS[4]), (n - 1, n - 1, 2.0)]
    layers = [LayerGraph.from_edges(n, edges, directed=False),
              LayerGraph.from_edges(n, edges[1:], directed=True)]
    s = compose_distance(layers, [[0.0, 1.0], [1.0, 0.0]], 1.0 / 3.0)
    assert s.matrix[2 * n - 1, 2 * n - 1] == 2.0 and s.matrix[2 * n - 1, n - 1] == 1.0 / 3.0
    walk = TransitionMatrix(n, sparse.diags_array(np.ones(n)))
    for mat in [s.matrix, walk.matrix, *(lay.matrix for lay in layers)]:
        assert mat.indices.dtype == mat.indptr.dtype == np.int32
    for name in ("wide.mtx", "wide.json"):
        write_super(s, tmp_path / name)
        again = read_super(tmp_path / name)
        assert_bit_identical(again, s)
        assert again.matrix.indices.dtype == again.matrix.indptr.dtype == np.int32


@pytest.mark.parametrize("name", ["wide.mtx", "wide.json"])
def test_duplicate_at_the_highest_flat_indices_is_named(name, tmp_path):
    n, top = WIDE_N, 2 * WIDE_N - 1
    path = tmp_path / name
    if name.endswith(".json"):  # the same entries in the block layout
        path.write_text(json.dumps({"n": n, "l": 2, "diagonal_blocks": [
            [[0, 1, 1.5]], [[26356, 12297, 1.5], [n - 1, n - 1, 2.0], [n - 1, n - 1, 2.0]]]}))
    else:
        path.write_text(mm_text(comment=f"% multinet super-adjacency n={n} l=2",
                                size=f"{top + 1} {top + 1}",
                                entries=["1 2 1.5", "61357 47298 1.5",
                                         f"{top + 1} {top + 1} 2.0", f"{top + 1} {top + 1} 2.0"]))
    with pytest.raises(ParseError) as exc:
        read_super(path)
    assert exc.value.reason == f"duplicate entry at 0-based flat ({top}, {top})"
