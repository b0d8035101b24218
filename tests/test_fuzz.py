"""Seeded byte mutations of small valid inputs, fed to every file reader
through the command-line entry point.

Each reader runs in its own interpreter, two at a time, so a crash fails its
case instead of ending the test run. Whatever the bytes, the CLI must exit
0, 1, 2 or 3, and a failure must write exactly one JSON object on one stderr
line and no traceback. Run one reader by hand with ``python tests/test_fuzz.py <reader>``
(``src`` on PYTHONPATH); it prints one JSON record per mutation.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

LAYERS = """layer road undirected
layer rail undirected
edge road a b 1.0
edge road b c 2.0
edge rail a c 1.5
edge rail a b 0.5
"""
EGO = ('{"a": [[0.8, 0.3], [0.2, 0.7]], "b": [[1.0, 0.0], [0.0, 1.0]], '
       '"c": [[0.5, 0.5], [0.5, 0.5]]}\n')
# inside each vertex's feasible interval between 1/2 and its degree share
PI = '{"a": [0.4, 0.6], "b": [0.6, 0.4], "c": [0.55, 0.45]}\n'
BIAS = '{"road": {"a": 2.0, "b": 0.5}, "rail": {"c": 3.0}}\n'
DELAY = '{"road": {"a": 1.5}, "rail": {"b": 2.0, "c": 1.0}}\n'
GR = """c a four-vertex ring, both arc directions
p sp 4 8
a 1 2 10
a 2 1 10
a 2 3 5
a 3 2 5
a 3 4 7
a 4 3 7
a 1 4 3
a 4 1 3
"""
CAT = "1 2 A1\n2 3 A4\n3 4 A2\n# a comment\n1 4 B1\n"
INPUTS = {"layers.txt": LAYERS, "ego.json": EGO, "pi.json": PI, "bias.json": BIAS,
          "delay.json": DELAY, "road.gr": GR, "road.cat": CAT}

# reader -> (the files it mutates, the CLI arguments, where a file name stands for its path)
READERS = {
    "layers": (["layers.txt"], ["transform", "--layers", "layers.txt", "--out", "out.txt"]),
    "ego": (["ego.json"], ["compose", "--layers", "layers.txt", "--mode", "ego",
                           "--ego-file", "ego.json", "--out", "out.mtx"]),
    "pi": (["pi.json"], ["compose", "--layers", "layers.txt", "--mode", "stationary",
                         "--pi-file", "pi.json", "--out", "out.mtx"]),
    "bias": (["bias.json"], ["transform", "--layers", "layers.txt",
                             "--bias-file", "bias.json", "--out", "out.txt"]),
    "delay": (["delay.json"], ["transform", "--layers", "layers.txt",
                               "--delay-file", "delay.json", "--out", "out.txt"]),
    "mtx": (["super.mtx"], ["analyze", "--super", "super.mtx"]),
    "mtx-symmetric": (["symmetric.mtx"], ["analyze", "--super", "symmetric.mtx"]),
    "super-json": (["super.json"], ["analyze", "--super", "super.json"]),
    "dimacs": (["road.gr", "road.cat"], ["ingest-dimacs", "--gr", "road.gr",
                                         "--categories", "road.cat", "--out", "out.txt"]),
}
MUTATIONS_PER_READER = 50
SPLICES = (b"nan", b"1e999", b"true", b"{}", b"\0")


def mutate(data, rng):
    """One seeded mutation of `data`, and a name that says which."""
    kind = rng.choice(["truncate", "flip", "duplicate line", "splice"])
    at = rng.randrange(len(data))
    if kind == "truncate":
        return data[:at], f"truncate at {at}"
    if kind == "flip":
        bit = rng.randrange(8)
        flipped = bytes([data[at] ^ (1 << bit)])
        return data[:at] + flipped + data[at + 1:], f"flip bit {bit} of byte {at}"
    if kind == "duplicate line":
        lines = data.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        return b"".join(lines[:k + 1] + lines[k:]), f"duplicate line {k + 1}"
    token, width = rng.choice(SPLICES), rng.randrange(4)
    return data[:at] + token + data[at + width:], f"splice {token!r} over {width} bytes at {at}"


def run_reader(reader):
    """Every mutation of one reader's inputs through multinet.cli.main: a list
    of (mutation, exit code or None, stderr) records."""
    from multinet.cli import main

    files, argv = READERS[reader]
    rng, records = random.Random(reader), []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in
                 [*INPUTS, "super.mtx", "super.json", "symmetric.mtx", "out.txt", "out.mtx"]}
        for name, text in INPUTS.items():
            Path(paths[name]).write_text(text)
        for name in ("super.mtx", "super.json"):  # a valid composition in each format
            assert main(["compose", "--layers", paths["layers.txt"], "--mode", "ego",
                         "--ego-file", paths["ego.json"], "--out", paths[name]]) == 0
        # undirected layers composed by distance: a file under the symmetric banner
        assert main(["compose", "--layers", paths["layers.txt"], "--mode", "distance",
                     "--coupling", "1", "--out", paths["symmetric.mtx"]]) == 0
        valid = {name: Path(paths[name]).read_bytes() for name in files}
        args = [paths.get(arg, arg) for arg in argv]
        for _ in range(MUTATIONS_PER_READER):
            name = rng.choice(files)
            data, how = mutate(valid[name], rng)
            for other in files:
                Path(paths[other]).write_bytes(data if other == name else valid[other])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(args)
                except Exception:  # recorded, so one escape does not hide the rest
                    code = None
                    err.write(traceback.format_exc())
            records.append((f"{name}: {how}", code, err.getvalue()))
    return records


@pytest.fixture(scope="module")
def children():
    """Each reader's finished child process, two running at a time."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def run(reader):
        return subprocess.run([sys.executable, __file__, reader], env=env,
                              capture_output=True, text=True, timeout=120)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(READERS, pool.map(run, READERS)))


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutated_inputs_exit_cleanly(reader, children):
    done = children[reader]
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(records) == MUTATIONS_PER_READER
    for how, code, err in records:
        assert code in (0, 1, 2, 3), (how, code, err)
        assert "Traceback" not in err, (how, err)
        if code:
            lines = err.splitlines()
            assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), (how, err)


if __name__ == "__main__":
    for record in run_reader(sys.argv[1]):
        print(json.dumps(record))
