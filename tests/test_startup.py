"""Start-up cost: each command loads only the scipy subpackages it runs.

Every CLI command starts a fresh interpreter, so a module-level import of
``scipy.sparse.csgraph`` (which brings in ``scipy.sparse.linalg`` and
``scipy.linalg``) costs every command, used or not. The checks below run in
their own interpreters and compare module names, not times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ["scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg", "scipy.io"]

LAYERS = """\
layer a undirected
layer b directed
edge a x y 1.0
edge a y z 2.0
edge b x y 1.0
edge b y z 1.0
edge b z x 1.0
"""

# transform, compose and verify, then analyze the directed composition; after
# each stage one line "stage <JSON>" names the stage and lists the heavy modules
# loaded so far
PIPELINE = """\
import json, sys
from multinet.cli import main

HEAVY = {heavy!r}
stages = {{
    "transform": ["transform", "--layers", "layers.txt", "--out", "moved.txt"],
    "compose": ["compose", "--layers", "layers.txt", "--mode", "ego", "--ego-file", "egos.json",
                "--out", "super.mtx"],
    "verify": ["verify", "--super", "super.mtx", "--layers", "layers.txt",
               "--ego-file", "egos.json"],
    "analyze directed": ["analyze", "--super", "super.mtx", "--stationary",
                         "--out", "report.json"],
}}
for stage, argv in stages.items():
    code = main(argv)
    print("stage", json.dumps([stage, code, [m for m in HEAVY if m in sys.modules]]))
"""


def run(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_no_heavy_scipy(tmp_path):
    out = run(f"import sys, multinet.cli; print([m for m in {HEAVY!r} if m in sys.modules])",
              tmp_path)
    assert out.strip() == "[]"


def test_transform_compose_verify_load_no_csgraph(tmp_path):
    (tmp_path / "layers.txt").write_text(LAYERS)
    ego = [[0.75, 0.5], [0.25, 0.5]]
    (tmp_path / "egos.json").write_text(json.dumps({v: ego for v in "xyz"}))
    lines = [line[6:] for line in run(PIPELINE.format(heavy=HEAVY), tmp_path).splitlines()
             if line.startswith("stage ")]
    stages = {stage: (code, loaded) for stage, code, loaded in map(json.loads, lines)}
    # the Matrix Market writer and reader may load scipy.io, nothing heavier
    assert stages["transform"] == (0, [])
    for stage in ("compose", "verify"):
        code, loaded = stages[stage]
        assert code == 0 and set(loaded) <= {"scipy.io"}, stage
    # a directed chain fails the reverse-pattern check before csgraph loads
    code, loaded = stages["analyze directed"]
    assert code == 0 and set(loaded) <= {"scipy.io"}


def test_analyze_of_a_layer_loads_csgraph_and_the_report_writer(tmp_path):
    # an undirected layer's walk is detailed-balanced: its exact start needs
    # csgraph (which brings in scipy.sparse.linalg and scipy.linalg), so the
    # check sees a real import; the report's float vectors need scipy.io
    (tmp_path / "layers.txt").write_text(LAYERS)
    out = run("import sys\n"
              "from multinet.cli import main\n"
              "code = main(['analyze', '--layers', 'layers.txt', '--layer', 'a',\n"
              "             '--stationary', '--out', 'layer.json'])\n"
              f"print(code, sorted(m for m in {HEAVY!r} if m in sys.modules))", tmp_path)
    assert out.strip() == f"0 {sorted(HEAVY)}"
