"""The README's library quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(block, f"{README}:quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2  # the layer loads and the conductance
