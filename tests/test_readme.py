"""The README's library quick start runs as written against the package."""

import argparse
import re
from pathlib import Path

from multinet import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(block, f"{README}:quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2  # the layer loads and the conductance


def test_cli_synopsis_matches_parser():
    # every flag in the README synopsis is accepted, and every accepted flag is listed
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command-line interface", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL)[1]
    listed = {}
    for line in block.splitlines():
        head = re.match(r"multinet (\S+)", line)
        if head:
            command = head[1]
        listed.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {name: {flag for action in sub._actions for flag in action.option_strings
                       if flag.startswith("--") and flag != "--help"}
                for name, sub in subparsers.choices.items()}
    assert listed == accepted
