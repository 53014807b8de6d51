"""The README's examples: every CLI line runs and every script it names exists."""

import re
import shlex
from pathlib import Path

import pytest

from ptcoulomb.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CLI_LINES = re.findall(r"^ptcoulomb .*$", README, re.M)
SCRIPT_PATHS = sorted(set(re.findall(r"\bscripts/[\w./-]+", README)))


def test_readme_has_examples():
    assert len(CLI_LINES) >= 9 and SCRIPT_PATHS


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples with --out write here
    assert main(shlex.split(line, comments=True)[1:]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("path", SCRIPT_PATHS)
def test_named_script_exists(path):
    assert (ROOT / path).is_file()
