"""The README's examples: every CLI and script line runs, every script it names exists."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ptcoulomb import cli
from ptcoulomb.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CLI_LINES = re.findall(r"^ptcoulomb .*$", README, re.M)
SCRIPT_PATHS = sorted(set(re.findall(r"\bscripts/[\w./-]+", README)))
SCRIPT_LINES = re.findall(r"^python3 scripts/.*$", README, re.M)


def test_readme_has_examples():
    assert len(CLI_LINES) >= 9 and SCRIPT_PATHS


def test_readme_lists_every_verify_suite():
    listed = re.search(r"^`verify` suites: (.*?)\.", README, re.M | re.S).group(1)
    assert sorted(re.findall(r"`([\w-]+)`", listed)) == sorted(cli._SUITES)


def test_readme_shows_every_subcommand():
    shown = {line.split()[1] for line in CLI_LINES}
    assert shown == {name for name, *_ in cli._COMMANDS}


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples with --out write here
    assert main(shlex.split(line, comments=True)[1:]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("path", SCRIPT_PATHS)
def test_named_script_exists(path):
    assert (ROOT / path).is_file()


def test_readme_has_script_examples():
    assert SCRIPT_LINES


@pytest.mark.parametrize("line", SCRIPT_LINES)
def test_script_example_runs(line, tmp_path):
    argv = shlex.split(line, comments=True)
    # the suite's own RuntimeWarning filter does not reach a subprocess
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / argv[1]), *argv[2:]], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
