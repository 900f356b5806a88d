"""The README's examples run as documented."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from stabeq.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
COMMANDS = [
    line
    for lang, body in BLOCKS
    if not lang
    for line in body.splitlines()
    if line.startswith("stabeq ")
]


def test_the_readme_shows_every_subcommand():
    assert sorted(shlex.split(line)[1] for line in COMMANDS) == [
        "bounds",
        "check",
        "decompose",
        "experiment",
    ]


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, shlex.split(line)[1:])
    assert result.exit_code == 0, result.output


def test_check_default_scale_is_the_documented_9091():
    assert "on the default\nconfig it is 9091." in README
    result = CliRunner().invoke(main, ["check"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["scale"] == 9091.0


def test_readme_python_block_prints_what_it_documents():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    documented = re.search(r"# (\d\.\d+)\.\.\.$", code, flags=re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1].startswith(documented)
