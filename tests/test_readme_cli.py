"""Smoke test: every command in the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from vsecagg.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("vsecagg ")]


def test_readme_cli_block_is_not_empty():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("command", readme_commands())
def test_readme_cli_command_exits_0(command, capsys):
    assert cli_main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
