"""Every ``segue`` command in the README parses against the current CLI."""

import re
import shlex
from pathlib import Path

import pytest

from segue.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``segue ...`` commands in the README's ``sh`` blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["segue"]:
                commands.append(shlex.join(tokens))
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command, capsys):
    try:
        build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")
