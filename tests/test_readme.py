"""Every `$ sumdiam ...` example in the README's command-line section prints
the output shown under it."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from sumdiam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each example of the section, in order."""
    text = README.read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.DOTALL):
        for example in block.strip("\n").split("\n\n"):
            command, _, output = example.replace("\\\n", " ").partition("\n")
            examples.append((command, output + "\n"))
    return examples


EXAMPLES = command_line_examples()


def test_section_has_examples():
    assert len(EXAMPLES) >= 8
    assert all(command.startswith("$ sumdiam ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(capsys, command, expected):
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected
