"""The README's examples print exactly what it shows."""

import shlex
from pathlib import Path

import pytest

from a1deg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_examples():
    """(argv, stdout) for every `$ a1deg ...` line of the Command line block;
    a trailing backslash continues a command, and its output runs to the next
    blank line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    start = section.index("```sh\n") + len("```sh\n")
    lines = section[start : section.index("```", start)].splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ a1deg "):
            i += 1
            continue
        command = lines[i][2:]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        i += 1
        output = []
        while i < len(lines) and lines[i]:
            output.append(lines[i])
            i += 1
        examples.append((shlex.split(command)[1:], "".join(o + "\n" for o in output)))
    return examples


EXAMPLES = command_line_examples()


def test_readme_has_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["global", "local", "euler", "table"]


@pytest.mark.parametrize("argv, stdout", EXAMPLES, ids=[a[0] for a, _ in EXAMPLES])
def test_readme_example(capsys, argv, stdout):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, stdout, "")


def library_example():
    """The source of the Library use block, and the output that the comments
    on its print lines show."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    start = section.index("```python\n") + len("```python\n")
    source = section[start : section.index("```", start)]
    shown = [
        line.partition("#")[2].strip()
        for line in source.splitlines()
        if line.startswith("print(")
    ]
    return source, shown


def test_readme_library_example(capsys):
    source, shown = library_example()
    exec(source, {})
    assert capsys.readouterr().out.splitlines() == shown == ["H 2 0 -1"]
