"""The README's examples print exactly what it shows."""

import pytest

from a1deg.cli import main
from readme_examples import README, command_line_examples

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
