"""The command-line examples of README.md, and a runner for an installed
``a1deg`` script.

    python tests/readme_examples.py README.md

runs every ``$ a1deg ...`` example of the Command line block through the
``a1deg`` found on PATH and exits 0 only when each one exits 0, writes
nothing to stderr, and prints exactly the bytes that the README shows.
"""

import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_examples(readme: Path = README):
    """(argv, stdout) for every `$ a1deg ...` line of the Command line block;
    a trailing backslash continues a command, and its output runs to the next
    blank line."""
    text = readme.read_text(encoding="utf-8")
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


def main(readme: Path) -> int:
    failed = 0
    for argv, stdout in command_line_examples(readme):
        got = subprocess.run(["a1deg", *argv], capture_output=True)
        ok = (got.returncode, got.stdout, got.stderr) == (0, stdout.encode(), b"")
        print(f"{'ok' if ok else 'FAIL'}: a1deg {shlex.join(argv)}")
        if not ok:
            failed += 1
            print(f"  exit {got.returncode}, stdout {got.stdout!r}, stderr {got.stderr!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
