import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import a1deg
from a1deg.cli import main, rerender_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_global_example(capsys):
    code, out, err = run(
        capsys,
        "global",
        "--field",
        "Q",
        "--vars",
        "x1,x2",
        "--system",
        "x1*x2; x1+x2",
    )
    assert (code, out, err) == (0, "H\n", "")


def test_local_example(capsys):
    code, out, err = run(
        capsys,
        "local",
        "--field",
        "Q",
        "--vars",
        "x1,x2",
        "--system",
        "(x1-1)*x1*x2; x1^2-2*x2^2",
        "--point",
        "x1; x2",
    )
    assert (code, out, err) == (0, "H + <1,2>\n", "")


def test_euler_example(capsys):
    code, out, err = run(capsys, "euler", "--r", "2", "--n", "4", "--field", "Q", "--seed", "7")
    assert (code, out, err) == (0, "2H + <1,1>\n", "")


def test_function_field_system(capsys):
    code, out, err = run(
        capsys,
        "global",
        "--field",
        "F3(t)",
        "--vars",
        "x1,x2",
        "--system",
        "x1^3 - t; x1*x2",
    )
    assert (code, out, err) == (0, "H + <t>\n", "")


def test_json_output_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "global",
        "--field",
        "Q",
        "--vars",
        "x1,x2",
        "--system",
        "x1*x2; x1+x2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "hyperbolic": 1,
        "units": [],
        "rank": 2,
        "disc": "-1",
        "signature": 0,
    }
    assert rerender_json(out) == "H"


def test_invocations_are_deterministic(capsys):
    args = ("euler", "--r", "2", "--n", "4", "--format", "json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_env_var_default_field(capsys, monkeypatch):
    monkeypatch.setenv("A1DEG_FIELD", "F7")
    code, out, err = run(capsys, "global", "--vars", "x,y", "--system", "x*y; x+y")
    assert (code, out, err) == (0, "H\n", "")
    monkeypatch.setenv("A1DEG_FIELD", "F4")
    code, out, err = run(capsys, "global", "--vars", "x,y", "--system", "x*y; x+y")
    assert code == 1
    assert err.startswith("a1deg: field:")


def test_parse_errors(capsys):
    code, out, err = run(capsys, "global", "--field", "Zp", "--vars", "x", "--system", "x")
    assert code == 1 and err.startswith("a1deg: parse:")
    code, out, err = run(capsys, "global", "--field", "Q", "--vars", "x", "--system", "x +")
    assert code == 1 and err.startswith("a1deg: parse:")
    code, out, err = run(capsys, "global", "--field", "Q", "--vars", "x,,y", "--system", "x; y")
    assert code == 1 and err.startswith("a1deg: parse:")


def test_not_isolated_zeros_message(capsys):
    code, out, err = run(
        capsys, "global", "--field", "Q", "--vars", "x,y", "--system", "x*y; x*y"
    )
    assert code == 1
    assert err.startswith("a1deg: groebner:")
    assert "zeros are not isolated" in err


def test_non_isolated_local_zero_message(capsys):
    code, out, err = run(
        capsys,
        "local",
        "--field",
        "Q",
        "--vars",
        "x,y",
        "--system",
        "x*y; x*y",
        "--point",
        "x; y",
    )
    assert (code, out) == (1, "")
    assert err.startswith("a1deg: groebner:")
    assert "zeros are not isolated" in err


def test_point_not_on_locus_message(capsys):
    code, out, err = run(
        capsys,
        "local",
        "--field",
        "Q",
        "--vars",
        "x",
        "--system",
        "x",
        "--point",
        "x - 1",
    )
    assert code == 1 and err.startswith("a1deg: input:")
    # the message prints the polynomial, whose coefficient keeps its minus
    code, out, err = run(
        capsys,
        "local",
        "--field",
        "Q(t)",
        "--vars",
        "x,y",
        "--system",
        "(1-t)*x + y^2 + 1; y",
        "--point",
        "x; y",
    )
    assert (code, out) == (1, "")
    assert err == (
        "a1deg: input: y^2 + (-t + 1)*x + 1 does not vanish at the given point\n"
    )


def test_nonsquare_system_message(capsys):
    code, out, err = run(
        capsys, "global", "--field", "Q", "--vars", "x,y", "--system", "x*y"
    )
    assert code == 1 and err.startswith("a1deg: input:")


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--max-n", "4")
    assert code == 0 and err == ""
    lines = out.rstrip("\n").split("\n")
    assert lines[0].split() == ["n\\r", "1", "2", "3"]
    assert lines[1].split() == ["2", "H"]
    assert lines[2].split() == ["3", "H", "+", "<1>", "H", "+", "<1>"]
    assert "2H + <1,1>" in lines[3]


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.split("\n")[0] == "r,n,class"
    assert '1,2,"H"' in out
    code, out, _ = run(capsys, "table", "--max-n", "7", "--format", "json")
    assert code == 0
    cells = json.loads(out)
    assert [(c["n"], c["r"]) for c in cells] == sorted((c["n"], c["r"]) for c in cells)
    three_six = next(c for c in cells if c["r"] == 3 and c["n"] == 6)
    assert three_six["class"]["hyperbolic"] == 10
    assert three_six["class"]["units"] == []


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["global", "--field", "Q"])
    assert exc.value.code == 2


def test_runtime_loads_only_the_standard_library():
    """Importing a1deg and running a README example loads no module outside
    the standard library.  Modules are compared against a snapshot taken
    before the import, because site hooks may preload third-party ones."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import a1deg\n"
        "from a1deg.cli import main\n"
        "code = main(['euler', '--r', '2', '--n', '4', '--field', 'Q', '--seed', '7'])\n"
        "foreign = sorted(\n"
        "    m for m in set(sys.modules) - before\n"
        "    if m.partition('.')[0] not in sys.stdlib_module_names | {'a1deg'}\n"
        ")\n"
        "print(code, foreign)\n"
    )
    # the child imports the same a1deg as this process
    src = str(Path(a1deg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2H + <1,1>\n0 []\n", "")
