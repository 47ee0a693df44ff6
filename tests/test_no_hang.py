"""Seeded property test: no small system keeps the command line busy.

Each call gets a wall-clock limit from SIGALRM.  The alarm raises an
exception derived from BaseException, because `cli.main` maps every
Exception to an `a1deg: internal:` line and would swallow a plain one.
"""

import contextlib
import io
import re
import signal

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from a1deg.cli import main

LIMIT_S = 5.0
CLASS = re.compile(r"0|\d*H|\d*H \+ <[^<>]+>|<[^<>]+>")
FAILURE = re.compile(r"a1deg: (parse|field|groebner|degenerate|input|retries): .+")


class CallTimedOut(BaseException):
    pass


def _expire(signum, frame):
    raise CallTimedOut(f"no answer within {LIMIT_S} s")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@st.composite
def calls(draw):
    """2-3 variables, `global` or `local` at the origin, over Q, F7 or F5(t);
    each equation has 1-4 terms of total degree <= 3 (>= 1 for `local`) with
    coefficients in +-1..+-4."""
    names = "xyz"[: draw(st.integers(2, 3))]
    mode = draw(st.sampled_from(["global", "local"]))
    field = draw(st.sampled_from(["Q", "F7", "F5(t)"]))
    coefficient = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
    factors = st.lists(st.sampled_from(names), min_size=int(mode == "local"), max_size=3)
    term = st.builds(lambda c, xs: "*".join([str(c), *xs]), coefficient, factors)
    equation = st.lists(term, min_size=1, max_size=4).map(
        lambda terms: " + ".join(terms).replace("+ -", "- ")
    )
    system = "; ".join(draw(equation) for _ in names)
    argv = [mode, "--field", field, "--vars", ",".join(names), f"--system={system}"]
    if mode == "local":
        argv.append(f"--point={'; '.join(names)}")
    return argv


# no shrinking: a failing example is printed as drawn, not after minutes of
# re-running calls that each take the full limit
@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(calls())
def test_small_systems_answer_in_time(argv):
    try:
        code, out, err = _run(argv)
    except CallTimedOut:
        pytest.fail(f"a1deg {' '.join(argv)} ran past {LIMIT_S} s")
    if code == 0:
        assert err == ""
        assert CLASS.fullmatch(out.rstrip("\n")), out
    else:
        assert code == 1 and out == ""
        assert FAILURE.fullmatch(err.rstrip("\n")), err
