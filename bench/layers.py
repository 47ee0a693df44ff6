"""Spans and counters recorded around calls into a1deg's layers.

The recorder wraps public functions of the installed package from the
outside: every module-level name (and the one method) bound to a wrapped
function is rebound to a wrapper, so calls between modules and within a
module both pass through it.  Nothing under ``src/`` knows about this.

A span is opened for a wrapped call unless the innermost open span belongs
to the same layer; such a call is part of the enclosing span (a Groebner
basis computed inside ``primary_component`` is primary-component time).  A
span's self time is its duration minus the durations of its child spans.
``groebner.saturation_s`` is the exception: it is the inclusive time of the
saturation calls, a part of ``groebner.primary_component_s``, not added to
the other layers.

Two probes run in untraced runs as well, because the checks need them: the
number of candidate section systems ``euler_characteristic`` builds, and the
raw diagonal entries of each diagonalized Gram matrix.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# Per-layer metrics, in the order the README's table lists them.  Times are
# self times in seconds per round; counts are per round; *_bits are maxima.
LAYER_METRICS = {
    "groebner.basis_s": "s",
    "groebner.basis_calls": "count",
    "groebner.basis_polys": "count",
    "groebner.quotient_basis_s": "s",
    "groebner.quotient_dim": "count",
    "groebner.primary_component_s": "s",
    "groebner.saturation_s": "s",
    "bezoutian.delta_s": "s",
    "bezoutian.det_mod_s": "s",
    "bezoutian.gram_s": "s",
    "gw.diagonalize_s": "s",
    "gw.diag_bits": "bits",
    "gw.simplify_s": "s",
    "gw.equals_s": "s",
    "gw.units_out": "count",
    "gw.hyperbolic_out": "count",
    "fields.factorize_s": "s",
    "fields.factorize_calls": "count",
    "fields.factorize_max_bits": "bits",
    "grassmannian.sections": "count",
    "grassmannian.self_s": "s",
    "degree.self_s": "s",
}
MAXIMA = ("gw.diag_bits", "fields.factorize_max_bits")


class Recorder:
    """Accumulates layer metrics while an operation runs."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.active = False
        self.stack: list[list] = []  # [layer, seconds covered by child spans]
        self.totals: dict[str, float] = defaultdict(float)
        # probes, reset per operation
        self.sections = 0
        self.diagonals: list[list] = []

    def start_op(self) -> None:
        self.sections = 0
        self.diagonals = []
        self.stack.clear()
        self.active = self.traced

    def end_op(self) -> None:
        self.active = False
        self.stack.clear()

    def add(self, metric: str, value: float) -> None:
        if metric in MAXIMA:
            self.totals[metric] = max(self.totals[metric], value)
        else:
            self.totals[metric] += value

    def per_round(self, rounds: int) -> dict[str, float]:
        return {
            m: self.totals[m] if m in MAXIMA else self.totals[m] / rounds
            for m in LAYER_METRICS
        }


# The columns of the README's per-operation table.
BREAKDOWN = {
    "groebner": ("groebner.basis_s", "groebner.quotient_basis_s", "groebner.primary_component_s"),
    "det_mod": ("bezoutian.det_mod_s",),
    "canonicalize": ("gw.simplify_s", "fields.factorize_s"),
}


def breakdown(before: dict, after: dict) -> str:
    """Self seconds one operation spent in each BREAKDOWN column."""
    return " ".join(
        f"{col} {sum(after.get(m, 0.0) - before.get(m, 0.0) for m in metrics):8.3f}"
        for col, metrics in BREAKDOWN.items()
    )


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


# after-hooks: (recorder, args, result) -> None, run when a span closes
def _after_basis(rec, args, gb):
    rec.add("groebner.basis_calls", 1)
    rec.add("groebner.basis_polys", len(gb))


def _after_quotient_basis(rec, args, basis):
    rec.add("groebner.quotient_dim", len(basis))


def _after_diagonalize(rec, args, diag):
    rec.add("gw.diag_bits", max((_bits(d.value) for d in diag), default=0))


def _after_simplify(rec, args, cls):
    rec.add("gw.units_out", len(cls.units))
    rec.add("gw.hyperbolic_out", cls.hyperbolic)


def _after_factorize(rec, args, factors):
    rec.add("fields.factorize_calls", 1)
    rec.add("fields.factorize_max_bits", args[0].bit_length())


# (module, attribute, layer, time metric, after-hook)
SPANS = [
    ("groebner", "groebner_basis", "groebner", "groebner.basis_s", _after_basis),
    ("groebner", "GroebnerBasis.quotient_basis", "groebner", "groebner.quotient_basis_s", _after_quotient_basis),
    ("groebner", "primary_component", "groebner", "groebner.primary_component_s", None),
    ("bezoutian", "delta_matrix", "bezoutian", "bezoutian.delta_s", None),
    ("bezoutian", "det_mod", "bezoutian", "bezoutian.det_mod_s", None),
    ("bezoutian", "gram_matrix", "bezoutian", "bezoutian.gram_s", None),
    ("gw", "diagonalize", "gw", "gw.diagonalize_s", _after_diagonalize),
    ("gw", "simplify", "gw", "gw.simplify_s", _after_simplify),
    ("gw", "equals", "gw", "gw.equals_s", None),
    ("fields", "factorize", "fields", "fields.factorize_s", _after_factorize),
    ("grassmannian", "euler_characteristic", "grassmannian", "grassmannian.self_s", None),
    ("degree", "global_degree_data", "degree", "degree.self_s", None),
    ("degree", "local_degree_data", "degree", "degree.self_s", None),
    ("degree", "check_local_global", "degree", "degree.self_s", None),
]


def _span(rec: Recorder, layer: str, metric: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if not rec.active or (stack and stack[-1][0] == layer):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            rec.add(metric, dt - frame[1])
            if stack:
                stack[-1][1] += dt
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _inclusive(rec: Recorder, metric: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(metric, perf_counter() - t0)

    return wrapper


def _count_sections(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.sections += 1
        if rec.active:
            rec.add("grassmannian.sections", 1)
        return fn(*args, **kwargs)

    return wrapper


def _capture_diagonal(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        diag = fn(*args, **kwargs)
        rec.diagonals.append([d.value for d in diag])
        return diag

    return wrapper


def install(rec: Recorder, package) -> None:
    """Rebind a1deg's public functions to recording wrappers."""
    prefix = package.__name__ + "."
    modules = [package] + [m for name, m in sys.modules.items() if name.startswith(prefix)]

    def rebind(short: str, attr: str, make) -> None:
        owner = sys.modules[prefix + short]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)

    if rec.traced:
        for short, attr, layer, metric, after in SPANS:
            rebind(short, attr, lambda fn: _span(rec, layer, metric, fn, after))
        rebind("groebner", "saturation", lambda fn: _inclusive(rec, "groebner.saturation_s", fn))
    rebind("grassmannian", "section_system", lambda fn: _count_sections(rec, fn))
    rebind("gw", "diagonalize", lambda fn: _capture_diagonal(rec, fn))
