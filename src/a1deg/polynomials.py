"""Sparse multivariate polynomials over the exact fields.

A monomial is an exponent tuple, one entry per ring variable.  A ``Poly``
stores ``{monomial: coefficient}`` with raw field values (see ``fields``) and
no explicit zero coefficients; the empty dict is the zero polynomial.

Monomial orders are total orders realized as sort keys (ascending, and
descending for min-heaps): ``degrevlex`` (the
default everywhere) and ``lex`` (an elimination order for every leading block
of variables, used to eliminate the auxiliary variables of a saturation).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    InexactDivisionError,
    MissingAssignmentError,
    ParseError,
    RingMismatchError,
    ZeroInputError,
)
from .fields import Field, Scalar

# ---------------------------------------------------------------------------
# monomials


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """Whether a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_quot(b: tuple, a: tuple) -> tuple:
    """b / a, assuming a divides b."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


class MonomialOrder:
    """A monomial order as a sort key; larger key means larger monomial."""

    KINDS = ("degrevlex", "lex")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def key(self, m: tuple):
        if self.kind == "degrevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        return m

    def descending_key(self, m: tuple):
        """A key that sorts larger monomials first, for min-heaps."""
        if self.kind == "degrevlex":
            return (-sum(m), m[::-1])
        return tuple(-e for e in m)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("MonomialOrder", self.kind))

    def __repr__(self) -> str:
        return self.kind


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# rings and polynomials

_NAME_RE = re.compile(r"[A-Za-z_]\w*")

CoeffLike = Union[int, Fraction, Scalar]
PolyLike = Union["Poly", int, Fraction, Scalar]


def fresh_name(taken: Sequence[str], base: str) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


class PolyRing:
    """A polynomial ring k[x1, ..., xn] over one of the exact fields."""

    __slots__ = ("field", "names", "_index")

    def __init__(self, field: Field, names: Sequence[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if field.param_name in names:
            raise ValueError(
                f"variable {field.param_name!r} shadows the field parameter"
            )
        self.field = field
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self) -> int:
        return hash(("PolyRing", self.field, self.names))

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.names)}]"

    __repr__ = __str__

    def const(self, c: CoeffLike) -> "Poly":
        raw = self.field.coerce(c)
        if self.field.is_zero(raw):
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: raw})

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def var(self, which: Union[str, int]) -> "Poly":
        i = self._index[which] if isinstance(which, str) else which
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mono: self.field.from_int(1)})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def poly(self, terms: Mapping[tuple, CoeffLike]) -> "Poly":
        out: dict[tuple, object] = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono}")
            raw = self.field.coerce(c)
            if not self.field.is_zero(raw):
                cur = out.get(mono)
                out[mono] = raw if cur is None else self.field.add(cur, raw)
                if self.field.is_zero(out[mono]):
                    del out[mono]
        return Poly(self, out)

    def monomial(self, mono: tuple) -> "Poly":
        return Poly(self, {tuple(mono): self.field.from_int(1)})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)


class Poly:
    """A sparse multivariate polynomial; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict) -> None:
        self.ring = ring
        self.terms = terms

    # -- coercion

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine polynomials of {self.ring} and {other.ring}"
                )
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(other)
        return None

    # -- ring operations

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = self.ring.field
        out = dict(self.terms)
        for mono, c in o.terms.items():
            cur = out.get(mono)
            if cur is None:
                out[mono] = c
            else:
                s = k.add(cur, c)
                if k.is_zero(s):
                    del out[mono]
                else:
                    out[mono] = s
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        k = self.ring.field
        return Poly(self.ring, {m: k.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = self.ring.field
        out: dict[tuple, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = mono_mul(m1, m2)
                c = k.mul(c1, c2)
                cur = out.get(mono)
                if cur is None:
                    if not k.is_zero(c):
                        out[mono] = c
                else:
                    s = k.add(cur, c)
                    if k.is_zero(s):
                        del out[mono]
                    else:
                        out[mono] = s
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        # a constant divisor scales; any other must divide exactly
        if isinstance(other, Poly):
            if not other.is_constant():
                return self.exact_div(other)
            other = other.constant_value()
        if isinstance(other, (int, Fraction, Scalar)):
            inv = self.ring.field.inv(self.ring.field.coerce(other))
            return self.scale(Scalar(self.ring.field, inv))
        return NotImplemented

    def scale(self, c: CoeffLike) -> "Poly":
        k = self.ring.field
        raw = k.coerce(c)
        if k.is_zero(raw):
            return self.ring.zero
        return Poly(self.ring, {m: k.mul(cc, raw) for m, cc in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- inspection

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero
        ((mono, c),) = self.terms.items()
        if sum(mono):
            raise ValueError(f"{self} is not constant")
        return Scalar(self.ring.field, c)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: tuple) -> Scalar:
        raw = self.terms.get(tuple(mono))
        if raw is None:
            return self.ring.field.zero
        return Scalar(self.ring.field, raw)

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> tuple:
        if not self.terms:
            raise ZeroInputError("leading monomial of zero")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = DEGREVLEX) -> Scalar:
        return Scalar(self.ring.field, self.terms[self.leading_monomial(order)])

    def monic(self, order: MonomialOrder = DEGREVLEX) -> "Poly":
        if not self.terms:
            return self
        lc = self.terms[self.leading_monomial(order)]
        k = self.ring.field
        if lc == k.from_int(1):
            return self
        inv = k.inv(lc)
        return Poly(self.ring, {m: k.mul(c, inv) for m, c in self.terms.items()})

    # -- calculus and morphisms

    def diff(self, which: Union[str, int]) -> "Poly":
        """Partial derivative with respect to one variable."""
        i = self.ring._index[which] if isinstance(which, str) else which
        k = self.ring.field
        out: dict[tuple, object] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            d = k.mul(c, k.from_int(e))
            if k.is_zero(d):  # positive characteristic can kill a term
                continue
            lowered = tuple(x - 1 if j == i else x for j, x in enumerate(mono))
            out[lowered] = k.add(out[lowered], d) if lowered in out else d
            if k.is_zero(out[lowered]):
                del out[lowered]
        return Poly(self.ring, out)

    def substitute(
        self,
        images: Mapping[str, PolyLike],
        ring: Optional[PolyRing] = None,
    ) -> "Poly":
        """Apply the ring morphism sending each variable to its image.

        Every variable that actually occurs must be assigned.  Images may live
        in a different ring over the same field; the target ring is taken from
        the first Poly image (or ``ring`` when all images are scalars).
        """
        target = ring
        if target is None:
            for img in images.values():
                if isinstance(img, Poly):
                    target = img.ring
                    break
            else:
                target = self.ring
        if target.field != self.ring.field:
            raise RingMismatchError(
                f"substitution cannot change the field {self.ring.field}"
            )
        used = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(i)
        imgs: dict[int, Poly] = {}
        for i in sorted(used):
            name = self.ring.names[i]
            if name not in images:
                raise MissingAssignmentError(f"no image for variable {name!r}")
            img = images[name]
            if not isinstance(img, Poly):
                img = target.const(img)
            elif img.ring != target:
                raise RingMismatchError("images live in different rings")
            imgs[i] = img
        powers: dict[tuple[int, int], Poly] = {}

        def power(i: int, e: int) -> Poly:
            got = powers.get((i, e))
            if got is None:
                got = imgs[i] ** e
                powers[(i, e)] = got
            return got

        acc = target.zero
        for mono, c in self.terms.items():
            term = Poly(target, {(0,) * target.nvars: c})
            for i, e in enumerate(mono):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        return acc

    def evaluate(self, point: Mapping[str, CoeffLike]) -> Scalar:
        """Evaluate at a point given by scalar values per variable name."""
        k = self.ring.field
        vals: dict[int, object] = {}
        acc = k.from_int(0)
        for mono, c in self.terms.items():
            cur = c
            for i, e in enumerate(mono):
                if not e:
                    continue
                if i not in vals:
                    name = self.ring.names[i]
                    if name not in point:
                        raise MissingAssignmentError(f"no value for variable {name!r}")
                    vals[i] = k.coerce(point[name])
                v = vals[i]
                for _ in range(e):
                    cur = k.mul(cur, v)
            acc = k.add(acc, cur)
        return Scalar(k, acc)

    def exact_div(self, g: "Poly") -> "Poly":
        """The quotient self / g when g divides exactly; InexactDivision otherwise."""
        o = self._coerce(g)
        if o is None or not o:
            raise ZeroInputError("division by the zero polynomial")
        k = self.ring.field
        order = DEGREVLEX
        g_lm = o.leading_monomial(order)
        g_lc = o.terms[g_lm]
        rem = dict(self.terms)
        quot: dict[tuple, object] = {}
        while rem:
            lm = max(rem, key=order.key)
            if not mono_divides(g_lm, lm):
                raise InexactDivisionError(f"{g} does not divide {self}")
            q_mono = mono_quot(lm, g_lm)
            q_c = k.div(rem[lm], g_lc)
            quot[q_mono] = q_c
            for m2, c2 in o.terms.items():
                mono = mono_mul(q_mono, m2)
                c = k.mul(q_c, c2)
                cur = rem.get(mono)
                s = k.sub(cur, c) if cur is not None else k.neg(c)
                if k.is_zero(s):
                    if cur is not None:
                        del rem[mono]
                else:
                    rem[mono] = s
        return Poly(self.ring, quot)

    # -- rendering

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        k = self.ring.field
        one = k.from_int(1)
        minus_one = k.from_int(-1)
        parts: list[tuple[str, str]] = []
        for mono in sorted(self.terms, key=DEGREVLEX.key, reverse=True):
            c = self.terms[mono]
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(self.ring.names[i])
                elif e:
                    factors.append(f"{self.ring.names[i]}^{e}")
            sign = "+"
            if sum(mono) and c == one:
                cs = ""
            elif sum(mono) and c == minus_one:
                sign, cs = "-", ""
            else:
                cs = k.to_str(c)
                if cs.startswith("-"):
                    sign, cs = "-", cs[1:]
                if " " in cs:
                    cs = f"({cs})"
            body = "*".join(([cs] if cs else []) + factors)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return str(self)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\*\*|[()+\-*/^]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {text!r}")
        pos = m.end()
        if m.group(1):
            out.append(("num", m.group(1)))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            op = m.group(3)
            out.append(("op", "^" if op == "**" else op))
    return out


class _Parser:
    def __init__(self, ring: PolyRing, text: str) -> None:
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input in {self.text!r}")
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                p = p + self.term()
            elif tok == ("op", "-"):
                self.take()
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.unary()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                p = p * self.unary()
            elif tok == ("op", "/"):
                self.take()
                q = self.unary()
                if not q.is_constant():
                    raise ParseError("division is only defined by nonzero constants")
                v = q.constant_value()
                if not v:
                    raise ParseError("division by zero")
                p = p * self.ring.const(v.inverse())
            elif tok is not None and (tok[0] in ("num", "name") or tok == ("op", "(")):
                p = p * self.unary()  # juxtaposition
            else:
                return p

    def unary(self) -> Poly:
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            return -self.unary()
        if tok == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            neg = False
            tok = self.take()
            if tok == ("op", "-"):
                neg = True
                tok = self.take()
            if tok[0] != "num":
                raise ParseError(f"bad exponent in {self.text!r}")
            e = int(tok[1])
            if neg:
                if not base.is_constant():
                    raise ParseError("negative powers only apply to constants")
                v = base.constant_value()
                if not v:
                    raise ParseError("negative power of zero")
                return self.ring.const(v.inverse() ** e)
            return base**e
        return base

    def atom(self) -> Poly:
        tok = self.take()
        if tok[0] == "num":
            return self.ring.const(int(tok[1]))
        if tok[0] == "name":
            name = tok[1]
            if name in self.ring._index:
                return self.ring.var(name)
            field = self.ring.field
            if field.param_name == name:
                return self.ring.const(field.gen())  # type: ignore[attr-defined]
            raise ParseError(f"unknown variable {name!r} in {self.text!r}")
        if tok == ("op", "("):
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {tok[1]!r} in {self.text!r}")


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse polynomial text: identifiers, ^ or ** powers, optional *."""
    return _Parser(ring, text).parse()
