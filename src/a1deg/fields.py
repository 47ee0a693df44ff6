"""Exact arithmetic over Q, F_p (p an odd prime), and rational function fields.

Everything in this package is computed over one of three kinds of exact field:
the rationals, a prime field of odd characteristic, or a univariate rational
function field k(t) whose base k is one of the former two.  A field object
implements arithmetic on raw values; ``Scalar`` tags a raw value with its
field and provides operator syntax on top.

Raw representations:

* ``Rationals``: ``fractions.Fraction``, always in lowest terms.
* ``PrimeField(p)``: ``int`` in ``[0, p)``.
* ``FunctionField(k, name)``: pair ``(num, den)`` of coefficient tuples over
  k, low degree first, no trailing zeros, ``gcd(num, den) = 1``, ``den``
  monic.  Zero is ``((), (1,))``.

Characteristic 2 is rejected at construction: the quadratic form machinery
downstream needs 2 to be invertible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

from .errors import (
    FieldMismatchError,
    ParseError,
    UnsupportedFieldError,
    ZeroInputError,
)

# ---------------------------------------------------------------------------
# integer helpers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # Miller-Rabin on these bases is deterministic for n < 3.3e24 (81 bits)
    # and a probable-prime test above; Q Gram diagonals reach 267 bits.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of an odd composite n."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1: trial division, then Pollard rho.

    Nothing bounds its time: an integer with two large prime factors, such
    as a Q Gram diagonal entry of a few hundred bits, can stall Pollard rho.
    """
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, i = 7, 0
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.append(r)
            stack.append(r)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def squarefree_part(n: int) -> int:
    """The squarefree d > 0 with n/d a perfect square, for n > 0."""
    out = 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """A field element: a raw value tagged with the field it lives in."""

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value) -> None:
        self.field = field
        self.value = value

    def _coerce(self, other) -> Optional["Scalar"]:
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.field} and {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.value, o.value))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.sub(o.value, self.value))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.div(self.value, o.value))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.div(o.value, self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = base.inverse()
            n = -n
        out = self.field.one
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __bool__(self) -> bool:
        return not self.field.is_zero(self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar) and other.field != self.field:
            return False
        try:
            o = self._coerce(other)
        except FieldMismatchError:  # pragma: no cover - guarded above
            return False
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __str__(self) -> str:
        return self.field.to_str(self.value)

    def __repr__(self) -> str:
        return f"{self.field}:{self}"


class Field:
    """Shared surface of the supported exact fields."""

    characteristic: int = 0
    param_name: Optional[str] = None

    # subclasses implement: coerce, add, sub, mul, neg, inv, is_zero,
    # from_int, to_str, sort_key, is_square_raw, square_class_raw,
    # signature_sign_raw

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def scalar(self, x) -> Scalar:
        return Scalar(self, self.coerce(x))

    @property
    def zero(self) -> Scalar:
        return Scalar(self, self.from_int(0))

    @property
    def one(self) -> Scalar:
        return Scalar(self, self.from_int(1))


def is_square(s: Scalar) -> tuple[bool, Optional[Scalar]]:
    """Decide whether s is a square; on success also return a witness w, w*w == s."""
    if not s:
        raise ZeroInputError("square test of zero")
    w = s.field.is_square_raw(s.value)
    if w is None:
        return False, None
    return True, Scalar(s.field, w)


def square_class(s: Scalar) -> Scalar:
    """Canonical representative of the square class of s (s nonzero).

    Q: a squarefree integer with sign.  F_p: 1 or the least nonresidue.
    k(t): c*s(t) with s monic squarefree and c a canonical class of k.
    """
    if not s:
        raise ZeroInputError("square class of zero")
    return Scalar(s.field, s.field.square_class_raw(s.value))


def signature_sign(s: Scalar) -> int:
    """Sign of s in the real embedding: over Q the usual sign, over Q(t) the
    sign as t -> +infinity.  Unsupported over finite characteristic."""
    if not s:
        raise ZeroInputError("sign of zero")
    return s.field.signature_sign_raw(s.value)


# ---------------------------------------------------------------------------
# the rationals


class Rationals(Field):
    """The field Q."""

    characteristic = 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Rationals")

    def __str__(self) -> str:
        return "Q"

    __repr__ = __str__

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise FieldMismatchError(f"{x!r} is not an element of {self}")
            return x.value
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return Fraction(n)

    def to_str(self, a) -> str:
        return str(a)

    def sort_key(self, a):
        return a

    def is_square_raw(self, a):
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rn, rd)
        return None

    def square_class_raw(self, a):
        # a = n/d is in the class of n*d; n and d are coprime, so their
        # squarefree parts multiply to that of n*d without factoring it
        s = -1 if a < 0 else 1
        return Fraction(
            s * squarefree_part(abs(a.numerator)) * squarefree_part(a.denominator)
        )

    def signature_sign_raw(self, a) -> int:
        return 1 if a > 0 else -1


QQ = Rationals()


# ---------------------------------------------------------------------------
# prime fields


class PrimeField(Field):
    """F_p for an odd prime p; raw values are ints in [0, p)."""

    def __init__(self, p: int) -> None:
        if p == 2:
            raise UnsupportedFieldError("characteristic 2 is not supported")
        if p < 2 or not _is_probable_prime(p):
            raise UnsupportedFieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self._nonresidue: Optional[int] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __str__(self) -> str:
        return f"F{self.p}"

    __repr__ = __str__

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise FieldMismatchError(f"{x!r} is not an element of {self}")
            return x.value
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in {self}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return n % self.p

    def to_str(self, a) -> str:
        return str(a)

    def sort_key(self, a):
        return a

    def legendre(self, a: int) -> int:
        """1 for nonzero squares, -1 for nonsquares, 0 for 0."""
        r = pow(a, (self.p - 1) // 2, self.p)
        return -1 if r == self.p - 1 else r

    def nonresidue(self) -> int:
        """The least positive quadratic nonresidue mod p."""
        if self._nonresidue is None:
            n = 2
            while self.legendre(n) != -1:
                n += 1
            self._nonresidue = n
        return self._nonresidue

    def is_square_raw(self, a):
        if self.legendre(a) != 1:
            return None
        return self._sqrt_raw(a)

    def _sqrt_raw(self, a: int) -> int:
        # Tonelli-Shanks; a is a nonzero square mod p.
        p = self.p
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = self.nonresidue()
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    def square_class_raw(self, a):
        return 1 if self.legendre(a) == 1 else self.nonresidue()

    def signature_sign_raw(self, a) -> int:
        raise UnsupportedFieldError(f"no real embedding of {self}")


def GF(p: int) -> PrimeField:
    """Convenience constructor for prime fields."""
    return PrimeField(p)


# ---------------------------------------------------------------------------
# dense univariate polynomials over a base field (coefficient tuples,
# low degree first, no trailing zeros; () is zero)


def _ustrip(k: Field, cs) -> tuple:
    i = len(cs)
    while i and k.is_zero(cs[i - 1]):
        i -= 1
    return tuple(cs[:i])


def _uadd(k: Field, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else k.from_int(0)
        b = g[i] if i < len(g) else k.from_int(0)
        out.append(k.add(a, b))
    return _ustrip(k, out)


def _uneg(k: Field, f):
    return tuple(k.neg(c) for c in f)


def _uscale(k: Field, f, c):
    if k.is_zero(c):
        return ()
    return tuple(k.mul(a, c) for a in f)


def _umul(k: Field, f, g):
    if not f or not g:
        return ()
    out = [k.from_int(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if k.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = k.add(out[i + j], k.mul(a, b))
    return _ustrip(k, out)


def _udivmod(k: Field, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [k.from_int(0)] * max(0, len(f) - len(g) + 1)
    inv_lc = k.inv(g[-1])
    for i in range(len(f) - len(g), -1, -1):
        c = k.mul(r[i + len(g) - 1], inv_lc)
        if k.is_zero(c):
            continue
        q[i] = c
        for j, b in enumerate(g):
            r[i + j] = k.sub(r[i + j], k.mul(c, b))
    return _ustrip(k, q), _ustrip(k, r)


def _udiv_exact(k: Field, f, g):
    q, r = _udivmod(k, f, g)
    if r:
        raise ArithmeticError("inexact univariate division")
    return q


def _umonic(k: Field, f):
    """Return (lc, f/lc) with f nonzero."""
    lc = f[-1]
    if lc == k.from_int(1):
        return lc, f
    return lc, _uscale(k, f, k.inv(lc))


def _ugcd(k: Field, f, g):
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = f, g
    while b:
        _, a = a, _udivmod(k, a, b)[1]
        a, b = b, a
    if not a:
        return ()
    return _umonic(k, a)[1]


def _uderiv(k: Field, f):
    return _ustrip(k, tuple(k.mul(k.from_int(i), f[i]) for i in range(1, len(f))))


def _usqrt(k: Field, f):
    """Exact square root of a univariate polynomial, or None.

    Coefficient back-substitution from the leading term; no factorization.
    Needs the leading coefficient to be a square in k and char k != 2.
    """
    if not f:
        return ()
    if (len(f) - 1) % 2:
        return None
    lc_root = k.is_square_raw(f[-1])
    if lc_root is None:
        return None
    m = (len(f) - 1) // 2
    s = [k.from_int(0)] * (m + 1)
    s[m] = lc_root
    two_lc = k.mul(k.from_int(2), s[m])
    for j in range(1, m + 1):
        # match the coefficient of t^(2m - j)
        acc = k.from_int(0)
        for i in range(m - j + 1, m + 1):
            i2 = 2 * m - j - i
            if i2 > m or i2 < 0:
                continue
            acc = k.add(acc, k.mul(s[i], s[i2]))
        target = f[2 * m - j] if 2 * m - j < len(f) else k.from_int(0)
        s[m - j] = k.div(k.sub(target, acc), two_lc)
    s = _ustrip(k, s)
    if _umul(k, s, s) != tuple(f):
        return None
    return s


def _sqclass_monic(k: Field, m):
    """Monic squarefree representative of the square class of monic m."""
    if len(m) <= 1:
        return (k.from_int(1),)
    d = _uderiv(k, m)
    if not d:
        # char p: m = h(t^p) = h(t)^p, and odd p preserves exponent parity
        p = k.characteristic
        h = _ustrip(k, tuple(m[i] for i in range(0, len(m), p)))
        return _sqclass_monic(k, h)
    g = _ugcd(k, m, d)
    if len(g) == 1:
        return m
    kernel = _udiv_exact(k, m, g)  # squarefree kernel of m
    rest = _sqclass_monic(k, g)
    c = _ugcd(k, kernel, rest)
    return _umul(k, _udiv_exact(k, kernel, c), _udiv_exact(k, rest, c))


def _ustr(k: Field, f, name: str) -> str:
    if not f:
        return "0"
    parts: list[tuple[str, str]] = []  # (sign, body)
    one = k.from_int(1)
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if k.is_zero(c):
            continue
        cs = k.to_str(c)
        sign = "+"
        if cs.startswith("-"):
            sign, cs = "-", cs[1:]
        if i == 0:
            body = cs
        else:
            power = name if i == 1 else f"{name}^{i}"
            body = power if cs == "1" else f"{cs}*{power}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# rational function fields


class FunctionField(Field):
    """k(t): univariate rational functions over Q or F_p.

    Raw values are pairs (num, den) of coefficient tuples in canonical form:
    gcd 1, den monic.  Nesting deeper than one level is not supported.
    """

    def __init__(self, base: Field, name: str = "t") -> None:
        if not isinstance(base, (Rationals, PrimeField)):
            raise UnsupportedFieldError(
                "function field base must be Q or a prime field"
            )
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            raise ValueError(f"bad parameter name {name!r}")
        self.base = base
        self.param_name = name
        self.characteristic = base.characteristic

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionField)
            and other.base == self.base
            and other.param_name == self.param_name
        )

    def __hash__(self) -> int:
        return hash(("FunctionField", self.base, self.param_name))

    def __str__(self) -> str:
        return f"{self.base}({self.param_name})"

    __repr__ = __str__

    def _make(self, num, den):
        num = _ustrip(self.base, num)
        den = _ustrip(self.base, den)
        if not den:
            raise ZeroDivisionError(f"division by zero in {self}")
        if not num:
            return ((), (self.base.from_int(1),))
        g = _ugcd(self.base, num, den)
        if len(g) > 1:
            num = _udiv_exact(self.base, num, g)
            den = _udiv_exact(self.base, den, g)
        lc = den[-1]
        if lc != self.base.from_int(1):
            inv_lc = self.base.inv(lc)
            num = _uscale(self.base, num, inv_lc)
            den = _uscale(self.base, den, inv_lc)
        return (num, den)

    def gen(self) -> Scalar:
        """The parameter t as a field element."""
        return Scalar(
            self, ((self.base.from_int(0), self.base.from_int(1)), (self.base.from_int(1),))
        )

    def coerce(self, x):
        if isinstance(x, Scalar):
            if x.field == self:
                return x.value
            if x.field == self.base:
                return self._make((x.value,), (self.base.from_int(1),))
            raise FieldMismatchError(f"{x!r} is not an element of {self}")
        if isinstance(x, (int, Fraction)):
            return self._make((self.base.coerce(x),), (self.base.from_int(1),))
        if (
            isinstance(x, tuple)
            and len(x) == 2
            and all(isinstance(part, tuple) for part in x)
        ):
            return self._make(x[0], x[1])
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        k = self.base
        return self._make(
            _uadd(k, _umul(k, n1, d2), _umul(k, n2, d1)), _umul(k, d1, d2)
        )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        k = self.base
        return self._make(_umul(k, n1, n2), _umul(k, d1, d2))

    def neg(self, a):
        n, d = a
        return (_uneg(self.base, n), d)

    def inv(self, a):
        n, d = a
        return self._make(d, n)

    def is_zero(self, a) -> bool:
        return not a[0]

    def from_int(self, n: int):
        c = self.base.from_int(n)
        if self.base.is_zero(c):
            return ((), (self.base.from_int(1),))
        return ((c,), (self.base.from_int(1),))

    def to_str(self, a) -> str:
        n, d = a
        k = self.base
        if len(d) == 1 and d[0] == k.from_int(1):
            return _ustr(k, n, self.param_name)
        return f"({_ustr(k, n, self.param_name)})/({_ustr(k, d, self.param_name)})"

    def sort_key(self, a):
        n, d = a
        k = self.base
        return (
            len(n),
            len(d),
            tuple(k.sort_key(c) for c in n),
            tuple(k.sort_key(c) for c in d),
        )

    def is_square_raw(self, a):
        n, d = a
        k = self.base
        s = _usqrt(k, _umul(k, n, d))
        if s is None:
            return None
        # (s/d)^2 = n*d / d^2 = n/d
        return self._make(s, d)

    def square_class_raw(self, a):
        n, d = a
        k = self.base
        q = _umul(k, n, d)  # same square class as a
        lc, monic = _umonic(k, q)
        rep = _sqclass_monic(k, monic)
        c = k.square_class_raw(lc)
        return ((_uscale(k, rep, c)), (k.from_int(1),))

    def signature_sign_raw(self, a) -> int:
        if not isinstance(self.base, Rationals):
            raise UnsupportedFieldError(f"no real embedding of {self}")
        n, d = a
        # sign as t -> +infinity: leading coefficients dominate
        sn = 1 if n[-1] > 0 else -1
        sd = 1 if d[-1] > 0 else -1
        return sn * sd


# ---------------------------------------------------------------------------
# field descriptions


def parse_field(text: str) -> Field:
    """Parse a field description: "Q", "F7", "Q(t)", "F7(s)"."""
    m = re.fullmatch(r"\s*(Q|F(\d+))\s*(?:\(\s*([A-Za-z_]\w*)\s*\))?\s*", text)
    if not m:
        raise ParseError(f"cannot parse field {text!r}")
    base: Field = QQ if m.group(1) == "Q" else PrimeField(int(m.group(2)))
    if m.group(3):
        return FunctionField(base, m.group(3))
    return base
