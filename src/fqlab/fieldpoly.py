"""Exact arithmetic for F_p[x] with p prime, and enumeration of monic polynomials.

A polynomial is a tuple of residues mod p, index i holding the coefficient
of x^i; the last entry is nonzero and the zero polynomial is the empty
tuple.  Every monic polynomial of degree n corresponds to a unique integer
index in [0, p^n): the n lower coefficients are the base-p digits of the
index, c0 least significant, with the leading 1 implicit.  This bijection
fixes the enumeration order used everywhere (irreducible tables, value
arrays, report ordering) and is never allowed to change.  For p = 2 the
index doubles as a bitmask, which the sieve's kernels use directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence


class PolyError(ValueError):
    """Invalid polynomial input: syntax, range, or field mismatch."""


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
)


@dataclass(frozen=True)
class FieldSpec:
    """Prime field F_p, 2 <= p <= 251 (one residue fits a byte)."""

    p: int

    def __post_init__(self) -> None:
        if self.p not in _SMALL_PRIMES:
            raise PolyError(f"p={self.p} is not a prime in [2, 251]")


# ---------------------------------------------------------------------------
# coefficient-tuple core (any p)
# ---------------------------------------------------------------------------

def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _c_add(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _c_neg(p: int, a: Sequence[int]) -> tuple[int, ...]:
    return tuple((-c) % p for c in a)


def _c_mul(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _c_divmod(p: int, a: Sequence[int], b: Sequence[int]):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            factor = (c * inv_lead) % p
            q[i - db] = factor
            for j, cb in enumerate(b):
                r[i - db + j] = (r[i - db + j] - factor * cb) % p
    return _trim(q), _trim(r)


def _c_gcd(p: int, a, b):
    while b:
        a, b = b, _c_divmod(p, a, b)[1]
    return a


def _c_monic(p: int, a: Sequence[int]) -> tuple[int, ...]:
    if not a:
        return ()
    if a[-1] == 1:
        return tuple(a)
    inv = pow(a[-1], p - 2, p)
    return tuple((c * inv) % p for c in a)


def _c_ext_gcd(p: int, a, b):
    """Return (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = tuple(a), tuple(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _c_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _c_add(p, s0, _c_neg(p, _c_mul(p, q, s1)))
        t0, t1 = t1, _c_add(p, t0, _c_neg(p, _c_mul(p, q, t1)))
    if r0 and r0[-1] != 1:
        inv = pow(r0[-1], p - 2, p)
        scale = (inv,)
        r0 = _c_monic(p, r0)
        s0 = _c_mul(p, scale, s0)
        t0 = _c_mul(p, scale, t0)
    return r0, s0, t0


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

class Poly:
    """Immutable element of F_p[x].

    coeffs[i] is the coefficient of x^i; the leading coefficient is nonzero
    unless the polynomial is zero (empty coeffs).  All values are reduced
    into [0, p).  Instances are hashable and safe to share across threads.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Sequence[int]):
        p = field.p
        for c in coeffs:
            if not (0 <= c < p):
                raise PolyError(f"coefficient {c} out of range for p={p}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # degree of the zero polynomial is conceptually -infinity; we return a
    # sentinel (None) rather than any number
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero:
            raise PolyError("zero polynomial has no monic normalization")
        return Poly(self.field, _c_monic(self.field.p, self.coeffs))

    def _check_same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise PolyError("operands live in different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly(self.field, _c_add(self.field.p, self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly(self.field, _c_add(self.field.p, self.coeffs,
                                       _c_neg(self.field.p, other.coeffs)))

    def __neg__(self) -> "Poly":
        return Poly(self.field, _c_neg(self.field.p, self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly(self.field, _c_mul(self.field.p, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_same_field(other)
        q, r = _c_divmod(self.field.p, self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise PolyError("negative exponent")
        out = Poly(self.field, (1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly(p={self.field.p}, {format_poly(self)!r})"

    # integer encoding: full degree sequence including the leading term
    def encode(self) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def monic_index(self) -> int:
        """Enumeration index among monic polynomials of this degree."""
        if not self.is_monic:
            raise PolyError("monic_index requires a monic polynomial")
        v = 0
        for c in reversed(self.coeffs[:-1]):
            v = v * self.field.p + c
        return v


def poly_from_encoding(field: FieldSpec, value: int) -> Poly:
    coeffs = []
    p = field.p
    while value:
        coeffs.append(value % p)
        value //= p
    return Poly(field, coeffs)


def monic_from_index(field: FieldSpec, n: int, index: int) -> Poly:
    """Inverse of the index bijection: base-p digits of index plus leading 1."""
    if not 0 <= index < field.p ** n:
        raise PolyError(f"index {index} out of range for degree {n}")
    p = field.p
    coeffs = []
    v = index
    for _ in range(n):
        coeffs.append(v % p)
        v //= p
    coeffs.append(1)
    return Poly(field, coeffs)


def enumerate_monic(field: FieldSpec, n: int) -> list[Poly]:
    """All monic polynomials of degree n in fixed index order."""
    return [monic_from_index(field, n, i) for i in range(field.p ** n)]


def norm(f: Poly) -> int:
    """q^{deg f}, and 0 for the zero polynomial."""
    if f.is_zero:
        return 0
    return f.field.p ** f.degree


def poly_gcd_lcm(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Monic gcd together with the lcm normalized so gcd*lcm = monic(a*b)."""
    a._check_same_field(b)
    if a.is_zero and b.is_zero:
        raise PolyError("gcd(0, 0) is undefined")
    p = a.field.p
    if a.is_zero:
        return b.monic(), Poly(a.field, ())
    if b.is_zero:
        return a.monic(), Poly(a.field, ())
    g = _c_monic(p, _c_gcd(p, a.coeffs, b.coeffs))
    prod = _c_monic(p, _c_mul(p, a.coeffs, b.coeffs))
    l, _ = _c_divmod(p, prod, g)
    return Poly(a.field, g), Poly(a.field, l)


def ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g and g the monic gcd."""
    a._check_same_field(b)
    g, s, t = _c_ext_gcd(a.field.p, a.coeffs, b.coeffs)
    return Poly(a.field, g), Poly(a.field, s), Poly(a.field, t)


# ---------------------------------------------------------------------------
# canonical text form: monomials in strictly descending degree, coefficient
# omitted when 1, "x^1" written "x", degree-0 term written as bare residue,
# zero polynomial written "0"; example "x^3+2x+1"
# ---------------------------------------------------------------------------

# numbers are ASCII digits without leading zeros (\d would admit any
# Unicode digit); "1x" and "x^1" are caught after the match
_NUMBER = "[1-9][0-9]*"
_TERM_RE = re.compile(rf"({_NUMBER})|({_NUMBER})?x(?:\^({_NUMBER}))?")

# far above any degree a table reaches (2^27 cells stop p = 2 at degree
# 27); checked before the coefficient list is allocated
MAX_PARSE_DEGREE = 10_000


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            coef = "" if c == 1 else str(c)
            xpow = "x" if i == 1 else f"x^{i}"
            parts.append(coef + xpow)
    return "+".join(parts)


def parse_poly(text: str, field: FieldSpec) -> Poly:
    """Parse the canonical grammar; rejects out-of-range coefficients and
    anything the canonical formatter would not emit, spaces aside."""
    s = text.strip().replace(" ", "")
    if not s:
        raise PolyError("empty polynomial string")
    if s == "0":
        return Poly(field, ())
    coeffs: dict[int, int] = {}
    last_deg = None
    for term in s.split("+"):
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise PolyError(f"bad term {term!r} in {text!r}")
        if m.group(1) is not None:
            deg, coef = 0, int(m.group(1))
        else:
            if m.group(2) == "1" or m.group(3) == "1":
                raise PolyError(f"non-canonical term {term!r}")
            coef = int(m.group(2) or 1)
            deg = int(m.group(3) or 1)
            if deg > MAX_PARSE_DEGREE:
                raise PolyError(f"degree {deg} in {term!r} exceeds "
                                f"{MAX_PARSE_DEGREE}")
        if coef >= field.p:
            raise PolyError(f"coefficient {coef} >= p={field.p} in {term!r}")
        if last_deg is not None and deg >= last_deg:
            raise PolyError(f"terms not in strictly descending degree: {text!r}")
        last_deg = deg
        coeffs[deg] = coef
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(field, out)


def poly_arith(op: str, a: Poly, b: Poly):
    """Dispatch form of the ring operations: op in {add, mul, divmod}."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "divmod":
        return divmod(a, b)
    raise PolyError(f"unknown op {op!r}")
