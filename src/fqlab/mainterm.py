"""Predicted main terms for two-point correlations, as certified truncations.

The predicted normalized limit of a correlation sum is an Euler product
with one local factor W_P per monic prime P.  The shift difference enters
through k(P) = v_P(h2 - h1), which caps how deep both arguments may share
the prime; h1 = h2 makes every valuation infinite, so k = None (no
constraint) at every prime, small and large alike.  W_P is the double sum

    W_P = sum over m1, m2 >= 0 with min(m1, m2) <= k of
          a1(m1) a2(m2) w(max(m1, m2)),

where a_j(0) = 1, a_j(m) = psi_j(P^m) - psi_j(P^{m-1}), and the weight w
is q^{-M deg P} (monic domain) or 1/phi(P^M) (irreducible domain).  One
function, _factor, evaluates it grouped by M = max(m1, m2):

    W_P - 1 = sum_{M >= 1} w(M) (a1(M) b2(M) + a2(M) b1(M)
                                 + [M <= k] a1(M) a2(M)),
    b_j(M) = psi_j(P^{min(k, M - 1)}),

summed to double precision: a rule that has not settled by
M_d = 1 + (the first m with 1.0 + q^{-m d} == 1.0), which depends on
q^{-d} alone, is read up to M_d, and the bound on what lies past it
enters the tail.  The literal double sum survives as a test oracle.  It
returns the deviation W_P - 1, so deviations far below machine epsilon
are kept.  The constant function gives exactly 1.

One product walk, one accumulator, one certified stop.  main_term runs
one walk over the degrees 1..n that multiplies the factors in log space
through log1p, so deviations of order 2^-60 per prime still reach the
result; the sign of a real negative factor is kept apart, so a product
of real factors stays real, and a factor exactly 0 makes the value 0.
The paper's split of the product into small and large primes is only a
range of that walk, so no argument names it.  At n = infinity the walk
stops at the first degree D past D0 = max(deg(h2 - h1), each
trivial_beyond_degree) where the declared decay bounds (C_j, a_j) of
FunctionSpec.decay put the remainder sum_{e > D} N_e |W_e - 1| below the
fixed target INF_TAIL_TARGET; from N_e <= q^e / e and
|W_e - 1| <= 3 s sum_j C_j q^{-a_j e} (s = 1 monic, 2 prime) it is at
most sum_j 3 s C_j q^{(1 - a_j)(D + 1)} / ((D + 1)(1 - q^{1 - a_j})).
Each result carries a rigorous bound on everything dropped.  A walk
that reaches the first degree d with q^{-d} below the normal floats is
refused unless every function not neutral there has a decay bound: past
it each factor reads exactly 1 while N_d |W_d - 1| need not be small.

On the irreducible domain the weight 1/phi(Q^m) is right only at primes
Q that divide neither h1 nor h2: if Q | h then Q never divides P + h for
a prime P of degree n > deg Q.  So the prime-domain main term is the
limit only when h1 and h2 are both nonzero constants; h1 = 0, for one,
gives a wrong prediction (at p = 3, phi_ratio, h = (0, 1): means 0.5359,
0.5420, 0.5446 at n = 6, 8, 10 against a main term of 0.2641).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import FunctionSpec
from .fieldpoly import Poly, format_poly
from .sieve import IrreducibleTable, factorize

INF_TAIL_TARGET = 1e-12
_EXTEND_LIMIT = 400


class MainTermError(ValueError):
    pass


@dataclass(frozen=True)
class TruncatedValue:
    """A numeric value plus a bound on the truncation error.

    Recomputing with any deeper truncation moves the value by at most
    tail_bound; the bound is always finite (computations that cannot
    certify a finite tail raise instead of returning garbage).
    """

    value: complex
    tail_bound: float

    def __post_init__(self):
        if not math.isfinite(self.tail_bound) or self.tail_bound < 0:
            raise MainTermError(f"tail bound {self.tail_bound} not certifiable")

    def times(self, other: "TruncatedValue") -> "TruncatedValue":
        v = self.value * other.value
        t = (abs(self.value) * other.tail_bound
             + abs(other.value) * self.tail_bound
             + self.tail_bound * other.tail_bound)
        return TruncatedValue(v, t)


@dataclass(frozen=True)
class ShiftPair:
    """Shifts (h1, h2) of a two-point experiment and their difference."""

    h1: Poly
    h2: Poly

    @property
    def delta(self) -> Poly:
        return self.h2 - self.h1

    @property
    def table_degree(self) -> int:
        """The table degree prime_valuations needs: deg(h2 - h1) // 2, 0
        for a constant or zero difference.  For degree-symmetric functions
        this is all a main term reads from the table; every count N_d
        comes from Moebius inversion at any degree."""
        d = self.delta
        return 0 if d.is_zero else d.degree // 2

    def prime_valuations(self, table: IrreducibleTable) -> dict[Poly, int] | None:
        """v_P(h2 - h1) for the primes dividing the difference; None when
        the difference is zero (every valuation is infinite)."""
        d = self.delta
        if d.is_zero:
            return None
        return {P: m for P, m in factorize(d.monic(), table).factors}


def _check_mode(mode: str) -> None:
    if mode not in ("monic", "prime"):
        raise MainTermError(f"mode must be monic or prime, got {mode!r}")


def _require_unit(psi1: FunctionSpec, psi2: FunctionSpec) -> None:
    if not (psi1.unit_bounded and psi2.unit_bounded):
        raise MainTermError("main terms are defined for unit-bounded functions")


def _factor(psi1: FunctionSpec, psi2: FunctionSpec, P, k: int | None,
            mode: str) -> tuple[complex, float]:
    """(W_P - 1, tail) at the prime P, a Poly or a bare degree read through
    the degree-symmetric rules, with shift valuation k (None: no
    constraint); see the module docstring for the grouped sum.

    A rule is read up to its settle power (0 past trivial_beyond_degree)
    and held there; the sum stops at M = M_d (see _depth) unless both
    rules settle by then, and is exact otherwise.  With |psi| <= 1,
    summation by parts bounds what M > M_d adds by 2 w(M_d + 1) per
    unsettled rule, below an ulp of 1 (q^{-deg P} <= 1/2 covers k > M_d
    with both rules unsettled).
    """
    is_poly = isinstance(P, Poly)
    d = P.degree if is_poly else P
    x = float(psi1.field.p) ** -d
    depth = _depth(x)
    rows, unsettled = [], 0
    for spec in (psi1, psi2):
        last = spec.power_settle
        if spec.trivial_beyond_degree is not None and d > spec.trivial_beyond_degree:
            last = 0
        elif last is None or last > depth:
            last, unsettled = depth, unsettled + 1
        read = spec.value_at if is_poly else spec.value_dm
        row = [1]
        for m in range(1, last + 1):
            row.append(read(P, m))
        rows.append(row)
    v1, v2 = rows
    top = max(len(v1), len(v2)) - 1
    v1 += v1[-1:] * (top + 1 - len(v1))  # held at the settle value
    v2 += v2[-1:] * (top + 1 - len(v2))
    dev = 0
    for M in range(1, top + 1):
        a1, a2 = v1[M] - v1[M - 1], v2[M] - v2[M - 1]
        if a1 == 0 and a2 == 0:
            continue
        j = M - 1 if k is None else min(k, M - 1)
        t = a1 * v2[j] + a2 * v1[j]
        if k is None or M <= k:
            t += a1 * a2
        dev += t * x**M
    # 1/phi(P^M) = q^{-M d}/(1 - q^{-d}); float powers underflow to 0
    # where exact integers would overflow the conversion
    scale = 1.0 if mode == "monic" else 1.0 / (1.0 - x)
    return dev * scale, 2.0 * unsettled * x ** (top + 1) * scale


@functools.cache
def _depth(x: float) -> int:
    """M_d for x = q^{-d}: one past the first m with 1.0 + x**m == 1.0;
    54 for x = 1/2, 2 once 1.0 + x == 1.0."""
    m = 1
    while 1.0 + x**m != 1.0:
        m += 1
    return m + 1


def local_factor(P, k: int | None, psi1: FunctionSpec, psi2: FunctionSpec,
                 mode: str) -> TruncatedValue:
    """Shift-constrained local factor W_P, summed to double precision (see
    _factor).

    P is a monic irreducible Poly or a bare degree (degree-symmetric
    functions only); k is the valuation constraint, None meaning
    unconstrained (zero shift difference).
    """
    _check_mode(mode)
    _require_unit(psi1, psi2)
    d = P.degree if isinstance(P, Poly) else int(P)
    if d < 1:
        raise MainTermError("local factors live at primes of degree >= 1")
    dev, tail = _factor(psi1, psi2, P if isinstance(P, Poly) else d, k, mode)
    return TruncatedValue(1 + dev, tail)


def _degree_factors(d: int, vals: dict[Poly, int] | None,
                    psi1: FunctionSpec, psi2: FunctionSpec, mode: str,
                    table: IrreducibleTable):
    """(W_P - 1, tail, power) covering every prime P of degree d, given the
    shift valuations vals (None: h1 = h2).  Degree-symmetric rules give
    the primes dividing h2 - h1 one at a time, then one factor for the
    rest of N_d, which comes last; other rules give one factor per prime."""
    if psi1.degree_symmetric and psi2.degree_symmetric:
        special = [k for P, k in (vals or {}).items() if P.degree == d]
        for k in special:
            yield (*_factor(psi1, psi2, d, k, mode), 1)
        yield (*_factor(psi1, psi2, d, None if vals is None else 0, mode),
               table.count(d) - len(special))
    else:
        for P in table.primes(d):
            k = None if vals is None else vals.get(P, 0)
            yield (*_factor(psi1, psi2, P, k, mode), 1)


class _LogProduct:
    """Product of factors (1 + dev)^power accumulated in log space, so
    deviations of order 2^-60 still reach the result (z^N = exp(N Log z)
    exactly).  A real negative factor adds log|1 + dev| and flips the sign
    kept apart; a factor exactly 0 makes the value 0 and adds its tail
    alone to the upper bound prod(|1 + dev| + t)^power of the modulus."""

    def __init__(self):
        self.log_v, self.hi_extra, self.terms = 0j, 0.0, 0
        self.negative = self.zero = False

    def mul(self, dev, t: float, power: int = 1):
        if power == 0 or (dev == 0 and t == 0.0):
            return
        self.terms += 1
        pf, v = float(power), 1 + dev
        if v == 0:
            self.zero = True
            self.hi_extra += pf * math.log(t) if t else -math.inf
            return
        if v.imag == 0:  # log1p: without the rounding of 1 + dev
            self.negative ^= v.real < 0 and power % 2 == 1
            log = math.log1p(dev.real) if v.real > 0 else math.log(-v.real)
        elif abs(dev) < 1e-8:  # far below machine epsilon: two series terms
            log = dev - dev * dev / 2
        else:
            log = cmath.log(v)
        self.log_v += pf * log
        if t:
            self.hi_extra += pf * math.log1p(t / abs(v))

    def result(self, extra_rel: float = 0.0) -> TruncatedValue:
        """The product with |value| in [lo, hi]: its tail is hi - lo,
        extra_rel of hi and a rounding cushion for the flops."""
        lo = 0.0 if self.zero else math.exp(self.log_v.real)
        hi = math.exp(self.log_v.real + self.hi_extra)
        tail = (hi - lo) + hi * extra_rel
        if self.terms:
            tail += 8.0 * (self.terms + 2) * 2.3e-16 * hi
        value = 0.0 if self.zero else cmath.exp(self.log_v)
        if self.negative:
            value = -value
        if value.imag == 0:
            value = value.real
        return TruncatedValue(value, max(tail, 0.0))


def _decays(d: int, psi1: FunctionSpec, psi2: FunctionSpec) -> list:
    """The decay bounds (C, a) of the functions not neutral at degree d,
    None for one that declares none."""
    return [spec.decay for spec in (psi1, psi2)
            if spec.trivial_beyond_degree is None
            or d <= spec.trivial_beyond_degree]


def _stop(start: int, psi1: FunctionSpec, psi2: FunctionSpec, q: int,
          s: int, tail_target: float) -> tuple[int, float]:
    """(D, r): the first degree D >= start (start >= D0) whose remainder
    bound r (see the module docstring) is at most tail_target.  Refuses a
    function not trivial past D0 without a decay bound with a > 1."""
    for spec in (psi1, psi2):
        if spec.trivial_beyond_degree is None and (
                spec.decay is None or spec.decay[1] <= 1):
            raise MainTermError(
                f"{spec.name} declares no decay bound (C, a) with a > 1, so "
                "its infinite product has no certified tail; evaluate with "
                "a finite n instead")
    for D in range(start, start + _EXTEND_LIMIT + 1):
        r = sum(3 * s * C * float(q) ** ((1 - a) * (D + 1))
                / ((D + 1) * (1 - float(q) ** (1 - a)))
                for C, a in _decays(D + 1, psi1, psi2))
        if r <= min(tail_target, 0.5):
            return D, r
    raise MainTermError(f"the decay bounds do not reach {tail_target:g} "
                        f"within {_EXTEND_LIMIT} degrees past degree {start}")


@functools.cache
def _subnormal_degree(q: int) -> int:
    """The first d with q^{-d} below sys.float_info.min: 1023 at q = 2,
    645 at q = 3, 129 at q = 251."""
    d = 1
    while float(q) ** -d >= sys.float_info.min:
        d += 1
    return d


def _walk(first: int, last: int | None, shifts: ShiftPair | None,
          psi1: FunctionSpec, psi2: FunctionSpec, mode: str,
          table: IrreducibleTable,
          tail_target: float = INF_TAIL_TARGET) -> TruncatedValue:
    """The product of the local factors over first <= deg P <= last (last
    = None: on to the certified stop, whose remainder enters the tail).
    main_term starts at degree 1; a later first leaves a window of the
    same product for the oracles to check.  A range that reaches the
    first degree whose q^{-d} is below the normal floats is refused
    unless every function not neutral there has a decay bound with
    a > 1.  Every walk also refuses a generic factor whose |W - 1|
    exceeds its declared bound by more than the factor's own tail."""
    _check_mode(mode)
    _require_unit(psi1, psi2)
    q = table.field.p
    if psi1.field.p != q or psi2.field.p != q:
        raise MainTermError("function specs bound to a different field")
    if not (psi1.degree_symmetric and psi2.degree_symmetric):
        if last is None:
            raise MainTermError(
                "an infinite product over a non-degree-symmetric function "
                "has no tail certificate; evaluate with a finite n instead")
        if last > table.max_deg:
            raise MainTermError(
                f"degree {last} beyond table degree {table.max_deg} needs "
                "degree-symmetric functions")
    s = 1 if mode == "monic" else 2
    rem = 0.0
    if last is None:
        delta = 0 if shifts is None or shifts.delta.is_zero else shifts.delta.degree
        last, rem = _stop(max(delta, first - 1, *(spec.trivial_beyond_degree or 0
                                                  for spec in (psi1, psi2))),
                          psi1, psi2, q, s, tail_target)
    low = max(first, _subnormal_degree(q))
    if last >= low and any(c is None or c[1] <= 1
                           for c in _decays(low, psi1, psi2)):
        raise MainTermError(
            f"q^-d leaves the normal floats at degree {low}, and not every "
            "function there declares a decay bound (C, a) with a > 1; "
            "evaluate with n below that degree")
    vals = {} if shifts is None else shifts.prime_valuations(table)
    acc = _LogProduct()
    for d in range(first, last + 1):
        for dev, t, power in _degree_factors(d, vals, psi1, psi2, mode,
                                             table):
            acc.mul(dev, t, power)
        terms = _decays(d, psi1, psi2)
        bound = 3 * s * sum(C * float(q) ** (-a * d) for C, a in terms) \
            if None not in terms else math.inf
        if abs(dev) > bound + t:  # dev: the generic factor of degree d
            raise MainTermError(
                f"the factor at degree {d} deviates from 1 by {abs(dev):.3g}, "
                f"more than the declared decay bounds allow ({bound:.3g})")
    # |log(1 + z)| <= |z| / (1 - |z|) on every factor past last
    return acc.result(extra_rel=math.expm1(rem / (1 - rem)))


def main_term(n: int | None, shifts: ShiftPair | None,
              psi1: FunctionSpec, psi2: FunctionSpec, mode: str,
              table: IrreducibleTable) -> TruncatedValue:
    """Predicted normalized limit: the product of the constrained local
    factors over deg P <= n, walked once from degree 1; n = None walks to
    the certified stop of the declared decay bounds (see the module
    docstring) and refuses a function without one.  A finite n refuses a
    shift of degree >= n, as the sums do, and a walk past the normal
    floats of q^{-d} without decay bounds (see _walk).  On the irreducible
    domain it is the limit only when neither shift is divisible by a prime
    (see the module docstring)."""
    if n is not None and shifts is not None:
        for h in (shifts.h1, shifts.h2):
            if not h.is_zero and h.degree >= n:
                raise MainTermError(f"shift {format_poly(h)} has degree >= n={n}")
    return _walk(1, n, shifts, psi1, psi2, mode, table)


def liouville_local_closed(d: int, k: int, q: int) -> Fraction:
    """Closed form of the truncated-Liouville local factor at a prime of
    degree d with shift valuation k: 1 - 4/(q^{k d} (q^d + 1))."""
    if d < 1 or k < 0:
        raise MainTermError("need d >= 1 and k >= 0")
    return 1 - Fraction(4, q ** (k * d) * (q**d + 1))


def error_bound_shape(mode: str, r: int, n: int, alpha: float, q: int,
                      c: float = 1.0, A: float = 1.0,
                      dist1: float = 0.0, dist2: float = 0.0) -> float:
    """Shape of the theoretical deviation bound, for plotting against
    measured deviations.

    monic: dist1 + dist2 + q^{(1-2a)n} exp(c q^{a r}/r) + (r q^r)^{-1/2}
    prime: the middle term becomes n^{-A} exp(c q^{a r}/r).

    The absolute constants c and A are unknown; callers supply their own
    guesses and no correctness is claimed for the overlay.
    """
    _check_mode(mode)
    if not 0.5 < alpha < 1.0:
        raise MainTermError("alpha must lie in (1/2, 1)")
    if not 1 <= r <= n:
        raise MainTermError("need 1 <= r <= n")
    try:
        grow = math.exp(c * q ** (alpha * r) / r)
    except OverflowError:
        return math.inf
    if mode == "monic":
        mid = q ** ((1.0 - 2.0 * alpha) * n) * grow
    else:
        mid = n ** (-A) * grow
    return dist1 + dist2 + mid + (r * float(q) ** r) ** -0.5
