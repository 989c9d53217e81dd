"""Predicted main terms for two-point correlations, as certified truncations.

The predicted normalized limit of a correlation sum factors into an Euler
product: over primes of degree <= gamma a local factor W_P constrained by
the shift difference (its valuation k(P) caps how deep both arguments may
share the prime), and over larger primes an unconstrained factor.  Both
ranges are evaluated as truncated products whose TruncatedValue carries a
rigorous bound on everything dropped.

The local factor at P with constraint k is the double sum

    W_P = sum over m1, m2 >= 0 with min(m1, m2) <= k of
          a1(m1) a2(m2) w(max(m1, m2)),

where a_j(0) = 1, a_j(m) = psi_j(P^m) - psi_j(P^{m-1}), and the weight w
is q^{-M deg P} (monic domain) or 1/phi(P^M) (irreducible domain).  The
constrained product over small primes is computed this way rather than as
a literal double sum over pairs of polynomials; the literal sum survives
as a test oracle.

Large-prime factors use the telescoped form 1 + sum_j sum_m
(psi_j(P^m) - psi_j(P^{m-1})) / q^{m deg P} (monic) and 1 + sum_j sum_k
(psi_j(P^k) - 1)/q^{k deg P} (irreducible domain, where the constant-1
part of the series has been summed in closed form).  The telescoping
makes the constant function give exactly 1, and rules that settle after
finitely many powers get exact factors with zero tail.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import FunctionSpec
from .fieldpoly import Poly
from .sieve import IrreducibleTable, factorize

LOCAL_DEPTH_DEFAULT = 30
INF_TAIL_TARGET = 1e-12
_EXTEND_LIMIT = 400
_RATIO_WINDOW = 8
_RATIO_CAP = 0.9


class MainTermError(ValueError):
    pass


class ThresholdError(MainTermError):
    """gamma below the safe threshold with factors at risk of vanishing."""


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

    def prime_valuations(self, table: IrreducibleTable) -> dict[Poly, int] | None:
        """v_P(h2 - h1) for the primes dividing the difference; None when
        the difference is zero (every valuation is infinite)."""
        d = self.delta
        if d.is_zero:
            return None
        if d.degree == 0:
            return {}
        return {P: m for P, m in factorize(d.monic(), table).factors}


def threshold_gamma(q: int, mode: str) -> int:
    """Smallest gamma with q^gamma >= 9 (monic) or 17 (prime): beyond it
    every unconstrained factor stays within 1/4 resp. 1/4 of 1."""
    floor = 9 if mode == "monic" else 17
    g = 1
    while q**g < floor:
        g += 1
    return g


def default_gamma(q: int, mode: str, shifts: ShiftPair | None) -> int:
    dd = 0
    if shifts is not None and not shifts.delta.is_zero:
        dd = shifts.delta.degree
    return max(dd, threshold_gamma(q, mode))


def _check_mode(mode: str) -> None:
    if mode not in ("monic", "prime"):
        raise MainTermError(f"mode must be monic or prime, got {mode!r}")


def _require_unit(psi1: FunctionSpec, psi2: FunctionSpec) -> None:
    if not (psi1.unit_bounded and psi2.unit_bounded):
        raise MainTermError("main terms are defined for unit-bounded functions")


def _alpha_vec(spec: FunctionSpec, P, d: int, depth: int):
    """[a(0), a(1), ...] with a(m) = value(P^m) - value(P^{m-1}); cut at
    the settle power when the spec has one (exact), else at depth.  P is
    the prime as a Poly, or None to read the degree-symmetric rule."""
    if spec.trivial_beyond_degree is not None and d > spec.trivial_beyond_degree:
        return [1], True
    settle = spec.power_settle
    exact = settle is not None and settle <= depth
    top = settle if exact else depth
    out = [1]
    prev = 1
    for m in range(1, top + 1):
        cur = spec.value_dm(d, m) if P is None else spec.value_at(P, m)
        out.append(cur - prev)
        prev = cur
    return out, exact


def local_factor(P, k: int | None, psi1: FunctionSpec, psi2: FunctionSpec,
                 mode: str, depth: int = LOCAL_DEPTH_DEFAULT) -> TruncatedValue:
    """Shift-constrained local factor W_P.

    P is a monic irreducible Poly or a bare degree (degree-symmetric
    functions only); k is the valuation constraint, None meaning
    unconstrained (zero shift difference).  The truncation tail uses
    |a| <= 2 and is 16 w(depth+1)/(1 - q^{-d})^2.
    """
    _check_mode(mode)
    _require_unit(psi1, psi2)
    if depth < 2:
        raise MainTermError("depth must be >= 2")
    if isinstance(P, Poly):
        d = P.degree
        q = P.field.p
    else:
        d, P = int(P), None
        q = psi1.field.p
    if d < 1:
        raise MainTermError("local factors live at primes of degree >= 1")
    a1, exact1 = _alpha_vec(psi1, P, d, depth)
    a2, exact2 = _alpha_vec(psi2, P, d, depth)

    x = float(q) ** (-d)
    top = max(len(a1), len(a2))
    if mode == "monic":
        weights = [x**M for M in range(top)]
    else:
        # 1/phi(P^M) = q^{-M d}/(1 - q^{-d}); float powers underflow to 0
        # where exact integers would overflow the conversion
        weights = [1.0] + [x**M / (1.0 - x) for M in range(1, top)]
    total = 0
    for m1, c1 in enumerate(a1):
        if c1 == 0:
            continue
        for m2, c2 in enumerate(a2):
            if c2 == 0:
                continue
            if k is not None and min(m1, m2) > k:
                continue
            total += c1 * c2 * weights[max(m1, m2)]
    if exact1 and exact2:
        tail = 0.0
    elif mode == "monic":
        tail = 16.0 * x ** (depth + 1) / (1.0 - x) ** 2
    else:
        tail = 16.0 * x ** (depth + 1) / (1.0 - x) ** 3
    return TruncatedValue(total, tail)


# ---------------------------------------------------------------------------
# unconstrained factors beyond gamma
# ---------------------------------------------------------------------------

def _euler_factor(spec_pair, value, d: int, q: int, mode: str, m_max: int):
    """Per-prime factor at a prime P of degree d, returned as
    (factor - 1, m-tail); value(spec, m) is spec's value at P^m.

    Keeping the deviation from 1 rather than the factor itself preserves
    deviations far below machine epsilon; the product layer consumes it
    through log1p so mass of order 2^-60 per prime is not rounded away.
    Both specs add into one running sum, whose order the certified main
    terms depend on bit for bit.
    """
    inner = 0
    tail = 0.0
    x = float(q) ** (-d)
    for spec in spec_pair:
        if (spec.trivial_beyond_degree is not None
                and d > spec.trivial_beyond_degree):
            continue
        settle = spec.power_settle
        exact = settle is not None and settle <= m_max
        top = settle if exact else m_max
        if mode == "monic":
            prev = 1
            w = x
            for m in range(1, top + 1):
                cur = value(spec, m)
                if cur != prev:
                    inner += (cur - prev) * w
                prev = cur
                w *= x
        else:
            last = 1
            w = x
            for m in range(1, top + 1):
                last = value(spec, m)
                if last != 1:
                    inner += (last - 1) * w
                w *= x
            if exact and last != 1:
                # rule constant from here on: geometric continuation in
                # closed form, no truncation error
                inner += (last - 1) * w / (1.0 - x)
        if not exact:
            tail += 2.0 * x ** (m_max + 1) / (1.0 - x)
    return inner, tail


def _count_upper(q: int, d: int) -> float:
    """q^d / d as a float: an upper bound for the prime count N_d."""
    try:
        return float(q) ** d / d
    except OverflowError:
        return math.inf


def _certified(value: complex, lo: float, hi: float, terms: int,
               extra_rel: float) -> TruncatedValue:
    """A product of terms factors with |value| in [lo, hi]: its tail is
    hi - lo, extra_rel of hi and a rounding cushion for the flops."""
    tail = (hi - lo) + hi * extra_rel
    if terms:
        tail += 8.0 * (terms + 2) * 2.3e-16 * hi
    if value.imag == 0:
        value = value.real
    return TruncatedValue(value, max(tail, 0.0))


class _ProductAccumulator:
    """Running product with tails combined multiplicatively:
    total tail = prod(|v_i| + t_i) - prod(|v_i|)."""

    def __init__(self):
        self.value = complex(1.0)
        self.abs_lo = 1.0
        self.abs_hi = 1.0
        self.terms = 0

    def mul(self, v, t: float, power: int = 1):
        if v == 1 and t == 0.0:
            return
        self.terms += 1
        if power == 1:
            self.value *= v
            self.abs_lo *= abs(v)
            self.abs_hi *= abs(v) + t
        else:
            self.value *= v**power
            self.abs_lo *= abs(v) ** power
            self.abs_hi *= (abs(v) + t) ** power

    def result(self, extra_rel: float = 0.0) -> TruncatedValue:
        return _certified(self.value, self.abs_lo, self.abs_hi, self.terms,
                          extra_rel)


def _log1p_c(z: complex):
    """log(1 + z) safe for |z| far below machine epsilon."""
    if abs(z) < 1e-8:
        return z - z * z / 2
    return cmath.log(1 + z)


class _LogProductAccumulator:
    """Product of factors (1 + inner_d)^{N_d} accumulated in log space, so
    inner deviations of order 2^-60 still reach the result.  Valid for
    integer powers of any nonzero factor (z^N = exp(N Log z) exactly)."""

    def __init__(self):
        self.log_v = 0j
        self.hi_extra = 0.0
        self.terms = 0

    def mul(self, inner, t: float, power: int = 1):
        if inner == 0 and t == 0.0:
            return
        self.terms += 1
        pf = float(power)
        self.log_v += pf * _log1p_c(inner)
        if t:
            self.hi_extra += pf * math.log1p(t / abs(1 + inner))

    def result(self, extra_rel: float = 0.0) -> TruncatedValue:
        return _certified(cmath.exp(self.log_v), math.exp(self.log_v.real),
                          math.exp(self.log_v.real + self.hi_extra),
                          self.terms, extra_rel)


def small_prime_product(gamma: int, shifts: ShiftPair | None,
                        psi1: FunctionSpec, psi2: FunctionSpec, mode: str,
                        table: IrreducibleTable,
                        depth: int = LOCAL_DEPTH_DEFAULT) -> TruncatedValue:
    """Product of the constrained local factors over deg P <= gamma.

    The shift constraint enters through k(P) = v_P(h2 - h1); a zero
    difference removes the constraint at every prime.  gamma should be at
    least deg(h2 - h1) so every constrained prime is inside the range.
    """
    _check_mode(mode)
    _require_unit(psi1, psi2)
    if gamma < 0:
        raise MainTermError("gamma must be >= 0")
    q = table.field.p
    if psi1.field.p != q or psi2.field.p != q:
        raise MainTermError("function specs bound to a different field")
    symmetric = psi1.degree_symmetric and psi2.degree_symmetric
    if not symmetric and gamma > table.max_deg:
        raise MainTermError(
            f"gamma={gamma} beyond table degree {table.max_deg} needs "
            "degree-symmetric functions")

    if shifts is None:
        vals: dict[Poly, int] | None = {}
    else:
        vals = shifts.prime_valuations(table)
    acc = _ProductAccumulator()
    for d in range(1, gamma + 1):
        if symmetric:
            base = local_factor(d, None if vals is None else 0,
                                psi1, psi2, mode, depth)
            special = 0
            if vals:
                for P, kP in vals.items():
                    if P.degree == d:
                        w = local_factor(d, kP, psi1, psi2, mode, depth)
                        acc.mul(w.value, w.tail_bound)
                        special += 1
            acc.mul(base.value, base.tail_bound, table.count(d) - special)
        else:
            for P in table.primes(d):
                kP = None if vals is None else vals.get(P, 0)
                w = local_factor(P, kP, psi1, psi2, mode, depth)
                acc.mul(w.value, w.tail_bound)
    return acc.result()


def large_prime_product(gamma: int, n: int | None, psi1: FunctionSpec,
                        psi2: FunctionSpec, mode: str,
                        table: IrreducibleTable,
                        m_max: int = LOCAL_DEPTH_DEFAULT,
                        inf_cutoff: int | None = None,
                        tail_target: float = INF_TAIL_TARGET) -> TruncatedValue:
    """Unconstrained factor product over gamma < deg P <= n (n = None
    means infinity, truncated at a certified cutoff).

    Below the safety threshold gamma the factors could in principle reach
    0; such gammas are accepted only when the functions are identically 1
    past gamma, or when every evaluated factor stays >= 1/4 in modulus.
    """
    _check_mode(mode)
    _require_unit(psi1, psi2)
    q = table.field.p
    spec_pair = (psi1, psi2)
    thr = threshold_gamma(q, mode)
    guard = gamma < thr and not all(
        s.trivial_beyond_degree is not None and s.trivial_beyond_degree <= gamma
        for s in spec_pair)
    symmetric = psi1.degree_symmetric and psi2.degree_symmetric

    def check(inner: complex, d: int) -> None:
        if guard and abs(1 + inner) < 0.25:
            raise ThresholdError(
                f"factor at degree {d} has modulus {abs(1 + inner):.3f} "
                f"< 1/4; use gamma >= {thr}")

    if not symmetric:
        if n is None:
            raise MainTermError(
                "an infinite product over a non-degree-symmetric function "
                "has no tail certificate; evaluate with a finite n instead")
        if n > table.max_deg:
            raise MainTermError("range beyond table for non-degree-symmetric specs")
        acc = _LogProductAccumulator()
        for d in range(gamma + 1, n + 1):
            for P in table.primes(d):
                inner, t = _euler_factor(
                    spec_pair, lambda s, m: s.value_at(P, m), d, q, mode, m_max)
                check(inner, d)
                acc.mul(inner, t)
        return acc.result()

    acc = _LogProductAccumulator()
    if n is not None:
        for d in range(gamma + 1, n + 1):
            inner, t = _euler_factor(
                spec_pair, lambda s, m: s.value_dm(d, m), d, q, mode, m_max)
            check(inner, d)
            acc.mul(inner, t, table.count(d))
        return acc.result()

    # n = infinity: extend the product degree by degree (exact counts come
    # from Moebius inversion past the tabulated range) until the certified
    # remainder r_d = N_d * |factor - 1| admits a geometric closure below
    # the target.  Rules that go identically trivial terminate with a zero
    # remainder instead.
    start = max(gamma, inf_cutoff or 0, table.max_deg)
    rem: float | None = None
    ratios: list[float] = []
    prev_r: float | None = None
    zeros = 0
    d = gamma + 1
    while d <= gamma + _EXTEND_LIMIT:
        inner, t = _euler_factor(
            spec_pair, lambda s, m: s.value_dm(d, m), d, q, mode, m_max)
        check(inner, d)
        acc.mul(inner, t, table.count(d))
        r = (abs(inner) + t) * _count_upper(q, d)
        if r == 0.0:
            zeros += 1
            if zeros >= 3 and d > start:
                rem = 0.0
                break
        else:
            zeros = 0
        if prev_r is not None and prev_r > 0 and r > 0:
            ratios.append(r / prev_r)
        prev_r = r
        if d > start and r > 0 and len(ratios) >= _RATIO_WINDOW:
            rho = max(ratios[-_RATIO_WINDOW:])
            if rho <= _RATIO_CAP:
                closure = r * rho / (1.0 - rho)
                if closure <= tail_target:
                    rem = closure
                    break
        d += 1
    if rem is None:
        raise MainTermError(
            "infinite product remainder does not certify below "
            f"{tail_target:g} within {_EXTEND_LIMIT} degrees past gamma; "
            "the functions do not look close to 1")
    return acc.result(extra_rel=math.expm1(rem))


def main_term(n: int | None, gamma: int | None, shifts: ShiftPair | None,
              psi1: FunctionSpec, psi2: FunctionSpec, mode: str,
              table: IrreducibleTable,
              depth: int = LOCAL_DEPTH_DEFAULT,
              inf_cutoff: int | None = None,
              tail_target: float = INF_TAIL_TARGET) -> TruncatedValue:
    """Predicted normalized limit: constrained small-prime product times
    the unconstrained product up to degree n (or its infinite version)."""
    _check_mode(mode)
    q = table.field.p
    if gamma is None:
        gamma = default_gamma(q, mode, shifts)
    head = small_prime_product(gamma, shifts, psi1, psi2, mode, table, depth)
    bulk = large_prime_product(gamma, n, psi1, psi2, mode, table, depth,
                               inf_cutoff, tail_target)
    return head.times(bulk)


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
