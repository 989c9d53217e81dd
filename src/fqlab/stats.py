"""Distributional layer: empirical laws of shifted additive functions,
their characteristic functions against the predicted limits, and the
classical diagnostics (Turan-Kubilius ratios, sieve statistics,
Brun-Titchmarsh, divisor products).

Everything here is exact where the object is exact (counts, the sieve
statistics as Fractions) and enumeration-based where it is a sample (the
value multisets).  Every scan is a numpy pass over the columns that
correlate reads too (arith.scan over the valuation sieve): the
value multiset is one np.unique, the weight sums one exact sum, the
divisor-product maximum one max.  The progression statistics (Theta, the
Bombieri-Vinogradov sum, Brun-Titchmarsh) count primes per residue class
(sieve.residue_counts, read off the multiples of every modulus) and use
the multiples of each prime modulus (sieve.prime_valuations at the first
power), with no per-prime division.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    AdditiveSpec,
    FunctionSpec,
    exp_additive,
    phi,  # unused here; fqbench's tracer wraps fqlab.stats.phi
    phi_values,
    product_sum,
    scan,
    value_array,
)
from .fieldpoly import Poly, monic_from_index
from .mainterm import ShiftPair, TruncatedValue, main_term
from .sieve import (
    IrreducibleTable,
    TableTooSmallError,
    prime_valuations,
    residue_counts,
    residue_histogram,
    shifted,
)
from .correlate import CorrelationSpec, correlate


class StatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# empirical distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDistribution:
    """Multiset of real values over a finite domain, as a step CDF."""

    values: tuple[float, ...]   # sorted, distinct
    counts: tuple[int, ...]
    domain_size: int

    def __post_init__(self):
        if sum(self.counts) != self.domain_size:
            raise StatsError("multiplicities do not add up to the domain size")

    def cdf(self, x: float) -> float:
        i = bisect.bisect_right(self.values, x)
        return sum(self.counts[:i]) / self.domain_size

    def char_value(self, t: float) -> complex:
        total = 0j
        for v, c in zip(self.values, self.counts):
            total += c * cmath.exp(1j * t * v)
        return total / self.domain_size

    def dump_rows(self):
        return list(zip(self.values, self.counts))


def _additive_values(psi1: FunctionSpec, psi2: FunctionSpec, h1: Poly, h2: Poly,
                     n: int, domain: str, table: IrreducibleTable):
    """Multiset {psi1(f+h1) + psi2(f+h2)} over the domain: its distinct
    values in ascending order, their counts and the domain size."""
    for h in (h1, h2):
        if not h.is_zero and h.degree >= n:
            raise StatsError("shift degree must be < n")
    v1, v2 = scan((psi1, psi2), (h1, h2), n, domain, table)
    x = 0.0 + v1 + v2  # from 0.0, as every additive value starts: float keys
    values, counts = np.unique(x, return_counts=True)
    return values.tolist(), counts.tolist(), len(x)


def empirical_distribution(psi1: FunctionSpec, psi2: FunctionSpec,
                           shifts: ShiftPair, n: int, domain: str,
                           table: IrreducibleTable) -> EmpiricalDistribution:
    """Exact law of psi1(f+h1) + psi2(f+h2) over the chosen domain."""
    values, counts, total = _additive_values(psi1, psi2, shifts.h1, shifts.h2,
                                             n, domain, table)
    return EmpiricalDistribution(tuple(values), tuple(counts), total)


def ks_distance(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> float:
    """Sup-norm distance of the two step CDFs over the merged support."""
    support = sorted(set(d1.values) | set(d2.values))
    best = 0.0
    c1 = c2 = 0
    i1 = i2 = 0
    for x in support:
        while i1 < len(d1.values) and d1.values[i1] <= x:
            c1 += d1.counts[i1]
            i1 += 1
        while i2 < len(d2.values) and d2.values[i2] <= x:
            c2 += d2.counts[i2]
            i2 += 1
        best = max(best, abs(c1 / d1.domain_size - c2 / d2.domain_size))
    return best


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharFunctionGrid:
    """Empirical and/or limiting characteristic function on a t grid."""

    t_values: tuple[float, ...]
    phi_empirical: tuple[complex, ...] | None = None
    phi_limit: tuple[TruncatedValue, ...] | None = None

    @property
    def per_t_error(self) -> tuple[float, ...] | None:
        if self.phi_empirical is None or self.phi_limit is None:
            return None
        return tuple(abs(e - l.value) for e, l
                     in zip(self.phi_empirical, self.phi_limit))


def empirical_charfn(psi1: FunctionSpec, psi2: FunctionSpec, shifts: ShiftPair,
                     n: int, domain: str, t_grid, table: IrreducibleTable,
                     via: str = "distribution") -> CharFunctionGrid:
    """phi_n(t): the normalized sum of exp(i t (psi1(f+h1)+psi2(f+h2))).

    via="correlate" runs one correlation per t with the exponentiated
    multiplicative functions; via="distribution" groups the identical
    additive values first and applies the same exponentials to the
    grouped multiset (one enumeration pass for the whole grid).  The two
    paths agree to floating-point rounding.
    """
    ts = tuple(float(t) for t in t_grid)
    if via == "distribution":
        dist = empirical_distribution(psi1, psi2, shifts, n, domain, table)
        vals = tuple(dist.char_value(t) for t in ts)
    elif via == "correlate":
        vals_l = []
        for t in ts:
            spec = CorrelationSpec(
                table.field, n, domain, (shifts.h1, shifts.h2),
                (exp_additive(psi1, t), exp_additive(psi2, t)))
            vals_l.append(complex(correlate(spec, table).normalized))
        vals = tuple(vals_l)
    else:
        raise StatsError(f"unknown evaluation path {via!r}")
    return CharFunctionGrid(ts, phi_empirical=vals)


def limit_charfn(psi1: FunctionSpec, psi2: FunctionSpec, shifts: ShiftPair,
                 t_grid, mode: str, table: IrreducibleTable) -> CharFunctionGrid:
    """phi(t): the predicted limiting characteristic function, evaluated
    per t as the main term of the exponentiated additive functions: the
    infinite-degree product, stopped where the decay bound (|t| C, a) of
    exp_additive puts the remainder below mainterm.INF_TAIL_TARGET
    (1e-12); each local factor is summed to double precision.  At every
    t != 0, an additive function with neither a decay bound (a > 1) nor a
    trivial degree, such as omega, raises MainTermError before any degree
    is walked."""
    out = []
    for t in t_grid:
        e1 = exp_additive(psi1, float(t))
        e2 = exp_additive(psi2, float(t))
        out.append(main_term(None, shifts, e1, e2, mode, table))
    return CharFunctionGrid(tuple(float(t) for t in t_grid),
                            phi_limit=tuple(out))


def charfn_comparison(psi1: FunctionSpec, psi2: FunctionSpec,
                      shifts: ShiftPair, n: int, domain: str, t_grid,
                      table: IrreducibleTable) -> CharFunctionGrid:
    emp = empirical_charfn(psi1, psi2, shifts, n, domain, t_grid, table)
    lim = limit_charfn(psi1, psi2, shifts, t_grid, domain, table)
    return CharFunctionGrid(emp.t_values, emp.phi_empirical, lim.phi_limit)


# ---------------------------------------------------------------------------
# Turan-Kubilius ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TKReport:
    domain: str
    n: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0
        return self.lhs / self.rhs


def _as_rule(psi) -> "callable":
    return psi.rule_dm if hasattr(psi, "rule_dm") else psi


def tk_ratio(psi, h: Poly, n: int, domain: str,
             table: IrreducibleTable) -> TKReport:
    """Shifted Turan-Kubilius statistic for a prime-power rule psi(P^m).

    monic domain (variance form):
      lhs = sum_f |sum_{P^m || f+h} psi - E_n|^2,
      E_n = sum_{m deg P <= n} psi(P^m) q^{-m deg P} (1 - q^{-deg P}),
      rhs = q^n sum_{m deg P <= n} |psi(P^m)|^2 q^{-m deg P}.

    prime domain (first-moment form):
      lhs = sum_P |sum_{Q^k || P+h} psi - A_n|,
      A_n = sum_{k deg Q <= n} psi(Q^k)/phi(Q^k) (1 - q^{-deg Q}),
      rhs = |P_n| * sqrt(sum |psi(Q^k)|^2 / phi(Q^k)).

    The content of the inequality is that lhs/rhs stays bounded as n grows.
    """
    rule = _as_rule(psi)
    q = table.field.p
    (values,) = scan([AdditiveSpec("tk", table.field, rule, True, None, None)],
                     [h], n, domain, table)
    center = 0j
    if domain == "monic":
        rhs = 0.0
        for d in range(1, n + 1):
            nd = table.count(d)
            x = float(q) ** (-d)
            w = x
            for m in range(1, n // d + 1):
                v = complex(rule(d, m))
                center += nd * v * w * (1.0 - x)
                rhs += nd * abs(v) ** 2 * w
                w *= x
        rhs *= float(q) ** n
    else:
        b2 = 0.0
        for d in range(1, n + 1):
            nd = table.count(d)
            x = float(q) ** (-d)
            for k in range(1, n // d + 1):
                v = complex(rule(d, k))
                ph = q ** (k * d) - q ** ((k - 1) * d)
                center += nd * v / ph * (1.0 - x)
                b2 += nd * abs(v) ** 2 / ph
        rhs = table.count(n) * math.sqrt(b2)

    dev = np.abs(values - center).astype(np.float64)
    if domain == "monic":  # a deviation takes few values: square each once
        distinct, inverse = np.unique(dev, return_inverse=True)
        dev = _POW(distinct, 2).astype(np.float64)[inverse]
    # left to right, not fsum: tk artifacts pin the rounding of this order
    lhs = float(np.cumsum(dev)[-1])
    return TKReport(domain, n, lhs, rhs)


# x ** 2 through the C library's pow, as Python squares a float; numpy's
# x * x differs from it in the last bit now and then
_POW = np.frompyfunc(pow, 2, 1)


# ---------------------------------------------------------------------------
# sieve-flavoured diagnostics, all exact (Fractions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveDiagnostics:
    n: int
    theta: int                 # sum of phi(Q) * pi^2 over large prime moduli
    theta_ratio: Fraction      # theta / |P_n|^2
    bv_sum: Fraction           # Bombieri-Vinogradov style max-deviation sum
    h_sequence: tuple[Fraction, ...]   # H(1..n)
    divprod_max: Fraction      # max over f of prod_{P | f} (1 + 1/|P|)


def squarefree_weight_sum(n: int, table: IrreducibleTable) -> Fraction:
    """H(n) = sum over monic f of degree n of mu^2(f) 3^omega(f) / q^n."""
    q = table.field.p
    weight = FunctionSpec("mu^2 3^omega", table.field,
                          lambda d, m: 3 if m == 1 else 0,
                          True, False, True, None, 2)
    return Fraction(product_sum([value_array(weight, table, n)], True),
                    q**n)


def sieve_diagnostics(n: int, h: Poly, t: float,
                      table: IrreducibleTable) -> SieveDiagnostics:
    """Classical sieve statistics at degree n with a shift h of degree < n.

    theta sums phi(Q) pi^2(n; Q, -h) over prime moduli of degree in
    (n/2, n].  The classes with gcd(-h, Q) != 1 count nothing: Q | P + h
    and Q | h give Q | P with deg Q <= deg h < n, impossible for a prime P.
    bv_sum adds, over every modulus M of degree < n/2 - t log_q n, the
    worst deviation |pi - q^n/(n phi(M))| across invertible residues:
    the level Q <= q^{n/2}/n^t, which needs t >= 0 (a negative t is
    refused).
    """
    q = table.field.p
    field = table.field
    if not t >= 0:
        raise StatsError(f"t must be >= 0, got {t}")
    if not h.is_zero and h.degree >= n:
        raise StatsError("shift degree must be < n")
    if table.max_deg < n:
        raise TableTooSmallError("diagnostics need prime listings to degree n")

    # Theta: P + h is monic of degree n, so Q | P + h means P = Q g - h
    # for a monic g of degree n - deg Q: the prime mask shifted by -h once
    # (refusing a shift over another field, zero too), read at each Q g
    is_prime = np.zeros(q**n, dtype=bool)
    is_prime[table.prime_indices(n)] = True
    shifted_prime = shifted(is_prime, field, n, -h)
    theta = 0
    if not h.is_zero:  # -h = 0 is invertible mod nothing: empty sum
        large = dict.fromkeys(range(n // 2 + 1, n + 1), (1, 1))
        for dq, idx, _ in prime_valuations(table, n, large):
            cnt = np.count_nonzero(shifted_prime[idx], axis=1)
            theta += (q**dq - 1) * sum(c * c for c in cnt.tolist())  # phi(Q)
    npq = table.count(n)
    theta_ratio = Fraction(theta, npq * npq)

    # Bombieri-Vinogradov sum: |c - target| is largest at the smallest or
    # the largest nonempty class, or at an empty invertible class (count 0)
    bound = n / 2 - t * math.log(n, q)
    bv = Fraction(0)
    d = 1
    while d < bound:
        totients = phi_values(table, d)
        for moduli, counts in residue_counts(table, n, d):
            filled = counts > 0
            high = counts.max(axis=1)
            low = np.where(filled, counts, high[:, None]).min(axis=1)
            for lo, hi, nonempty, phim in zip(
                    low.tolist(), high.tolist(), filled.sum(axis=1).tolist(),
                    totients[moduli].tolist()):
                target = Fraction(q**n, n * phim)
                worst = max(abs(lo - target), abs(hi - target))
                if phim > nonempty:
                    worst = max(worst, target)  # some invertible class is empty
                bv += worst
        d += 1

    h_seq = tuple(squarefree_weight_sum(m, table) for m in range(1, n + 1))

    # prod_{P | f} (1 + 1/|P|) = num(f) / q^D(f), with num(f) the product
    # of |P| + 1 and D(f) the sum of deg P over P | f: the largest num of
    # each D, then at most n + 1 exact fractions
    num = value_array(FunctionSpec("divisor product numerator", field,
                                   lambda d, m: q**d + 1,
                                   True, False, True, None, 1), table, n)
    rad = value_array(AdditiveSpec("radical degree", field, lambda d, m: d,
                                   True, None, 1), table, n)
    top = np.zeros(n + 1, dtype=np.int64)
    np.maximum.at(top, rad.astype(np.int64), num)
    best = max(Fraction(v, q**D) for D, v in enumerate(top.tolist()) if v)

    return SieveDiagnostics(n, theta, theta_ratio, bv, h_seq, best)


def brun_titchmarsh_violations(n_max: int, table: IrreducibleTable) -> list:
    """Exhaustively test pi(n; M, B) <= 2 q^n / (phi(M) (n - deg M + 1))
    for every modulus of degree < n <= n_max and every invertible residue.
    Returns the list of violating (n, M, B-key) triples in the order of
    n, deg M, the index of M and the first prime in each class;
    Brun-Titchmarsh is a theorem, so anything but an empty list is a bug."""
    q = table.field.p
    field = table.field
    bad = []
    totients = {d: phi_values(table, d) for d in range(1, n_max)}
    for n in range(2, n_max + 1):
        for d in range(1, n):
            for moduli, counts in residue_counts(table, n, d):
                # only prime residue classes appear; all are invertible
                # since deg P = n > deg M
                scale = totients[d][moduli] * (n - d + 1)
                for b in np.nonzero(counts.max(axis=1) * scale > 2 * q**n)[0]:
                    M = monic_from_index(field, d, int(moduli[b]))
                    bad += [(n, M, key) for key, cnt
                            in residue_histogram(n, M, table).items()
                            if cnt * int(scale[b]) > 2 * q**n]
    return bad
