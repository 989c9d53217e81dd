"""Distributional layer: empirical laws of shifted additive functions,
their characteristic functions against the predicted limits, and the
classical diagnostics (Turan-Kubilius ratios, sieve statistics,
Brun-Titchmarsh, divisor products).

Everything here is exact where the object is exact (counts, the sieve
statistics as Fractions) and enumeration-based where it is a sample (the
value multisets).  Every scan is a numpy pass over the columns that
correlate reads too (arith.scan over the valuation sieve): the value
multiset is one np.unique of a one-degree scan, whose characteristic
function is one array pass over the whole t grid (in blocks of
SIEVE_BLOCK_CELLS cells); the limit walks one main term per pair +-t, as
the additive values are real and phi(-t) = conj phi(t), so it takes
additive specs only.  tk_ratio reads the column its caller scanned (the
tk command scans its whole range of degrees at once).  H(m) and the
divisor-product maximum read the prime counts N_d alone: a coefficient
of prod_d (1 + 3u^d)^{N_d} and a knapsack over degrees.  The progression
statistics use no per-prime division.  The Bombieri-Vinogradov sum and
Brun-Titchmarsh count primes per residue class with
sieve.residue_counts(table, degrees, d), read off one listing of the
multiples of every modulus of degree d, which for Brun-Titchmarsh serves
every n; the totients of all their modulus degrees come from one
arith.phi_values window.  Theta marks the shifted primes P + h once in a
mask over the monic polynomials of degree n and counts the marks at the
multiples of each prime modulus (sieve.prime_valuations at the first
power).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    FunctionSpec,
    exp_additive,
    phi,  # unused here; fqbench's tracer wraps fqlab.stats.phi
    phi_values,
    scan,
)
from .fieldpoly import Poly, monic_from_index
from .mainterm import ShiftPair, TruncatedValue, main_term
from .sieve import (
    SIEVE_BLOCK_CELLS,
    IrreducibleTable,
    SieveError,
    TableTooSmallError,
    prime_valuations,
    residue_counts,
    residue_histogram,
    shifted,
)


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

    def dump_rows(self):
        return list(zip(self.values, self.counts))


def empirical_distribution(psi1: FunctionSpec, psi2: FunctionSpec,
                           shifts: ShiftPair, n: int, domain: str,
                           table: IrreducibleTable) -> EmpiricalDistribution:
    """Exact law of psi1(f+h1) + psi2(f+h2) over the chosen domain."""
    for h in (shifts.h1, shifts.h2):
        if not h.is_zero and h.degree >= n:
            raise StatsError("shift degree must be < n")
    [(v1, v2)] = scan((psi1, psi2), (shifts.h1, shifts.h2), [n], domain, table)
    x = 0.0 + v1 + v2  # from 0.0, as every additive value starts: float keys
    values, counts = np.unique(x, return_counts=True)
    return EmpiricalDistribution(tuple(values.tolist()),
                                 tuple(counts.tolist()), len(x))


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
                     n: int, domain: str, t_grid,
                     table: IrreducibleTable) -> CharFunctionGrid:
    """phi_n(t): the normalized sum of exp(i t (psi1(f+h1)+psi2(f+h2))),
    from the grouped multiset of the additive values (one enumeration
    pass for the whole grid), as one array pass: the rows of
    exp(i outer(ts, values)) * counts summed and divided by the domain
    size, in blocks of t of at most SIEVE_BLOCK_CELLS cells of (points x
    distinct values).  A t whose products t * value are not finite floats
    is refused with StatsError."""
    ts = tuple(float(t) for t in t_grid)
    dist = empirical_distribution(psi1, psi2, shifts, n, domain, table)
    values = np.array(dist.values)
    counts = np.array(dist.counts, dtype=np.float64)
    rows = max(1, SIEVE_BLOCK_CELLS // len(values))
    out = []
    for i in range(0, len(ts), rows):
        block = np.array(ts[i:i + rows])
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.multiply.outer(block, values)
        finite = np.isfinite(phase).all(axis=1)
        if not finite.all():
            t = float(block[np.argmin(finite)])
            raise StatsError(f"t = {t!r} times a value of {psi1.name} + "
                             f"{psi2.name} is not a finite float")
        # numpy's pairwise sum, not a BLAS product, whose kernel (and so
        # the last bit) depends on the CPU
        terms = np.exp(1j * phase) * counts
        out += (terms.sum(axis=1) / dist.domain_size).tolist()
    return CharFunctionGrid(ts, tuple(out))


def limit_charfn(psi1: FunctionSpec, psi2: FunctionSpec, shifts: ShiftPair,
                 t_grid, mode: str, table: IrreducibleTable) -> CharFunctionGrid:
    """phi(t): the predicted limiting characteristic function, evaluated
    per t as the main term of the exponentiated additive functions: the
    infinite-degree product, stopped where the decay bound (|t| C, a) of
    exp_additive puts the remainder below mainterm.INF_TAIL_TARGET
    (1e-12); each local factor is summed to double precision.  At every
    t != 0, an additive function with neither a decay bound (a > 1) nor a
    trivial degree, such as omega, raises MainTermError before any degree
    is walked.

    The additive values are real, so phi(-t) = conj phi(t): each |t| is
    walked once, at the sign that comes first in the grid (so refusals
    come in grid order), and a later -t (or t again) reads that walk,
    conjugated for -t with the same tail bound.  A spec that is not
    additive is refused with StatsError."""
    for psi in (psi1, psi2):
        if not psi.additive:
            raise StatsError(f"limit_charfn takes additive specs, not {psi.name}")
    ts = tuple(float(t) for t in t_grid)
    phi: dict[float, TruncatedValue] = {}
    for t in ts:
        if t in phi:
            continue
        if -t in phi:
            phi[t] = TruncatedValue(phi[-t].value.conjugate(), phi[-t].tail_bound)
        else:
            e1 = exp_additive(psi1, t)
            e2 = exp_additive(psi2, t)
            [phi[t]] = main_term([None], shifts, e1, e2, mode, table)
    return CharFunctionGrid(ts, phi_limit=tuple(phi[t] for t in ts))


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


def tk_ratio(psi: FunctionSpec, values: np.ndarray, n: int, domain: str,
             table: IrreducibleTable) -> TKReport:
    """Shifted Turan-Kubilius statistic for an additive spec psi with a
    degree rule psi(P^m) = rule_dm(deg P, m), given its column values =
    psi(f + h) over the domain at degree n (its degree's column of an
    arith.scan, which lists a whole range of degrees once); a
    multiplicative spec and a rule_poly one are refused.

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
    if not psi.additive or not psi.degree_symmetric:
        raise StatsError("tk_ratio takes an additive spec with a degree rule, "
                         f"not {psi.name}")
    rule = psi.rule_dm
    q = table.field.p
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
    """H(n) = sum over monic f of degree n of mu^2(f) 3^omega(f) / q^n,
    where q^n H(n) = [u^n] prod_{d <= n} (1 + 3u^d)^{N_d}: read off the
    prime counts, so n may pass the table's degree."""
    if n < 0:
        raise SieveError(f"degree must be >= 0, got {n}")
    coeffs = [1] + [0] * n
    for d in range(1, n + 1):
        nd = table.count(d)
        for m in range(n, d - 1, -1):  # downward: coeffs[< m] lack degree d
            coeffs[m] += sum(math.comb(nd, j) * 3**j * coeffs[m - j * d]
                             for j in range(1, m // d + 1))
    return Fraction(coeffs[n], table.field.p ** n)


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

    # Theta: P + h is monic of degree n, so Q | P + h means that Q g =
    # P + h for a monic g of degree n - deg Q: the P + h (the identity
    # array read at the primes shifted by h) are marked once, then
    # counted at each Q g
    hit = np.zeros(q**n, dtype=bool)
    hit[shifted(np.arange(q**n), field, n, h, table.prime_indices(n))] = True
    theta = 0
    if not h.is_zero:  # -h = 0 is invertible mod nothing: empty sum
        large = dict.fromkeys(range(n // 2 + 1, n + 1), (1, 1, n))
        for dq, idx, _ in prime_valuations(table, [n], large):
            cnt = np.count_nonzero(hit[idx], axis=1)
            theta += (q**dq - 1) * sum(c * c for c in cnt.tolist())  # phi(Q)
    npq = table.count(n)
    theta_ratio = Fraction(theta, npq * npq)

    # Bombieri-Vinogradov sum: |c - target| is largest at the smallest or
    # the largest nonempty class, or at an empty invertible class (count 0)
    bound = n / 2 - t * math.log(n, q)
    bv = Fraction(0)
    degrees = range(1, math.ceil(bound) if bound > 1 else 1)  # every d < bound
    for d, totients in zip(degrees, phi_values(table, degrees)):
        for _, moduli, counts in residue_counts(table, [n], d):
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

    h_seq = tuple(squarefree_weight_sum(m, table) for m in range(1, n + 1))

    # the divisor-product maximum as a bounded knapsack: best[b] is q^n
    # times the largest prod (1 + q^-d) over at most N_d distinct primes
    # of each degree d, of total degree <= b; a pass adds one more prime.
    # A best set holds a degree-1 prime (else trading one of degree e >= 2
    # for an unused one raises the product and lowers the degree), so its
    # powers fill any f of degree n: total degree <= n is the one bound
    best = [q**n] * (n + 1)
    for d in range(1, n + 1):
        for _ in range(min(table.count(d), n // d)):
            for b in range(n, d - 1, -1):
                best[b] = max(best[b], best[b - d] // q**d * (q**d + 1))

    return SieveDiagnostics(n, theta, theta_ratio, bv, h_seq,
                            Fraction(best[n], q**n))


def _bt_breakable(q: int, n: int, d: int, top_phi: int) -> bool:
    """Whether a listing of distinct monic polynomials of degree n can
    break 2 q^n / (phi(M) (n - d + 1)) in some class of some M of degree
    d with phi(M) <= top_phi: a class mod M holds q^(n - d) of them."""
    return q ** (n - d) * top_phi * (n - d + 1) > 2 * q**n


def brun_titchmarsh_violations(n_max: int, table: IrreducibleTable) -> list:
    """Exhaustively test pi(n; M, B) <= 2 q^n / (phi(M) (n - deg M + 1))
    for every modulus of degree < n <= n_max and every invertible residue.
    Returns the list of violating (n, M, B-key) triples in the order of
    n, deg M, the index of M and the first prime in each class;
    Brun-Titchmarsh is a theorem, so anything but an empty list is a bug.
    A table below degree n_max is refused before anything is computed.

    One listing of the multiples of every modulus of a degree d serves
    every n (sieve.residue_counts).  The pairs (n, d) where no
    count can break the bound are skipped (_bt_breakable, with the largest
    phi(M) of degree d, q^d - 1, an irreducible's): a build or a checked
    load lists distinct primes, and a class mod M holds q^(n - d) monic
    polynomials of degree n.  That skips every d = n - 1, and (3, 1) and
    (4, 1) at q = 2, (3, 1) at q = 3; the totients (arith.phi_values) are
    listed only for the degrees d with a pair left.
    """
    q = table.field.p
    field = table.field
    if table.max_deg < n_max:
        raise TableTooSmallError(
            f"Brun-Titchmarsh to n_max = {n_max} needs primes to degree "
            f"{n_max}, table has {table.max_deg}")
    if n_max < 2:  # no modulus degree below n_max
        return []
    pairs = {d: [n for n in range(d + 1, n_max + 1)
                 if _bt_breakable(q, n, d, q**d - 1)] for d in range(1, n_max)}
    bad, degrees = [], [d for d, ns in pairs.items() if ns]
    for d, totients in zip(degrees, phi_values(table, degrees)):
        for n, moduli, counts in residue_counts(table, pairs[d], d):
            # only prime residue classes appear; all are invertible since
            # deg P = n > deg M
            scale = totients[moduli] * (n - d + 1)
            for b in np.nonzero(counts.max(axis=1) * scale > 2 * q**n)[0]:
                M = monic_from_index(field, d, int(moduli[b]))
                bad += [(n, M, key) for key, cnt
                        in residue_histogram(n, M, table).items()
                        if cnt * int(scale[b]) > 2 * q**n]
    bad.sort(key=lambda v: v[0])  # stable: deg M already ascends within n
    return bad
