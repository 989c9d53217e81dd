"""Reference code the tests compare fqlab against: brute-force and
closed-form twins of what the library computes another way, the
pretentiousness metrics and trend scan that left the library for want of
a caller (kept here with their tests), correlate_at, a range of one
degree as the CLI steps through a range, char_value and
limit_charfn_per_t, the per-t loops the characteristic-function grid
was computed by, and constant_sign, a spec without degree symmetry.
Nothing in the library calls them."""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fqlab import (
    CharFunctionGrid,
    CorrelationReport,
    CorrelationSpec,
    EmpiricalDistribution,
    EngineError,
    Factorization,
    FunctionSpec,
    IrreducibleTable,
    MainTermError,
    Poly,
    PolyError,
    ShiftPair,
    SpecError,
    TruncatedValue,
    builtin,
    correlate,
    exp_additive,
    main_term,
)
from fqlab.arith import scan
from fqlab.correlate import main_term_pair
from fqlab.fieldpoly import FieldSpec, monic_from_index, poly_from_encoding
from fqlab.mainterm import _check_mode, _factor, _require_unit
from fqlab.sieve import _kernel_rows, _residues, check_enumeration


def enumerate_monic(field: FieldSpec, n: int) -> list[Poly]:
    """All monic polynomials of degree n in fixed index order."""
    return [monic_from_index(field, n, i) for i in range(field.p ** n)]


def eval_on(fact: Factorization, spec: FunctionSpec):
    """Value at a monic polynomial given its factorization: the product of
    its prime-power values, or their sum if spec is additive (an empty
    factorization gives 1, or 0); the per-factorization twin of
    arith.value_arrays."""
    values = (spec.value_at(P, m) for P, m in fact.factors)
    return sum(values) if spec.additive else math.prod(values)


def correlate_at(spec: CorrelationSpec,
                 table: IrreducibleTable) -> CorrelationReport:
    """spec's report from a scan of the one degree [spec.n] and, where
    main_term_pair attaches one, the main term at [spec.n]: the CLI's
    range step over a range of one degree."""
    [columns] = scan(spec.functions, spec.shifts, [spec.n], spec.domain, table)
    pair = main_term_pair(spec.functions, spec.shifts)
    main = None if pair is None else main_term(
        [spec.n], pair, *spec.functions, spec.domain, table)[0]
    return correlate(spec, columns, main)


def constant_sign(field: FieldSpec) -> FunctionSpec:
    """A sign on the constant term of each prime, unit bounded and not
    degree-symmetric: its value array and its main term go prime by
    prime."""
    return FunctionSpec(
        "sign", field, None, unit_bounded=True, integer_valued=True,
        trivial_beyond_degree=None, power_settle=2,
        rule_poly=lambda P, m: (-1 if P.coeffs[0] == 1 else 1) if m == 1 else 0)


def truncated_times(a: TruncatedValue, b: TruncatedValue) -> TruncatedValue:
    """The product of two truncated values, with the bound that covers
    every pair of values within their tails."""
    tail = (abs(a.value) * b.tail_bound + abs(b.value) * a.tail_bound
            + a.tail_bound * b.tail_bound)
    return TruncatedValue(a.value * b.value, tail)


def charfn_by_correlate(psi1: FunctionSpec, psi2: FunctionSpec,
                        shifts: ShiftPair, n: int, domain: str, t_grid,
                        table: IrreducibleTable) -> CharFunctionGrid:
    """Twin of stats.empirical_charfn: one correlation per t of the
    exponentiated multiplicative functions exp(i t psi_j)."""
    ts = tuple(float(t) for t in t_grid)
    vals = tuple(complex(correlate_at(CorrelationSpec(
        table.field, n, domain, (shifts.h1, shifts.h2),
        (exp_additive(psi1, t), exp_additive(psi2, t))), table).normalized)
        for t in ts)
    return CharFunctionGrid(ts, phi_empirical=vals)


def char_value(dist: EmpiricalDistribution, t: float) -> complex:
    """Twin of stats.empirical_charfn at one t: the normalized sum of
    c exp(i t v) over the distinct values v and their counts c, one
    value at a time."""
    total = 0j
    for v, c in zip(dist.values, dist.counts):
        total += c * cmath.exp(1j * t * v)
    return total / dist.domain_size


def limit_charfn_per_t(psi1: FunctionSpec, psi2: FunctionSpec,
                       shifts: ShiftPair, t_grid, mode: str,
                       table: IrreducibleTable) -> CharFunctionGrid:
    """Twin of stats.limit_charfn: one infinite main-term walk per grid
    point, with no use of phi(-t) = conj phi(t)."""
    ts = tuple(float(t) for t in t_grid)
    out = []
    for t in ts:
        out += main_term([None], shifts, exp_additive(psi1, t),
                         exp_additive(psi2, t), mode, table)
    return CharFunctionGrid(ts, phi_limit=tuple(out))


def liouville_local_closed(d: int, k: int, q: int) -> Fraction:
    """Closed form of the truncated-Liouville local factor at a prime of
    degree d with shift valuation k: 1 - 4/(q^{k d} (q^d + 1))."""
    if d < 1 or k < 0:
        raise MainTermError("need d >= 1 and k >= 0")
    return 1 - Fraction(4, q ** (k * d) * (q**d + 1))


def local_factor(P, k, psi1, psi2, mode: str) -> TruncatedValue:
    """The local factor W_P of mainterm._factor, at a monic irreducible
    Poly or a bare degree (degree-symmetric functions only); k is the
    shift valuation, None meaning unconstrained."""
    _check_mode(mode)
    _require_unit(psi1, psi2)
    d = P.degree if isinstance(P, Poly) else int(P)
    if d < 1:
        raise MainTermError("local factors live at primes of degree >= 1")
    dev, tail = _factor(psi1, psi2, P if isinstance(P, Poly) else d, k, mode)
    return TruncatedValue(1 + dev, tail)


def crt_count_enumerated(g1: Poly, g2: Poly, h1: Poly, h2: Poly, n: int) -> int:
    """Brute-force twin of crt_count (O(q^n) time and memory, refused past
    the cell budget like every scan): reduces every monic f of degree n
    mod g1 and mod g2 (read off the multiples of each modulus,
    sieve._residues) and counts those with f = -h1 mod g1 and f = -h2 mod
    g2.  Refuses what crt_count refuses."""
    for g in (g1, g2):
        if g.is_zero or not g.is_monic:
            raise EngineError("moduli must be monic nonzero")
    if any(h.field != g1.field for h in (g2, h1, h2)):
        raise PolyError("operands live in different fields")
    p = g1.field.p
    check_enumeration(p, n)
    idx = np.arange(p**n, dtype=np.int64)
    hit = np.ones(p**n, dtype=bool)
    for g, h in ((g1, h1), (g2, h2)):
        if g.degree:  # every f is 0 mod a constant
            rows = _kernel_rows(p, n, np.array([g.coeffs], dtype=np.int64))
            hit &= _residues(p, n, g.degree, idx, rows)[0] == ((-h) % g).encode()
    return int(np.count_nonzero(hit))


def residue_average(psi1, psi2, h1: Poly, h2: Poly, M: Poly) -> Fraction:
    """The exact average of psi1(r + h1) psi2(r + h2) over all residues r
    mod M = prod_{deg P <= y} P^s, for specs trivial beyond degree y that
    settle by the power s: there psi(f) depends only on the valuations
    min(v_P(f), s), that is on f mod M, so it is the normalized sum over
    any degree n >= deg M.

    M is split into its prime powers by trial division over the monic
    polynomials of rising degree.  By the Chinese remainder theorem the
    average is the product over P^s || M of the average over the residues
    u mod P^s, where u = 0 has valuation s."""
    if not M.is_monic:
        raise ValueError("M must be monic")
    field = M.field
    powers, rest = [], M
    d = 1
    while rest.degree >= d:  # a factor of the lowest degree left is prime
        for P in enumerate_monic(field, d):
            s = 0
            while (rest % P).is_zero:
                rest, s = rest // P, s + 1
            if s:
                powers.append((P, s))
        d += 1

    def value(psi, P, u, s):
        m = 0
        while m < s and (u % P).is_zero:
            u, m = u // P, m + 1
        return Fraction(psi.value_at(P, m))

    out = Fraction(1)
    for P, s in powers:
        Q = P**s
        size = field.p ** Q.degree
        total = Fraction(0)
        for e in range(size):
            r = poly_from_encoding(field, e)
            total += (value(psi1, P, (r + h1) % Q, s)
                      * value(psi2, P, (r + h2) % Q, s))
        out *= total / size
    return out


# ---------------------------------------------------------------------------
# pretentiousness metrics and trend scans
# ---------------------------------------------------------------------------

def distance(psi1: FunctionSpec, psi2: FunctionSpec, m: int, n: int,
             table: IrreducibleTable) -> float:
    """Distance between two unit-bounded multiplicative functions over the
    degree window [m, n]:

        D^2 = sum over primes with m <= deg P <= n of
              (1 - Re(psi1(P) * conj(psi2(P)))) / q^{deg P}

    Returns D (the square root).  With two degree-symmetric specs the
    per-degree term is the count N_d times the common value, which also
    lets the window extend past the tabulated listings.
    """
    if not (psi1.unit_bounded and psi2.unit_bounded):
        raise SpecError("distance requires unit-bounded functions")
    if m > n:
        raise SpecError("empty degree window")
    q = table.field.p
    total = 0.0
    if psi1.degree_symmetric and psi2.degree_symmetric:
        for d in range(m, n + 1):
            v = complex(psi1.value_dm(d, 1)) * complex(psi2.value_dm(d, 1)).conjugate()
            total += table.count(d) * (1.0 - v.real) / q**d
    else:
        if n > table.max_deg:
            raise SpecError("window beyond table for non-degree-symmetric specs")
        for d in range(m, n + 1):
            w = q ** (-d)
            for P in table.primes(d):
                v = complex(psi1.value_at(P, 1)) * complex(psi2.value_at(P, 1)).conjugate()
                total += (1.0 - v.real) * w
    return math.sqrt(max(total, 0.0))


def closeness_partial_sums(psi: FunctionSpec, N: int,
                           table: IrreducibleTable) -> list[complex]:
    """Partial sums S_D = sum_{deg P <= D} (psi(P) - 1)/q^{deg P} for
    D = 1..N; the sequence converging is the closeness-to-1 hypothesis."""
    q = table.field.p
    sums: list[complex] = []
    run = 0j
    if psi.degree_symmetric:
        for d in range(1, N + 1):
            run += table.count(d) * (complex(psi.value_dm(d, 1)) - 1) / q**d
            sums.append(run)
    else:
        if N > table.max_deg:
            raise SpecError("window beyond table for non-degree-symmetric spec")
        for d in range(1, N + 1):
            for P in table.primes(d):
                run += (complex(psi.value_at(P, 1)) - 1) / q**d
            sums.append(run)
    return sums


def mertens_sum(n: int, table: IrreducibleTable) -> float:
    """sum_{deg P <= n} q^{-deg P}; grows like log n plus a constant."""
    q = table.field.p
    return sum(table.count(d) * q ** (-d) for d in range(1, n + 1))


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


@dataclass(frozen=True)
class ScanPoint:
    n: int
    report: CorrelationReport
    bound_overlay: float | None


def deviation_scan(spec: CorrelationSpec, n_range, table: IrreducibleTable,
                   overlay_alpha: float | None = 0.75,
                   overlay_c: float = 1.0,
                   overlay_r: int | None = None) -> list[ScanPoint]:
    """Run the same experiment across a range of degrees and pair every
    measured deviation with the theoretical bound shape at that degree."""
    points = []
    for n in n_range:
        s = CorrelationSpec(spec.field, n, spec.domain, spec.shifts,
                            spec.functions)
        rep = correlate_at(s, table)
        overlay = None
        if overlay_alpha is not None and len(spec.functions) == 2 and \
                all(p.unit_bounded and p.degree_symmetric for p in spec.functions):
            r = overlay_r
            if r is None:  # deg(h2 - h1), raised until q^r >= 9 (17 prime)
                delta = spec.shifts[1] - spec.shifts[0]
                r = 0 if delta.is_zero else delta.degree
                while spec.field.p ** r < (9 if spec.domain == "monic" else 17):
                    r += 1
            r = max(1, min(r, n))
            d1 = distance(spec.functions[0], builtin("one", spec.field), r, n, table)
            d2 = distance(spec.functions[1], builtin("one", spec.field), r, n, table)
            overlay = error_bound_shape(spec.domain, r, n, overlay_alpha,
                                        spec.field.p, c=overlay_c,
                                        dist1=d1, dist2=d2)
        points.append(ScanPoint(n, rep, overlay))
    return points
