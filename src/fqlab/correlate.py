"""Exact correlation sums over all monic (or all irreducible) polynomials.

correlate() evaluates sum over the domain of prod_i psi_i(f + h_i) by
exhaustive enumeration on the evaluation engine that the stats module
shares: arith.scan builds one value array psi(f) over every monic f of
degree n with the valuation sieve (arith.value_array over
sieve.prime_valuations), reads it at f + h for each shift
(sieve.shifted) and gathers it at the domain.  Integer-valued function
sets sum exactly; everything else is summed correctly rounded
(math.fsum), so no value depends on the order of summation.

Each value array stops at the degree past which its function is
identically 1 (trivial_beyond_degree): the primes left out contribute an
exact factor of 1.  Where a factor of 1 changes no bit (integer and
float64 products), it also lists only the multiples of the first power
P^k whose value is not 1 (the squares, for kfree:2), counts valuations
only up to the power where the value settles, and keeps no remaining
degree when every prime above n/2 is 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arith import FunctionSpec, product_sum, scan
from .fieldpoly import (
    FieldSpec,
    Poly,
    PolyError,
    ext_gcd,
    format_poly,
    poly_gcd_lcm,
)
from .mainterm import (
    ShiftPair,
    TruncatedValue,
    error_bound_shape,
    main_term,
)
from .sieve import (
    IrreducibleTable,
    _kernel_rows,
    _residues,
    check_enumeration,
)
from . import arith


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class CorrelationSpec:
    """One correlation experiment.

    shifts and functions are parallel lists (k-point sums allowed; main
    terms only attach for k = 2).  Shifts may deliberately coincide; each
    must have degree < n.  The main term has no knob: each local factor
    is summed to double precision.
    """

    field: FieldSpec
    n: int
    domain: str  # "monic" | "prime"
    shifts: tuple[Poly, ...]
    functions: tuple[FunctionSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(self.shifts))
        object.__setattr__(self, "functions", tuple(self.functions))
        if self.domain not in ("monic", "prime"):
            raise EngineError(f"domain must be monic or prime, got {self.domain!r}")
        if len(self.shifts) != len(self.functions) or not self.shifts:
            raise EngineError("shifts and functions must pair up, at least one each")
        if self.n < 1:
            raise EngineError("n must be >= 1")
        for h in self.shifts:
            if h.field != self.field:
                raise EngineError("shift in a different field")
            if not h.is_zero and h.degree >= self.n:
                raise EngineError(f"shift {format_poly(h)} has degree >= n={self.n}")
        for psi in self.functions:
            if psi.field != self.field:
                raise EngineError(f"function {psi.name} bound to a different field")
            if psi.additive:
                raise EngineError(f"function {psi.name} is additive; correlate "
                                  "takes multiplicative ones (see exp_additive)")


@dataclass(frozen=True)
class CorrelationReport:
    q: int
    n: int
    domain: str
    function_names: tuple[str, ...]
    shift_texts: tuple[str, ...]
    raw_sum: complex | int
    domain_size: int
    normalized: complex
    main: TruncatedValue | None
    deviation: float | None
    seconds: float

    @property
    def integer_exact(self) -> bool:
        return isinstance(self.raw_sum, int)


def main_term_pair(functions, shifts) -> ShiftPair | None:
    """The shift pair whose main term correlate attaches, None if it
    attaches none: it does for two functions, both unit bounded, at two
    shifts."""
    if len(functions) == len(shifts) == 2 and \
            all(p.unit_bounded for p in functions):
        return ShiftPair(*shifts)
    return None


def correlate(spec: CorrelationSpec, table: IrreducibleTable) -> CorrelationReport:
    """Evaluate the correlation sum exactly and attach the predicted main
    term (two functions, both unit bounded)."""
    if table.field != spec.field:
        raise EngineError("table built for a different field")
    q = spec.field.p
    n = spec.n
    t0 = time.perf_counter()
    columns = scan(spec.functions, spec.shifts, n, spec.domain, table)
    raw = product_sum(columns, all(psi.integer_valued for psi in spec.functions))
    domain_size = len(columns[0])
    normalized = complex(raw) / domain_size

    main: TruncatedValue | None = None
    deviation: float | None = None
    if (shifts := main_term_pair(spec.functions, spec.shifts)) is not None:
        main = main_term(n, shifts, spec.functions[0], spec.functions[1],
                         spec.domain, table)
        deviation = abs(normalized - main.value)

    return CorrelationReport(
        q=q, n=n, domain=spec.domain,
        function_names=tuple(p.name for p in spec.functions),
        shift_texts=tuple(format_poly(h) for h in spec.shifts),
        raw_sum=raw, domain_size=domain_size, normalized=normalized,
        main=main, deviation=deviation,
        seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# exact counting of the congruence system behind the main term
# ---------------------------------------------------------------------------

def _check_congruence(g1: Poly, g2: Poly, h1: Poly, h2: Poly) -> None:
    """The inputs crt_count and crt_count_enumerated both refuse: a zero
    or non-monic modulus, or polynomials from more than one field."""
    for g in (g1, g2):
        if g.is_zero or not g.is_monic:
            raise EngineError("moduli must be monic nonzero")
    if any(h.field != g1.field for h in (g2, h1, h2)):
        raise PolyError("operands live in different fields")


def crt_count(g1: Poly, g2: Poly, h1: Poly, h2: Poly, n: int) -> int:
    """|{f monic of degree n : g1 | f + h1 and g2 | f + h2}| exactly.

    The system has solutions iff gcd(g1, g2) divides h2 - h1, and then
    fills exactly one residue class mod lcm(g1, g2): the count is
    q^{n - deg lcm} when deg lcm <= n, else 0 or 1 according to whether
    the unique residue is itself monic of degree n.
    """
    _check_congruence(g1, g2, h1, h2)
    field = g1.field
    q = field.p
    g, lcm = poly_gcd_lcm(g1, g2)
    diff = h2 - h1
    if not (diff % g).is_zero:
        return 0
    dl = lcm.degree
    if dl <= n:
        return q ** (n - dl)
    # residue construction: f = -h1 + g1*t with g1*t = -(h2-h1) mod g2
    gg, s, _t = ext_gcd(g1, g2)
    # s*g1 = gg mod g2; scale to hit -(diff)
    quot = (-diff) // gg
    t0 = (s * quot) % (g2 // gg)
    f0 = (-h1 + g1 * t0) % lcm
    return 1 if (not f0.is_zero and f0.is_monic and f0.degree == n) else 0


def crt_count_enumerated(g1: Poly, g2: Poly, h1: Poly, h2: Poly, n: int) -> int:
    """Brute-force twin of crt_count (test oracle; O(q^n) time and memory,
    refused past the cell budget like every scan): reduces every monic f
    of degree n mod g1 and mod g2 (read off the multiples of each modulus,
    sieve._residues) and counts those with f = -h1 mod g1 and f = -h2 mod
    g2."""
    _check_congruence(g1, g2, h1, h2)
    p = g1.field.p
    check_enumeration(p, n)
    idx = np.arange(p**n, dtype=np.int64)
    hit = np.ones(p**n, dtype=bool)
    for g, h in ((g1, h1), (g2, h2)):
        if g.degree:  # every f is 0 mod a constant
            rows = _kernel_rows(p, n, np.array([g.coeffs], dtype=np.int64))
            hit &= _residues(p, n, g.degree, idx, rows)[0] == ((-h) % g).encode()
    return int(np.count_nonzero(hit))


# ---------------------------------------------------------------------------
# trend scans
# ---------------------------------------------------------------------------

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
        rep = correlate(s, table)
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
            d1 = arith.distance(spec.functions[0],
                                arith.builtin("one", spec.field), r, n, table)
            d2 = arith.distance(spec.functions[1],
                                arith.builtin("one", spec.field), r, n, table)
            overlay = error_bound_shape(spec.domain, r, n, overlay_alpha,
                                        spec.field.p, c=overlay_c,
                                        dist1=d1, dist2=d2)
        points.append(ScanPoint(n, rep, overlay))
    return points
