"""Exact correlation sums over all monic (or all irreducible) polynomials.

correlate() evaluates sum over the domain of prod_i psi_i(f + h_i) at
one degree n from the columns psi_i(f + h_i) that its caller's
arith.scan gives at n, and attaches the main term its caller's
mainterm.main_term gives there.  A range of n is one scan and one
main-term walk, each once per range: the scan lists the value array
psi(f) over every monic f of every degree of the range with the
valuation sieve (arith.value_arrays over sieve.prime_valuations) and
reads it at f + h for each shift (sieve.shifted), on the prime domain
only at the primes; the walk reads the Euler product off at each n.
Integer-valued function sets sum exactly; everything else is summed
correctly rounded (math.fsum), so no value depends on the order of
summation.

Each value array stops at the degree past which its function is
identically 1 (trivial_beyond_degree): the primes left out contribute an
exact factor of 1.  Where a factor of 1 changes no bit (integer and
float64 products), it also lists only the multiples of the first power
P^k whose value is not 1 (the squares, for kfree:2), counts valuations
only up to the power where the value settles, and keeps no remaining
degree when every prime above n/2 is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FunctionSpec, product_sum
from .fieldpoly import (
    FieldSpec,
    Poly,
    PolyError,
    ext_gcd,
    format_poly,
    poly_gcd_lcm,
)
# main_term is not called here; fqbench/spans.py wraps it under this
# module's name as well as under the names of its callers
from .mainterm import ShiftPair, TruncatedValue, main_term  # noqa: F401


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


def correlate(spec: CorrelationSpec, columns,
              main: TruncatedValue | None) -> CorrelationReport:
    """The report of spec's sum at degree spec.n from its columns, the
    list that arith.scan of spec's functions and shifts over spec.domain
    gives at spec.n, and main, the main term main_term gives there at
    main_term_pair's shift pair (None where that attaches none).  The sum
    is exact for integer-valued functions; the deviation is
    |normalized - main|.  Refuses a column count other than one per
    shift and a main term given where none attaches, or the reverse."""
    if len(columns) != len(spec.shifts):
        raise EngineError(f"{len(columns)} columns for {len(spec.shifts)} shifts")
    if (main is None) != (main_term_pair(spec.functions, spec.shifts) is None):
        raise EngineError("a main term goes exactly with the sums that "
                          "main_term_pair attaches one to")
    raw = product_sum(columns, all(psi.integer_valued for psi in spec.functions))
    domain_size = len(columns[0])
    normalized = complex(raw) / domain_size
    deviation = None if main is None else abs(normalized - main.value)
    return CorrelationReport(
        q=spec.field.p, n=spec.n, domain=spec.domain,
        function_names=tuple(p.name for p in spec.functions),
        shift_texts=tuple(format_poly(h) for h in spec.shifts),
        raw_sum=raw, domain_size=domain_size, normalized=normalized,
        main=main, deviation=deviation)


# ---------------------------------------------------------------------------
# exact counting of the congruence system behind the main term
# ---------------------------------------------------------------------------

def crt_count(g1: Poly, g2: Poly, h1: Poly, h2: Poly, n: int) -> int:
    """|{f monic of degree n : g1 | f + h1 and g2 | f + h2}| exactly.

    The system has solutions iff gcd(g1, g2) divides h2 - h1, and then
    fills exactly one residue class mod lcm(g1, g2): the count is
    q^{n - deg lcm} when deg lcm <= n, else 0 or 1 according to whether
    the unique residue is itself monic of degree n.  A zero or non-monic
    modulus, or polynomials from more than one field, are refused.
    """
    for g in (g1, g2):
        if g.is_zero or not g.is_monic:
            raise EngineError("moduli must be monic nonzero")
    if any(h.field != g1.field for h in (g2, h1, h2)):
        raise PolyError("operands live in different fields")
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
