"""Multiplicative and additive functions on F_p[x], and their evaluation.

A multiplicative function is determined by its values on prime powers
P^m; a FunctionSpec carries exactly one rule for them, by degree
(rule_dm) or by prime (rule_poly), and its degree symmetry is which of the
two it is.  Beside the rule it carries, as keywords, the flags the
evaluation machinery relies on (|value| <= 1, integrality, and three
structural bounds: the degree beyond which the rule is identically 1,
the power beyond which the value stops changing, and a decay bound on
its distance from 1).  The structural bounds are what let truncated
Euler products report honest tails and let the evaluation engine stop
sieving early (a rule that is 1 on every prime power it never sees
contributes an exact factor of 1).

An additive function is the same spec with additive = True: sums
instead of products and 0 as the neutral value.

The evaluation engine behind the correlate and stats scans is
value_arrays: psi(f) for every monic f of each degree of a range at
once, from the valuation sieve over the primes up to psi's own
trivial_beyond_degree, in the dtype that reproduces Python's own
arithmetic (int64, float64, complex128, or object where those would
round or overflow), for every spec alike.  The degrees of a range that
share a dtype and a listing share one window, fewer than p/(p - 1)
times the cells of the largest degree, into which each block of primes
is listed once; a single degree is a range of one.  scan, the front
door of every scan, reads one such array per function and degree at
f + h for each shift h (sieve.shifted) over a domain, on a table as
large as scan_degrees says for the largest degree, one list of columns
per degree; product_sum sums products of such columns exactly
(integers) or correctly rounded (floats).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import KW_ONLY, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .fieldpoly import FieldSpec, Poly
from .sieve import (
    Factorization,
    IrreducibleTable,
    SieveError,
    TableTooSmallError,
    check_enumeration,
    factorize,
    prime_valuations,
    shifted,
)


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionSpec:
    """Multiplicative function given by its rule on prime powers, or,
    with additive = True, a real additive function.

    Exactly one rule is given: rule_dm(d, m), the value at P^m for every
    prime P of degree d (a degree-symmetric spec), or rule_poly(P, m), the
    general form; both or neither is refused, and degree_symmetric says
    which one it is.  Every field after rule_dm is keyword-only.  The
    value at m = 0 is the neutral one, 1 (0.0 if additive), and is
    supplied by the accessors, not the rules.  The value at f is the
    product (the sum, if additive) of its prime-power values.
    trivial_beyond_degree = R means the value is exactly neutral whenever
    deg P > R (None: no such bound); power_settle = s means the value at
    P^m equals the value at P^s for all m >= s.  decay = (C, a) declares
    sum_{m >= 1} q^{-m deg P} |psi(P^m) - psi(P^{m-1})| <= C q^{-a deg P}
    at every prime P (None: no such bound); a > 1 certifies the tail of
    an infinite main term (the paper's closeness hypothesis, quantified).
    """

    name: str
    field: FieldSpec
    rule_dm: Callable[[int, int], complex] | None
    _: KW_ONLY
    unit_bounded: bool
    integer_valued: bool
    trivial_beyond_degree: int | None
    power_settle: int | None
    rule_poly: Callable[[Poly, int], complex] | None = None
    additive: bool = False
    decay: tuple[float, float] | None = None

    def __post_init__(self):
        if (self.rule_dm is None) == (self.rule_poly is None):
            raise SpecError(
                f"{self.name} needs exactly one of rule_dm and rule_poly")

    @property
    def degree_symmetric(self) -> bool:
        return self.rule_poly is None

    @property
    def neutral(self):
        return 0.0 if self.additive else 1

    def value_dm(self, d: int, m: int):
        return self.neutral if m == 0 else self.rule_dm(d, m)

    def value_at(self, P: Poly, m: int):
        if m == 0:
            return self.neutral
        if self.rule_poly is not None:
            return self.rule_poly(P, m)
        return self.rule_dm(P.degree, m)


def AdditiveSpec(name: str, field: FieldSpec,
                 rule_dm: Callable[[int, int], float] | None, *,
                 trivial_beyond_degree: int | None, power_settle: int | None,
                 rule_poly: Callable[[Poly, int], float] | None = None,
                 decay: tuple[float, float] | None = None) -> FunctionSpec:
    """Real-valued additive function: the FunctionSpec with additive=True
    (trivial_beyond_degree bounds where the rule is 0), again with exactly
    one rule and keyword flags."""
    return FunctionSpec(name, field, rule_dm, unit_bounded=False,
                        integer_valued=False,
                        trivial_beyond_degree=trivial_beyond_degree,
                        power_settle=power_settle, rule_poly=rule_poly,
                        additive=True, decay=decay)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def builtin(kind: str, field: FieldSpec, *, k: int | None = None,
            y: int | None = None) -> FunctionSpec:
    """Construct one of the canned multiplicative functions.

    kinds: one, moebius, kfree (needs k >= 2), liouville,
    liouville_truncated (needs y >= 1), phi_ratio.

    On non-squarefree input moebius evaluates to 0, the standard
    convention (this is what makes the squarefree densities come out
    right).
    """
    q = field.p
    unit_int = dict(unit_bounded=True, integer_valued=True)
    if kind == "one":
        return FunctionSpec("one", field, lambda d, m: 1, **unit_int,
                            trivial_beyond_degree=0, power_settle=0)
    if kind == "moebius":
        return FunctionSpec("moebius", field, lambda d, m: -1 if m == 1 else 0,
                            **unit_int, trivial_beyond_degree=None,
                            power_settle=2)
    if kind == "kfree":
        if k is None or k < 2:
            raise SpecError("kfree needs k >= 2")
        return FunctionSpec(f"kfree:{k}", field,
                            lambda d, m, _k=k: 1 if m < _k else 0, **unit_int,
                            trivial_beyond_degree=None, power_settle=k,
                            decay=(1, k))
    if kind == "liouville":
        return FunctionSpec("liouville", field, lambda d, m: -1 if m & 1 else 1,
                            **unit_int, trivial_beyond_degree=None,
                            power_settle=None)
    if kind == "liouville_truncated":
        if y is None or y < 1:
            raise SpecError("liouville_truncated needs y >= 1")
        return FunctionSpec(
            f"liouville_trunc:{y}", field,
            lambda d, m, _y=y: (-1 if m & 1 else 1) if d <= _y else 1,
            **unit_int, trivial_beyond_degree=y, power_settle=None)
    if kind == "phi_ratio":
        # multiplicative form of Phi(f)/|f|: value 1 - q^{-d} at every P^m,
        # so the decay sum is q^{-d} q^{-d}
        return FunctionSpec("phi_ratio", field,
                            lambda d, m, _q=q: 1.0 - _q ** (-d),
                            unit_bounded=True, integer_valued=False,
                            trivial_beyond_degree=None, power_settle=1,
                            decay=(1, 2))
    raise SpecError(f"unknown builtin kind {kind!r}")


def builtin_additive(kind: str, field: FieldSpec) -> FunctionSpec:
    """Canned additive functions: zero, omega (distinct prime count),
    big_omega (with multiplicity), log_phi_ratio (log of Phi(f)/|f|)."""
    q = field.p
    if kind == "zero":
        return AdditiveSpec("zero", field, lambda d, m: 0.0,
                            trivial_beyond_degree=0, power_settle=0)
    if kind == "omega":
        return AdditiveSpec("omega", field, lambda d, m: 1.0,
                            trivial_beyond_degree=None, power_settle=1)
    if kind == "big_omega":
        return AdditiveSpec("big_omega", field, lambda d, m: float(m),
                            trivial_beyond_degree=None, power_settle=None)
    if kind == "log_phi_ratio":
        # |log(1 - x)| <= 2x for x <= 1/2
        return AdditiveSpec("log_phi_ratio", field,
                            lambda d, m, _q=q: math.log(1.0 - _q ** (-d)),
                            trivial_beyond_degree=None, power_settle=1,
                            decay=(2, 2))
    raise SpecError(f"unknown additive kind {kind!r}")


def custom_from_table(field: FieldSpec, entries: dict[tuple[int, int], complex],
                      name: str = "custom") -> FunctionSpec:
    """Degree-symmetric custom spec from a {(degree, m): value} table;
    unlisted prime powers take the value 1."""
    if not entries:
        raise SpecError("empty custom table")
    for (d, m), _v in entries.items():
        if d < 1 or m < 1:
            raise SpecError(f"bad custom key ({d}, {m})")
    table = dict(entries)
    unit = all(abs(v) <= 1 + 1e-12 for v in table.values())
    integer = all(complex(v).imag == 0 and float(complex(v).real).is_integer()
                  for v in table.values())
    max_d = max(d for d, _ in table)
    max_m = max(m for _, m in table)
    def rule(d, m, _t=table):
        return _t.get((d, m), 1)
    return FunctionSpec(name, field, rule, unit_bounded=unit,
                        integer_valued=integer, trivial_beyond_degree=max_d,
                        power_settle=max_m + 1)


def load_custom_file(path: str | Path, field: FieldSpec) -> FunctionSpec:
    """Parse a custom-spec file of `degree,m=value` lines (value is a
    Python float or complex literal; # starts a comment)."""
    entries: dict[tuple[int, int], complex] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, val = line.split("=", 1)
            d_s, m_s = key.strip().strip("()").split(",")
            entries[(int(d_s), int(m_s))] = complex(val.strip())
        except ValueError as exc:
            raise SpecError(f"{path}: bad custom line {raw!r}") from exc
    return custom_from_table(field, entries, name=f"custom:{Path(path).name}")


_FUNC_GRAMMAR = ("one", "moebius", "kfree:<k>", "liouville",
                 "liouville_trunc:<y>", "phi_ratio", "custom:<file>")


def parse_function_spec(text: str, field: FieldSpec) -> FunctionSpec:
    """CLI/config naming grammar for multiplicative functions."""
    s = text.strip()
    if s in ("one", "moebius", "liouville", "phi_ratio"):
        return builtin(s, field)
    if s.startswith("kfree:"):
        return builtin("kfree", field, k=int(s.split(":", 1)[1]))
    if s.startswith("liouville_trunc:"):
        return builtin("liouville_truncated", field, y=int(s.split(":", 1)[1]))
    if s.startswith("custom:"):
        return load_custom_file(s.split(":", 1)[1], field)
    raise SpecError(f"unknown function spec {text!r}; expected one of {_FUNC_GRAMMAR}")


def parse_additive_spec(text: str, field: FieldSpec) -> FunctionSpec:
    s = text.strip()
    if s in ("zero", "omega", "big_omega", "log_phi_ratio"):
        return builtin_additive(s, field)
    raise SpecError(f"unknown additive spec {text!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _reach(psi: FunctionSpec, n: int) -> int:
    """The largest degree of a prime that can move psi at degree n."""
    bound = psi.trivial_beyond_degree
    return n if bound is None else min(bound, n)


def scan_degrees(functions, n: int, domain: str) -> int:
    """The table degree a scan of these functions at degree n reads: n,
    its listing, on the prime domain; on the monic one the largest
    _reach, capped at n // 2 when every rule is degree-symmetric (a
    larger prime is then read off the remaining degree)."""
    if domain == "prime":
        return n
    reach = max(_reach(psi, n) for psi in functions)
    symmetric = all(psi.degree_symmetric for psi in functions)
    return min(reach, n // 2) if symmetric else reach


def _dtype(rated, n: int, additive: bool):
    """The numpy dtype in which sums (additive) or products of these rule
    values over the prime powers of a degree-n polynomial come out exactly
    as Python computes them: int64 for integers, float64 or complex128
    while every integer involved stays below 2^53, and object (Python
    arithmetic itself) otherwise.  rated lists (value, degree of its prime
    power) pairs."""
    values = [v for v, _ in rated]
    ints = [(abs(v), e) for v, e in rated if isinstance(v, int)]

    def below(bound: int) -> bool:
        if additive:  # at most n terms
            return n * max((a for a, _ in ints), default=0) < bound
        # |v| <= R^e with R = max a^(1/e): prime powers of total degree n
        # multiply to at most R^n
        return all(a <= 1 or a**n < bound**e for a, e in ints)

    if len(ints) == len(values):
        return np.int64 if below(2**63) else object
    if not below(2**53) or not all(isinstance(v, (int, float, complex))
                                   for v in values):
        return object
    if any(isinstance(v, complex) for v in values):
        return np.complex128
    return np.float64


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b, bit for bit as Python multiplies: numpy's
    complex product may fuse multiply-adds, so complex operands are
    multiplied part by part."""
    if np.complex128 not in (a.dtype, b.dtype) or object in (a.dtype, b.dtype):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def value_arrays(psi: FunctionSpec, table: IrreducibleTable,
                 degrees) -> list[np.ndarray]:
    """psi(f) for every monic f of each degree n of degrees (ascending),
    one array per degree in enumeration order: the product (the sum, if
    psi is additive) of psi(P^v_P(f)) over the primes P of degree <= cap
    = min(trivial_beyond_degree, n).  A rule_dm (degree-symmetric) spec
    gives one row rule_dm(d, m) per degree d, a rule_poly spec one row
    rule_poly(P, m) per prime P.

    The valuation sieve lists the primes of degree <= top (scan_degrees
    of psi alone: cap, or at most n/2 for a degree-symmetric rule) in
    (degree, index) order, a block of primes at a time, and a block reads
    the rows of its primes; what remains of the degree names the one
    larger prime, which comes last.  That is trial division's order, so
    every float is the one trial division would give: a block is combined
    by one unbuffered np.multiply.at (np.add.at if additive) over its
    row-major ravel, which applies the rows in the order of the primes,
    and the remaining degree falls by one np.subtract.at.  Complex
    products are taken row by row through _mul, because numpy's complex
    multiply may fuse multiply-adds.

    Where a factor of 1 changes no bit of a product (int64 and Python-int
    arrays, float64 products) and every prime above top is 1, the sieve
    lists, per degree, only the multiples of the first power P^k whose
    value is not 1, counts valuations only up to power_settle, and keeps
    no remaining degree.  Everything else (complex arrays, sums, a prime
    above top that changes the value) gets exact valuations from P on.

    Consecutive degrees of degrees with the same dtype and the same of
    those two listings share one window (sieve.prime_valuations): their
    arrays one after another, fewer than p/(p - 1) times the cells of the
    largest, into which each block of primes is listed and combined once
    for all of them, each prime only into the degrees whose top reaches
    it.  Every array is the one its degree alone gives, bit for bit and
    in dtype; a single degree lists exactly its own cells.  The budget is
    checked on the largest degree; degrees that do not ascend, a negative
    one and a spec over another field than the table's are refused.
    """
    if psi.field != table.field:
        raise SpecError(f"{psi.name} is over F_{psi.field.p}, the table over F_{table.field.p}")
    if not degrees:
        return []
    if any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise SieveError(f"degrees must ascend, got {list(degrees)}")
    n = degrees[-1]
    check_enumeration(table.field.p, degrees[0])  # a negative degree
    check_enumeration(table.field.p, n)
    neutral = psi.neutral
    tops = [scan_degrees((psi,), k, "monic") for k in degrees]
    keys, value = (lambda d: [d], psi.value_dm) if psi.degree_symmetric \
        else (table.primes, psi.value_at)
    rows = {d: [[value(key, m) for m in range(n // d + 1)] for key in keys(d)]
            for d in range(1, tops[-1] + 1)}
    plans = []
    for k, top in zip(degrees, tops):
        cap = _reach(psi, k)
        large = [neutral] * (top + 1) + [psi.value_dm(d, 1)
                                         for d in range(top + 1, cap + 1)]
        rated = [(v, d * m) for d in range(1, top + 1) for row in rows[d]
                 for m, v in zip(range(k // d + 1), row)]
        rated += [(v, d) for d, v in enumerate(large)]
        dtype = _dtype(rated, k, psi.additive)
        inert = not psi.additive and (dtype in (np.int64, np.float64)
                                      or all(isinstance(v, int) for v, _ in rated))
        sparse = inert and all(v == neutral for v in large)
        plans.append((dtype, sparse, k, top, cap, large))
    out = []
    for (dtype, sparse), run in itertools.groupby(plans, key=lambda pl: pl[:2]):
        out += _fill(psi, table, rows, dtype, sparse, [pl[2:] for pl in run])
    return out


def _fill(psi: FunctionSpec, table: IrreducibleTable, rows: dict, dtype,
          sparse: bool, run: list) -> list[np.ndarray]:
    """value_arrays of a run of degrees (k, top, cap, large) that share
    dtype and listing, from one window."""
    p, neutral, additive = table.field.p, psi.neutral, psi.additive
    degrees = [k for k, *_ in run]
    n, top = run[-1][:2]
    # the rows as far as degree n reads them: a value past that need not
    # fit this run's dtype
    small = {}
    for d in range(1, top + 1):
        block = rows[d]
        if len(block[0]) > n // d + 1:
            block = [row[:n // d + 1] for row in block]
        small[d] = np.array(block, dtype=dtype)
    start = {}  # the first degree of the run whose top reaches d
    for k, top_k, *_ in run:
        for d in range(1, top_k + 1):
            start.setdefault(d, k)
    if sparse:  # from the first power whose value is not 1, to power_settle
        settle = n if psi.power_settle is None else psi.power_settle
        powers = {}
        for d in small:
            first = next((m for m in range(1, n // d + 1)
                          if any(row[m] != neutral for row in rows[d])), 0)
            if first:
                powers[d] = (first, min(max(first, settle), n // d), start[d])
    else:
        powers = {d: (1, n // d, start[d]) for d in small}

    sizes = [p**k for k in degrees]
    bounds = list(itertools.accumulate(sizes, initial=0))  # each degree's start
    out = np.full(bounds[-1], neutral, dtype=dtype)
    rested = [] if sparse else [(i, cap, large) for i, (_, top_k, cap, large)
                                in enumerate(run) if cap > top_k]
    rest = None
    if rested:
        rest = np.empty(len(out), dtype=np.int16)
        for k, a, b in zip(degrees, bounds, bounds[1:]):
            rest[a:b] = k
    by_row = not additive and dtype == np.complex128
    combine_at = (np.add if additive else np.multiply).at
    read = dict.fromkeys(small, 0)  # primes of each degree gathered so far
    for d, idx, v in prime_valuations(table, degrees, powers):
        # the rows of the block's primes: row 0 is every prime's under a
        # degree-symmetric rule, and the only prime's of a degree with one
        which = np.arange(read[d], read[d] + len(idx))[:, None] \
            if len(small[d]) > 1 else 0
        read[d] += len(idx)
        values = small[d][which, v]
        if by_row:
            for at, row in zip(idx, values):
                out[at] = _mul(out[at], row)
        else:
            combine_at(out, idx.ravel(), values.ravel())
        if rest is not None:
            # in rest's own dtype: ufunc.at takes a slow path when it casts
            np.subtract.at(rest, idx.ravel(), (d * v).astype(rest.dtype).ravel())
    arrays = [out[a:b] for a, b in zip(bounds, bounds[1:])]
    combine = np.add if additive else _mul
    for i, cap, large in rested:
        # a remaining degree above k/2 is the degree of one prime factor
        left = rest[bounds[i]:bounds[i + 1]]
        idx = np.nonzero((left > 0) & (left <= cap))[0]
        arrays[i][idx] = combine(arrays[i][idx],
                                 np.array(large, dtype=dtype)[left[idx]])
    return arrays


def scan(functions, shifts, degrees, domain: str,
         table: IrreducibleTable) -> list[list[np.ndarray]]:
    """The column psi_i(f + h_i) over the domain ("monic" or "prime"
    polynomials of degree n, in ascending index order) for each pair of
    functions[i] and shifts[i], one list of columns per degree n of
    degrees (ascending; a single degree is [n]): the value arrays of
    psi_i, one value_arrays call per function object for all the
    degrees, shifted by h_i (sieve.shifted), on the prime domain read
    only at the primes.  Refuses unpaired inputs and an unknown domain,
    gives [] for no degrees, and then refuses a scan past the cell
    budget and a table smaller than scan_degrees says, each at the
    largest degree, before anything is sieved."""
    if len(functions) != len(shifts):
        raise SpecError(f"{len(functions)} functions for {len(shifts)} shifts")
    if domain not in ("monic", "prime"):
        raise SieveError(f"domain must be monic or prime, got {domain!r}")
    if not degrees:
        return []
    n = degrees[-1]
    check_enumeration(table.field.p, n)
    need = scan_degrees(functions, n, domain)
    if table.max_deg < need:
        raise TableTooSmallError(
            f"need primes to degree {need}, table has {table.max_deg}")
    distinct = {id(psi): psi for psi in functions}
    values = {key: value_arrays(psi, table, degrees)
              for key, psi in distinct.items()}
    out = []
    for i, k in enumerate(degrees):
        at = table.prime_indices(k) if domain == "prime" else None
        out.append([shifted(values[id(psi)][i], table.field, k, h, at)
                    for psi, h in zip(functions, shifts)])
    return out


def product_sum(columns: list[np.ndarray], integer: bool):
    """sum_i prod_j columns[j][i].  Integer columns sum exactly (int64
    while the largest possible sum stays below 2^63, Python ints beyond);
    everything else is summed correctly rounded (math.fsum of the real
    and imaginary parts), so no result depends on the order of the
    elements."""
    if all(c.dtype == np.int64 for c in columns):
        reach = len(columns[0])
        for c in columns:
            reach *= int(np.abs(c).max(initial=0))
        if reach >= 2**63:
            columns = [c.astype(object) for c in columns]
    elif any(c.dtype == object for c in columns):
        columns = [c.astype(object) for c in columns]
    prod = columns[0]
    for c in columns[1:]:
        prod = _mul(prod, c)
    if integer and prod.dtype.kind in "iO":
        total = prod.sum()
        return int(total) if prod.dtype == np.int64 else total
    if prod.dtype.kind == "f":
        return math.fsum(prod)
    z = prod.astype(np.complex128)
    re, im = math.fsum(z.real), math.fsum(z.imag)
    return re if im == 0 else complex(re, im)


def phi(f: Poly | Factorization, table: IrreducibleTable | None = None) -> int:
    """Euler totient |(A/fA)^*| for monic nonzero f: the product of
    q^{m d} - q^{(m-1) d} over prime powers P^m || f; phi(1) = 1."""
    if isinstance(f, Factorization):
        fact = f
        q = fact.factors[0][0].field.p if fact.factors else None
        if q is None:
            return 1
    else:
        if table is None:
            raise SpecError("phi on a Poly needs a table to factor with")
        fact = factorize(f, table)
        q = f.field.p
    out = 1
    for P, m in fact.factors:
        d = P.degree
        out *= q ** (m * d) - q ** ((m - 1) * d)
    return out


def phi_values(table: IrreducibleTable, degrees) -> list[np.ndarray]:
    """phi(M) for every monic M of each degree d of degrees (ascending),
    one int64 array per degree in enumeration order: the value arrays of
    the totient rule q^{md} - q^{(m-1)d}, from one window for all the
    degrees (value_arrays).  Their dtype may be object (a product of d
    rule values can pass 2^63), but phi(M) <= q^d fits int64."""
    q = table.field.p
    totient = FunctionSpec("phi", table.field,
                           lambda e, m: q ** (m * e) - q ** ((m - 1) * e),
                           unit_bounded=False, integer_valued=True,
                           trivial_beyond_degree=None, power_settle=None)
    return [v.astype(np.int64) for v in value_arrays(totient, table, degrees)]


def exp_additive(psi_tilde: FunctionSpec, t: float) -> FunctionSpec:
    """Multiplicative spec P^m -> exp(i t psi_tilde(P^m)); unit modulus by
    construction.  t = 0 collapses to the constant-1 spec.  A decay bound
    (C, a) of psi_tilde becomes (|t| C, a), as |exp(i t u) - exp(i t v)|
    <= |t| |u - v|."""
    if t == 0:
        return builtin("one", psi_tilde.field)
    base = psi_tilde.rule_dm or psi_tilde.rule_poly
    rule = lambda key, m, _b=base, _t=t: cmath.exp(1j * _t * _b(key, m))
    decay = psi_tilde.decay
    if decay is not None:
        decay = (abs(t) * decay[0], decay[1])
    by_degree = psi_tilde.degree_symmetric
    return FunctionSpec(f"exp({t:g}*{psi_tilde.name})", psi_tilde.field,
                        rule if by_degree else None, unit_bounded=True,
                        integer_valued=False,
                        trivial_beyond_degree=psi_tilde.trivial_beyond_degree,
                        power_settle=psi_tilde.power_settle,
                        rule_poly=None if by_degree else rule, decay=decay)
