"""The valuation-sieve engine (arith.value_array, and arith.scan that
reads its columns at f + h off each value array's coefficient axes,
sieve.shifted) against per-polynomial trial division, against sympy and
against index maps over the enumeration indices."""

import dataclasses
import functools
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlab import (
    CorrelationSpec,
    FieldSpec,
    FunctionSpec,
    MemoryBudgetError,
    Poly,
    ShiftPair,
    TableTooSmallError,
    build_table,
    builtin,
    builtin_additive,
    correlate,
    custom_from_table,
    empirical_distribution,
    eval_additive_on,
    eval_on,
    exp_additive,
    factorize,
    parse_poly,
)
from fqlab import SpecError, arith, sieve
from fqlab.arith import AdditiveSpec, scan, scan_degrees, value_array
from fqlab.fieldpoly import monic_from_index
from fqlab.sieve import prime_valuations

# largest degree per p; the tables list primes that far, so the prime
# domain is available at every degree drawn
TABLE_DEGREES = {2: 9, 3: 6, 5: 4, 7: 4}


@functools.cache
def _table(p):
    return build_table(FieldSpec(p), TABLE_DEGREES[p])


def _legendre(p, c):
    return 0 if c == 0 else 1 if pow(c, (p - 1) // 2, p) == 1 else -1


def asymmetric_specs(field):
    """Specs with no degree-symmetric rule: chi(f), the quadratic
    character of f(0) (integer valued), an additive weight that depends
    on P and is 0 past degree 3, and its complex exponential."""
    p = field.p
    chi = FunctionSpec("chi", field, None, False, True, True, None, None,
                       rule_poly=lambda P, m: _legendre(p, P.coeffs[0]) ** m)
    weight = AdditiveSpec(
        "weight", field, None, False, 3, None,
        rule_poly=lambda P, m: m * (P.coeffs[0] + 0.5) / P.degree
        if P.degree <= 3 else 0.0)
    return [chi, weight, exp_additive(weight, 0.7)]


def all_specs(field):
    """Every builtin multiplicative and additive spec, a custom table with
    integer, float and complex values, two tables that are 1 at every
    prime (an integer one that settles at the fourth power, a float one),
    a complex exponential, and the asymmetric_specs."""
    lpr = builtin_additive("log_phi_ratio", field)
    return asymmetric_specs(field) + [
        builtin("one", field), builtin("moebius", field),
        builtin("kfree", field, k=2), builtin("kfree", field, k=3),
        builtin("kfree", field, k=4),
        custom_from_table(field, {(1, 2): -1, (1, 3): 2, (2, 2): 3}),
        custom_from_table(field, {(1, 2): 0.3, (1, 3): 0.7, (2, 2): 1.1,
                                  (3, 2): -0.6}),
        builtin("liouville", field),
        builtin("liouville_truncated", field, y=1),
        builtin("liouville_truncated", field, y=2),
        builtin("phi_ratio", field),
        custom_from_table(field, {(1, 1): -2, (1, 2): 3, (2, 1): 0.5,
                                  (3, 1): 1j}),
        exp_additive(lpr, 0.7),
        builtin_additive("zero", field), builtin_additive("omega", field),
        builtin_additive("big_omega", field), lpr,
    ]


@st.composite
def cases(draw):
    p = draw(st.sampled_from(sorted(TABLE_DEGREES)))
    n = draw(st.integers(1, TABLE_DEGREES[p]))
    h = Poly(FieldSpec(p), draw(st.lists(st.integers(0, p - 1), max_size=n)))
    domain = draw(st.sampled_from(["monic", "prime"]))
    y = draw(st.integers(n // 2 + 1, n))  # a truncation past n/2
    return p, n, h, domain, y


def domain_indices(table, n, domain):
    """Enumeration indices of the monic or prime polynomials of degree n,
    ascending: the oracle for scan's domains."""
    if domain == "monic":
        return np.arange(table.field.p ** n, dtype=np.int64)
    return table.prime_indices(n)


def shift_indices(field, n, idx, h):
    """Enumeration indices of f + h for the monic f of degree n at idx,
    digit by digit (an XOR with the bits of h at p = 2): the index-map
    oracle for sieve.shifted."""
    if h.is_zero:
        return idx
    p = field.p
    if p == 2:
        return idx ^ h.encode()
    out = idx.copy()
    for i, c in enumerate(h.coeffs):
        if c:
            digit = idx // p**i % p
            out += ((digit + c) % p - digit) * p**i
    return out


def shifted(spec, table, n, h, indices):
    """psi(f + h) for the monic f of degree n at indices, through the
    index-map oracle."""
    return value_array(spec, table, n)[shift_indices(table.field, n, indices, h)]


def sympy_big_omega(f):
    x = sympy.symbols("x")
    expr = sum(c * x**i for i, c in enumerate(f.coeffs))
    _, facs = sympy.Poly(expr, x, modulus=f.field.p).factor_list()
    return sum(m for _, m in facs)


class TestOracles:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_values_equal_trial_division(self, case):
        # every value bit for bit, also where a prime above n/2 is the
        # last to change it (liouville truncated at y > n/2)
        p, n, h, domain, y = case
        table = _table(p)
        field = table.field
        indices = domain_indices(table, n, domain)
        facts = [factorize(monic_from_index(field, n, i) + h, table)
                 for i in indices.tolist()]
        for spec in all_specs(field) + [builtin("liouville_truncated", field,
                                                y=y)]:
            ev = eval_additive_on if spec.additive else eval_on
            got = shifted(spec, table, n, h, indices).tolist()
            assert got == [ev(f, spec) for f in facts], spec.name

    @settings(max_examples=50, deadline=None)
    @given(cases())
    def test_big_omega_equals_sympy(self, case):
        p, n, h, domain, _ = case
        table = _table(p)
        field = table.field
        indices = domain_indices(table, n, domain)
        omega = shifted(builtin_additive("big_omega", field), table, n, h,
                        indices)
        for k in range(0, len(indices), max(1, len(indices) // 6)):
            f = monic_from_index(field, n, int(indices[k])) + h
            assert omega[k] == sympy_big_omega(f)

    @pytest.mark.parametrize("p, n", [(2, 9), (3, 6), (5, 4)])
    def test_rows_per_prime_equal_rows_per_degree(self, p, n):
        # each degree-symmetric spec, its rule given prime by prime: the
        # same array, though its primes above n/2 are listed, not read
        # off the remaining degree
        table = _table(p)
        for spec in all_specs(table.field):
            if spec.degree_symmetric:
                asym = dataclasses.replace(
                    spec, rule_dm=None, degree_symmetric=False,
                    rule_poly=lambda P, m, _r=spec.rule_dm: _r(P.degree, m))
                got, want = (value_array(s, table, n) for s in (asym, spec))
                assert got.dtype == want.dtype, spec.name
                assert got.tolist() == want.tolist(), spec.name


class TestHighValuations:
    """Values where a prime of degree >= 2 divides to the third power or
    more, and a seeded sample of the rest, against trial division."""

    @pytest.mark.parametrize("p, n", [(2, 12), (3, 7), (5, 6), (7, 6)])
    def test_values_at_cubes(self, p, n):
        field = FieldSpec(p)
        table = build_table(field, n)  # the asymmetric specs read degree n
        picks = set(random.Random(p).sample(range(p**n), 200))
        for d in range(2, n // 3 + 1):
            for P in table.primes(d):
                cube = P**3
                for j in range(p ** (n - 3 * d)):
                    f = cube * monic_from_index(field, n - 3 * d, j)
                    picks.add(f.monic_index())
        indices = np.array(sorted(picks), dtype=np.int64)
        facts = [factorize(monic_from_index(field, n, i), table)
                 for i in indices.tolist()]
        assert max(m for f in facts for P, m in f.factors if P.degree >= 2) >= 3
        zero = Poly(field, [])
        for spec in all_specs(field):
            ev = eval_additive_on if spec.additive else eval_on
            got = shifted(spec, table, n, zero, indices).tolist()
            assert got == [ev(f, spec) for f in facts], spec.name


class TestBlocks:
    """The valuation sieve lists the primes of a degree in blocks of at
    most SIEVE_BLOCK_CELLS cells, and value_array combines a block at
    once, each of its primes reading its own row where the spec has no
    degree-symmetric rule; no block boundary may move a bit."""

    # an order-sensitive float product: two degree-3 primes (p = 2) with
    # different values on top of a degree-1 factor, where (a b) c and
    # (a c) b can round apart
    ORDERED = {(1, 1): 0.7, (1, 2): 0.6, (3, 1): 0.3, (3, 2): 1.3}

    @pytest.mark.parametrize("cells", ["default", "one", "split"])
    @pytest.mark.parametrize("p, n", [(2, 10), (3, 6)])
    def test_values_equal_trial_division(self, p, n, cells, monkeypatch):
        table = build_table(FieldSpec(p), n)  # the asymmetric specs read n
        field = table.field
        top = n // 2
        if cells != "default":  # "split": the top degree in blocks of two
            size = 1 if cells == "one" else 2 * p ** (n - top)
            monkeypatch.setattr(sieve, "SIEVE_BLOCK_CELLS", size)
            rows = [len(idx) for d, idx, _ in prime_valuations(
                table, n, {d: (1, n // d) for d in range(1, top + 1)})
                if d == top]
            assert sum(rows) == table.count(top) > 2
            assert max(rows) == (1 if cells == "one" else 2)
        h = Poly(field, [1, 1])
        indices = domain_indices(table, n, "monic")
        facts = [factorize(monic_from_index(field, n, i) + h, table)
                 for i in indices.tolist()]
        for spec in all_specs(field) + [custom_from_table(field, self.ORDERED)]:
            ev = eval_additive_on if spec.additive else eval_on
            got = shifted(spec, table, n, h, indices).tolist()
            assert got == [ev(f, spec) for f in facts], spec.name

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_p2_listing_is_the_multiples_of_the_power(self, first):
        # row i, column j: P_i^first times the monic g of index j, and
        # min(v_P_i, settle) there; first = 2 and 3 are kfree:2 and kfree:3
        n = 10
        table = _table(2)
        field = table.field
        for d in range(1, n // max(first, 2) + 1):
            settle = n // d
            blocks = list(prime_valuations(table, n, {d: (first, settle)}))
            idx = np.concatenate([b for _, b, _ in blocks])
            v = np.concatenate([b for _, _, b in blocks])
            primes = table.primes(d)
            assert idx.shape == v.shape == (len(primes), 2 ** (n - first * d))
            for P, row, vals in zip(primes, idx.tolist(), v.tolist()):
                for j, (at, got) in enumerate(zip(row, vals)):
                    f = P**first * monic_from_index(field, n - first * d, j)
                    assert at == f.monic_index()
                    m = 0
                    while (f % P).is_zero:
                        f, m = f // P, m + 1
                    assert got == min(m, settle)


class TestScan:
    """arith.scan, the front door of every scan, bit for bit against the
    value arrays read through the index-map oracle."""

    # per p a low shift, one of degree n - 1 with every digit nonzero, and
    # alternating bits at p = 2, a zero shift or x^2 elsewhere
    SHIFTS = {2: ("x+1", "x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1", "x^7+x^5+x^3+x"),
              3: ("2x+1", "2x^5+x^4+2x^3+x^2+2x+1", "0"),
              5: ("4x+2", "3x^3+x^2+4x+2", "x^2"),
              7: ("3x+5", "6x^3+2x^2+5x+3", "0")}

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_columns_equal_shifted_values(self, p, domain, monkeypatch):
        table = _table(p)
        field, n = table.field, TABLE_DEGREES[p]
        hs = [parse_poly(h, field) for h in self.SHIFTS[p]]
        indices = domain_indices(table, n, domain)
        specs = all_specs(field)
        want = {id(spec): [shifted(spec, table, n, h, indices) for h in hs]
                for spec in specs}
        built = []

        def spy(psi, *rest):
            built.append(id(psi))
            return value_array(psi, *rest)

        monkeypatch.setattr(arith, "value_array", spy)
        # every spec alone in a 3-point scan: one array
        for spec in specs:
            built.clear()
            got = scan((spec,) * len(hs), hs, n, domain, table)
            assert built == [id(spec)], spec.name
            for g, w in zip(got, want[id(spec)]):
                assert g.dtype == w.dtype and g.tolist() == w.tolist(), spec.name
        # every spec at once: still one array each
        built.clear()
        got = scan(specs * len(hs), [h for h in hs for _ in specs], n,
                   domain, table)
        assert sorted(built) == sorted(map(id, specs))
        for i, spec in enumerate(specs * len(hs)):
            w = want[id(spec)][i // len(specs)]
            assert got[i].tolist() == w.tolist(), spec.name

    @pytest.mark.parametrize("functions, shifts", [(2, 1), (1, 2), (0, 1)])
    def test_unpaired_inputs_refused(self, field2, table2, functions, shifts):
        # once cut to the shorter side by zip
        psi = builtin("moebius", field2)
        with pytest.raises(SpecError, match="functions for"):
            scan([psi] * functions, [parse_poly("x", field2)] * shifts, 4,
                 "monic", table2)

    def test_table_degree(self, field2, monkeypatch):
        # the prime domain reads its listing; the monic one the primes the
        # functions see, to n // 2 when every rule is degree-symmetric
        # (the remaining degree names a larger prime), else to degree n
        kf, lt = builtin("kfree", field2, k=2), builtin("liouville_truncated",
                                                        field2, y=2)
        lt8 = builtin("liouville_truncated", field2, y=8)
        chi, weight, _ = asymmetric_specs(field2)
        assert scan_degrees((kf, lt), 12, "monic") == 6
        assert scan_degrees((lt, lt), 12, "monic") == 2
        assert scan_degrees((lt8, lt), 12, "monic") == 6
        assert scan_degrees((lt8, lt), 7, "monic") == 3
        assert scan_degrees((lt, lt), 12, "prime") == 12
        assert scan_degrees((lt, chi), 12, "monic") == 12
        assert scan_degrees((lt, weight), 12, "monic") == 3
        assert scan_degrees((lt, weight), 2, "monic") == 2
        zero = parse_poly("0", field2)
        with pytest.raises(TableTooSmallError, match="degree 6"):
            scan((kf,), (zero,), 12, "monic", build_table(field2, 5))
        assert len(scan((lt,), (zero,), 12, "monic", build_table(field2, 2))[0]) \
            == 2**12
        # a monic scan of chi needs degree n, and a smaller table is
        # refused before anything is sieved
        built = []
        monkeypatch.setattr(arith, "value_array", lambda *a: built.append(a))
        with pytest.raises(TableTooSmallError, match="degree 8"):
            scan((chi, lt), (zero, zero), 8, "monic", build_table(field2, 7))
        assert built == []
        monkeypatch.undo()
        assert len(scan((chi,), (zero,), 8, "monic", build_table(field2, 8))[0]) \
            == 2**8


class TestEnumerationGuard:
    def test_oversized_scans_refused_at_once(self, field2, table2):
        kf = builtin("kfree", field2, k=2)
        om = builtin_additive("omega", field2)
        zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
        t0 = time.perf_counter()
        for domain in ("monic", "prime"):
            with pytest.raises(MemoryBudgetError):
                correlate(CorrelationSpec(field2, 40, domain, (zero, one_h),
                                          (kf, kf)), table2)
            with pytest.raises(MemoryBudgetError):
                empirical_distribution(om, om, ShiftPair(zero, one_h), 40,
                                       domain, table2)
        assert time.perf_counter() - t0 < 1.0
