"""The valuation-sieve engine (arith.value_arrays, and arith.scan that
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
    custom_from_table,
    empirical_distribution,
    exp_additive,
    factorize,
    parse_poly,
)
from fqlab import SpecError, arith, sieve
from fqlab.arith import AdditiveSpec, scan, scan_degrees, value_arrays
from fqlab.fieldpoly import monic_from_index
from fqlab.sieve import prime_valuations
from oracles import correlate_at, eval_on

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
    chi = FunctionSpec("chi", field, None, unit_bounded=True,
                       integer_valued=True, trivial_beyond_degree=None,
                       power_settle=None,
                       rule_poly=lambda P, m: _legendre(p, P.coeffs[0]) ** m)
    weight = AdditiveSpec(
        "weight", field, None, trivial_beyond_degree=3, power_settle=None,
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
    [values] = value_arrays(spec, table, [n])
    return values[shift_indices(table.field, n, indices, h)]


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
            got = shifted(spec, table, n, h, indices).tolist()
            assert got == [eval_on(f, spec) for f in facts], spec.name

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
                    spec, rule_dm=None,
                    rule_poly=lambda P, m, _r=spec.rule_dm: _r(P.degree, m))
                assert not asym.degree_symmetric
                [got], [want] = (value_arrays(s, table, [n])
                                 for s in (asym, spec))
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
            got = shifted(spec, table, n, zero, indices).tolist()
            assert got == [eval_on(f, spec) for f in facts], spec.name


class TestBlocks:
    """The valuation sieve lists the primes of a degree in blocks of at
    most SIEVE_BLOCK_CELLS cells, and value_arrays combines a block at
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
                table, [n], {d: (1, n // d, n) for d in range(1, top + 1)})
                if d == top]
            assert sum(rows) == table.count(top) > 2
            assert max(rows) == (1 if cells == "one" else 2)
        h = Poly(field, [1, 1])
        indices = domain_indices(table, n, "monic")
        facts = [factorize(monic_from_index(field, n, i) + h, table)
                 for i in indices.tolist()]
        for spec in all_specs(field) + [custom_from_table(field, self.ORDERED)]:
            got = shifted(spec, table, n, h, indices).tolist()
            assert got == [eval_on(f, spec) for f in facts], spec.name

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_p2_listing_is_the_multiples_of_the_power(self, first):
        # row i, column j: P_i^first times the monic g of index j, and
        # min(v_P_i, settle) there; first = 2 and 3 are kfree:2 and kfree:3
        n = 10
        table = _table(2)
        field = table.field
        for d in range(1, n // max(first, 2) + 1):
            settle = n // d
            blocks = list(prime_valuations(table, [n], {d: (first, settle, n)}))
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


def same_array(got, want):
    """Equal dtype and equal bits (Python values for object arrays)."""
    if got.dtype != want.dtype:
        return False
    if got.dtype == object:
        return got.tolist() == want.tolist()
    return got.tobytes() == want.tobytes()


class TestDegreeRanges:
    """value_arrays lists a range of degrees once, into one window per run
    of degrees with the same dtype and listing: each degree's array is the
    one that degree alone gives, bit for bit and in dtype."""

    RANGES = {2: [(1, 9), (4, 9), (9, 9), (1, 1), (5, 7), (2, 5, 8)],
              3: [(1, 6), (3, 6), (6, 6), (2, 4, 6)],
              5: [(1, 4), (2, 4), (4, 4)]}

    @staticmethod
    def specs(field):
        """all_specs, the totient, a rule that keeps changing past its
        power_settle (read at power_settle, so its sparse listing caps
        every valuation there), and two whose dtype changes within a
        range: an integer rule that leaves int64 (object past degree 1)
        and a float rule whose integers pass 2^53 (object past degree 7
        at p = 2)."""
        q = field.p
        flags = dict(unit_bounded=False, trivial_beyond_degree=None,
                     power_settle=None)
        return all_specs(field) + [
            FunctionSpec("capped", field, lambda e, m: m, integer_valued=True,
                         **{**flags, "power_settle": 3}),
            FunctionSpec("phi", field,
                         lambda e, m: q ** (m * e) - q ** ((m - 1) * e),
                         integer_valued=True, **flags),
            FunctionSpec("wide", field, lambda e, m: 3 ** (20 * m * e),
                         integer_valued=True, **flags),
            FunctionSpec("mixed", field,
                         lambda e, m: 0.5 if e == 1 else 2 ** (7 * e),
                         integer_valued=False, **flags)]

    @pytest.mark.parametrize("cells", ["default", "split"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_range_equals_single_degrees(self, p, cells, monkeypatch):
        table = _table(p)
        top = TABLE_DEGREES[p]
        for spec in self.specs(table.field):
            single = [None] + [value_arrays(spec, table, [n])[0]
                               for n in range(1, top + 1)]
            with monkeypatch.context() as m:
                if cells == "split":  # one prime per block of degree 1
                    m.setattr(sieve, "SIEVE_BLOCK_CELLS", p ** (top - 1))
                    assert len(list(prime_valuations(
                        table, range(1, top + 1), {1: (1, top, 2)}))) == p
                for degrees in self.RANGES[p]:
                    if len(degrees) == 2:
                        degrees = range(degrees[0], degrees[1] + 1)
                    got = value_arrays(spec, table, degrees)
                    assert len(got) == len(degrees)
                    for n, array in zip(degrees, got):
                        assert same_array(array, single[n]), (spec.name, n)
        # the dtype changes within the ranges from degree 1
        wide, mixed = self.specs(table.field)[-2:]
        assert {a.dtype for a in value_arrays(wide, table, range(1, top + 1))} \
            == {np.dtype(np.int64), np.dtype(object)}
        if p == 2:
            assert {a.dtype for a in value_arrays(mixed, table, range(1, 9))} \
                == {np.dtype(np.float64), np.dtype(object)}

    def test_bad_ranges_refused(self, monkeypatch):
        # degrees that repeat or descend would overlap in the window, and
        # a negative one has no polynomials: refused before any listing
        table = _table(2)
        mu = builtin("moebius", table.field)
        monkeypatch.setattr(sieve, "_prime_blocks", lambda *a: pytest.fail(
            "listed before the refusal"))
        for degrees, match in (([3, 3], "ascend"), ([4, 2], "ascend"),
                               ([-1, 2], ">= 0")):
            with pytest.raises(sieve.SieveError, match=match):
                value_arrays(mu, table, degrees)
        assert value_arrays(mu, table, []) == []

    def test_empty_range_scans_nothing(self, monkeypatch):
        # no degrees, no columns, after the pairing and domain refusals
        # (once an IndexError from the largest degree)
        table = _table(2)
        field = table.field
        mu, zero = builtin("moebius", field), parse_poly("0", field)
        monkeypatch.setattr(arith, "value_arrays", lambda *a: pytest.fail(
            "built a value array"))
        for degrees in ([], range(5, 5)):
            assert scan((mu,), (zero,), degrees, "monic", table) == []
        with pytest.raises(SpecError, match="functions for"):
            scan((mu, mu), (zero,), [], "monic", table)
        with pytest.raises(sieve.SieveError, match="got 'primes'"):
            scan((mu,), (zero,), [], "primes", table)

    @pytest.mark.parametrize("p, degrees", [(2, range(6, 10)), (3, range(3, 7))])
    def test_each_prime_block_listed_once(self, p, degrees, monkeypatch):
        # a k-degree range lists every block of primes once, where k single
        # degrees list it once each; at p = 2 one span per block, at odd p
        # one kernel per block and power, built to the largest degree
        table = _table(p)
        ones = AdditiveSpec("ones", table.field, lambda d, m: 1.0,
                            trivial_beyond_degree=None, power_settle=None)
        listed, kernels = [], []
        blocks, spans, multiples = (sieve._prime_blocks, sieve._gf2_span,
                                    sieve._Multiples)

        def block_spy(table, d, cells):
            for P in blocks(table, d, cells):
                listed.append((d, len(P)))
                yield P

        def span_spy(*args):
            kernels.append(len(args[1]))
            return spans(*args)

        def kernel_spy(p, moduli, t_max):
            kernels.append(t_max)
            return multiples(p, moduli, t_max)

        monkeypatch.setattr(sieve, "_prime_blocks", block_spy)
        monkeypatch.setattr(sieve, "_gf2_span", span_spy)
        monkeypatch.setattr(sieve, "_Multiples", kernel_spy)
        n = degrees[-1]
        value_arrays(ones, table, degrees)
        assert listed == [(d, table.count(d)) for d in range(1, n // 2 + 1)]
        if p == 2:
            assert len(kernels) == len(listed)
        else:  # P, P^2, ..., P^(n // d): exact valuations
            assert kernels == [n for d in range(1, n // 2 + 1)
                               for _ in range(n // d)]
        listed.clear()
        for k in degrees:
            value_arrays(ones, table, [k])
        assert len(listed) == sum(k // 2 for k in degrees)


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
            return value_arrays(psi, *rest)

        monkeypatch.setattr(arith, "value_arrays", spy)
        # every spec alone in a 3-point scan: one array
        for spec in specs:
            built.clear()
            [got] = scan((spec,) * len(hs), hs, [n], domain, table)
            assert built == [id(spec)], spec.name
            for g, w in zip(got, want[id(spec)]):
                assert g.dtype == w.dtype and g.tolist() == w.tolist(), spec.name
        # every spec at once: still one array each
        built.clear()
        [got] = scan(specs * len(hs), [h for h in hs for _ in specs], [n],
                     domain, table)
        assert sorted(built) == sorted(map(id, specs))
        for i, spec in enumerate(specs * len(hs)):
            w = want[id(spec)][i // len(specs)]
            assert got[i].tolist() == w.tolist(), spec.name

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_range_equals_one_scan_per_degree(self, p, domain):
        # a range scan reads each degree's columns off one window per
        # function: shifted, and on the prime domain read at the primes,
        # as a scan of that degree alone
        table = _table(p)
        field, n = table.field, TABLE_DEGREES[p]
        hs = [parse_poly(h, field) for h in ("0", "x+1", "x")]
        specs = [builtin("moebius", field), builtin("phi_ratio", field),
                 builtin_additive("omega", field)]
        degrees = range(2, n + 1)
        got = scan(specs, hs, degrees, domain, table)
        for k, columns in zip(degrees, got):
            [want] = scan(specs, hs, [k], domain, table)
            for g, w in zip(columns, want):
                assert same_array(g, w), k

    @pytest.mark.parametrize("functions, shifts", [(2, 1), (1, 2), (0, 1)])
    def test_unpaired_inputs_refused(self, field2, table2, functions, shifts):
        # once cut to the shorter side by zip
        psi = builtin("moebius", field2)
        with pytest.raises(SpecError, match="functions for"):
            scan([psi] * functions, [parse_poly("x", field2)] * shifts, [4],
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
            scan((kf,), (zero,), [12], "monic", build_table(field2, 5))
        [(column,)] = scan((lt,), (zero,), [12], "monic",
                           build_table(field2, 2))
        assert len(column) == 2**12
        # a monic scan of chi needs degree n, and a smaller table is
        # refused before anything is sieved
        built = []
        monkeypatch.setattr(arith, "value_arrays", lambda *a: built.append(a))
        with pytest.raises(TableTooSmallError, match="degree 8"):
            scan((chi, lt), (zero, zero), [8], "monic", build_table(field2, 7))
        assert built == []
        monkeypatch.undo()
        [(column,)] = scan((chi,), (zero,), [8], "monic",
                           build_table(field2, 8))
        assert len(column) == 2**8


class TestShiftedAtIndices:
    """sieve.shifted given an index array reads f + h only for the f
    there: bit for bit the axis view read at them, its oracle."""

    @staticmethod
    def _same_bits(a, b):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        return a.tolist() == b.tolist() if a.dtype == object else \
            a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_equal_to_the_axis_view(self, p):
        table = _table(p)
        field, n = table.field, TABLE_DEGREES[p]
        zero = parse_poly("0", field)
        h = parse_poly(TestScan.SHIFTS[p][1], field)
        assert h.degree == n - 1 and all(h.coeffs)
        # the primes, as a prime scan reads, and a 2-D grid, as Theta does
        grid = np.arange(p**n, dtype=np.int64).reshape(p, -1)[:, ::3]
        for spec in all_specs(field):
            [values] = value_arrays(spec, table, [n])
            for shift in (h, -h, zero):
                full = sieve.shifted(values, field, n, shift)
                for idx in (table.prime_indices(n), grid):
                    got = sieve.shifted(values, field, n, shift, idx)
                    assert self._same_bits(got, full[idx]), spec.name

    def test_refusals_kept(self, field2, field3):
        values = np.zeros(2**6)
        idx = np.arange(4)
        for h in (Poly(field3, ()), parse_poly("x+2", field3)):
            with pytest.raises(sieve.SieveError, match="F_3"):
                sieve.shifted(values, field2, 6, h, idx)
        with pytest.raises(sieve.SieveError, match="degree 6"):
            sieve.shifted(values, field2, 6, parse_poly("x^6", field2), idx)


class TestEnumerationGuard:
    def test_oversized_scans_refused_at_once(self, field2, table2):
        kf = builtin("kfree", field2, k=2)
        om = builtin_additive("omega", field2)
        zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
        t0 = time.perf_counter()
        for domain in ("monic", "prime"):
            with pytest.raises(MemoryBudgetError):
                correlate_at(CorrelationSpec(field2, 40, domain, (zero, one_h),
                                             (kf, kf)), table2)
            with pytest.raises(MemoryBudgetError):
                empirical_distribution(om, om, ShiftPair(zero, one_h), 40,
                                       domain, table2)
        assert time.perf_counter() - t0 < 1.0
