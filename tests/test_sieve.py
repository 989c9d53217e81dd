import functools
import gc
import itertools
import os
import random
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlab import (
    FieldSpec,
    MemoryBudgetError,
    Poly,
    SieveError,
    TableTooSmallError,
    build_table,
    factorize,
    irreducible_count,
    parse_poly,
    residue_histogram,
)
from fqlab.fieldpoly import _c_divmod, monic_from_index
from fqlab import arith, builtin, sieve
from fqlab.arith import scan
from fqlab.sieve import (
    IrreducibleTable,
    _bits_divmod,
    _monic_digits,
    _Multiples,
    _trial_division,
)
from oracles import crt_count_enumerated, enumerate_monic


def brute_irreducible(f):
    """Oracle: no monic divisor of degree 1..deg-1 (independent of the sieve)."""
    n = f.degree
    for d in range(1, n):
        for g in enumerate_monic(f.field, d):
            if (f % g).is_zero:
                return False
    return True


class TestCounts:
    def test_counts_vs_bruteforce_p2(self, field2, table2):
        # [2, 1, 2, 3] spelled out in the module contract, extended to 6
        for d in range(1, 7):
            brute = sum(1 for f in enumerate_monic(field2, d)
                        if brute_irreducible(f))
            assert table2.count(d) == brute
        assert [table2.count(d) for d in range(1, 5)] == [2, 1, 2, 3]

    def test_counts_vs_bruteforce_p3(self, field3, table3):
        for d in range(1, 5):
            brute = sum(1 for f in enumerate_monic(field3, d)
                        if brute_irreducible(f))
            assert table3.count(d) == brute
        assert table3.count(1) == 3 and table3.count(2) == 3

    def test_known_count_tables(self, table2, table3):
        assert [table2.count(d) for d in range(1, 11)] == \
            [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
        assert [table3.count(d) for d in range(1, 7)] == [3, 3, 8, 18, 48, 116]

    def test_count_beyond_table_matches_formula(self, table2):
        for d in (11, 15, 20, 31):
            assert table2.count(d) == irreducible_count(2, d)

    def test_formula_is_counted_once(self):
        count = irreducible_count(2, 97)
        hits = irreducible_count.cache_info().hits
        assert irreducible_count(2, 97) == count
        assert irreducible_count.cache_info().hits == hits + 1
        for _ in range(2):
            with pytest.raises(SieveError):
                irreducible_count(2, 0)

    def test_formula_satisfies_necklace_identity(self):
        for q in (2, 3, 5):
            for n in range(1, 25):
                s = sum(d * irreducible_count(q, d)
                        for d in range(1, n + 1) if n % d == 0)
                assert s == q ** n


class TestNecklace:
    def test_example_p2_n4(self, table2):
        rep = table2.necklace_check(4)
        assert rep.weighted_sum == 1 * 2 + 2 * 1 + 4 * 3 == 16 == rep.expected
        assert rep.ok

    def test_example_p3_n2(self, table3):
        rep = table3.necklace_check(2)
        assert rep.weighted_sum == 1 * 3 + 2 * 3 == 9
        assert rep.ok

    def test_example_p2_n1(self, table2):
        rep = table2.necklace_check(1)
        assert rep.weighted_sum == 2 == rep.expected

    def test_out_of_range(self, table2):
        with pytest.raises(SieveError):
            table2.necklace_check(11)

    def test_sqrt_error_shape(self, table2, table3):
        for tab in (table2, table3):
            q = tab.field.p
            for n in range(1, tab.max_deg + 1):
                assert abs(n * tab.count(n) - q ** n) <= 4 * q ** (n / 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_construction_refuses_a_dropped_prime(self, p):
        built = build_table(FieldSpec(p), 4)
        by_degree = [np.empty(0, dtype=np.int64)]
        by_degree += [built.prime_indices(d) for d in range(1, 5)]
        by_degree[3] = by_degree[3][1:]
        with pytest.raises(SieveError, match="^wrong prime count at degree 3$"):
            IrreducibleTable(built.field, 4, by_degree)

    def test_report_reads_the_listings(self):
        # a listing cut after construction (which no public path allows)
        # fails the identity: the report counts the listed primes, where
        # it once summed the Moebius counts and could never fail
        table = build_table(FieldSpec(2), 4)
        table._by_degree[3] = table._by_degree[3][1:]
        rep = table.necklace_check(3)
        assert (rep.weighted_sum, rep.expected, rep.ok) == (2 + 3 * 1, 8, False)
        assert table.necklace_check(4).ok


class TestFactorize:
    def test_example_square_product(self, field2, table2):
        f = parse_poly("x^4+x^2", field2)
        fact = factorize(f, table2)
        x, x1 = parse_poly("x", field2), parse_poly("x+1", field2)
        assert fact.factors == ((x, 2), (x1, 2))
        assert fact.big_omega == 4 and fact.num_distinct == 2

    def test_example_irreducible_cubic(self, field2, table2):
        f = parse_poly("x^3+x+1", field2)
        fact = factorize(f, table2)
        assert fact.factors == ((f, 1),)

    def test_prime_input(self, field3, table3):
        x = parse_poly("x", field3)
        assert factorize(x, table3).factors == ((x, 1),)

    def test_unit_input(self, field2, table2):
        assert factorize(parse_poly("1", field2), table2).factors == ()

    @pytest.mark.parametrize("p,maxn,count", [(2, 16, 10_000), (3, 8, 800)])
    def test_refactor_multiply_identity(self, p, maxn, count, table2, table3):
        tab = table2 if p == 2 else table3
        field = tab.field
        rng = random.Random(2024 + p)
        for _ in range(count):
            n = rng.randint(1, maxn)
            f = monic_from_index(field, n, rng.randrange(p ** n))
            fact = factorize(f, tab)
            assert fact.product() == f
            degs = fact.degree_mult_pairs()
            assert sum(d * m for d, m in degs) == n
            # sortedness by (degree, enumeration index)
            keys = [(P.degree, P.monic_index()) for P, _ in fact.factors]
            assert keys == sorted(keys)

    def test_factors_are_irreducible(self, field2, table2):
        rng = random.Random(7)
        for _ in range(50):
            f = monic_from_index(field2, 12, rng.randrange(1 << 12))
            for P, _ in factorize(f, table2).factors:
                assert brute_irreducible(P)

    def test_validation(self, field2, table2):
        with pytest.raises(SieveError):
            factorize(parse_poly("0", field2), table2)
        small = build_table(field2, 2)
        with pytest.raises(TableTooSmallError):
            factorize(monic_from_index(field2, 12, 5), small)


class TestPrimesInAP:
    def test_example_n2_mod_x(self, field2, table2):
        M, B = parse_poly("x", field2), parse_poly("1", field2)
        assert residue_histogram(2, M, table2).get(B.encode(), 0) == 1  # only x^2+x+1

    def test_example_n3_mod_quadratic(self, field2, table2):
        M = parse_poly("x^2+x+1", field2)
        B = parse_poly("x", field2)
        assert residue_histogram(3, M, table2).get(B.encode(), 0) == 1  # x^3+x+1

    def test_partition_property(self, field2, table2):
        # summing pi over all invertible residues recovers N_n minus the
        # degree-n primes dividing M
        from fqlab import poly_gcd_lcm
        from fqlab.fieldpoly import poly_from_encoding
        for M_text, n in (("x^2+x", 2), ("x^3+x", 4), ("x^2+x+1", 2)):
            M = parse_poly(M_text, field2)
            hist = residue_histogram(n, M, table2)
            assert sum(hist.values()) == table2.count(n)
            coprime_total = 0
            for key, c in hist.items():
                r = poly_from_encoding(field2, key)
                if r.is_zero:
                    continue
                g, _ = poly_gcd_lcm(M, r)
                if g.degree == 0:
                    coprime_total += c
            dividing = sum(1 for Pf in table2.primes(n) if (M % Pf).is_zero)
            assert coprime_total == table2.count(n) - dividing

    def test_bad_modulus(self, field2, table2):
        with pytest.raises(SieveError):
            residue_histogram(3, parse_poly("1", field2), table2)


# every table the benchmark builds
BENCHMARK_TABLES = [(2, 14), (2, 18), (2, 20), (3, 12), (5, 8)]


class TestCache:
    @pytest.mark.parametrize("p,max_deg", [(2, 10), (3, 6), (5, 4)])
    def test_loaded_table_equals_built(self, p, max_deg, tmp_path):
        built = build_table(FieldSpec(p), max_deg)
        path = tmp_path / "t.fqi"
        built.save(path)
        loaded = IrreducibleTable.load(path)
        assert loaded.max_deg == built.max_deg
        for d in range(1, max_deg + 3):
            assert loaded.count(d) == built.count(d)
        for d in range(1, max_deg + 1):
            assert loaded.prime_indices(d).dtype == np.int64
            assert loaded.primes(d) == built.primes(d)

    @pytest.mark.parametrize("p,max_deg", BENCHMARK_TABLES)
    def test_benchmark_tables_round_trip(self, p, max_deg, tmp_path):
        built = build_table(FieldSpec(p), max_deg)
        path, again = tmp_path / "t.fqi", tmp_path / "again.fqi"
        built.save(path)
        loaded = IrreducibleTable.load(path)
        for d in range(1, max_deg + 1):
            assert (loaded.prime_indices(d) == built.prime_indices(d)).all()
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("p,max_deg", BENCHMARK_TABLES)
    def test_prefix_load_equals_built(self, p, max_deg, tmp_path):
        path = tmp_path / "t.fqi"
        build_table(FieldSpec(p), max_deg).save(path)
        for k in range(1, max_deg + 2):
            loaded = IrreducibleTable.load(path, upto=k)
            built = build_table(FieldSpec(p), min(k, max_deg))
            assert loaded.max_deg == built.max_deg
            for d in range(1, built.max_deg + 1):
                assert (loaded.prime_indices(d) == built.prime_indices(d)).all()

    @pytest.mark.parametrize("upto", [None, 1, 4])
    def test_rewrite_in_place_leaves_a_loaded_table(self, upto, table3,
                                                    tmp_path):
        path = tmp_path / "t.fqi"
        table3.save(path)
        loaded = IrreducibleTable.load(path, upto=upto)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.seek(16)
            fh.write(b"\xff" * (size - 16))
        for d in range(1, loaded.max_deg + 1):
            assert (loaded.prime_indices(d) == table3.prime_indices(d)).all()

    def test_prefix_load_checks_every_count_range_and_length(
            self, cache_flaw, table3, tmp_path):
        # a flaw in degree 5: a load through degree 4 still finds all but
        # a broken ascent, which only a load through degree 5 reads
        how, spoil = cache_flaw
        path = tmp_path / f"{how}.fqi"
        table3.save(path)
        path.write_bytes(spoil(path.read_bytes(), 3, 5))
        if how in ("repeated-index", "descending-pair"):
            loaded = IrreducibleTable.load(path, upto=4)
            assert loaded.max_deg == 4
        else:
            with pytest.raises(SieveError, match=f"{how}.fqi"):
                IrreducibleTable.load(path, upto=4)
        for upto in (5, None):
            with pytest.raises(SieveError, match=f"{how}.fqi"):
                IrreducibleTable.load(path, upto=upto)

    @pytest.mark.parametrize("upto", [None, 2])
    def test_file_shrinking_while_read_is_refused(self, upto, table3,
                                                  tmp_path, monkeypatch):
        path = tmp_path / "t.fqi"
        table3.save(path)
        pread = os.pread
        monkeypatch.setattr(sieve.os, "pread",
                            lambda fd, n, at: pread(fd, n, at)[:max(16, n - 8)])
        with pytest.raises(SieveError, match="shrank while read"):
            IrreducibleTable.load(path, upto)

    @pytest.mark.parametrize("upto", [0, -4])
    def test_upto_below_one_refused(self, upto, table3, tmp_path):
        path = tmp_path / "t.fqi"
        table3.save(path)
        with pytest.raises(SieveError, match="upto must be >= 1"):
            IrreducibleTable.load(path, upto)

    def test_header_must_match(self, table3, tmp_path):
        path = tmp_path / "t.fqi"
        table3.save(path)
        assert IrreducibleTable.load(path, 2, header=(3, 6)).max_deg == 2
        for header in ((3, 7), (2, 6)):
            with pytest.raises(SieveError, match="header says p=3, max_deg=6"):
                IrreducibleTable.load(path, 2, header=header)

    def test_flaw_rejected_at_load(self, cache_flaw, table3, tmp_path):
        how, spoil = cache_flaw
        path = tmp_path / f"{how}.fqi"
        table3.save(path)
        path.write_bytes(spoil(path.read_bytes(), 3, 5))
        with pytest.raises(SieveError, match=f"{how}.fqi"):
            IrreducibleTable.load(path)

    # what load says of each flaw, in the order it checks one degree
    FLAW_MESSAGES = {
        "wrong-count": "wrong prime count at degree {d}",
        "index-too-large": "degree-{d} index out of range",
        "negative-index": "degree-{d} index out of range",
        "repeated-index": "degree-{d} indices are not strictly ascending",
        "descending-pair": "degree-{d} indices are not strictly ascending",
    }

    # loads in full, through degree 4 (between the flaws) and through
    # degree 2 (below both); a load in full keeps the plain ids
    TWO_FLAWS = [(low, high, upto) for upto, (low, high) in itertools.product(
        (None, 4, 2), itertools.permutations(FLAW_MESSAGES, 2))]

    @pytest.mark.parametrize("low, high, upto", TWO_FLAWS, ids=[
        "-".join([low, high] + [f"upto{upto}"] * (upto is not None))
        for low, high, upto in TWO_FLAWS])
    def test_two_flaws_name_the_lower_degree(self, low, high, upto, spoil,
                                             table3, tmp_path):
        path = tmp_path / "two.fqi"
        table3.save(path)
        path.write_bytes(spoil(spoil(path.read_bytes(), 3, 5, high), 3, 3, low))
        flaws = [(low, 3), (high, 5)]
        if upto == 2:  # past degree 2 an ascent flaw is not read
            flaws = [(how, d) for how, d in flaws
                     if "ascending" not in self.FLAW_MESSAGES[how]]
        if not flaws:
            assert IrreducibleTable.load(path, upto).max_deg == 2
            return
        with pytest.raises(SieveError) as err:
            IrreducibleTable.load(path, upto)
        how, d = flaws[0]
        assert str(err.value) == f"{path}: " + self.FLAW_MESSAGES[how].format(d=d)

    @pytest.mark.parametrize("one, other", [
        pair for pair in itertools.combinations(FLAW_MESSAGES, 2)
        # these two pairs spoil the same index
        if set(pair) not in ({"index-too-large", "repeated-index"},
                             {"negative-index", "descending-pair"})])
    def test_two_flaws_in_one_degree(self, one, other, spoil, table3, tmp_path):
        path = tmp_path / "two.fqi"
        table3.save(path)
        path.write_bytes(spoil(spoil(path.read_bytes(), 3, 4, other), 3, 4, one))
        with pytest.raises(SieveError) as err:
            IrreducibleTable.load(path)
        assert str(err.value) == f"{path}: " + self.FLAW_MESSAGES[one].format(d=4)

    def test_trailing_bytes_rejected(self, table3, tmp_path):
        path = tmp_path / "long.fqi"
        table3.save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SieveError, match="trailing"):
            IrreducibleTable.load(path)

    def test_listings_are_read_only(self, table3, tmp_path):
        path = tmp_path / "t.fqi"
        table3.save(path)
        for table in (table3, IrreducibleTable.load(path)):
            with pytest.raises(ValueError):
                table.prime_indices(3)[0] = 0

    def test_roundtrip(self, table3, tmp_path):
        path = tmp_path / "t.fqi"
        table3.save(path)
        loaded = IrreducibleTable.load(path)
        assert loaded.max_deg == table3.max_deg
        for d in range(1, table3.max_deg + 1):
            assert list(loaded.prime_indices(d)) == list(table3.prime_indices(d))

    def test_roundtrip_p2(self, table2, tmp_path):
        path = tmp_path / "t2.fqi"
        table2.save(path)
        loaded = IrreducibleTable.load(path)
        assert [loaded.count(d) for d in range(1, 11)] == \
            [table2.count(d) for d in range(1, 11)]

    def test_bad_magic_rejected(self, table3, tmp_path):
        path = tmp_path / "bad.fqi"
        table3.save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SieveError):
            IrreducibleTable.load(path)

    def test_truncated_rejected(self, table3, tmp_path):
        path = tmp_path / "cut.fqi"
        table3.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(SieveError):
            IrreducibleTable.load(path)

    def test_version_rejected(self, table3, tmp_path):
        path = tmp_path / "ver.fqi"
        table3.save(path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(SieveError):
            IrreducibleTable.load(path)


class TestBudget:
    def test_budget_exceeded(self, field2):
        with pytest.raises(MemoryBudgetError):
            build_table(field2, 40)

    def test_custom_budget(self, field2):
        with pytest.raises(MemoryBudgetError):
            build_table(field2, 8, cell_budget=100)
        tab = build_table(field2, 4, cell_budget=100)
        assert tab.count(4) == 3

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_enumeration_degree(self, n):
        # p^n of a negative n is a float below any budget
        with pytest.raises(SieveError, match="degree"):
            sieve.check_enumeration(2, n)


class TestDomainIndices:
    """arith.scan's two domains: every monic polynomial of degree n in
    index order, or the primes among them; anything else, and a domain
    past the cell budget, is refused before any value array is built."""

    def test_domains(self, field2, table2):
        mu, h = builtin("moebius", field2), parse_poly("x+1", field2)
        [(monic,)] = scan((mu,), (h,), [4], "monic", table2)
        [(prime,)] = scan((mu,), (h,), [4], "prime", table2)
        assert len(monic) == 16
        assert prime.tolist() == monic[table2.prime_indices(4)].tolist()

    @pytest.mark.parametrize("domain", ["primes", "all", ""])
    def test_unknown_domain_refused(self, field2, table2, domain, monkeypatch):
        # once read as the prime domain
        built = []
        monkeypatch.setattr(arith, "value_arrays", lambda *a: built.append(a))
        mu, zero = builtin("moebius", field2), parse_poly("0", field2)
        with pytest.raises(SieveError, match=f"got {domain!r}"):
            scan((mu,), (zero,), [4], domain, table2)
        for known in ("monic", "prime"):
            with pytest.raises(MemoryBudgetError):
                scan((mu,), (zero,), [40], known, table2)
        assert built == []


# maximal input degree per p for the sympy comparison; the tables below
# hold primes to half of it
SYMPY_DEGREES = {2: 12, 3: 8, 5: 6, 7: 6}


@functools.cache
def _table(p):
    return build_table(FieldSpec(p), SYMPY_DEGREES[p] // 2)


def sympy_factors(f):
    """Sorted (coefficients c0.., mult) of the prime factors, by sympy."""
    p = f.field.p
    x = sympy.symbols("x")
    expr = sum(c * x**i for i, c in enumerate(f.coeffs))
    _, facs = sympy.Poly(expr, x, modulus=p).factor_list()
    out = []
    for g, m in facs:
        # sympy prints residues symmetrically (-1 for p-1)
        cs = tuple(int(c) % p for c in reversed(g.all_coeffs()))
        assert cs[-1] == 1
        out.append((cs, m))
    return sorted(out)


@st.composite
def monic_polys(draw):
    p = draw(st.sampled_from(sorted(SYMPY_DEGREES)))
    n = draw(st.integers(1, SYMPY_DEGREES[p]))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return Poly(FieldSpec(p), coeffs + [1])


class TestOracles:
    @settings(max_examples=200, deadline=None)
    @given(monic_polys())
    def test_factorize_matches_sympy(self, f):
        fact = factorize(f, _table(f.field.p))
        assert sorted((P.coeffs, m) for P, m in fact.factors) == sympy_factors(f)

    def test_bit_kernel_matches_digit_kernel(self, table2):
        # every degree-10 polynomial over F_2, factored by trial division
        # on bitmask rows and on coefficient-tuple rows
        n = 10
        bit_rows = [[]] + [(table2.prime_indices(d) | 1 << d).tolist()
                           for d in range(1, n // 2 + 1)]
        coeff_rows = [[tuple((pb >> i) & 1 for i in range(d + 1)) for pb in row]
                      for d, row in enumerate(bit_rows)]
        for idx in range(1 << n):
            bits = idx | (1 << n)
            coeffs = tuple((bits >> i) & 1 for i in range(n + 1))
            got = [(tuple((pb >> i) & 1 for i in range(pb.bit_length())), m)
                   for pb, m in _trial_division(bits, bit_rows.__getitem__, _bits_divmod,
                                                lambda a: a.bit_length() - 1)]
            assert got == _trial_division(coeffs, coeff_rows.__getitem__,
                                          lambda a, b: _c_divmod(2, a, b),
                                          lambda a: len(a) - 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_factorize_leaves_the_table_as_it_was(self, p):
        table = build_table(FieldSpec(p), 6)

        def contents():  # each attribute, and the objects a list holds
            return {k: [id(x) for x in v] if isinstance(v, list) else v
                    for k, v in vars(table).items()}

        before = contents()
        for idx in range(0, p**12, p**12 // 50):
            factorize(monic_from_index(table.field, 12, idx), table)
        assert contents() == before

    @pytest.mark.parametrize("p, n", [(2, 16), (3, 12)])
    def test_factorize_reads_only_the_degrees_it_reaches(self, p, n, monkeypatch):
        # x^n has every factor in degree 1, so trial division stops there
        table = build_table(FieldSpec(p), n // 2)
        read, prime_indices = [], IrreducibleTable.prime_indices

        def spy(self, d):
            read.append(d)
            return prime_indices(self, d)

        monkeypatch.setattr(IrreducibleTable, "prime_indices", spy)
        fact = factorize(parse_poly(f"x^{n}", table.field), table)
        assert fact.degree_mult_pairs() == ((1, n),)
        assert read == [1]


def _multiples_by_poly(field, M, t):
    """Indices of M g for every monic g of degree t - deg M (Poly products)."""
    return sorted((M * monic_from_index(field, t - M.degree, j)).monic_index()
                  for j in range(field.p ** (t - M.degree)))


class TestMultiplesKernel:
    """The residue kernel's multiples against Poly multiplication."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_modulus_up_to_degree_3(self, p):
        # every monic modulus, prime or not, all moduli of a degree at
        # once, multiples to degree 6 (p = 7: 5, where the products take
        # seconds)
        field = FieldSpec(p)
        top = 5 if p == 7 else 6
        for d in range(1, 4):
            moduli = _monic_digits(p, np.arange(p**d), d)
            kernel = _Multiples(p, moduli, top)  # keeps its keys as t grows
            for t in range(d, top + 1):
                rows = kernel.rows(t)
                assert rows.shape == (p**d, p ** (t - d))
                assert (np.diff(rows, axis=1) > 0).all()
                for i in range(p**d):
                    M = monic_from_index(field, d, i)
                    assert rows[i].tolist() == _multiples_by_poly(field, M, t)

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_blocks_split_moduli_and_top_digits(self, p, monkeypatch):
        moduli = _monic_digits(p, np.arange(p**2), 2)
        want = _Multiples(p, moduli, 8).rows(8)
        ref = build_table(FieldSpec(p), 8)
        monkeypatch.setattr(sieve, "SIEVE_BLOCK_CELLS", p**3)
        shapes = [idx.shape for _, _, idx in _Multiples(p, moduli, 8).blocks(8)]
        assert len(shapes) > 1 and max(r * c for r, c in shapes) <= p**3
        assert (_Multiples(p, moduli, 8).rows(8) == want).all()
        built = build_table(FieldSpec(p), 8)
        for d in range(1, 9):
            assert (built.prime_indices(d) == ref.prime_indices(d)).all()

    @pytest.mark.parametrize("p", [2, 3])
    def test_kept_keys_serve_a_smaller_degree(self, p):
        moduli = _monic_digits(p, np.arange(p**2), 2)
        kernel = _Multiples(p, moduli, 8)
        kernel.rows(8)
        assert (kernel.rows(5) == _Multiples(p, moduli, 5).rows(5)).all()

    @pytest.mark.parametrize("p", [127, 131, 251])
    def test_digit_dtype_boundary(self, p, monkeypatch):
        # a digit-wise sum of two digits below p reaches 2p - 2: 252 fits
        # a uint8 at p = 127, while p = 131 and 251 need uint16; sampled
        # moduli, all in one block, then split over moduli and top digits
        assert sieve._digit_products(p).dtype == (np.uint8 if p < 128 else np.uint16)
        field = FieldSpec(p)
        rng = random.Random(p)
        for d in (1, 2):
            idx = np.array(sorted(rng.sample(range(p**d), 4)))
            moduli = _monic_digits(p, idx, d)
            kernel = _Multiples(p, moduli, d + 1)
            want = kernel.rows(d + 1)
            for t, rows in ((d + 1, want), (d, kernel.rows(d))):
                for row, i in zip(rows, idx.tolist()):
                    M = monic_from_index(field, d, i)
                    assert row.tolist() == _multiples_by_poly(field, M, t)
            monkeypatch.setattr(sieve, "SIEVE_BLOCK_CELLS", 2)
            shapes = [b.shape for _, _, b in _Multiples(p, moduli, d + 1).blocks(d + 1)]
            assert shapes == [(2, 1)] * (2 * p)
            assert (_Multiples(p, moduli, d + 1).rows(d + 1) == want).all()
            monkeypatch.undo()


def test_kernels_hold_no_reference_cycle():
    # with the cyclic collector off, a kernel and its kept keys are freed
    # as soon as the last reference goes, so a cycle through one (say a
    # bound method kept on it) cannot pile up dead kernels between runs
    # of the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        dead = []
        for p in (3, 2):
            kernel = _Multiples(p, _monic_digits(p, np.arange(p**2), 2), 6)
            kernel.rows(6)
            dead.append(weakref.ref(kernel))
            del kernel
        assert [ref() for ref in dead] == [None, None]
    finally:
        if enabled:
            gc.enable()


def _sympy_irreducible(field, d, i):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    coeffs = monic_from_index(field, d, i).coeffs
    return gf_irreducible_p(list(reversed(coeffs)), field.p, ZZ)


class TestListingsLargerP:
    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_listings_agree_with_sympy(self, p):
        # every monic polynomial to degree 3 (p = 7: 4); a seeded sample
        # of degree 4 for p = 11, 13
        field = FieldSpec(p)
        table = build_table(field, 4)
        top = 4 if p == 7 else 3
        for d in range(1, top + 1):
            got = set(table.prime_indices(d).tolist())
            want = {i for i in range(p**d) if _sympy_irreducible(field, d, i)}
            assert got == want
        if top < 4:
            got = set(table.prime_indices(4).tolist())
            for i in random.Random(p).sample(range(p**4), 200):
                assert (i in got) == _sympy_irreducible(field, 4, i)


def _per_target_listing_p2(max_deg):
    """The p = 2 listing sieved one target degree at a time, marking the
    residue kernel's multiples of every prime up to half the target."""
    by_degree = [None]
    for t in range(1, max_deg + 1):
        composite = np.zeros(2**t, dtype=bool)
        for d in range(1, t // 2 + 1):
            kernel = _Multiples(2, _monic_digits(2, by_degree[d], d), t)
            for _, _, idx in kernel.blocks(t):
                composite[idx] = True
        by_degree.append(np.flatnonzero(~composite))
    return by_degree


class TestListingsP2:
    """The one-pass p = 2 table sieve against the per-target sieve and sympy."""

    def test_every_max_deg_matches_per_target_sieve(self):
        # a per-target listing does not depend on max_deg; max_deg 1 and 2
        # sieve nothing or only with x + 1
        want = _per_target_listing_p2(20)
        for max_deg in range(1, 21):
            table = build_table(FieldSpec(2), max_deg)
            for d in range(1, max_deg + 1):
                assert np.array_equal(table.prime_indices(d), want[d]), (max_deg, d)

    def test_listings_agree_with_sympy(self):
        # every monic polynomial of degree <= 10
        field = FieldSpec(2)
        table = build_table(field, 10)
        for d in range(1, 11):
            want = [i for i in range(2**d) if _sympy_irreducible(field, d, i)]
            assert table.prime_indices(d).tolist() == want

    @pytest.mark.parametrize("cap", [8, 64, 512])
    def test_small_blocks_split_primes_and_cofactors(self, cap, monkeypatch):
        want = build_table(FieldSpec(2), 12)
        span, blocks = sieve._gf2_span, []

        def spy(first, gens):
            # a block of primes b of degree d spans from b >> 1
            blocks.append((int(first[0]).bit_length(), *gens.shape))
            return span(first, gens)

        monkeypatch.setattr(sieve, "SIEVE_BLOCK_CELLS", cap)
        monkeypatch.setattr(sieve, "_gf2_span", spy)
        built = build_table(FieldSpec(2), 12)
        assert all(rows << m <= cap for _, rows, m in blocks)
        odd = [0] + [len(want.prime_indices(d)) - (d == 1) for d in range(1, 13)]
        assert any(rows < odd[d] for d, rows, _ in blocks)  # split across primes
        assert any(m < 12 - d for d, _, m in blocks)  # and across cofactors
        for d in range(1, 13):
            assert np.array_equal(built.prime_indices(d), want.prime_indices(d))


class TestKernelRowsP2:
    """The multiples of every modulus at p = 2, one span each, against
    Poly multiplication and the residue kernel."""

    def test_every_modulus_up_to_degree_3(self):
        # d = n lists M itself, d > n lists nothing
        field = FieldSpec(2)
        for d in range(1, 4):
            moduli = _monic_digits(2, np.arange(2**d), d)
            for n in range(1, 7):
                rows = sieve._kernel_rows(2, n, moduli)
                assert rows.shape == (2**d, 2 ** (n - d) if n >= d else 0)
                if n < d:
                    continue
                assert (np.diff(rows, axis=1) > 0).all()
                for i in range(2**d):
                    M = monic_from_index(field, d, i)
                    assert rows[i].tolist() == _multiples_by_poly(field, M, n)

    def test_equal_to_the_residue_kernel(self):
        for d, n in ((1, 12), (4, 12), (6, 13), (7, 7)):
            moduli = _monic_digits(2, np.arange(2**d), d)
            assert np.array_equal(sieve._kernel_rows(2, n, moduli),
                                  _Multiples(2, moduli, n).rows(n))

    def test_one_span_serves_every_degree(self):
        # the span to degree 12 read at each smaller t: its first 2^(t - d)
        # columns XOR the change of start
        for d in (1, 3, 5):
            moduli = _monic_digits(2, np.arange(2**d), d)
            kernel = sieve._kernel(2, moduli, 12)
            for t in range(d, 13):
                assert np.array_equal(kernel.rows(t),
                                      _Multiples(2, moduli, t).rows(t))

    def test_memory_bound(self):
        # the span fills its rows in place; the packed-bit residue kernel
        # peaked at 12.8 MiB here, for 8 MiB of rows
        moduli = _monic_digits(2, np.arange(2**6), 6)
        tracemalloc.start()
        try:
            rows = sieve._kernel_rows(2, 20, moduli)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows.nbytes + 2**20, (peak, rows.nbytes)


def test_library_builds_no_residue_kernel_at_p2(monkeypatch):
    # p = 2 lists every multiple through _gf2_span; the residue kernel
    # (odd-p code) is built only at odd p
    from fqlab import arith, stats
    built, kernel = [], sieve._Multiples

    def spy(p, *args):
        built.append(p)
        return kernel(p, *args)

    monkeypatch.setattr(sieve, "_Multiples", spy)
    for p in (2, 3):
        field = FieldSpec(p)
        table = build_table(field, 6 if p == 2 else 4)
        one, x = parse_poly("1", field), parse_poly("x", field)
        stats.sieve_diagnostics(6 if p == 2 else 4, one, 0.0, table)
        stats.brun_titchmarsh_violations(5 if p == 2 else 3, table)
        residue_histogram(4, parse_poly("x^2+x+1", field), table)
        crt_count_enumerated(x, x + one, one, x, 5)
        for spec in ("moebius", "kfree:2", "phi_ratio"):
            psi = arith.parse_function_spec(spec, field)
            arith.scan([psi, psi], [one, x], [4], "monic", table)
            arith.scan([psi, psi], [one, x], [4], "prime", table)
        assert (p in built) == (p > 2), built


def test_p2_build_memory_bound():
    # the one-pass p = 2 sieve holds a bool per odd bitmask, the listing
    # and at most three blocks of int64 cells; sieving one target degree
    # at a time peaked at 11 MiB here
    max_deg = 20
    listing = 8 * sum(irreducible_count(2, d) for d in range(1, max_deg + 1))
    bound = 2**max_deg + listing + 3 * 8 * sieve.SIEVE_BLOCK_CELLS
    tracemalloc.start()
    try:
        build_table(FieldSpec(2), max_deg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
