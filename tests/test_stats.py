import cmath
import functools
import math
import re
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fqlab import (
    AdditiveSpec,
    EmpiricalDistribution,
    FieldSpec,
    Poly,
    ShiftPair,
    SieveError,
    SpecError,
    StatsError,
    TableTooSmallError,
    brun_titchmarsh_violations,
    build_table,
    builtin,
    builtin_additive,
    charfn_comparison,
    empirical_charfn,
    empirical_distribution,
    factorize,
    ks_distance,
    limit_charfn,
    parse_poly,
    residue_histogram,
    sieve_diagnostics,
    squarefree_weight_sum,
    tk_ratio,
)
from fqlab import stats
from fqlab.arith import scan
from fqlab.cli import _TK_RULES
from fqlab.fieldpoly import monic_from_index
from fqlab.sieve import shifted
from oracles import (
    char_value,
    charfn_by_correlate,
    eval_on,
    limit_charfn_per_t,
)


def pair(field, a, b):
    return ShiftPair(parse_poly(a, field), parse_poly(b, field))


@functools.cache
def small_table(p):
    """A table that factors every shift difference the limit tests use."""
    return build_table(FieldSpec(p), 2)


# t grids for the limit against the per-t loop: mirrors that come
# before, after and twice, none at all, and a signed zero
LIMIT_GRIDS = {
    "symmetric": (-2.0, -1.0, 0.0, 1.0, 2.0),
    "asymmetric": (-0.5, 0.25, 1.5, 0.5, 3.0),
    "repeated": (1.0, 1.0, -1.0, 0.3, -1.0, 0.3, -0.3),
    "negative": (-3.0, -0.7, -0.001),
    "signed-zero": (0.0, -0.0, 0.0, -0.0),
}


def tk_spec(field, rule):
    """The additive spec of a degree rule, as the tk command builds it."""
    return AdditiveSpec("tk", field, rule, trivial_beyond_degree=None,
                        power_settle=None)


def tk_at(psi, h, n, domain, table):
    """tk_ratio of psi's column at the shift h, from a scan of degree n."""
    [(values,)] = scan([psi], [h], [n], domain, table)
    return tk_ratio(psi, values, n, domain, table)


class TestEmpiricalDistribution:
    def test_zero_functions_point_mass(self, field2, table2):
        z = builtin_additive("zero", field2)
        d = empirical_distribution(z, z, pair(field2, "0", "1"), 6, "monic",
                                   table2)
        assert d.values == (0.0,) and d.counts == (64,)

    def test_hand_enumerated_quadratics(self, field2, table2):
        # the four monic quadratics with shifts (0, 1) under the additive
        # logarithm of Phi(f)/|f|: two land at log(1/4), two at log(3/16)
        lpr = builtin_additive("log_phi_ratio", field2)
        d = empirical_distribution(lpr, lpr, pair(field2, "0", "1"), 2,
                                   "monic", table2)
        assert d.domain_size == 4
        want = {round(math.log(1.0 / 4.0), 12): 2,
                round(math.log(3.0 / 16.0), 12): 2}
        got = {round(v, 12): c for v, c in d.dump_rows()}
        assert got == want

    def test_prime_domain_single_sample(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        d = empirical_distribution(lpr, lpr, pair(field2, "0", "1"), 2,
                                   "prime", table2)
        assert d.domain_size == 1
        assert abs(d.values[0] - math.log(3.0 / 16.0)) < 1e-12

    def test_cdf_steps(self):
        d = EmpiricalDistribution((0.0, 1.0), (1, 3), 4)
        assert d.cdf(-0.5) == 0.0
        assert d.cdf(0.0) == 0.25
        assert d.cdf(2.0) == 1.0

    def test_counts_must_cover_domain(self):
        with pytest.raises(StatsError):
            EmpiricalDistribution((0.0,), (3,), 4)

    def test_shift_degree_validated(self, field2, table2):
        z = builtin_additive("zero", field2)
        with pytest.raises(StatsError):
            empirical_distribution(z, z, pair(field2, "0", "x^3"), 3, "monic",
                                   table2)


class TestKS:
    def test_identical_zero(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        d = empirical_distribution(lpr, lpr, pair(field2, "0", "1"), 6,
                                   "monic", table2)
        assert ks_distance(d, d) == 0.0

    def test_point_masses(self):
        a = EmpiricalDistribution((0.0,), (1,), 1)
        b = EmpiricalDistribution((1.0,), (1,), 1)
        assert ks_distance(a, b) == 1.0

    def test_successive_degree_distances_shrink(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        sh = pair(field2, "0", "1")
        dists = {n: empirical_distribution(lpr, lpr, sh, n, "monic", table2)
                 for n in (8, 10, 12, 14)}
        ks = [ks_distance(dists[n], dists[n + 2]) for n in (8, 10, 12)]
        assert ks[0] > ks[1] > ks[2]


class TestCharFn:
    def test_phi_n_at_zero_is_exactly_one(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        g = empirical_charfn(lpr, lpr, pair(field2, "0", "1"), 6, "monic",
                             (0.0, 1.0), table2)
        assert g.phi_empirical[0] == 1.0

    def test_zero_function_identically_one(self, field2, table2):
        z = builtin_additive("zero", field2)
        g = empirical_charfn(z, z, pair(field2, "0", "1"), 6, "monic",
                             (-2.0, 0.0, 2.0), table2)
        assert all(v == 1.0 for v in g.phi_empirical)

    def test_unit_modulus_bound(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        g = empirical_charfn(lpr, lpr, pair(field2, "0", "1"), 8, "monic",
                             [t / 2 for t in range(-6, 7)], table2)
        assert all(abs(v) <= 1 + 1e-12 for v in g.phi_empirical)

    def test_two_paths_agree(self, field2, table2):
        # grouping by value against one correlation per t
        lpr = builtin_additive("log_phi_ratio", field2)
        sh = pair(field2, "0", "1")
        grid = (-1.5, 0.7, 2.0)
        a = empirical_charfn(lpr, lpr, sh, 6, "monic", grid, table2)
        b = charfn_by_correlate(lpr, lpr, sh, 6, "monic", grid, table2)
        for va, vb in zip(a.phi_empirical, b.phi_empirical):
            assert abs(va - vb) <= 1e-10

    @pytest.mark.parametrize("p, domain, n", [
        (2, "monic", 8), (2, "prime", 9), (3, "monic", 5), (3, "prime", 6),
    ])
    @pytest.mark.parametrize("rows", [None, 1, 4],
                             ids=["one-block", "one-t-per-block", "blocks"])
    def test_empirical_grid_is_the_char_value_loop(self, p, domain, n, rows,
                                                   table2, table3,
                                                   monkeypatch):
        # the array pass against one loop over the distinct values per t,
        # whole or in blocks of rows points (the last block shorter)
        table = {2: table2, 3: table3}[p]
        lpr = builtin_additive("log_phi_ratio", table.field)
        sh = pair(table.field, "0", "1")
        grid = (-3.0, -0.5, 0.0, 0.25, 1.0, -1.0, 2.5, 40.0, 0.0)
        dist = empirical_distribution(lpr, lpr, sh, n, domain, table)
        if rows is not None:
            cells = rows * len(dist.values) + len(dist.values) - 1
            monkeypatch.setattr(stats, "SIEVE_BLOCK_CELLS", cells)
        got = empirical_charfn(lpr, lpr, sh, n, domain, grid, table)
        assert got.t_values == grid and len(got.phi_empirical) == len(grid)
        for t, v in zip(grid, got.phi_empirical):
            assert abs(v - char_value(dist, t)) <= 1e-14
        assert got.phi_empirical[2] == got.phi_empirical[-1] == 1.0

    def test_non_finite_phase_refused(self, field2, table2):
        # cmath.exp(1j * inf) once ended in "math domain error"; an array
        # pass would give NaN
        lpr = builtin_additive("log_phi_ratio", field2)
        with pytest.raises(StatsError, match=re.escape("t = 1e+308 ")):
            empirical_charfn(lpr, lpr, pair(field2, "0", "1"), 5, "monic",
                             (1.0, 1e308, -1e308), table2)
        # a product that stays finite passes, however large
        g = empirical_charfn(lpr, lpr, pair(field2, "0", "1"), 5, "monic",
                             (1e300,), table2)
        assert all(map(cmath.isfinite, g.phi_empirical))

    @pytest.mark.parametrize("mode", ["monic", "prime"])
    @pytest.mark.parametrize("p, h2", [
        (2, "1"), (2, "x^2+x"), (3, "x+2"), (3, "x^2+x"), (5, "x^2+x"),
    ])
    def test_limit_grid_is_the_per_t_loop(self, p, h2, mode):
        # bit for bit: value, its type (a real value stays a float) and
        # tail, with special primes (x, x + 1 | x^2 + x) and a lone one
        field = FieldSpec(p)
        table = small_table(p)
        lpr = builtin_additive("log_phi_ratio", field)
        sh = pair(field, "0", h2)
        for psi1, psi2 in ((lpr, lpr), (lpr, builtin_additive("zero", field))):
            for grid in LIMIT_GRIDS.values():
                got = limit_charfn(psi1, psi2, sh, grid, mode, table)
                want = limit_charfn_per_t(psi1, psi2, sh, grid, mode, table)
                assert got.t_values == want.t_values
                assert ([(type(v.value), repr(v.value), repr(v.tail_bound))
                         for v in got.phi_limit]
                        == [(type(v.value), repr(v.value), repr(v.tail_bound))
                            for v in want.phi_limit])

    def test_one_walk_per_mirror_pair(self, field2, table2, monkeypatch):
        # a walk per t whose mirror -t (or t itself) has not come earlier,
        # at the sign that comes first
        names = []
        walk = stats.main_term

        def spy(degrees, shifts, e1, e2, mode, table):
            names.append(e1.name)
            return walk(degrees, shifts, e1, e2, mode, table)

        monkeypatch.setattr(stats, "main_term", spy)
        lpr = builtin_additive("log_phi_ratio", field2)
        sh = pair(field2, "0", "1")
        grid = [t / 2 for t in range(-6, 7)]
        limit_charfn(lpr, lpr, sh, grid, "monic", table2)
        assert names == [f"exp({t:g}*log_phi_ratio)" for t in grid[:6]] + ["one"]
        names.clear()
        limit_charfn(lpr, lpr, sh, (0.5, -0.5, 1.0, -0.0, 0.0, 1.0, -2.0, 2.0),
                     "monic", table2)
        assert names == ["exp(0.5*log_phi_ratio)", "exp(1*log_phi_ratio)",
                         "one", "exp(-2*log_phi_ratio)"]

    def test_refusal_at_the_first_sign(self, field2, table2):
        # omega has no decay bound: the walk at the grid's first t refuses
        omega = builtin_additive("omega", field2)
        from fqlab import MainTermError
        with pytest.raises(MainTermError, match=re.escape("exp(-3*omega)")):
            limit_charfn(omega, omega, pair(field2, "0", "1"), (-3.0, 3.0),
                         "monic", table2)

    def test_non_additive_spec_refused(self, field2, table2):
        # phi(-t) = conj phi(t) needs real values
        lpr = builtin_additive("log_phi_ratio", field2)
        mob = builtin("moebius", field2)
        for psi1, psi2 in ((mob, lpr), (lpr, mob)):
            with pytest.raises(StatsError, match="moebius"):
                limit_charfn(psi1, psi2, pair(field2, "0", "1"), (1.0,),
                             "monic", table2)

    def test_limit_at_zero_is_one(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        g = limit_charfn(lpr, lpr, pair(field2, "0", "1"), (0.0,), "monic",
                         table2)
        assert g.phi_limit[0].value == 1.0
        # a positional gamma from an older caller must not pass for the
        # tail target
        with pytest.raises(TypeError):
            limit_charfn(lpr, lpr, pair(field2, "0", "1"), (0.0,), "monic",
                         table2, 4)

    def test_limit_against_direct_product(self, field2, table2):
        # monic-mode limit factors 1 + 2((1-q^{-d})^{it}-1)/q^d
        lpr = builtin_additive("log_phi_ratio", field2)
        t = 1.0
        g = limit_charfn(lpr, lpr, pair(field2, "0", "1"), (t,), "monic",
                         table2)
        import cmath
        from fqlab import irreducible_count
        log_ref = 0j
        for d in range(1, 250):
            v = (1.0 - 2.0 ** -d) ** complex(0, t)
            log_ref += irreducible_count(2, d) * cmath.log(1 + 2 * (v - 1) / 2 ** d)
        ref = cmath.exp(log_ref)
        tv = g.phi_limit[0]
        assert abs(tv.value - ref) <= tv.tail_bound + 1e-12

    def test_prime_mode_limit_factor_shape(self, field3, table3):
        # prime-mode factors 1 + (2/phi(P))((1-q^{-d})^{it} - 1)
        lpr = builtin_additive("log_phi_ratio", field3)
        t = 0.8
        g = limit_charfn(lpr, lpr, pair(field3, "0", "1"), (t,), "prime",
                         table3)
        import cmath
        from fqlab import irreducible_count
        log_ref = 0j
        for d in range(1, 160):
            v = (1.0 - 3.0 ** -d) ** complex(0, t)
            f = 1 + 2.0 / (3 ** d - 1) * (v - 1)
            log_ref += irreducible_count(3, d) * cmath.log(f)
        ref = cmath.exp(log_ref)
        tv = g.phi_limit[0]
        assert abs(tv.value - ref) <= tv.tail_bound + 1e-12

    def test_convergence_toward_limit(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        sh = pair(field2, "0", "1")
        grid = (-2.0, -1.0, 0.5, 1.5, 3.0)
        comp8 = charfn_comparison(lpr, lpr, sh, 8, "monic", grid, table2)
        comp12 = charfn_comparison(lpr, lpr, sh, 12, "monic", grid, table2)
        assert max(comp12.per_t_error) < max(comp8.per_t_error)

    def test_divergent_spec_refused_at_once(self, field2, table2):
        # an additive rule growing with the degree violates the hypothesis
        # and declares no decay bound: refused before any rule value is read
        from fqlab import AdditiveSpec, MainTermError
        seen = []

        def growing(d, m):
            seen.append(d)
            return 2.0 ** (d / 2.0)

        bad = AdditiveSpec("growing", field2, growing,
                           trivial_beyond_degree=None, power_settle=None)
        with pytest.raises(MainTermError, match="no decay bound"):
            limit_charfn(bad, bad, pair(field2, "0", "1"), (1.0,),
                         "monic", table2)
        assert seen == []


class TestTuranKubilius:
    def test_zero_rule(self, field2, table2):
        zero = tk_spec(field2, lambda d, m: 0.0)
        rep = tk_at(zero, parse_poly("0", field2), 8, "monic", table2)
        assert rep.lhs == 0.0 and rep.ratio == 0.0

    def test_frozen_oracle_constants_n8(self, field2, table2):
        # frozen from the naive-factorization oracle (trial division by all
        # monic polynomials, no sieve table involved)
        ones = tk_spec(field2, lambda d, m: 1.0)
        rep = tk_at(ones, parse_poly("0", field2), 8, "monic", table2)
        assert abs(rep.lhs - 138.95310425758362) < 1e-8
        assert abs(rep.rhs - 868.0) < 1e-9
        assert abs(rep.ratio - 0.160084221494912) < 1e-10
        first = tk_spec(field2, lambda d, m: 1.0 if m == 1 else 0.0)
        rep = tk_at(first, parse_poly("0", field2), 8, "monic", table2)
        assert abs(rep.lhs - 196.80100083351135) < 1e-8
        assert abs(rep.rhs - 582.0) < 1e-9

    def test_ratio_non_growth_window(self, field2, table2):
        zero, ones = parse_poly("0", field2), tk_spec(field2, lambda d, m: 1.0)
        ratios = [tk_at(ones, zero, n, "monic", table2).ratio
                  for n in range(6, 11)]
        assert max(ratios) <= 2.0 * ratios[0]

    def test_prime_domain_first_moment(self, field2, table2):
        ones = tk_spec(field2, lambda d, m: 1.0)
        rep = tk_at(ones, parse_poly("1", field2), 7, "prime", table2)
        assert rep.rhs > 0 and rep.lhs >= 0
        assert rep.ratio < 2.0  # sanity envelope for the O(1) bound

    def test_shifted_rule(self, field2, table2):
        # shifting h changes nothing for the bound's validity
        ones = tk_spec(field2, lambda d, m: 1.0)
        a = tk_at(ones, parse_poly("0", field2), 8, "monic", table2)
        b = tk_at(ones, parse_poly("x^2+1", field2), 8, "monic", table2)
        assert abs(a.lhs - b.lhs) < 1e-9  # shift is a bijection of the domain

    def test_multiplicative_spec_refused(self, field2, table2):
        # once read as additive: lhs 196.80, rhs 582.0 for moebius
        mu = builtin("moebius", field2)
        with pytest.raises(StatsError, match="additive"):
            tk_ratio(mu, np.zeros(2**8), 8, "monic", table2)

    def test_rule_poly_spec_refused(self, field2, table2):
        # once a TypeError: 'NoneType' object is not callable
        by_prime = AdditiveSpec("p", field2, None, trivial_beyond_degree=None,
                                power_settle=None, rule_poly=lambda P, m: 1.0)
        with pytest.raises(StatsError, match="degree rule"):
            tk_ratio(by_prime, np.zeros(2**8), 8, "monic", table2)

    def test_shift_degree_validated(self, field2, field3, table2, table3):
        for field, table in ((field2, table2), (field3, table3)):
            ones = tk_spec(field, lambda d, m: 1.0)
            with pytest.raises(SieveError):
                tk_at(ones, parse_poly("x^6", field), 6, "monic", table)


class TestSieveDiagnostics:
    def test_h1_example(self, table2):
        h = squarefree_weight_sum(1, table2)
        assert h == Fraction(3)  # two degree-1 primes, 3/2 each

    def test_frozen_h_values(self, table2):
        want = [Fraction(3), Fraction(3), Fraction(3), Fraction(9, 2),
                Fraction(9, 2), Fraction(45, 8), Fraction(27, 4),
                Fraction(117, 16)]
        got = [squarefree_weight_sum(n, table2) for n in range(1, 9)]
        assert got == want

    def test_h_quadratic_lower_bound(self, table2):
        for n in range(1, 11):
            assert squarefree_weight_sum(n, table2) / n ** 2 >= Fraction(1, 20)

    def test_theta_bounded_for_unit_shift(self, field2, table2):
        ratios = []
        for n in (6, 8, 10):
            diag = sieve_diagnostics(n, parse_poly("1", field2), 1.0, table2)
            ratios.append(float(diag.theta_ratio))
        assert all(r <= 2.0 for r in ratios)

    def test_zero_shift_degenerates(self, field2, table2):
        diag = sieve_diagnostics(8, parse_poly("0", field2), 1.0, table2)
        assert diag.theta == 0

    def test_divisor_product_stays_logarithmic(self, field2, table2):
        diag = sieve_diagnostics(10, parse_poly("1", field2), 1.0, table2)
        assert 1 <= float(diag.divprod_max) <= 6 * math.log(10)

    def test_bv_sum_exact_fraction(self, field2, table2):
        diag = sieve_diagnostics(8, parse_poly("1", field2), 0.5, table2)
        assert isinstance(diag.bv_sum, Fraction)
        assert diag.bv_sum >= 0

    def test_negative_t_refused(self, field2):
        # the level Q <= q^{n/2}/n^t needs t >= 0; a negative t once
        # walked modulus degrees past n, here until degree 5 left the table
        table = build_table(field2, 4)
        for t in (-20.0, -1e-9, math.nan):
            with pytest.raises(StatsError, match="t must be >= 0"):
                sieve_diagnostics(4, parse_poly("1", field2), t, table)


class TestOtherFieldRefused:
    """An input over F_3 given with an F_2 table is refused, where it
    was once computed as if it were over F_2."""

    def test_value_array_refuses_the_spec(self, field2, field3, table2):
        # the law of F_3 log_phi_ratio once came out with q = 3
        psi = builtin_additive("log_phi_ratio", field3)
        with pytest.raises(SpecError):
            empirical_distribution(psi, psi, pair(field2, "0", "1"), 6,
                                   "monic", table2)

    def test_shifted_refuses_the_shift(self, field2, field3, table2):
        values = np.zeros(2**6)
        for h in (Poly(field3, ()), parse_poly("x+2", field3)):
            with pytest.raises(SieveError):
                shifted(values, field2, 6, h)
            with pytest.raises(SieveError):
                shifted(values, field2, 6, h, np.arange(4))
            with pytest.raises(SieveError):  # once a report
                tk_at(tk_spec(field2, lambda d, m: 1.0), h, 6, "monic",
                      table2)
            with pytest.raises(SieveError):  # once theta 15, and 0 at h = 0
                sieve_diagnostics(6, h, 1.0, table2)
        with pytest.raises(SieveError, match="degree 6"):
            shifted(values, field2, 6, parse_poly("x^6", field2))

    def test_residue_histogram_refuses_the_modulus(self, field3, table2):
        M = parse_poly("x+2", field3)
        with pytest.raises(SieveError):  # once {7: 1, 1: 1, 31: 1}
            residue_histogram(4, M, table2)


class TestBrunTitchmarsh:
    def test_no_violations_to_degree_8(self, table2):
        assert brun_titchmarsh_violations(8, table2) == []

    def test_no_violations_p3(self, table3):
        assert brun_titchmarsh_violations(5, table3) == []

    def test_small_table_refused_before_sieving(self, field2, monkeypatch):
        # once 4.8 ms of sieving, then "degree 9 not tabulated (max 8)"
        # from inside the loop
        table = build_table(field2, 8)
        monkeypatch.setattr(stats, "phi_values",
                            lambda *a: pytest.fail("sieved before the refusal"))
        with pytest.raises(TableTooSmallError,
                           match=r"n_max = 12 needs .* table has 8"):
            brun_titchmarsh_violations(12, table)
        assert brun_titchmarsh_violations(1, table) == []


# ---------------------------------------------------------------------------
# the scans against brute force through factorize (p=3 digit kernel, and
# the fallback for functions without degree symmetry)
# ---------------------------------------------------------------------------

def brute_source(field, n, domain, table):
    if domain == "monic":
        return [monic_from_index(field, n, i) for i in range(field.p ** n)]
    return table.primes(n)


def brute_distribution(psi1, psi2, h1, h2, n, domain, table):
    counts = Counter()
    for f in brute_source(table.field, n, domain, table):
        counts[eval_on(factorize(f + h1, table), psi1)
               + eval_on(factorize(f + h2, table), psi2)] += 1
    return sorted(counts.items())


def brute_tk(rule, h, n, domain, table):
    q = table.field.p
    pairs = [(d, m) for d in range(1, n + 1) for m in range(1, n // d + 1)]
    if domain == "monic":
        center = sum(table.count(d) * rule(d, m) * q ** (-m * d) * (1 - q ** -d)
                     for d, m in pairs)
    else:
        center = sum(table.count(d) * rule(d, m) * (1 - q ** -d)
                     / (q ** (m * d) - q ** ((m - 1) * d)) for d, m in pairs)
    lhs = 0.0
    for f in brute_source(table.field, n, domain, table):
        s = sum(rule(P.degree, m) for P, m in factorize(f + h, table).factors)
        lhs += abs(s - center) ** (2 if domain == "monic" else 1)
    return lhs


class TestScansAgainstBruteForce:
    @pytest.mark.parametrize("domain", ["monic", "prime"])
    def test_distribution_p3(self, domain, field3, table3):
        om = builtin_additive("omega", field3)
        bo = builtin_additive("big_omega", field3)
        h1, h2 = parse_poly("0", field3), parse_poly("x+2", field3)
        d = empirical_distribution(om, bo, ShiftPair(h1, h2), 5, domain, table3)
        assert d.dump_rows() == brute_distribution(om, bo, h1, h2, 5, domain,
                                                   table3)

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    def test_distribution_without_degree_symmetry(self, domain, field2, table2):
        # weight 1 on primes with a nonzero constant term, 2 on x
        odd = AdditiveSpec("odd", field2, None, trivial_beyond_degree=None,
                           power_settle=None, rule_poly=lambda P, m: float(m) * (2 - (P.coeffs[0] > 0)))
        lpr = builtin_additive("log_phi_ratio", field2)
        h1, h2 = parse_poly("1", field2), parse_poly("x", field2)
        d = empirical_distribution(odd, lpr, ShiftPair(h1, h2), 7, domain, table2)
        assert d.dump_rows() == brute_distribution(odd, lpr, h1, h2, 7, domain,
                                                   table2)

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    def test_tk_p3(self, domain, field3, table3):
        rule = lambda d, m: 1.0 if m == 1 else 0.25 * d
        h = parse_poly("x^2+1", field3)
        rep = tk_at(tk_spec(field3, rule), h, 5, domain, table3)
        want = brute_tk(rule, h, 5, domain, table3)
        assert abs(rep.lhs - want) <= 1e-9 * want

    @pytest.mark.parametrize("q, n", [(2, 10), (3, 5), (5, 4), (7, 3)])
    def test_squarefree_weights_and_divisor_product(self, q, n):
        # at q = 7 there are more degree-1 primes than n
        field = FieldSpec(q)
        table = build_table(field, n)
        h_seq, best = [], Fraction(1)
        for m in range(1, n + 1):
            total = 0
            for f in brute_source(field, m, "monic", table):
                fact = factorize(f, table)
                if all(e == 1 for _, e in fact.factors):
                    total += 3 ** len(fact.factors)
                if m == n:
                    prod = Fraction(1)
                    for P, _ in fact.factors:
                        prod *= Fraction(q ** P.degree + 1, q ** P.degree)
                    best = max(best, prod)
            h_seq.append(Fraction(total, q ** m))
        diag = sieve_diagnostics(n, parse_poly("x", field), 1.0, table)
        assert list(diag.h_sequence) == h_seq
        assert diag.divprod_max == best
        assert squarefree_weight_sum(n, table) == h_seq[-1]


def euler_product_weights(n, table):
    """q^m H(m) for m = 0..n: the coefficients of prod_P (1 + 3 u^deg P)
    = prod_{d <= n} (1 + 3 u^d)^{N_d} to u^n, exact integers."""
    coeffs = [1] + [0] * n
    for d in range(1, n + 1):
        nd = table.count(d)
        for m in range(n, d - 1, -1):  # downward: coeffs[< m] not yet updated
            coeffs[m] += sum(math.comb(nd, j) * 3**j * coeffs[m - j * d]
                             for j in range(1, m // d + 1))
    return coeffs


class TestSquarefreeWeightSum:
    """H(m), read off the prime counts, against the count of mu^2(f)
    3^omega(f) over every monic f of degree m and against the Euler
    product prod_d (1 + 3u^d)^{N_d}."""

    @pytest.mark.parametrize("p, n_max, table_deg", [(2, 10, 5), (3, 6, 3),
                                                     (5, 4, 2)])
    def test_equals_the_count_and_the_euler_product(self, p, n_max, table_deg):
        field = FieldSpec(p)
        table = build_table(field, table_deg)
        weights = euler_product_weights(n_max, table)
        assert squarefree_weight_sum(0, table) == 1 == weights[0]
        for m in range(n_max + 1):
            total = 0
            for f in brute_source(field, m, "monic", table):
                factors = factorize(f, table).factors
                if all(e == 1 for _, e in factors):
                    total += 3 ** len(factors)
            assert total == weights[m]
            assert squarefree_weight_sum(m, table) == Fraction(total, p ** m)

    def test_negative_degree_refused(self, field2):
        with pytest.raises(SieveError) as caught:
            squarefree_weight_sum(-1, build_table(field2, 8))
        assert type(caught.value) is SieveError
        assert str(caught.value) == "degree must be >= 0, got -1"

    @pytest.mark.parametrize("n", [18, 28])
    def test_past_the_table_and_the_cell_budget(self, n, field2):
        # no polynomial is enumerated, so neither a degree-8 table nor
        # 2^28 cells past the budget stops it (both were once refused)
        table = build_table(field2, 8)
        assert squarefree_weight_sum(n, table) == \
            Fraction(euler_product_weights(n, table)[n], 2**n)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def tk_lhs_bits(rule, h, n, domain, table, monkeypatch):
    """The bits of tk_ratio's lhs, and of the lhs it gives when
    np.unique hands back every cell as its own distinct value, so that
    each cell is squared by its own _POW call."""
    unique = np.unique

    def every_cell_distinct(a, return_inverse=False, **kw):
        if not return_inverse:
            return unique(a, **kw)
        return a, np.arange(a.size)

    psi = tk_spec(table.field, rule)
    fast = tk_at(psi, h, n, domain, table).lhs
    with monkeypatch.context() as m:
        m.setattr(stats.np, "unique", every_cell_distinct)
        per_cell = tk_at(psi, h, n, domain, table).lhs
    return bits(fast), bits(per_cell)


class TestTuranKubiliusBits:
    """Squaring each distinct deviation once gives every cell the bits
    of its own pow: lhs is the per-cell path's, bit for bit."""

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    @pytest.mark.parametrize("rule", sorted(_TK_RULES))
    @pytest.mark.parametrize("h", ["0", "1", "x^2+1"])
    def test_p2_cli_rules(self, domain, rule, h, field2, table2_14,
                          monkeypatch):
        shift = parse_poly(h, field2)
        for n in range(6, 14):
            fast, per_cell = tk_lhs_bits(_TK_RULES[rule], shift, n, domain,
                                         table2_14, monkeypatch)
            assert fast == per_cell

    @pytest.mark.parametrize("rule, nan", [
        (lambda d, m: cmath.exp(1j * d) / m, False),
        (lambda d, m: math.nan if d == 2 else 1.0, True),
        (lambda d, m: math.inf if m == 2 else 1.0, True),
    ], ids=["complex", "nan", "inf"])
    def test_p3_complex_nan_and_inf(self, rule, nan, field3, table3,
                                    monkeypatch):
        h = parse_poly("x+1", field3)
        for n in range(2, 9):
            for domain in ("monic", "prime") if n <= 6 else ("monic",):
                fast, per_cell = tk_lhs_bits(rule, h, n, domain, table3,
                                             monkeypatch)
                assert fast == per_cell
                assert math.isnan(struct.unpack("<d", fast)[0]) == nan
