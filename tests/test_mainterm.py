import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from fqlab import (
    CorrelationSpec,
    FieldSpec,
    MainTermError,
    ShiftPair,
    TruncatedValue,
    build_table,
    builtin,
    builtin_additive,
    custom_from_table,
    exp_additive,
    irreducible_count,
    main_term,
    parse_function_spec,
    parse_poly,
)
from fqlab import mainterm
from fqlab.arith import FunctionSpec
from fqlab.mainterm import (
    _degree_factors,
    _depth,
    _factor,
    _LogProduct,
    _subnormal_degree,
    _walk,
)
from oracles import (
    constant_sign,
    correlate_at,
    distance,
    error_bound_shape,
    liouville_local_closed,
    local_factor,
    truncated_times,
)


def sp(field, h1_text, h2_text):
    return ShiftPair(parse_poly(h1_text, field), parse_poly(h2_text, field))


class TestClosedForm:
    def test_values(self):
        assert liouville_local_closed(1, 0, 2) == Fraction(-1, 3)
        assert liouville_local_closed(1, 1, 2) == Fraction(1, 3)
        assert liouville_local_closed(2, 0, 2) == Fraction(1, 5)

    def test_is_exact_rational(self):
        v = liouville_local_closed(3, 2, 3)
        assert isinstance(v, Fraction)
        assert v == 1 - Fraction(4, 3 ** 6 * (3 ** 3 + 1))

    def test_validation(self):
        with pytest.raises(MainTermError):
            liouville_local_closed(0, 0, 2)
        with pytest.raises(MainTermError):
            liouville_local_closed(1, -1, 2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_local_factor_matches_closed_form(self, q):
        # the generic double sum against the exact rational
        field = FieldSpec(q)
        lam = builtin("liouville_truncated", field, y=6)
        for d in range(1, 7):
            for k in range(0, 4):
                got = local_factor(d, k, lam, lam, "monic")
                want = float(liouville_local_closed(d, k, q))
                assert abs(got.value - want) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_summed_to_double_precision(self, q):
        # with no depth to ask for, a rule that never settles is summed
        # until its terms fall below an ulp of 1
        field = FieldSpec(q)
        lam = builtin("liouville_truncated", field, y=6)
        for d in range(1, 7):
            for k in (None, 0, 1, 2, 3, 40):
                got = local_factor(d, k, lam, lam, "monic")
                # unconstrained: lambda^2 = 1, the limit k -> infinity
                want = 1.0 if k is None else float(liouville_local_closed(d, k, q))
                assert abs(got.value - want) <= 4e-16, (d, k)
                assert got.tail_bound <= 2.0**-53

    def test_depth_is_derived_from_q_to_the_minus_d(self):
        # one past the first m with 1.0 + q^{-m d} == 1.0
        assert [_depth(float(q) ** -d) for q, d in
                ((2, 1), (2, 2), (3, 1), (5, 1), (251, 1), (2, 53), (2, 2000))] \
            == [54, 28, 35, 24, 8, 2, 2]


class TestLocalFactor:
    def test_constant_one_gives_exact_unity(self, field2):
        one = builtin("one", field2)
        for mode in ("monic", "prime"):
            w = local_factor(3, 0, one, one, mode)
            assert w.value == 1 and w.tail_bound == 0.0

    def test_unconstrained_equals_huge_k(self, field2):
        lam = builtin("liouville", field2)
        a = local_factor(2, None, lam, lam, "monic")
        b = local_factor(2, 40, lam, lam, "monic")
        assert a.value == b.value

    def test_unconstrained_against_direct_double_sum(self, field2):
        # independent summation with explicit alpha values
        # alpha(m) = lambda(P^m) - lambda(P^{m-1}) = 2 (-1)^m
        for d in (1, 2, 3):
            x = 2.0 ** -d
            direct = 0.0
            for m1 in range(0, 81):
                a1 = 1.0 if m1 == 0 else 2.0 * (-1) ** m1
                for m2 in range(0, 81):
                    a2 = 1.0 if m2 == 0 else 2.0 * (-1) ** m2
                    direct += a1 * a2 * x ** max(m1, m2)
            lam = builtin("liouville", field2)
            got = local_factor(d, None, lam, lam, "monic")
            assert abs(got.value - direct) < 1e-13

    def test_prime_mode_weights(self, field3):
        # weight 1/phi(P^M) with phi(P^0) = 1: spot check k-free rule
        kf = builtin("kfree", field3, k=2)
        w = local_factor(1, 0, kf, kf, "prime")
        # pairs (0,0) -> 1; (0,2),(2,0) -> alpha(2) = -1 weight 1/phi(P^2)=1/6
        assert abs(w.value - (1 - 2.0 / 6.0)) < 1e-15
        assert w.tail_bound == 0.0  # settled rule: exact

    def test_non_unit_bounded_rejected(self, field2):
        big = custom_from_table(field2, {(1, 1): 1.5})
        with pytest.raises(MainTermError):
            local_factor(1, 0, big, big, "monic")


def _literal_factor(psi1, psi2, d, k, mode, depth):
    """The defining double sum of W_P over m1, m2 <= depth with
    min(m1, m2) <= k (k None: no constraint)."""
    x = float(psi1.field.p) ** -d
    m = np.arange(depth + 1)

    def alpha(spec):
        v = [1] + [spec.value_dm(d, j) for j in range(1, depth + 1)]
        return np.array([1] + [v[j] - v[j - 1] for j in range(1, depth + 1)],
                        dtype=complex)

    w = np.array([x**M if mode == "monic" or M == 0 else x**M / (1.0 - x)
                  for M in m])[np.maximum.outer(m, m)]
    if k is not None:
        w[np.minimum.outer(m, m) > k] = 0.0
    return complex(np.sum(np.outer(alpha(psi1), alpha(psi2)) * w))


def _all_builtins(field):
    return [builtin("one", field), builtin("moebius", field),
            builtin("kfree", field, k=2), builtin("kfree", field, k=3),
            builtin("liouville", field),
            builtin("liouville_truncated", field, y=2),
            builtin("phi_ratio", field),
            exp_additive(builtin_additive("big_omega", field), 0.7)]


class TestFactorOracle:
    """_factor's grouped sum against the literal double sum."""

    @pytest.mark.parametrize("q", [2, 3, 251])
    @pytest.mark.parametrize("mode", ["monic", "prime"])
    def test_grouped_sum_equals_double_sum(self, q, mode):
        specs = _all_builtins(FieldSpec(q))
        # every builtin with itself and with its neighbour in the list
        pairs = list(zip(specs, specs)) + list(zip(specs, specs[1:] + specs[:1]))
        for psi1, psi2 in pairs:
            for k in (None, 0, 1, 2, 5):
                for d in (1, 2, 3, 5, 9):
                    dev, tail = _factor(psi1, psi2, d, k, mode)
                    want = _literal_factor(psi1, psi2, d, k, mode, 80)
                    assert abs(1 + dev - want) <= 1e-13, (psi1.name, psi2.name, k, d)
                    settle = (psi1.power_settle, psi2.power_settle)
                    if None not in settle and max(settle) <= _depth(float(q) ** -d):
                        assert tail == 0.0  # both rules settle by M_d
                    # the tail covers everything past M_d
                    deep = _literal_factor(psi1, psi2, d, k, mode, 120)
                    assert abs(1 + dev - deep) <= tail + 1e-13, \
                        (psi1.name, psi2.name, k, d)


class TestEqualShifts:
    """h1 = h2 leaves every prime unconstrained, the large ones included."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_kfree_density(self, q):
        # mu^2(f) mu^2(f): the density of squarefree polynomials, 1 - 1/q
        field = FieldSpec(q)
        table = build_table(field, 4)
        kf = builtin("kfree", field, k=2)
        x = parse_poly("x", field)
        [tv] = main_term([None], ShiftPair(x, x), kf, kf, "monic", table)
        assert abs(tv.value - (1 - 1 / q)) <= tv.tail_bound + 1e-14

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_phi_ratio_product(self, q):
        # factors 1 + q^{-d}((1 - q^{-d})^2 - 1) = 1 - 2 q^{-2d} + q^{-3d}
        field = FieldSpec(q)
        table = build_table(field, 4)
        pr = builtin("phi_ratio", field)
        zero = parse_poly("0", field)
        [tv] = main_term([None], ShiftPair(zero, zero), pr, pr, "monic", table)
        log_ref = sum(irreducible_count(q, d)
                      * math.log1p(-2.0 * q ** (-2.0 * d) + q ** (-3.0 * d))
                      for d in range(1, 200))
        assert abs(tv.value - math.exp(log_ref)) <= tv.tail_bound + 1e-14

    def test_correlation_approaches_main_term(self, field2, table2):
        pr = builtin("phi_ratio", field2)
        zero = parse_poly("0", field2)
        rep = correlate_at(CorrelationSpec(field2, 14, "monic", (zero, zero),
                                           (pr, pr)), table2)
        assert rep.deviation < 1e-5

    def test_large_prime_shift_keyword(self, field2, table2):
        # a unit shift difference makes every k(P) 0, and so does any
        # difference with no prime factor of degree 5..12; equal shifts
        # leave every prime unconstrained
        kf = builtin("kfree", field2, k=2)
        [unit] = _walk(5, [12], sp(field2, "0", "1"), kf, kf, "monic", table2)
        [small] = _walk(5, [12], sp(field2, "0", "x^2"), kf, kf, "monic", table2)
        [equal] = _walk(5, [12], sp(field2, "x", "x"), kf, kf, "monic", table2)
        assert small == unit != equal
        want = 1.0
        for d in range(5, 13):
            want *= (1.0 - 2.0 ** (-2 * d)) ** irreducible_count(2, d)
        assert abs(equal.value - want) <= equal.tail_bound + 1e-15


class TestTailOracle:
    """The infinite product against the same per-degree factors
    multiplied in 60-digit arithmetic over degrees up to 300."""

    # the walk past degree g alone, g = (monic, prime) by q: a degree-1
    # factor can be exactly 0 (kfree:2 on the prime domain at p = 2),
    # which would leave nothing to check from degree 1
    SPLIT = {2: (4, 5), 3: (2, 3), 5: (2, 2), 7: (2, 2), 11: (1, 2),
             13: (1, 2)}

    @staticmethod
    def _exact(psi, mode, g, k, counts):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            log = mpmath.mpf(0)
            for d in range(g + 1, len(counts)):
                dev, _ = _factor(psi, psi, d, k, mode)
                log += counts[d] * mpmath.log1p(mpmath.mpf(dev))
            return mpmath.exp(log)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_value_within_tail_bound(self, q):
        field = FieldSpec(q)
        table = build_table(field, 2)
        x = parse_poly("x", field)
        unit = ShiftPair(parse_poly("0", field), parse_poly("1", field))
        specs = [builtin("phi_ratio", field), builtin("kfree", field, k=2),
                 builtin("kfree", field, k=3)]
        counts = [0] + [irreducible_count(q, d) for d in range(1, 301)]
        misses = []
        for psi in specs:
            for mode, g in zip(("monic", "prime"), self.SPLIT[q]):
                # a unit difference: every k(P) is 0; h1 = h2: no constraint
                for shifts, k in ((unit, 0), (ShiftPair(x, x), None)):
                    [tv] = _walk(g + 1, [None], shifts, psi, psi, mode, table)
                    err = abs(tv.value - self._exact(psi, mode, g, k, counts))
                    if err > tv.tail_bound:
                        misses.append((psi.name, mode, k, float(err / tv.tail_bound)))
        assert misses == []

    @staticmethod
    def _exact_walk(psi, mode, shifts, table, top):
        """The walk's own per-degree factors over degrees 1..top, multiplied
        in 60-digit arithmetic (real factors, signs kept apart)."""
        mpmath = pytest.importorskip("mpmath")
        vals = shifts.prime_valuations(table)
        with mpmath.workdps(60):
            log, sign = mpmath.mpf(0), 1
            for d in range(1, top + 1):
                for dev, _, power in _degree_factors(d, vals, psi, psi, mode,
                                                     table):
                    if power == 0:  # every prime of degree d is special
                        continue
                    f = 1 + mpmath.mpf(dev)
                    sign *= (-1) ** power if f < 0 else 1
                    log += power * mpmath.log(abs(f))
            return sign * mpmath.exp(log)

    @pytest.mark.parametrize("q, name, h2", [
        (2, "kfree:3", "1"), (3, "kfree:3", "1"),
        (2, "liouville_trunc:3", "1"), (3, "liouville_trunc:3", "x"),
        # special primes x and x + 1 divide the shift difference
        (2, "phi_ratio", "x^2+x"), (2, "kfree:2", "x^2+x"),
        (3, "phi_ratio", "x^2+x"),
    ])
    @pytest.mark.parametrize("mode", ["monic", "prime"])
    def test_main_term_within_tail_bound(self, q, name, h2, mode):
        field = FieldSpec(q)
        table = build_table(field, 2)
        psi = parse_function_spec(name, field)
        shifts = sp(field, "0", h2)
        [tv] = main_term([None], shifts, psi, psi, mode, table)
        exact = self._exact_walk(psi, mode, shifts, table, 300)
        assert abs(tv.value - exact) <= tv.tail_bound, float(abs(tv.value - exact))

    def test_rounding_cushion_covers_a_factor_below_a_quarter(self, field2):
        # a factor below 1/4 (1/8 at degree 2) enters the log-space sum
        mu = builtin("moebius", field2)
        dev, tail = _factor(mu, mu, 2, 0, "monic")
        assert (1 + dev, tail) == (0.125, 0.0)
        [tv] = main_term([8], sp(field2, "0", "1"), mu, mu, "monic",
                         build_table(field2, 1))
        exact = self._exact_walk(mu, "monic", sp(field2, "0", "1"),
                                 build_table(field2, 1), 8)
        # only the rounding cushion stands between the two
        assert abs(tv.value - exact) <= tv.tail_bound < 1e-16


class TestDecayBound:
    """FunctionSpec.decay: sum_m q^{-m d} |psi(P^m) - psi(P^{m-1})| <= C q^{-a d}."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_builtin_bounds_hold(self, q):
        field = FieldSpec(q)
        lpr = builtin_additive("log_phi_ratio", field)
        specs = [builtin("phi_ratio", field), builtin("kfree", field, k=2),
                 builtin("kfree", field, k=5), lpr, exp_additive(lpr, -2.5)]
        assert [s.decay for s in specs] == [(1, 2), (1, 2), (1, 5), (2, 2),
                                            (5.0, 2)]
        for spec in specs:
            C, a = spec.decay
            for d in range(1, 25):
                x = float(q) ** -d
                total = sum(x**m * abs(spec.value_dm(d, m)
                                       - spec.value_dm(d, m - 1))
                            for m in range(1, 12))
                # the float rule 1 - q^{-d} is off by up to an ulp of 1
                assert total <= C * x**a * (1 + 1e-12) + x * 2.0**-52, \
                    (spec.name, d)

    def test_exp_additive_carries_abs_t_times_c(self, field2):
        lpr = builtin_additive("log_phi_ratio", field2)
        assert exp_additive(lpr, 0.75).decay == (1.5, 2)
        assert exp_additive(lpr, -3.0).decay == (6.0, 2)
        assert exp_additive(builtin_additive("omega", field2), 1.0).decay is None
        assert exp_additive(lpr, 0.0).decay is None  # the constant 1

    def test_no_bound_is_refused_before_any_factor(self, field2, table2):
        seen = []

        def rule(d, m):
            seen.append(d)
            return 1.0 - 2.0 ** (-2 * d)

        shifts = sp(field2, "0", "x^3")
        flags = dict(unit_bounded=True, integer_valued=False,
                     trivial_beyond_degree=None, power_settle=1)
        weak = FunctionSpec("weak", field2, rule, **flags, decay=(1, 1))
        bare = FunctionSpec("bare", field2, rule, **flags)
        for psi in (bare, weak, builtin("moebius", field2),
                    builtin("liouville", field2)):
            with pytest.raises(MainTermError, match="no decay bound"):
                main_term([None], shifts, psi, psi, "monic", table2)
        assert seen == []
        # a bound too slow to reach the target within _EXTEND_LIMIT degrees
        slow = FunctionSpec("slow", field2, rule, **flags, decay=(1, 1.01))
        with pytest.raises(MainTermError, match="do not reach"):
            main_term([None], shifts, slow, slow, "monic", table2)
        assert seen == []
        # a finite n reads no bound
        main_term([9], shifts, bare, bare, "monic", table2)
        assert seen

    def test_contradicted_bound_raises(self, field2, table2):
        # 1 - 2^{-d} has decay sum 4^{-d}, which (1, 3) contradicts from
        # d = 2 (monic) and d = 3 (prime, where the bound doubles)
        liar = FunctionSpec("liar", field2, lambda d, m: 1.0 - 2.0 ** -d,
                            unit_bounded=True, integer_valued=False,
                            trivial_beyond_degree=None, power_settle=1,
                            decay=(1, 3))
        for mode, d in (("monic", 2), ("prime", 3)):
            with pytest.raises(MainTermError, match=f"degree {d} deviates"):
                main_term([None], sp(field2, "0", "1"), liar, liar, mode,
                          table2)

    def test_finite_walk_checks_the_declared_bound(self, field2, table2):
        # without the check this walk leaves the float range (OverflowError)
        liar = FunctionSpec("liar", field2, lambda d, m: 0.5,
                            unit_bounded=True, integer_valued=False,
                            trivial_beyond_degree=None, power_settle=1,
                            decay=(1, 3))
        with pytest.raises(MainTermError, match="degree 2 deviates"):
            main_term([1040], sp(field2, "0", "1"), liar, liar, "monic", table2)

    def test_stop_is_the_first_certified_degree(self, field2, table2,
                                                monkeypatch):
        # phi_ratio at q = 2: 12 * 2^{-(D + 1)} / (D + 1) <= 1e-12 first at D = 38
        walked = []
        import fqlab.mainterm as mt
        factors = mt._degree_factors

        def spy(d, *args):
            walked.append(d)
            return factors(d, *args)

        monkeypatch.setattr(mt, "_degree_factors", spy)
        pr = builtin("phi_ratio", field2)
        [tv] = main_term([None], sp(field2, "0", "1"), pr, pr, "monic", table2)
        assert walked == list(range(1, 39))
        assert tv.tail_bound < 1e-12


class TestSmallPrimeProduct:
    """The walk over the small primes, the degrees 1..g."""

    def test_liouville_shift_x_factors(self, field2, table2):
        # shift difference x: valuation 1 at P = x, 0 elsewhere
        lam2 = builtin("liouville_truncated", field2, y=2)
        [got] = main_term([2], sp(field2, "0", "x"), lam2, lam2, "monic", table2)
        want = (float(liouville_local_closed(1, 1, 2))
                * float(liouville_local_closed(1, 0, 2))
                * float(liouville_local_closed(2, 0, 2)))
        assert abs(got.value - want) <= got.tail_bound + 1e-14
        assert abs(got.value - (-1.0 / 45.0)) < 1e-12

    def test_zero_delta_unconstrained(self, field2, table2):
        # equal shifts: infinite valuation everywhere equals dropping the
        # constraint at every prime
        lam = builtin("liouville", field2)
        pair = sp(field2, "x", "x")
        [got] = main_term([3], pair, lam, lam, "monic", table2)
        manual = 1.0
        for d in (1, 2, 3):
            w = local_factor(d, None, lam, lam, "monic")
            manual *= w.value ** table2.count(d)
        assert abs(got.value - manual) < 1e-14

    def test_gamma_zero_empty_product(self, field2, table2):
        lam = builtin("liouville", field2)
        [got] = _walk(1, [0], sp(field2, "0", "1"), lam, lam, "monic", table2)
        assert got.value == 1 and got.tail_bound == 0.0

    def test_literal_double_sum_oracle_gamma1(self, field2, table2):
        # the factored form against the defining constrained double sum
        # over pairs supported on primes of degree <= 1, truncated at
        # exponent 12 (q=2: f = x^a (x+1)^b)
        lam3 = builtin("liouville_truncated", field2, y=3)
        delta = parse_poly("x", field2)

        def alpha(spec, d, m):
            if m == 0:
                return 1.0
            return float(spec.value_dm(d, m) - spec.value_dm(d, m - 1))

        top = 12
        v_x, v_x1 = 1, 0  # valuations of delta = x
        direct = 0.0
        for a1 in range(top + 1):
            for b1 in range(top + 1):
                for a2 in range(top + 1):
                    if min(a1, a2) > v_x:
                        continue
                    for b2 in range(top + 1):
                        if min(b1, b2) > v_x1:
                            continue
                        w = 2.0 ** -(max(a1, a2) + max(b1, b2))
                        direct += (alpha(lam3, 1, a1) * alpha(lam3, 1, b1)
                                   * alpha(lam3, 1, a2) * alpha(lam3, 1, b2)
                                   * w)
        # (main_term refuses n = 1 with a shift of degree 1)
        [got] = _walk(1, [1], sp(field2, "0", "x"), lam3, lam3, "monic", table2)
        # the oracle itself is truncated at exponent 12; allow its tail
        assert abs(got.value - direct) < 1e-3


class TestLargePrimeProduct:
    """The walk over the large primes, the degrees past g alone."""

    def test_constant_one_exact(self, field2, table2):
        one, shifts = builtin("one", field2), sp(field2, "0", "1")
        for mode in ("monic", "prime"):
            for n in (8, None):
                [v] = _walk(5 if mode == "monic" else 6, [n], shifts, one, one,
                            mode, table2)
                assert v.value == 1.0
                assert v.tail_bound == 0.0

    def test_prime_mode_telescoping_identity(self, field2, table2):
        # each factor 1 - 2/phi(P) + 2 sum q^{-kd} collapses to exactly 1
        one = builtin("one", field2)
        [v] = _walk(6, [9], sp(field2, "0", "1"), one, one, "prime", table2)
        assert v.value == 1.0

    def test_kfree_factor_shape(self, field2, table2):
        # per-degree factor (1 - 2 q^{-2d})^{N_d}
        kf = builtin("kfree", field2, k=2)
        [got] = _walk(5, [9], sp(field2, "0", "1"), kf, kf, "monic", table2)
        want = 1.0
        for d in range(5, 10):
            want *= (1.0 - 2.0 * 4.0 ** -d) ** table2.count(d)
        assert abs(got.value - want) < 1e-13

    def test_infinite_cutoff_honesty(self, field2, table2):
        # the finite walk to degree 60 lies within the infinite walk's tail
        # of it and has the smaller tail (1.8e-13 apart, tails 6.1e-13 and
        # 9.2e-14)
        pr = builtin("phi_ratio", field2)
        [limit] = _walk(5, [None], sp(field2, "0", "1"), pr, pr, "monic", table2)
        [finite] = _walk(5, [60], sp(field2, "0", "1"), pr, pr, "monic", table2)
        assert finite.tail_bound < limit.tail_bound
        assert abs(finite.value - limit.value) <= limit.tail_bound

    def test_gamma_below_the_threshold_changes_no_bit(self, field2, table2):
        # the moebius factor at degree 2 is 1/8, below 1/4, yet the walk
        # split at degree 1, below the degree 4 where q^g first reaches 9,
        # composes to the whole product
        mu = builtin("moebius", field2)
        shifts = sp(field2, "0", "1")
        [whole] = main_term([8], shifts, mu, mu, "monic", table2)
        assert whole.value != 0
        [head] = _walk(1, [1], shifts, mu, mu, "monic", table2)
        [bulk] = _walk(2, [8], shifts, mu, mu, "monic", table2)
        assert abs(head.value * bulk.value - whole.value) <= whole.tail_bound

    def test_trivial_functions_allowed_below_threshold(self, field2, table2):
        lam2 = builtin("liouville_truncated", field2, y=2)
        [v] = _walk(3, [None], sp(field2, "0", "1"), lam2, lam2, "monic", table2)
        assert v.value == 1.0 and v.tail_bound == 0.0

    def test_infinite_needs_degree_symmetry(self, field2, table2):
        odd = FunctionSpec("odd", field2, None, unit_bounded=True,
                           integer_valued=False, trivial_beyond_degree=None,
                           power_settle=1, rule_poly=lambda P, m: 1.0)
        with pytest.raises(MainTermError):
            _walk(5, [None], sp(field2, "0", "1"), odd, odd, "monic", table2)

    def test_non_symmetric_finite_matches_symmetric(self, field2, table2):
        # a rule_poly that is in fact degree-symmetric agrees with the
        # degree-indexed fast path
        pr = builtin("phi_ratio", field2)
        slow = FunctionSpec(
            "pr_slow", field2, None, unit_bounded=True, integer_valued=False,
            trivial_beyond_degree=None, power_settle=1,
            rule_poly=lambda P, m: 1.0 - 2.0 ** -P.degree)
        [a] = _walk(5, [9], sp(field2, "0", "1"), pr, pr, "monic", table2)
        [b] = _walk(5, [9], sp(field2, "0", "1"), slow, slow, "monic", table2)
        assert abs(a.value - b.value) < 1e-12

    def test_divergent_functions_raise(self, field2, table2):
        lam = builtin("liouville", field2)
        with pytest.raises(MainTermError):
            _walk(5, [None], sp(field2, "0", "1"), lam, lam, "monic", table2)


class TestMainTerm:
    def test_ones_give_exact_unity(self, field2, table2):
        one = builtin("one", field2)
        for mode, n in (("monic", 14), ("monic", None),
                        ("prime", 9), ("prime", None)):
            [tv] = main_term([n], sp(field2, "0", "x"), one, one, mode, table2)
            assert tv.value == 1.0

    def test_truncated_liouville_closed_form(self, field2, table2):
        # bulk part is identically 1, the head is the product of the
        # closed-form local factors
        lam2 = builtin("liouville_truncated", field2, y=2)
        for n in (10, 20, None):
            [tv] = main_term([n], sp(field2, "0", "x"), lam2, lam2,
                             "monic", table2)
            assert abs(tv.value - (-1.0 / 45.0)) <= tv.tail_bound + 1e-13

    def test_rule_poly_copy_matches_builtin(self, field2, table2):
        # the same truncated Liouville function given only by rule_poly
        # takes the per-prime paths of both products and of correlate
        lam2 = builtin("liouville_truncated", field2, y=2)
        copy = FunctionSpec("lam2_poly", field2, None, unit_bounded=True,
                            integer_valued=True, trivial_beyond_degree=2,
                            power_settle=None,
                            rule_poly=lambda P, m: lam2.rule_dm(P.degree, m))
        shifts = sp(field2, "0", "x")
        [a] = main_term([7], shifts, lam2, lam2, "monic", table2)
        [b] = main_term([7], shifts, copy, copy, "monic", table2)
        assert abs(a.value - b.value) <= 1e-12
        reps = [correlate_at(CorrelationSpec(field2, 7, "monic",
                                             (shifts.h1, shifts.h2), (f, f)), table2)
                for f in (lam2, copy)]
        assert reps[0].raw_sum == reps[1].raw_sum
        assert abs(reps[0].main.value - reps[1].main.value) <= 1e-12

    def test_phi_ratio_infinite_product(self, field2, table2):
        # against an independent high-cutoff evaluation in log space
        pr = builtin("phi_ratio", field2)
        [tv] = main_term([None], sp(field2, "0", "1"), pr, pr, "monic", table2)
        log_ref = sum(irreducible_count(2, d) * math.log1p(-2.0 * 4.0 ** -d)
                      for d in range(1, 200))
        assert abs(tv.value - math.exp(log_ref)) <= tv.tail_bound + 1e-14
        assert tv.tail_bound <= 1e-10


class TestOneWalk:
    """main_term is one walk over the degrees through one log-space
    accumulator; the paper's split of it at a degree g, into the small
    primes 1..g and the large ones past g, composes to the whole."""

    SPECS = ("phi_ratio", "kfree:2", "kfree:3", "liouville_trunc:3")

    @staticmethod
    def _split_composes(name, mode, n, table, splits):
        psi = parse_function_spec(name, table.field)
        shifts = sp(table.field, "0", "x")
        [main] = main_term([n], shifts, psi, psi, mode, table)
        for g in splits:
            [head] = _walk(1, [g], shifts, psi, psi, mode, table)
            [bulk] = _walk(g + 1, [n], shifts, psi, psi, mode, table)
            joined = truncated_times(head, bulk)
            assert abs(main.value - joined.value) <= \
                main.tail_bound + joined.tail_bound, (table.field.p, g)

    @pytest.mark.parametrize("mode", ["monic", "prime"])
    @pytest.mark.parametrize("name", SPECS)
    def test_finite_n_is_the_same_for_every_safe_gamma(self, name, mode):
        for q in (2, 3):
            self._split_composes(name, mode, 9, build_table(FieldSpec(q), 1),
                                 range(10))

    @pytest.mark.parametrize("mode", ["monic", "prime"])
    @pytest.mark.parametrize("name", SPECS)
    def test_infinite_n_is_the_same_for_every_gamma(self, name, mode):
        for q in (2, 3):
            self._split_composes(name, mode, None,
                                 build_table(FieldSpec(q), 1), range(13))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [None, 6])
    @pytest.mark.parametrize("name", SPECS)
    def test_main_term_is_small_times_large(self, name, n, q):
        # at the paper's split: deg(h2 - h1) = 1, raised until q^g >= 9
        # (monic) or 17 (prime)
        table = build_table(FieldSpec(q), 6)
        for mode, g in zip(("monic", "prime"), {2: (4, 5), 3: (2, 3)}[q]):
            self._split_composes(name, mode, n, table, [g])

    def test_infinite_product_does_not_depend_on_the_table(self, field2):
        # the table gives only the factorization of h2 - h1, to
        # ShiftPair.table_degree
        fast = FunctionSpec("fast", field2, lambda d, m: 1.0 - 2.0 ** (-3 * d),
                            unit_bounded=True, integer_valued=False,
                            trivial_beyond_degree=None, power_settle=1,
                            decay=(1, 4))
        shifts = sp(field2, "0", "1")
        assert shifts.table_degree == 0
        assert sp(field2, "x", "x^7+1").table_degree == 3
        small, large = (main_term([None], shifts, fast, fast, "monic",
                                  build_table(field2, d)) for d in (1, 18))
        assert small == large

    def test_closure_waits_for_the_last_listed_degree(self, field2):
        # degrees 2..9 are unlisted, so neutral; the closure must still
        # take in the primes of degree 10
        gapped = custom_from_table(field2, {(1, 1): 0.5, (10, 1): -1.0})
        assert gapped.trivial_beyond_degree == 10
        shifts = sp(field2, "0", "1")
        [finite] = main_term([30], shifts, gapped, gapped, "monic",
                             build_table(field2, 1))
        for d in (1, 12):
            [inf] = main_term([None], shifts, gapped, gapped, "monic",
                              build_table(field2, d))
            assert abs(inf.value - finite.value) <= inf.tail_bound

    def test_shift_valuations_computed_once(self, field2, table2, monkeypatch):
        calls = []
        valuations = ShiftPair.prime_valuations

        def spy(self, table):
            calls.append(self)
            return valuations(self, table)

        monkeypatch.setattr(ShiftPair, "prime_valuations", spy)
        pr = builtin("phi_ratio", field2)
        for n in (None, 9):
            main_term([n], sp(field2, "0", "x^2+x"), pr, pr, "monic", table2)
        assert len(calls) == 2

    def test_negative_factor_keeps_product_real(self, field2, table2):
        # the factor -1/3 at x + 1 is real and negative; its sign is kept
        # apart from the logarithms
        lam2 = builtin("liouville_truncated", field2, y=2)
        shifts = sp(field2, "0", "x")
        for tv in (*main_term([2], shifts, lam2, lam2, "monic", table2),
                   *main_term([None], shifts, lam2, lam2, "monic", table2)):
            assert isinstance(tv.value, float)
            assert abs(tv.value - (-1.0 / 45.0)) <= tv.tail_bound

    @pytest.mark.parametrize("n", [None, 8, 16])
    def test_zero_factor_gives_exact_zero(self, n, field2, table2):
        # kfree:2 on the irreducible domain at p = 2: W_P = 0 at degree 1
        kf = builtin("kfree", field2, k=2)
        [tv] = main_term([n], sp(field2, "0", "1"), kf, kf, "prime", table2)
        assert tv.value == 0.0 and isinstance(tv.value, float)
        assert math.isfinite(tv.tail_bound)

    def test_accumulator_zero_and_negative_factors(self):
        acc = _LogProduct()
        acc.mul(-3.0, 0.0)  # -2
        acc.mul(-1.5, 0.0, 3)  # (-1/2)^3
        tv = acc.result()
        assert isinstance(tv.value, float) and abs(tv.value - 0.25) <= tv.tail_bound
        acc.mul(-1.0, 0.5, 2)  # 0, with tail 1/2 on each of two primes
        tv = acc.result()
        hi = 2 * 0.5**3 * 0.5**2  # the largest modulus the tails allow
        assert tv.value == 0.0 and hi <= tv.tail_bound <= hi * (1 + 1e-13)

    def test_finite_n_refuses_a_shift_of_degree_n(self, field2, table2):
        pr = builtin("phi_ratio", field2)
        for h2 in ("x^3", "x^5"):
            with pytest.raises(MainTermError, match="degree >= n=3"):
                main_term([3], sp(field2, "0", h2), pr, pr, "monic", table2)
        main_term([None], sp(field2, "0", "x^5"), pr, pr, "monic", table2)
        main_term([3], sp(field2, "0", "x^2"), pr, pr, "monic", table2)

    @pytest.mark.parametrize("n, h", [(0, None), (-5, ("0", "0")),
                                      (0, ("0", "1"))],
                             ids=["no-shifts", "equal-shifts", "unequal-shifts"])
    def test_finite_n_below_one_refused(self, n, h, field2, table2):
        # correlate refuses these n; the first two once gave 1.0 with tail
        # 0, the third named the shift 1 as of degree >= n=0
        kf = builtin("kfree", field2, k=2)
        shifts = None if h is None else sp(field2, *h)
        for mode in ("monic", "prime"):
            with pytest.raises(MainTermError, match="n must be >= 1"):
                main_term([n], shifts, kf, kf, mode, table2)

    def test_non_unit_bounded_refused(self, field2, table2):
        big = custom_from_table(field2, {(1, 1): 1.5})
        for n in (4, None):
            with pytest.raises(MainTermError, match="unit-bounded"):
                main_term([n], sp(field2, "0", "1"), big, big, "monic", table2)


def _readings(tvs):
    return [(repr(tv.value), repr(tv.tail_bound)) for tv in tvs]


class TestRangeWalk:
    """main_term over a range of degrees is one walk read off at each n:
    every reading is the walk to n alone, value and tail bit for bit."""

    @pytest.mark.parametrize("mode", ["monic", "prime"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_readings_are_the_single_walks(self, q, mode):
        table = build_table(FieldSpec(q), 9)
        names = ("phi_ratio", "kfree:2", "moebius", "liouville_trunc:3")
        ns = range(3, 10, 2) if q == 2 else range(3, 8)
        for psi in [parse_function_spec(s, table.field) for s in names] + \
                [constant_sign(table.field)]:
            for h in ("1", "x", "x^2+1"):
                shifts = sp(table.field, "0", h)
                got = main_term(ns, shifts, psi, psi, mode, table)
                want = [tv for n in ns
                        for tv in main_term([n], shifts, psi, psi, mode, table)]
                assert _readings(got) == _readings(want), (psi.name, h)

    def test_one_pass_to_the_largest_degree(self, field2, table2, monkeypatch):
        seen, factors = [], _degree_factors

        def spy(d, *args):
            seen.append(d)
            return factors(d, *args)

        monkeypatch.setattr(mainterm, "_degree_factors", spy)
        pr = builtin("phi_ratio", field2)
        main_term(range(4, 12, 3), sp(field2, "0", "x"), pr, pr, "monic", table2)
        assert seen == list(range(1, 11))

    def test_windows_with_several_stops(self, field2, table2):
        # a stop of first - 1 reads the empty product
        kf = builtin("kfree", field2, k=2)
        shifts = sp(field2, "0", "1")
        got = _walk(5, [4, 5, 9, 12], shifts, kf, kf, "monic", table2)
        want = [tv for last in (4, 5, 9, 12)
                for tv in _walk(5, [last], shifts, kf, kf, "monic", table2)]
        assert _readings(got) == _readings(want)
        assert got[0] == TruncatedValue(1, 0.0)

    def test_refusals(self, field2, table2):
        pr = builtin("phi_ratio", field2)
        shifts = sp(field2, "0", "x^3")
        assert main_term([], shifts, pr, pr, "monic", table2) == []
        with pytest.raises(MainTermError, match="alone"):
            main_term([None, 8], sp(field2, "0", "1"), pr, pr, "monic", table2)
        for ns in ([6, 6], [8, 6]):
            with pytest.raises(MainTermError, match="ascend"):
                main_term(ns, shifts, pr, pr, "monic", table2)
        # the shift is checked against the first degree, as the sums are
        with pytest.raises(MainTermError, match="degree >= n=3"):
            main_term([3, 8], shifts, pr, pr, "monic", table2)
        with pytest.raises(MainTermError, match="n must be >= 1"):
            main_term([0, 8], sp(field2, "0", "1"), pr, pr, "monic", table2)
        # a non-symmetric rule walks no further than the table lists
        sign = constant_sign(field2)
        with pytest.raises(MainTermError, match="beyond table degree 10"):
            main_term([8, 11], shifts, sign, sign, "monic", table2)


class TestFloatRange:
    """Past the first degree whose q^{-d} is below the normal floats each
    factor reads exactly 1, while N_d |W_d - 1| is about 4/d for moebius."""

    def test_first_subnormal_degree(self):
        assert [_subnormal_degree(q) for q in (2, 3, 251)] == [1023, 645, 129]
        for q in (2, 3, 251):
            d = _subnormal_degree(q)
            assert float(q) ** -d < sys.float_info.min <= float(q) ** (1 - d)

    def test_walk_without_decay_bound_is_refused(self, field2):
        table = build_table(field2, 1)
        shifts = sp(field2, "0", "1")
        mu = builtin("moebius", field2)
        [tv] = main_term([1022], shifts, mu, mu, "monic", table)
        assert 0 < tv.value < 1e-11 and tv.tail_bound < 1e-10 * tv.value
        for n in (1023, 1040):
            with pytest.raises(MainTermError, match="normal floats"):
                main_term([n], shifts, mu, mu, "monic", table)
        with pytest.raises(MainTermError, match="normal floats"):
            _walk(1030, [1031], shifts, mu, mu, "monic", table)
        # an infinite walk past y, which starts beyond degree 1023
        one = builtin("one", field2)
        lt = builtin("liouville_truncated", field2, y=1040)
        with pytest.raises(MainTermError, match="normal floats"):
            main_term([None], shifts, lt, one, "monic", table)
        # a function neutral from degree 1023 on walks on
        lt = builtin("liouville_truncated", field2, y=1022)
        assert main_term([1100], shifts, lt, one, "monic", table) == \
            main_term([1022], shifts, lt, one, "monic", table)

    def test_walk_with_decay_bounds_goes_on(self, field2):
        table = build_table(field2, 1)
        shifts = sp(field2, "0", "1")
        pr = builtin("phi_ratio", field2)
        [tv] = main_term([1100], shifts, pr, pr, "monic", table)
        assert [tv] == main_term([100], shifts, pr, pr, "monic", table)
        assert tv.value == 0.19654355212758212


class TestTruncatedValue:
    def test_tail_must_be_finite(self):
        with pytest.raises(MainTermError):
            TruncatedValue(1.0, math.inf)
        with pytest.raises(MainTermError):
            TruncatedValue(1.0, -0.5)

    def test_times_combines_bounds(self):
        import random
        rng = random.Random(3)
        for _ in range(500):
            a = TruncatedValue(rng.uniform(-2, 2), rng.uniform(0, 0.1))
            b = TruncatedValue(rng.uniform(-2, 2), rng.uniform(0, 0.1))
            c = truncated_times(a, b)
            # worst-case perturbed product stays inside the bound
            pa = a.value + rng.choice((-1, 1)) * a.tail_bound
            pb = b.value + rng.choice((-1, 1)) * b.tail_bound
            assert abs(pa * pb - c.value) <= c.tail_bound + 1e-12


class TestErrorBoundShape:
    def test_last_term_value(self):
        # (r q^r)^{-1/2} at r=4, q=2
        v = error_bound_shape("monic", 4, 10, 0.75, 2)
        assert v >= (4 * 2 ** 4) ** -0.5
        w = error_bound_shape("monic", 4, 10 ** 6, 0.999, 2)
        assert abs(w - (4 * 2 ** 4) ** -0.5) < 1e-6

    def test_monotone_in_n_monic(self):
        vals = [error_bound_shape("monic", 4, n, 0.75, 2) for n in (8, 16, 32)]
        assert vals[0] > vals[1] > vals[2]

    def test_prime_mode_polynomial_decay(self):
        a = error_bound_shape("prime", 4, 10, 0.75, 2, A=2.0)
        b = error_bound_shape("prime", 4, 100, 0.75, 2, A=2.0)
        assert b < a

    def test_distance_terms_added(self, field2, table2):
        pr = builtin("phi_ratio", field2)
        one = builtin("one", field2)
        d1 = distance(pr, one, 4, 10, table2)
        v0 = error_bound_shape("monic", 4, 10, 0.75, 2)
        v1 = error_bound_shape("monic", 4, 10, 0.75, 2, dist1=d1, dist2=d1)
        assert abs((v1 - v0) - 2 * d1) < 1e-12

    def test_pretender_distance_shrinks_with_r(self, field2, table2):
        pr = builtin("phi_ratio", field2)
        one = builtin("one", field2)
        d_small = distance(pr, one, 2, 10, table2)
        d_large = distance(pr, one, 6, 10, table2)
        assert d_large < d_small

    def test_validation(self):
        with pytest.raises(MainTermError):
            error_bound_shape("monic", 4, 10, 0.4, 2)
        with pytest.raises(MainTermError):
            error_bound_shape("monic", 12, 10, 0.75, 2)
        with pytest.raises(MainTermError):
            error_bound_shape("both", 4, 10, 0.75, 2)

    def test_overflow_returns_inf(self):
        assert error_bound_shape("monic", 40, 40, 0.99, 2, c=100.0) == math.inf


class TestLimitCharfnFactors:
    def test_totient_ratio_limit_factor_shape(self, field2, table2):
        # factors 1 + 2((1-q^{-d})^{it} - 1)/q^d
        lpr = builtin_additive("log_phi_ratio", field2)
        t = 1.3
        e = exp_additive(lpr, t)
        [tv] = main_term([None], sp(field2, "0", "1"), e, e, "monic", table2)
        log_ref = 0j
        for d in range(1, 300):
            v = (1.0 - 2.0 ** -d) ** complex(0, t)
            f = 1 + 2 * (v - 1) / 2.0 ** d
            log_ref += irreducible_count(2, d) * (
                complex(math.log(abs(f)), math.atan2(f.imag, f.real)))
        import cmath
        ref = cmath.exp(log_ref)
        assert abs(tv.value - ref) <= tv.tail_bound + 1e-12
