import random

import pytest

from fqlab import (
    CorrelationSpec,
    EngineError,
    FieldSpec,
    FunctionSpec,
    builtin,
    builtin_additive,
    correlate,
    custom_from_table,
    crt_count,
    crt_count_enumerated,
    deviation_scan,
    eval_on,
    exp_additive,
    factorize,
    parse_poly,
)
from fqlab.fieldpoly import PolyError, monic_from_index, poly_from_encoding


def brute_correlation(field, n, domain, shifts, functions, table):
    """Direct enumeration through Poly objects and eval_on (oracle)."""
    total = 0
    if domain == "monic":
        source = [monic_from_index(field, n, i) for i in range(field.p ** n)]
    else:
        source = table.primes(n)
    for f in source:
        v = 1
        for h, psi in zip(shifts, functions):
            v = v * eval_on(factorize(f + h, table), psi)
        total += v
    return total


class TestBasicSums:
    def test_all_ones_counts_domain(self, field2, table2):
        one = builtin("one", field2)
        zero = parse_poly("0", field2)
        rep = correlate(CorrelationSpec(field2, 10, "monic", (zero, zero),
                                        (one, one)), table2)
        assert rep.raw_sum == 1024 and rep.integer_exact
        rep = correlate(CorrelationSpec(field2, 7, "prime", (zero, zero),
                                        (one, one)), table2)
        assert rep.raw_sum == table2.count(7) == 18

    def test_squarefree_pair_example(self, field2, table2):
        kf = builtin("kfree", field2, k=2)
        zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
        rep = correlate(CorrelationSpec(field2, 2, "monic", (zero, one_h),
                                        (kf, kf)), table2)
        assert rep.raw_sum == 2

    def test_prime_domain_singleton(self, field2, table2):
        one = builtin("one", field2)
        zero = parse_poly("0", field2)
        rep = correlate(CorrelationSpec(field2, 2, "prime", (zero, zero),
                                        (one, one)), table2)
        assert rep.raw_sum == 1  # P_{2,2} = {x^2+x+1}

    def test_liouville_sum_against_zeta_identity(self, field2, table2):
        # sum over monics of degree n of lambda(f) is q^{n/2} for even n
        # and -q^{(n+1)/2} for odd n (expansion of Z(u^2)/Z(u))
        lam = builtin("liouville", field2)
        zero = parse_poly("0", field2)
        for n, want in ((6, 8), (7, -16), (8, 16), (9, -32)):
            rep = correlate(CorrelationSpec(field2, n, "monic", (zero,),
                                            (lam,)), table2)
            assert rep.raw_sum == want

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    def test_engine_matches_bruteforce_p2(self, domain, field2, table2):
        zero = parse_poly("0", field2)
        x = parse_poly("x", field2)
        one_h = parse_poly("1", field2)
        cases = [
            ((zero, x), (builtin("moebius", field2), builtin("liouville", field2))),
            ((zero, one_h), (builtin("kfree", field2, k=2),
                             builtin("phi_ratio", field2))),
            ((x, x), (builtin("liouville_truncated", field2, y=2),
                      builtin("liouville_truncated", field2, y=2))),
        ]
        for shifts, fns in cases:
            n = 6
            spec = CorrelationSpec(field2, n, domain, shifts, fns)
            rep = correlate(spec, table2)
            want = brute_correlation(field2, n, domain, shifts, fns, table2)
            assert abs(complex(rep.raw_sum) - complex(want)) < 1e-9

    def test_engine_matches_bruteforce_p3(self, field3, table3):
        zero = parse_poly("0", field3)
        one_h = parse_poly("1", field3)
        fns = (builtin("kfree", field3, k=2), builtin("phi_ratio", field3))
        for domain in ("monic", "prime"):
            spec = CorrelationSpec(field3, 4, domain, (zero, one_h), fns)
            rep = correlate(spec, table3)
            want = brute_correlation(field3, 4, domain, (zero, one_h), fns,
                                     table3)
            assert abs(complex(rep.raw_sum) - complex(want)) < 1e-9

    @pytest.mark.parametrize("domain", ["monic", "prime"])
    def test_function_without_degree_symmetry(self, domain, field2, field3,
                                              table2, table3):
        # a sign on the constant term: not degree-symmetric, so its value
        # array reads one row per prime, next to a symmetric partner
        # (flagged not unit-bounded to leave the main term out)
        for field, table, n in ((field2, table2, 7), (field3, table3, 4)):
            sign = FunctionSpec(
                "sign", field, None, False, False, True, None, 2,
                rule_poly=lambda P, m: (-1 if P.coeffs[0] == 1 else 1) if m == 1 else 0)
            fns = (sign, builtin("liouville_truncated", field, y=1))
            shifts = (parse_poly("0", field), parse_poly("x+1", field))
            rep = correlate(CorrelationSpec(field, n, domain, shifts, fns),
                            table)
            assert rep.raw_sum == brute_correlation(field, n, domain, shifts,
                                                    fns, table)

    @pytest.mark.parametrize("n, want", [(11, 144), (13, 80)])
    def test_truncation_between_half_n_and_n(self, n, want, field2, table2):
        # liouville_trunc:8 moves at primes of degree in (n/2, 8], which a
        # sieve capped at n/2 once dropped (raw sums 0 and 16)
        lt8 = builtin("liouville_truncated", field2, y=8)
        shifts = (parse_poly("0", field2), parse_poly("1", field2))
        rep = correlate(CorrelationSpec(field2, n, "monic", shifts,
                                        (lt8, lt8)), table2)
        assert rep.raw_sum == want == brute_correlation(
            field2, n, "monic", shifts, (lt8, lt8), table2)

    def test_custom_table_past_half_n(self, field3, table3):
        # a value at the degree-3 primes, which divide a quintic at most
        # once (once 147)
        psi = custom_from_table(field3, {(3, 1): -1, (1, 2): 0})
        shifts = (parse_poly("0", field3), parse_poly("1", field3))
        rep = correlate(CorrelationSpec(field3, 5, "monic", shifts,
                                        (psi, psi)), table3)
        assert rep.raw_sum == 27 == brute_correlation(
            field3, 5, "monic", shifts, (psi, psi), table3)

    def test_integer_sum_beyond_int64(self, field2, table2):
        # a value of 1000 at each degree-1 prime that divides f exactly
        # once: up to 10^6 per polynomial, 10^24 for four coinciding
        # shifts, so the exact sum needs more than int64
        big = custom_from_table(field2, {(1, 1): 1000})
        shifts = (parse_poly("0", field2),) * 4
        rep = correlate(CorrelationSpec(field2, 6, "monic", shifts, (big,) * 4),
                        table2)
        want = brute_correlation(field2, 6, "monic", shifts, (big,) * 4, table2)
        assert want > 2**63
        assert rep.raw_sum == want and rep.integer_exact

    def test_three_point_sum_no_main_term(self, field2, table2):
        kf = builtin("kfree", field2, k=2)
        shifts = tuple(parse_poly(t, field2) for t in ("0", "1", "x"))
        spec = CorrelationSpec(field2, 5, "monic", shifts, (kf, kf, kf))
        rep = correlate(spec, table2)
        want = brute_correlation(field2, 5, "monic", shifts, (kf,) * 3, table2)
        assert rep.raw_sum == want
        assert rep.main is None and rep.deviation is None

    def test_equal_shifts_zero_delta_main(self, field2, table2):
        lam2 = builtin("liouville_truncated", field2, y=2)
        x = parse_poly("x", field2)
        spec = CorrelationSpec(field2, 8, "monic", (x, x), (lam2, lam2))
        rep = correlate(spec, table2)
        assert rep.main is not None
        want = brute_correlation(field2, 8, "monic", (x, x), (lam2, lam2),
                                 table2)
        assert rep.raw_sum == want


class TestReportInvariants:
    def test_unit_bound_on_normalized(self, field2, table2):
        zero, x = parse_poly("0", field2), parse_poly("x", field2)
        for fns in ((builtin("liouville", field2), builtin("moebius", field2)),
                    (builtin("phi_ratio", field2), builtin("phi_ratio", field2))):
            rep = correlate(CorrelationSpec(field2, 8, "monic", (zero, x), fns),
                            table2)
            assert abs(rep.normalized) <= 1 + 1e-12

    def test_conjugation_symmetry(self, field2, table2):
        lpr = builtin_additive("log_phi_ratio", field2)
        zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
        t = 1.4
        plus = correlate(CorrelationSpec(
            field2, 7, "monic", (zero, one_h),
            (exp_additive(lpr, t), exp_additive(lpr, t))), table2)
        minus = correlate(CorrelationSpec(
            field2, 7, "monic", (zero, one_h),
            (exp_additive(lpr, -t), exp_additive(lpr, -t))), table2)
        assert abs(complex(plus.raw_sum).conjugate()
                   - complex(minus.raw_sum)) < 1e-10

    def test_normalization_uses_exact_prime_count(self, field2, table2):
        one = builtin("one", field2)
        zero = parse_poly("0", field2)
        rep = correlate(CorrelationSpec(field2, 9, "prime", (zero, zero),
                                        (one, one)), table2)
        assert rep.domain_size == table2.count(9)
        assert rep.normalized == 1.0

    def test_main_term_attached_for_pairs(self, field2, table2):
        pr = builtin("phi_ratio", field2)
        zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
        rep = correlate(CorrelationSpec(field2, 8, "monic", (zero, one_h),
                                        (pr, pr)), table2)
        assert rep.main is not None and rep.deviation is not None
        assert rep.deviation == abs(rep.normalized - rep.main.value)


class TestValidation:
    def test_shift_degree_bound(self, field2):
        one = builtin("one", field2)
        with pytest.raises(EngineError):
            CorrelationSpec(field2, 2, "monic",
                            (parse_poly("x^2", field2),), (one,))

    def test_mismatched_lengths(self, field2):
        one = builtin("one", field2)
        with pytest.raises(EngineError):
            CorrelationSpec(field2, 4, "monic", (parse_poly("0", field2),),
                            (one, one))

    def test_bad_domain(self, field2):
        one = builtin("one", field2)
        with pytest.raises(EngineError):
            CorrelationSpec(field2, 4, "all", (parse_poly("0", field2),),
                            (one,))

    def test_additive_function_refused(self, field2):
        # correlations take multiplicative functions; exp_additive turns
        # an additive one into one
        omega = builtin_additive("omega", field2)
        with pytest.raises(EngineError):
            CorrelationSpec(field2, 4, "monic", (parse_poly("0", field2),),
                            (omega,))

    def test_depth_only_by_keyword(self, field2):
        # a positional gamma or depth from an older caller must not pass
        # silently: the spec has no sixth field
        one = builtin("one", field2)
        args = (field2, 4, "monic", (parse_poly("0", field2),), (one,))
        with pytest.raises(TypeError):
            CorrelationSpec(*args, 4)

    def test_wrong_field_table(self, field2, table3):
        one = builtin("one", field2)
        spec = CorrelationSpec(field2, 4, "monic", (parse_poly("0", field2),),
                               (one,))
        with pytest.raises(EngineError):
            correlate(spec, table3)

    def test_prime_domain_needs_listing(self, field2, table2):
        one = builtin("one", field2)
        spec = CorrelationSpec(field2, 11, "prime", (parse_poly("0", field2),),
                               (one,))
        from fqlab import TableTooSmallError
        with pytest.raises(TableTooSmallError):
            correlate(spec, table2)


class TestCrtCount:
    def test_example_coprime_moduli(self, field2):
        x, x1 = parse_poly("x", field2), parse_poly("x+1", field2)
        zero = parse_poly("0", field2)
        assert crt_count(x, x1, zero, zero, 3) == 2  # 2^{3-2}

    def test_example_unsolvable(self, field2):
        x = parse_poly("x", field2)
        zero, one = parse_poly("0", field2), parse_poly("1", field2)
        assert crt_count(x, x, zero, one, 3) == 0  # x does not divide 1

    def test_example_trivial_moduli(self, field2):
        c1 = parse_poly("1", field2)
        zero = parse_poly("0", field2)
        assert crt_count(c1, c1, zero, zero, 5) == 32

    def test_large_lcm_cases(self, field2):
        # deg lcm > n: zero or one solution, decided by the residue itself
        g1 = parse_poly("x^3+x+1", field2)
        g2 = parse_poly("x^2+x+1", field2)
        zero = parse_poly("0", field2)
        for n in (2, 3, 4):
            a = crt_count(g1, g2, zero, zero, n)
            b = crt_count_enumerated(g1, g2, zero, zero, n)
            assert a == b

    def test_random_against_enumeration(self, field2):
        rng = random.Random(314)
        for _ in range(250):
            n = rng.randint(1, 9)
            d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
            g1 = monic_from_index(field2, d1, rng.randrange(1 << d1))
            g2 = monic_from_index(field2, d2, rng.randrange(1 << d2))
            h1 = poly_from_encoding(field2, rng.randrange(1 << n))
            h2 = poly_from_encoding(field2, rng.randrange(1 << n))
            assert crt_count(g1, g2, h1, h2, n) == \
                crt_count_enumerated(g1, g2, h1, h2, n)

    @pytest.mark.parametrize("p, n_max", [(3, 6), (5, 4)])
    def test_random_against_enumeration_odd_p(self, p, n_max):
        # the digit-wise residues of odd p, constant moduli included
        field, rng = FieldSpec(p), random.Random(p)
        for _ in range(120):
            n = rng.randint(1, n_max)
            d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
            g1 = monic_from_index(field, d1, rng.randrange(p**d1))
            g2 = monic_from_index(field, d2, rng.randrange(p**d2))
            h1 = poly_from_encoding(field, rng.randrange(p**n))
            h2 = poly_from_encoding(field, rng.randrange(p**n))
            assert crt_count(g1, g2, h1, h2, n) == \
                crt_count_enumerated(g1, g2, h1, h2, n)

    def test_requires_monic_moduli(self, field3):
        g = parse_poly("2x+1", field3)
        zero = parse_poly("0", field3)
        with pytest.raises(EngineError):
            crt_count(g, g, zero, zero, 3)

    @pytest.mark.parametrize("texts, ps, error", [
        (("0", "x", "0", "0"), (3, 3, 3, 3), EngineError),
        (("2x+1", "2x+1", "0", "1"), (3, 3, 3, 3), EngineError),
        (("2x^2+1", "x", "0", "0"), (3, 3, 3, 3), EngineError),
        (("x", "x+2", "1", "1"), (2, 3, 2, 3), PolyError),
    ])
    def test_enumeration_refuses_alike(self, texts, ps, error):
        # the oracle once counted 27, 0, 3 and 0 where crt_count refuses
        polys = [parse_poly(t, FieldSpec(p)) for t, p in zip(texts, ps)]
        for count in (crt_count, crt_count_enumerated):
            with pytest.raises(error):
                count(*polys, 4)


class TestDeviationScan:
    def test_constant_function_scan_is_flat_zero(self, field2, table2):
        one = builtin("one", field2)
        zero, x = parse_poly("0", field2), parse_poly("x", field2)
        spec = CorrelationSpec(field2, 4, "monic", (zero, x), (one, one))
        for p in deviation_scan(spec, (4, 6, 8), table2):
            assert p.report.deviation <= 1e-12

    def test_scan_points_and_overlay(self, field2, table2):
        kf = builtin("kfree", field2, k=2)
        zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
        spec = CorrelationSpec(field2, 6, "monic", (zero, one_h), (kf, kf))
        pts = deviation_scan(spec, (6, 8, 10), table2)
        assert [p.n for p in pts] == [6, 8, 10]
        for p in pts:
            assert p.report.main is not None
            assert p.bound_overlay is not None and p.bound_overlay > 0
        assert pts[-1].report.deviation < pts[0].report.deviation

    @pytest.mark.parametrize("domain, h2, r", [
        ("monic", "1", 4), ("prime", "1", 5), ("monic", "x^5+x", 5)])
    def test_overlay_r_defaults_to_the_shift_degree(self, domain, h2, r,
                                                     field2, table2):
        # deg(h2 - h1), raised until q^r >= 9 (monic) or 17 (prime)
        kf = builtin("kfree", field2, k=2)
        spec = CorrelationSpec(field2, 7, domain,
                               (parse_poly("0", field2), parse_poly(h2, field2)),
                               (kf, kf))
        auto, pinned = (deviation_scan(spec, (7,), table2, overlay_r=given)
                        for given in (None, r))
        assert [p.bound_overlay for p in auto] == \
            [p.bound_overlay for p in pinned]
