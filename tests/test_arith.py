import cmath
import dataclasses
import math
import random

import pytest

from fqlab import (
    AdditiveSpec,
    SpecError,
    FunctionSpec,
    builtin,
    builtin_additive,
    custom_from_table,
    exp_additive,
    factorize,
    parse_additive_spec,
    parse_function_spec,
    parse_poly,
    phi,
    poly_gcd_lcm,
)
from fqlab.fieldpoly import monic_from_index
from fqlab.sieve import Factorization
from oracles import (
    closeness_partial_sums,
    distance,
    enumerate_monic,
    eval_on,
    mertens_sum,
)


class TestBuiltinRules:
    def test_moebius_vanishes_on_squares(self, field2):
        mu = builtin("moebius", field2)
        assert mu.value_dm(1, 1) == -1
        assert mu.value_dm(1, 2) == 0
        assert mu.value_dm(3, 5) == 0

    def test_truncated_liouville_branches(self, field2):
        lam2 = builtin("liouville_truncated", field2, y=2)
        assert lam2.value_dm(3, 1) == 1   # past the truncation degree
        assert lam2.value_dm(2, 1) == -1
        assert lam2.value_dm(2, 2) == 1

    def test_phi_ratio_value(self, field2):
        pr = builtin("phi_ratio", field2)
        assert pr.value_dm(1, 5) == 0.5   # Phi(x^5)/|x^5| at q=2

    def test_kfree_rule(self, field2):
        k3 = builtin("kfree", field2, k=3)
        assert [k3.value_dm(1, m) for m in (1, 2, 3, 4)] == [1, 1, 0, 0]

    def test_value_at_power_zero_is_one(self, field2):
        for kind in ("one", "moebius", "liouville", "phi_ratio"):
            assert builtin(kind, field2).value_dm(4, 0) == 1

    def test_bad_params(self, field2):
        with pytest.raises(SpecError):
            builtin("kfree", field2, k=1)
        with pytest.raises(SpecError):
            builtin("liouville_truncated", field2, y=0)
        with pytest.raises(SpecError):
            builtin("nope", field2)

    def test_all_builtins_unit_bounded(self, field2):
        kinds = [("one", {}), ("moebius", {}), ("kfree", {"k": 2}),
                 ("liouville", {}), ("liouville_truncated", {"y": 3}),
                 ("phi_ratio", {})]
        for kind, kw in kinds:
            spec = builtin(kind, field2, **kw)
            assert spec.unit_bounded
            for d in (1, 2, 5):
                for m in (1, 2, 3):
                    assert abs(spec.value_dm(d, m)) <= 1


class TestSpecContract:
    """A spec carries exactly one rule, its degree symmetry is read off
    which one, and its flags are keywords."""

    FLAGS = dict(unit_bounded=True, integer_valued=True,
                 trivial_beyond_degree=None, power_settle=None)
    ADDITIVE = dict(trivial_beyond_degree=None, power_settle=None)

    def test_both_rules_or_neither_refused(self, field2):
        by_d, by_p = (lambda d, m: 1), (lambda P, m: 1)
        for rule_dm, rule_poly in ((by_d, by_p), (None, None)):
            with pytest.raises(SpecError, match="exactly one"):
                FunctionSpec("s", field2, rule_dm, **self.FLAGS,
                             rule_poly=rule_poly)
            with pytest.raises(SpecError, match="exactly one"):
                AdditiveSpec("a", field2, rule_dm, **self.ADDITIVE,
                             rule_poly=rule_poly)
        with pytest.raises(SpecError, match="exactly one"):
            dataclasses.replace(builtin("moebius", field2), rule_poly=by_p)

    def test_old_positional_call_refused(self, field2):
        # the old signature put degree_symmetric right after rule_dm
        with pytest.raises(TypeError):
            FunctionSpec("s", field2, lambda d, m: 1, True, True, True,
                         None, None)
        with pytest.raises(TypeError):
            AdditiveSpec("a", field2, lambda d, m: 1.0, True, None, None)

    def test_degree_symmetry_follows_from_the_rule(self, field2):
        by_d = FunctionSpec("d", field2, lambda d, m: 1, **self.FLAGS)
        by_p = FunctionSpec("p", field2, None, **self.FLAGS,
                            rule_poly=lambda P, m: 1)
        assert by_d.degree_symmetric and not by_p.degree_symmetric
        assert not exp_additive(AdditiveSpec(
            "a", field2, None, **self.ADDITIVE,
            rule_poly=lambda P, m: 1.0), 0.5).degree_symmetric
        with pytest.raises(AttributeError):
            by_p.degree_symmetric = True
        with pytest.raises(TypeError):
            dataclasses.replace(by_p, degree_symmetric=True)


class TestEval:
    def test_moebius_of_two_distinct_primes(self, field2, table2):
        f = parse_poly("x^2+x", field2)
        assert eval_on(factorize(f, table2), builtin("moebius", field2)) == 1

    def test_liouville_counts_multiplicity(self, field2, table2):
        f = parse_poly("x^3+x^2", field2)  # x^2 (x+1)
        assert eval_on(factorize(f, table2), builtin("liouville", field2)) == -1

    def test_empty_factorization(self, field2):
        assert eval_on(Factorization(()), builtin("moebius", field2)) == 1

    def test_multiplicativity_on_coprime_pairs(self, field2, table2):
        rng = random.Random(41)
        specs = [builtin("moebius", field2), builtin("liouville", field2),
                 builtin("phi_ratio", field2),
                 builtin("kfree", field2, k=2)]
        done = 0
        while done < 1000:
            na, nb = rng.randint(1, 7), rng.randint(1, 7)
            a = monic_from_index(field2, na, rng.randrange(1 << na))
            b = monic_from_index(field2, nb, rng.randrange(1 << nb))
            g, _ = poly_gcd_lcm(a, b)
            if g.degree != 0:
                continue
            spec = specs[done % len(specs)]
            va = eval_on(factorize(a, table2), spec)
            vb = eval_on(factorize(b, table2), spec)
            vab = eval_on(factorize(a * b, table2), spec)
            assert abs(vab - va * vb) < 1e-12
            done += 1

    def test_truncated_liouville_agrees_with_liouville_below_cutoff(
            self, field2, table2):
        lam = builtin("liouville", field2)
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 8)
            f = monic_from_index(field2, n, rng.randrange(1 << n))
            fact = factorize(f, table2)
            for y in (n, n + 1, 12):
                lam_y = builtin("liouville_truncated", field2, y=y)
                assert eval_on(fact, lam_y) == eval_on(fact, lam)


class TestPhi:
    def test_examples(self, field2, table2):
        assert phi(parse_poly("x^2", field2), table2) == 2
        assert phi(parse_poly("x^2+x+1", field2), table2) == 3
        assert phi(parse_poly("1", field2), table2) == 1

    def test_prime_value(self, field2, field3, table2, table3):
        for tab in (table2, table3):
            q = tab.field.p
            for d in (1, 2, 3):
                for P in tab.primes(d)[:3]:
                    assert phi(P, tab) == q ** d - 1

    def test_multiplicative_on_coprime(self, field2, table2):
        rng = random.Random(10)
        for _ in range(200):
            na, nb = rng.randint(1, 6), rng.randint(1, 6)
            a = monic_from_index(field2, na, rng.randrange(1 << na))
            b = monic_from_index(field2, nb, rng.randrange(1 << nb))
            g, _ = poly_gcd_lcm(a, b)
            if g.degree != 0:
                continue
            assert phi(a * b, table2) == phi(a, table2) * phi(b, table2)

    def test_counting_definition_q2(self, field2, table2):
        # at q = 2 every nonzero residue is monic, so counting coprime
        # monic polynomials of lower degree (including 1) gives |(A/fA)*|
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 8)
            f = monic_from_index(field2, n, rng.randrange(1 << n))
            count = 0
            for d in range(0, n):
                for g in enumerate_monic(field2, d):
                    gg, _ = poly_gcd_lcm(f, g)
                    if gg.degree == 0:
                        count += 1
            assert count == phi(f, table2)


class TestDistance:
    def test_self_distance_zero_for_unit_valued(self, field2, table2):
        # |psi(P)| = 1 exactly makes the integrand vanish; strictly
        # unit-bounded functions like phi_ratio keep a positive distance
        for kind in ("one", "liouville"):
            s = builtin(kind, field2)
            assert distance(s, s, 1, 8, table2) == 0.0
        pr = builtin("phi_ratio", field2)
        assert distance(pr, pr, 1, 8, table2) > 0.0

    def test_liouville_vs_one_single_degree(self, field2, table2):
        lam = builtin("liouville", field2)
        one = builtin("one", field2)
        d = distance(lam, one, 1, 1, table2)
        assert abs(d ** 2 - 2.0) < 1e-14  # two degree-1 primes, each (1-(-1))/2

    def test_truncated_liouville_past_cutoff(self, field2, table2):
        one = builtin("one", field2)
        for y in (2, 3):
            lam_y = builtin("liouville_truncated", field2, y=y)
            assert distance(lam_y, one, y + 1, 10, table2) == 0.0

    def test_symmetry_and_sign(self, field2, table2):
        a = builtin("phi_ratio", field2)
        b = builtin("liouville", field2)
        ab = distance(a, b, 1, 9, table2)
        ba = distance(b, a, 1, 9, table2)
        assert ab == ba >= 0.0

    def test_window_beyond_table_degree_symmetric(self, field2, table2):
        # degree-symmetric specs can use exact counts past the listings
        lam = builtin("liouville", field2)
        one = builtin("one", field2)
        d_lo = distance(lam, one, 1, 10, table2)
        d_hi = distance(lam, one, 1, 16, table2)
        assert d_hi > d_lo

    def test_requires_unit_bounded(self, field2, table2):
        big = custom_from_table(field2, {(1, 1): 2.0})
        assert not big.unit_bounded
        with pytest.raises(SpecError):
            distance(big, builtin("one", field2), 1, 4, table2)


class TestClosenessAndMertens:
    def test_constant_one_all_zero(self, field2, table2):
        sums = closeness_partial_sums(builtin("one", field2), 8, table2)
        assert all(s == 0 for s in sums)

    def test_phi_ratio_first_sum(self, field2, table2):
        sums = closeness_partial_sums(builtin("phi_ratio", field2), 1, table2)
        assert abs(sums[0] - (-0.5)) < 1e-15  # 2 primes * (-1/2) / 2

    def test_liouville_matches_minus_two_mertens(self, field2, table2):
        # (lambda(P) - 1) = -2 identically, so the partial sums are exactly
        # -2 * mertens partial sums: a divergent trend
        sums = closeness_partial_sums(builtin("liouville", field2), 10, table2)
        for N in (1, 5, 10):
            assert abs(sums[N - 1] - (-2.0 * mertens_sum(N, table2))) < 1e-12
        assert sums[9].real < sums[4].real < sums[0].real

    def test_mertens_examples(self, field2, table2):
        assert abs(mertens_sum(1, table2) - 1.0) < 1e-15
        assert abs(mertens_sum(2, table2) - 1.25) < 1e-15

    def test_mertens_log_differences_stabilize(self, field2, table2):
        diffs = [mertens_sum(n, table2) - math.log(n) for n in range(1, 17)]
        steps = [abs(b - a) for a, b in zip(diffs, diffs[1:])]
        assert steps[-1] < steps[0]
        assert steps[-1] < 0.01  # the constant drifts by O(1/n)


class TestExpAdditive:
    def test_t_zero_collapses_to_one(self, field2):
        lpr = builtin_additive("log_phi_ratio", field2)
        spec = exp_additive(lpr, 0.0)
        assert spec.name == "one" and spec.integer_valued

    def test_unit_modulus(self, field2):
        lpr = builtin_additive("log_phi_ratio", field2)
        spec = exp_additive(lpr, 1.7)
        for d in (1, 2, 6):
            for m in (1, 2, 4):
                assert abs(abs(spec.value_dm(d, m)) - 1.0) < 1e-15

    def test_phase_is_power_of_one_minus_q_minus_d(self, field2):
        # the exponentiated logarithm of Phi(f)/|f| at P^m is
        # (1 - q^{-deg P})^{it}
        lpr = builtin_additive("log_phi_ratio", field2)
        t = 0.9
        spec = exp_additive(lpr, t)
        for d in (1, 3):
            want = cmath.exp(1j * t * math.log(1 - 2.0 ** -d))
            assert abs(spec.value_dm(d, 2) - want) < 1e-15

    def test_inherits_structure(self, field2):
        lpr = builtin_additive("log_phi_ratio", field2)
        spec = exp_additive(lpr, 2.0)
        assert spec.unit_bounded and spec.degree_symmetric
        assert spec.power_settle == lpr.power_settle

    def test_additive_eval(self, field2, table2):
        omg = builtin_additive("big_omega", field2)
        f = parse_poly("x^3+x^2", field2)  # x^2 (x+1): Omega = 3
        assert eval_on(factorize(f, table2), omg) == 3.0


class TestSpecGrammar:
    @pytest.mark.parametrize("text,name", [
        ("one", "one"), ("moebius", "moebius"), ("kfree:2", "kfree:2"),
        ("liouville", "liouville"), ("liouville_trunc:3", "liouville_trunc:3"),
        ("phi_ratio", "phi_ratio"),
    ])
    def test_names(self, field2, text, name):
        assert parse_function_spec(text, field2).name == name

    def test_unknown_rejected(self, field2):
        with pytest.raises(SpecError):
            parse_function_spec("mobius", field2)

    def test_custom_file(self, field2, tmp_path):
        f = tmp_path / "spec.txt"
        f.write_text("# rule with support at degree <= 2\n"
                     "1,1 = -1\n(2,1)=0.5\n")
        spec = parse_function_spec(f"custom:{f}", field2)
        assert spec.value_dm(1, 1) == -1
        assert spec.value_dm(2, 1) == 0.5
        assert spec.value_dm(3, 1) == 1  # unlisted defaults to 1
        assert spec.unit_bounded
        assert spec.trivial_beyond_degree == 2

    def test_custom_file_errors(self, field2, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1;1=2\n")
        with pytest.raises(SpecError):
            parse_function_spec(f"custom:{f}", field2)

    def test_additive_names(self, field2):
        for name in ("zero", "omega", "big_omega", "log_phi_ratio"):
            assert parse_additive_spec(name, field2).name == name
        with pytest.raises(SpecError):
            parse_additive_spec("log", field2)
