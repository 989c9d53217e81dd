"""Acceptance gate: every exit criterion at its stated tolerance.

Each test covers one numbered criterion, asserts it, and prints a single
pass line (visible with `pytest -s`).  Exact identities are compared with
==, floating comparisons carry the tolerance pinned in the criterion.
"""

import random
import sys
import time

import numpy as np
import pytest

from fqlab import (
    AdditiveSpec,
    CorrelationSpec,
    FieldSpec,
    ShiftPair,
    brun_titchmarsh_violations,
    build_table,
    builtin,
    builtin_additive,
    charfn_comparison,
    crt_count,
    main_term,
    parse_poly,
    tk_ratio,
)
from fqlab.arith import product_sum, scan
from fqlab.fieldpoly import monic_from_index, poly_from_encoding
from oracles import (correlate_at, crt_count_enumerated, liouville_local_closed,
                     local_factor)


def report(num, text):
    print(f"\ncriterion {num:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def field2():
    return FieldSpec(2)


@pytest.fixture(scope="module")
def sieve_grid():
    t0 = time.perf_counter()
    tables = {2: build_table(FieldSpec(2), 20),
              3: build_table(FieldSpec(3), 12),
              5: build_table(FieldSpec(5), 8)}
    return tables, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table2(field2):
    return build_table(field2, 10)


@pytest.fixture(scope="module")
def table2_14(field2):
    return build_table(field2, 14)


@pytest.fixture(scope="module")
def chowla_runs(field2, table2):
    # shared by criteria 6 and 11: the y=2, h=x experiment at n=10 and 20
    lam2 = builtin("liouville_truncated", field2, y=2)
    zero, x = parse_poly("0", field2), parse_poly("x", field2)
    t0 = time.perf_counter()
    reps = {}
    for n in (10, 20):
        spec = CorrelationSpec(field2, n, "monic", (zero, x), (lam2, lam2))
        reps[n] = correlate_at(spec, table2)
    return reps, time.perf_counter() - t0


def test_criterion_01_sieve_exactness(sieve_grid):
    tables, elapsed = sieve_grid
    for q, tab in tables.items():
        for n in range(1, tab.max_deg + 1):
            rep = tab.necklace_check(n)
            assert rep.ok, (q, n)
            assert rep.weighted_sum == q ** n
    assert elapsed < 120.0
    report(1, f"necklace identity exact on the full grid "
              f"(p=2 to 20, p=3 to 12, p=5 to 8) in {elapsed:.1f}s")


def test_criterion_02_sqrt_count_shape(sieve_grid):
    tables, _ = sieve_grid
    worst = 0.0
    for q, tab in tables.items():
        for n in range(1, tab.max_deg + 1):
            gap = abs(n * tab.count(n) - q ** n)
            bound = 4 * q ** (n / 2)
            assert gap <= bound, (q, n)
            worst = max(worst, gap / bound)
    report(2, f"|n N_n - q^n| <= 4 q^(n/2) everywhere (worst fill {worst:.2f})")


def test_criterion_03_trivial_correlations(field2, table2):
    one = builtin("one", field2)
    zero = parse_poly("0", field2)
    x = parse_poly("x", field2)
    monic = correlate_at(CorrelationSpec(field2, 10, "monic", (zero, x),
                                         (one, one)), table2)
    assert monic.raw_sum == 2 ** 10
    assert abs(monic.main.value - 1) <= 1e-12
    prime = correlate_at(CorrelationSpec(field2, 10, "prime", (zero, x),
                                         (one, one)), table2)
    assert prime.raw_sum == table2.count(10) == 99
    assert abs(prime.main.value - 1) <= 1e-12
    report(3, "constant functions give S2 = q^n and R2 = |P_n| exactly, "
              "main terms 1 within 1e-12")


def test_criterion_04_crt_counting(field2):
    rng = random.Random(20260809)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
        g1 = monic_from_index(field2, d1, rng.randrange(1 << d1))
        g2 = monic_from_index(field2, d2, rng.randrange(1 << d2))
        h1 = poly_from_encoding(field2, rng.randrange(1 << n))
        h2 = poly_from_encoding(field2, rng.randrange(1 << n))
        assert crt_count(g1, g2, h1, h2, n) == \
            crt_count_enumerated(g1, g2, h1, h2, n)
        checked += 1
    assert checked == 1000
    report(4, "closed-form congruence counts equal enumeration on 1000 "
              "random instances (exact)")


def test_criterion_05_liouville_closed_form():
    worst = 0.0
    for q in (2, 3):
        field = FieldSpec(q)
        lam = builtin("liouville_truncated", field, y=6)
        for d in range(1, 7):
            for k in range(0, 4):
                got = local_factor(d, k, lam, lam, "monic")
                want = float(liouville_local_closed(d, k, q))
                err = abs(got.value - want)
                assert err <= 1e-12, (q, d, k, err)
                worst = max(worst, err)
    report(5, f"generic local factors match the closed form on the "
              f"(d<=6, k<=3, q in 2,3) grid, worst error {worst:.2e}")


def test_criterion_06_truncated_chowla_trend(chowla_runs):
    reps, elapsed = chowla_runs
    dev10, dev20 = reps[10].deviation, reps[20].deviation
    assert dev20 < dev10
    assert elapsed <= 600.0
    report(6, f"|S2/q^n - P(n)| falls from {dev10:.3e} (n=10) to "
              f"{dev20:.3e} (n=20) in {elapsed:.0f}s")


def test_criterion_07_phi_ratio_product(field2, table2):
    pr = builtin("phi_ratio", field2)
    zero, one_h = parse_poly("0", field2), parse_poly("1", field2)
    [target] = main_term([None], ShiftPair(zero, one_h), pr, pr, "monic",
                         table2)
    assert target.tail_bound <= 1e-10
    devs = []
    for n in (8, 10, 12, 14, 16, 18):
        rep = correlate_at(CorrelationSpec(field2, n, "monic", (zero, one_h),
                                           (pr, pr)), table2)
        devs.append(abs(rep.normalized - target.value))
    assert devs[-1] < devs[0]
    decreasing = sum(1 for a, b in zip(devs, devs[1:]) if b < a)
    assert decreasing >= 4
    report(7, f"deviation vs the squarefree-style product falls "
              f"{devs[0]:.2e} -> {devs[-1]:.2e}, {decreasing}/5 steps "
              f"decreasing, product tail {target.tail_bound:.1e}")


def test_criterion_08_turan_kubilius_bounded(field2, table2_14):
    zero = parse_poly("0", field2)
    rules = {"ones": lambda d, m: 1.0,
             "first_power": lambda d, m: 1.0 if m == 1 else 0.0}
    # brute-force oracle constants at n=8, frozen from an independent
    # naive-factorization run
    oracle_n8 = {"ones": 0.160084221494912, "first_power": 0.33814604954211575}
    growth = {}
    for name, rule in rules.items():
        psi = AdditiveSpec(name, field2, rule, trivial_beyond_degree=None,
                           power_settle=None)
        degrees = range(6, 15)
        ratios = [tk_ratio(psi, values, n, "monic", table2_14).ratio
                  for n, (values,) in zip(degrees, scan(
                      [psi], [zero], degrees, "monic", table2_14))]
        assert abs(ratios[2] - oracle_n8[name]) < 1e-9  # n=8 spot check
        assert max(ratios) <= 2.0 * ratios[0]
        growth[name] = max(ratios) / ratios[0]
    report(8, "variance ratios stay within 2x their n=6 value on 6..14 "
              f"(growth ones {growth['ones']:.2f}, "
              f"indicator {growth['first_power']:.2f}); n=8 matches the "
              "brute-force oracle")


def test_criterion_09_limit_law(field2, table2):
    lpr = builtin_additive("log_phi_ratio", field2)
    sh = ShiftPair(parse_poly("0", field2), parse_poly("1", field2))
    grid = [k / 2.0 for k in range(-6, 7)]
    errs = {}
    for n in (8, 16):
        comp = charfn_comparison(lpr, lpr, sh, n, "monic", grid, table2)
        i0 = grid.index(0.0)
        assert comp.phi_empirical[i0] == 1.0
        assert comp.phi_limit[i0].value == 1.0
        errs[n] = max(comp.per_t_error)
    assert errs[16] < errs[8]
    report(9, f"max_t |phi_n - phi| falls {errs[8]:.2e} (n=8) -> "
              f"{errs[16]:.2e} (n=16); phi_n(0) = phi(0) = 1 exactly")


def test_criterion_10_brun_titchmarsh_exhaustive(table2):
    bad = brun_titchmarsh_violations(10, table2)
    assert bad == []
    report(10, "Brun-Titchmarsh inequality holds for every modulus and "
               "residue with deg M < n <= 10 (zero violations)")


def test_criterion_11_partition_determinism(field2, table2, chowla_runs):
    # the raw sum equals the sum of the exact sums over contiguous blocks
    # of the domain, however many blocks
    reps, _ = chowla_runs
    base = reps[20].raw_sum
    assert isinstance(base, int)
    lam2 = builtin("liouville_truncated", field2, y=2)
    [columns] = scan((lam2, lam2),
                     (parse_poly("0", field2), parse_poly("x", field2)),
                     [20], "monic", table2)
    for parts in (1, 4, 16):
        blocks = zip(*(np.array_split(c, parts) for c in columns))
        assert sum(product_sum(list(b), True) for b in blocks) == base
    report(11, f"integer raw sum {base} equals the sum of the exact sums "
               "over 1, 4 and 16 contiguous blocks of the domain")
