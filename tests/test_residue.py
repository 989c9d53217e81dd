"""Primes in residue classes (sieve.residue_counts / residue_histogram,
read off the multiples that the sieve kernel lists) and the
arithmetic-progression statistics built on them, against per-prime long
division."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqlab import FieldSpec, Poly, build_table, parse_poly, phi
from fqlab.arith import phi_values
from fqlab import sieve, stats
from fqlab.fieldpoly import monic_from_index
from fqlab.sieve import RESIDUE_BLOCK_CELLS, residue_counts, residue_histogram
from fqlab.stats import StatsError, brun_titchmarsh_violations, sieve_diagnostics

TABLE_DEGREES = {2: 10, 3: 6, 5: 4}


@functools.cache
def _table(p):
    return build_table(FieldSpec(p), TABLE_DEGREES[p])


# ---------------------------------------------------------------------------
# the slow oracles: per-prime long division, as the statistics were
# computed before the residue counts
# ---------------------------------------------------------------------------

def tally(n, modulus, table):
    """{key of P mod M: count} over the degree-n primes in index order."""
    hist = {}
    if table.field.p == 2:
        mb = modulus.encode()
        for idx in table.prime_indices(n):
            r = int(idx) | 1 << n
            while r.bit_length() >= mb.bit_length():
                r ^= mb << (r.bit_length() - mb.bit_length())
            hist[r] = hist.get(r, 0) + 1
    else:
        for P in table.primes(n):
            r = (P % modulus).encode()
            hist[r] = hist.get(r, 0) + 1
    return hist


def theta_oracle(n, h, table):
    q, theta = table.field.p, 0
    if h.is_zero:
        return 0
    for dq in range(n // 2 + 1, n + 1):
        for Q in table.primes(dq):
            res = (-h) % Q
            if res.is_zero:
                continue
            cnt = tally(n, Q, table).get(res.encode(), 0)
            theta += (q**dq - 1) * cnt * cnt
    return theta


def bv_oracle(n, t, table):
    q, bv, d = table.field.p, Fraction(0), 1
    while d < n / 2 - t * math.log(n, q):
        for midx in range(q**d):
            M = monic_from_index(table.field, d, midx)
            phim = phi(M, table)
            target = Fraction(q**n, n * phim)
            hist = tally(n, M, table)
            worst = max(abs(Fraction(c) - target) for c in hist.values())
            if phim > len(hist):
                worst = max(worst, target)
            bv += worst
        d += 1
    return bv


def bt_oracle(n_max, table, scale=1):
    q, bad = table.field.p, []
    for n in range(2, n_max + 1):
        for d in range(1, n):
            for midx in range(q**d):
                M = monic_from_index(table.field, d, midx)
                phim = scale * phi(M, table)
                for key, cnt in tally(n, M, table).items():
                    if cnt * phim * (n - d + 1) > 2 * q**n:
                        bad.append((n, M, key))
    return bad


@st.composite
def moduli_cases(draw, above=0):
    """p, a degree n, a modulus degree 1..n + above and some modulus
    indices (always the first and the last)."""
    p = draw(st.sampled_from(sorted(TABLE_DEGREES)))
    n = draw(st.integers(1, TABLE_DEGREES[p]))
    d = draw(st.integers(1, n + above))
    picks = draw(st.lists(st.integers(0, p**d - 1), max_size=6))
    return p, n, d, sorted({0, p**d - 1, *picks})


@st.composite
def shift_cases(draw):
    p = draw(st.sampled_from(sorted(TABLE_DEGREES)))
    n = draw(st.integers(2, TABLE_DEGREES[p]))
    field = FieldSpec(p)
    h = draw(st.sampled_from([Poly(field, ()), parse_poly("1", field),
                              parse_poly("x", field), None]))
    if h is None:
        h = Poly(field, draw(st.lists(st.integers(0, p - 1), max_size=n)))
    t = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return p, n, h, t


class TestResidueMap:
    @settings(max_examples=80, deadline=None)
    @given(moduli_cases())
    def test_counts_equal_per_prime_tally(self, case):
        p, n, d, picks = case
        table = _table(p)
        seen = []
        for moduli, counts in residue_counts(table, n, d):
            assert counts.shape == (len(moduli), p**d)
            assert (counts.sum(axis=1) == table.count(n)).all()
            seen += moduli.tolist()
            for b, midx in enumerate(moduli.tolist()):
                if midx in picks:
                    M = monic_from_index(table.field, d, midx)
                    nonzero = np.nonzero(counts[b])[0]
                    assert dict(zip(nonzero.tolist(), counts[b][nonzero].tolist())) \
                        == tally(n, M, table)
        assert seen == list(range(p**d))

    @settings(max_examples=80, deadline=None)
    @given(moduli_cases(above=2))
    # moduli above the degree of the primes: each prime is its own residue
    @example((2, 4, 5, [0, 7, 31]))
    @example((3, 3, 5, [0, 100, 242]))
    def test_histogram_equals_tally(self, case):
        # the same classes and counts, in the order of their first prime
        p, n, d, picks = case
        table = _table(p)
        for midx in picks:
            M = monic_from_index(table.field, d, midx)
            assert list(residue_histogram(n, M, table).items()) == \
                list(tally(n, M, table).items())

    @staticmethod
    def _spy(monkeypatch):
        """Record (moduli, primes, residue classes, multiples) of every call
        of the residue helper, and the arguments of every listing of
        multiples: the sieve kernel at odd p, a span at p = 2."""
        calls, kernels = [], []
        residues = sieve._residues

        def spy(p, n, d, idx, rows):
            calls.append((len(rows), len(idx), p**d, rows.size))
            return residues(p, n, d, idx, rows)

        def lister(listing):
            def kernel(*args):
                kernels.append(args)
                return listing(*args)
            return kernel

        monkeypatch.setattr(sieve, "_residues", spy)
        for name in ("_Multiples", "_gf2_span"):
            monkeypatch.setattr(sieve, name, lister(getattr(sieve, name)))
        return calls, kernels

    @staticmethod
    def _within(calls, cap):
        # one modulus is never split; a block of several bounds its
        # residues and its counts
        return all(m == 1 or m * max(r, c) <= cap for m, r, c, _ in calls)

    def test_blocks_respect_the_cell_cap(self, table2_14, monkeypatch):
        calls, _ = self._spy(monkeypatch)
        assert brun_titchmarsh_violations(11, table2_14) == []
        for d in (1, 5, 9, 11):
            for moduli, counts in residue_counts(table2_14, 12, d):
                assert counts.size <= max(RESIDUE_BLOCK_CELLS, 2**d)
        assert calls and self._within(calls, RESIDUE_BLOCK_CELLS)
        assert max(m for m, _, _, _ in calls) > 1

    def test_small_cap_splits_rows_and_moduli(self, monkeypatch):
        # a tiny cap forces many blocks of moduli, and one modulus per
        # block once its primes alone pass the cap; the answers stay
        # those of the tally
        table = _table(3)
        M = monic_from_index(table.field, 4, 50)
        want = tally(6, M, table)
        monkeypatch.setattr(sieve, "RESIDUE_BLOCK_CELLS", 100)
        calls, _ = self._spy(monkeypatch)
        assert list(residue_histogram(6, M, table).items()) == list(want.items())
        for moduli, counts in residue_counts(table, 6, 2):
            assert len(moduli) == 1 and counts.size <= 100
        assert brun_titchmarsh_violations(4, table) == bt_oracle(4, table)
        assert self._within(calls, 100)
        assert {m for m, _, _, _ in calls} > {1}
        assert max(r for _, r, _, _ in calls) == table.count(6) > 100

    @pytest.mark.parametrize("p, n, d", [(2, 10, 7), (3, 6, 4), (5, 4, 3),
                                         (3, 6, 1)])
    def test_one_kernel_per_call(self, p, n, d, monkeypatch):
        # the blocks of moduli are slices of one kernel's (p = 2: one
        # span's) p^n multiples
        table = _table(p)  # its sieve builds kernels of its own
        calls, kernels = self._spy(monkeypatch)
        blocks = list(residue_counts(table, n, d))
        assert len(kernels) == 1 and len(blocks) == len(calls)
        assert sum(size for _, _, _, size in calls) == p**n
        if d > 1:
            assert len(blocks) > 1


class TestStatisticsAgainstLoops:
    @settings(max_examples=30, deadline=None)
    @given(shift_cases())
    # shifts at which +h and -h give different theta (at many small
    # shifts the two coincide)
    @example((3, 5, parse_poly("x", FieldSpec(3)), 1.0))
    @example((3, 6, parse_poly("x^2+2", FieldSpec(3)), 0.5))
    def test_theta_and_bv_sum(self, case):
        p, n, h, t = case
        table = _table(p)
        diag = sieve_diagnostics(n, h, t, table)
        assert diag.theta == theta_oracle(n, h, table)
        assert diag.bv_sum == bv_oracle(n, t, table)

    @pytest.mark.parametrize("p, n, cap", [(2, 8, 16), (3, 5, 27)])
    def test_theta_over_split_blocks(self, p, n, cap, monkeypatch):
        # a cap this small splits the primes of degree n // 2 + 1 (6 at
        # p = 2, 8 at p = 3) over several blocks of prime_valuations
        table = _table(p)
        h = parse_poly("x", table.field)
        valuations, blocks = stats.prime_valuations, []

        def spy(*args):
            for d, idx, v in valuations(*args):
                blocks.append(d)
                yield d, idx, v

        monkeypatch.setattr(sieve, "SIEVE_BLOCK_CELLS", cap)
        monkeypatch.setattr(stats, "prime_valuations", spy)
        assert sieve_diagnostics(n, h, 1.0, table).theta == theta_oracle(n, h, table)
        assert blocks.count(n // 2 + 1) > 1

    @pytest.mark.parametrize("p, n_max", [(2, 8), (3, 5), (5, 3)])
    def test_brun_titchmarsh_list(self, p, n_max):
        assert brun_titchmarsh_violations(n_max, _table(p)) == \
            bt_oracle(n_max, _table(p)) == []

    @pytest.mark.parametrize("p, n_max", [(2, 7), (3, 4)])
    def test_violations_reported_in_loop_order(self, p, n_max, monkeypatch):
        # ten times the totient makes the bound fail often; the reported
        # (n, M, key) triples and their order are those of the loops
        totients = stats.phi_values
        monkeypatch.setattr(stats, "phi_values",
                            lambda table, d: 10 * totients(table, d))
        got = brun_titchmarsh_violations(n_max, _table(p))
        assert got and got == bt_oracle(n_max, _table(p), scale=10)


@pytest.mark.parametrize("p, d_max", [(2, 8), (3, 5), (5, 3)])
def test_phi_values_equal_phi(p, d_max):
    table = _table(p)
    for d in range(1, d_max + 1):
        assert phi_values(table, d).tolist() == \
            [phi(monic_from_index(table.field, d, i), table) for i in range(p**d)]


class TestShiftRange:
    def test_shift_of_degree_n_rejected(self, field2, table2):
        for text in ("x^6", "x^7+1"):
            with pytest.raises(StatsError):
                sieve_diagnostics(6, parse_poly(text, field2), 1.0, table2)
        sieve_diagnostics(6, parse_poly("x^5+1", field2), 1.0, table2)
