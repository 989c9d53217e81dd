"""Primes in residue classes (sieve.residue_counts / residue_histogram,
read off the multiples that the sieve kernel lists) and the
arithmetic-progression statistics built on them, against per-prime long
division."""

import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqlab import FieldSpec, Poly, build_table, parse_poly, phi
from fqlab.arith import phi_values
from fqlab import sieve, stats
from fqlab.fieldpoly import monic_from_index
from fqlab.sieve import (
    RESIDUE_BLOCK_CELLS,
    IrreducibleTable,
    residue_counts,
    residue_histogram,
)
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


def packed_table(p, n, moduli):
    """_table(p) cut at degree n, with a doctored degree-n listing: of the
    right length, distinct and ascending, so the table takes it, but
    packed into the class of 1 mod each modulus in turn (as much of it as
    fits), then filled up with the smallest indices left."""
    table = _table(p)
    field = table.field
    picked = {}  # an insertion-ordered set
    for text in moduli:
        M = parse_poly(text, field)
        picked.update((i, None) for i in range(p**n)
                      if (monic_from_index(field, n, i) % M).encode() == 1)
    picked.update((i, None) for i in range(p**n))
    listing = np.array(sorted(list(picked)[:table.count(n)]), dtype=np.int64)
    return IrreducibleTable(field, n, [np.empty(0, dtype=np.int64)] + [
        table.prime_indices(d) for d in range(1, n)] + [listing])


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
        for m, moduli, counts in residue_counts(table, [n], d):
            assert m == n and counts.shape == (len(moduli), p**d)
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
            for _, moduli, counts in residue_counts(table2_14, [12], d):
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
        for _, moduli, counts in residue_counts(table, [6], 2):
            assert len(moduli) == 1 and counts.size <= 100
        assert brun_titchmarsh_violations(4, table) == bt_oracle(4, table)
        assert self._within(calls, 100)
        assert {m for m, _, _, _ in calls} > {1}
        assert max(r for _, r, _, _ in calls) == table.count(6) > 100

    @pytest.mark.parametrize("p, d, degrees", [(2, 3, [3, 4, 7, 10]),
                                              (3, 2, [2, 4, 6]),
                                              (5, 1, [2, 4])])
    def test_one_listing_serves_every_n(self, p, d, degrees, monkeypatch):
        # one listing of multiples to the largest n gives every n the
        # blocks that a listing to that n alone gives
        table = _table(p)
        _, kernels = self._spy(monkeypatch)
        got = [(n, m.tolist(), c.tolist())
               for n, m, c in residue_counts(table, degrees, d)]
        assert len(kernels) == 1
        assert got == [(n, m.tolist(), c.tolist()) for one in degrees
                       for n, m, c in residue_counts(table, [one], d)]

    def test_degree_past_the_table_refused_before_listing(self, monkeypatch):
        # 2^40 multiples (residue_histogram: 2^39) would be listed before
        # the primes were asked for
        table = _table(2)  # its sieve lists multiples of its own
        _, kernels = self._spy(monkeypatch)
        for blocks in (residue_counts(table, [40], 1),
                       residue_counts(table, [5, 40], 1)):
            with pytest.raises(sieve.TableTooSmallError, match="degree 40"):
                next(blocks)
        with pytest.raises(sieve.TableTooSmallError, match="degree 40"):
            residue_histogram(40, parse_poly("x+1", table.field), table)
        assert kernels == []

    @pytest.mark.parametrize("p, n, d", [(2, 10, 7), (3, 6, 4), (5, 4, 3),
                                         (3, 6, 1)])
    def test_one_kernel_per_call(self, p, n, d, monkeypatch):
        # the blocks of moduli are slices of one kernel's (p = 2: one
        # span's) p^n multiples
        table = _table(p)  # its sieve builds kernels of its own
        calls, kernels = self._spy(monkeypatch)
        blocks = list(residue_counts(table, [n], d))
        assert len(kernels) == 1 and len(blocks) == len(calls)
        assert sum(size for _, _, _, size in calls) == p**n
        if d > 1:
            assert len(blocks) > 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("degrees, d, match", [
        ([4], 5, "below the modulus degree"),   # d > n
        ([4], 0, "modulus degree must be >= 1"),
        ([1, 5], 2, "below the modulus degree"),
        ([5, 3], 1, "must ascend"),
    ])
    def test_bad_degrees_refused_before_listing(self, p, degrees, d, match,
                                                monkeypatch):
        table = _table(p)  # its sieve lists multiples of its own
        _, kernels = self._spy(monkeypatch)
        with pytest.raises(sieve.SieveError, match=match) as caught:
            next(residue_counts(table, degrees, d))
        assert caught.type is sieve.SieveError
        assert kernels == []


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
        # (n, M, key) triples and their order are those of the loops.  The
        # skipped pairs are decided from the largest totient, q^d - 1, so
        # the rule is given ten times that too
        totients, breakable = stats.phi_values, stats._bt_breakable
        monkeypatch.setattr(stats, "phi_values", lambda table, degrees: [
            10 * t for t in totients(table, degrees)])
        monkeypatch.setattr(stats, "_bt_breakable", lambda q, n, d, top:
                            breakable(q, n, d, 10 * top))
        got = brun_titchmarsh_violations(n_max, _table(p))
        assert got and got == bt_oracle(n_max, _table(p), scale=10)


class TestBrunTitchmarshPairs:
    """Brun-Titchmarsh lists the multiples of each modulus degree once and
    skips the pairs (n, deg M) where no count can break the bound."""

    @pytest.mark.parametrize("p, n, moduli", [(2, 9, ["x^3"]),
                                              (3, 5, ["x^2", "x^3+2x+1"])])
    def test_packed_listing(self, p, n, moduli):
        # a listing packed into few classes breaks the bound at several
        # modulus degrees, in the order of the loops
        table = packed_table(p, n, moduli)
        got = brun_titchmarsh_violations(n, table)
        assert got == bt_oracle(n, table)
        assert len({M.degree for _, M, _ in got}) >= 2

    @pytest.mark.parametrize("p, skipped", [
        (2, {(3, 1), (4, 1)}), (3, {(3, 1)}), (5, set())])
    def test_skipped_pairs_are_vacuous(self, p, skipped):
        # a class mod M of degree d holds q^(n - d) monic polynomials of
        # degree n, so even the densest distinct listing, all of them,
        # breaks no bound the rule skips; the largest phi(M) of degree d
        # is an irreducible's, q^d - 1
        table, field = _table(p), _table(p).field
        found = set()
        for n in range(2, 13):
            for d in range(1, n):
                top = p**d - 1
                if d <= table.max_deg:
                    assert phi_values(table, [d])[0].max() == top
                if stats._bt_breakable(p, n, d, top):
                    continue
                found.add((n, d))
                assert p ** (n - d) * top * (n - d + 1) <= 2 * p**n
                if p**n > 200:
                    continue
                for midx in range(p**d):  # the densest listing, counted
                    M = monic_from_index(field, d, midx)
                    sizes = Counter((monic_from_index(field, n, i) % M).encode()
                                    for i in range(p**n))
                    assert set(sizes.values()) == {p ** (n - d)}
                    assert p ** (n - d) * phi(M, table) * (n - d + 1) <= 2 * p**n
        assert found == skipped | {(n, n - 1) for n in range(2, 13)}

    @pytest.mark.parametrize("p, n_max", [(2, 10), (3, 6), (5, 4)])
    def test_one_kernel_per_modulus_degree(self, p, n_max, monkeypatch):
        # one kernel per modulus degree with a pair to count, where there
        # was one per pair; the totients are read from a dict, so no
        # value array lists multiples here
        table = _table(p)
        totients = dict(zip(range(1, n_max), phi_values(table, range(1, n_max))))
        asked = []
        monkeypatch.setattr(stats, "phi_values", lambda t, degrees: [
            totients[d] for d in asked.extend(degrees) or degrees])
        _, kernels = TestResidueMap._spy(monkeypatch)
        counted, counts = [], stats.residue_counts

        def spy(table, degrees, d):
            for n, moduli, block in counts(table, degrees, d):
                counted.append((n, d))
                yield n, moduli, block

        monkeypatch.setattr(stats, "residue_counts", spy)
        assert brun_titchmarsh_violations(n_max, table) == []
        want = [(n, d) for d in range(1, n_max) for n in range(d + 1, n_max + 1)
                if stats._bt_breakable(p, n, d, int(totients[d].max()))]
        assert list(dict.fromkeys(counted)) == want
        assert len(kernels) == len({d for _, d in want}) < len(want)
        # the totients only of the modulus degrees with a pair to count
        assert asked == sorted({d for _, d in want})


@pytest.mark.parametrize("p, d_max", [(2, 8), (3, 5), (5, 3)])
def test_phi_values_equal_phi(p, d_max):
    table = _table(p)
    for d, totients in zip(range(1, d_max + 1),
                           phi_values(table, range(1, d_max + 1))):
        assert totients.tolist() == \
            [phi(monic_from_index(table.field, d, i), table) for i in range(p**d)]


class TestShiftRange:
    def test_shift_of_degree_n_rejected(self, field2, table2):
        for text in ("x^6", "x^7+1"):
            with pytest.raises(StatsError):
                sieve_diagnostics(6, parse_poly(text, field2), 1.0, table2)
        sieve_diagnostics(6, parse_poly("x^5+1", field2), 1.0, table2)

    @pytest.mark.parametrize("text", ["0", "x+1"])
    def test_shift_over_another_field_refused(self, field3, table2, text):
        # shifted refuses it before Theta marks anything, at h = 0 too
        with pytest.raises(sieve.SieveError, match="shift over F_3"):
            sieve_diagnostics(6, parse_poly(text, field3), 1.0, table2)
