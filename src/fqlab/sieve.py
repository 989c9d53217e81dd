"""Monic irreducibles over F_p: sieve, counting, factorization, primes in APs.

The table sieve (build_table) marks, degree by degree, the monic
multiples of every lower-degree irreducible; the unmarked indices of
degree d are exactly the irreducibles.  At p = 2 every listing of
multiples is one XOR span (_gf2_span: b (x^m + g) for every g of degree
< m, doubled up over the bits of g), and the table sieve is one
Eratosthenes pass over the odd bitmasks (_gf2_listing).  At odd p it
goes one target degree at a time: the monic multiples of degree m + d
of a monic modulus M of degree d are x^d g - (x^d g mod M) for the
monic g of degree m, so they are read off the residue map: the one with
high part g_j (index j) sits at index j p^d + key_j, and key_j, the
encoding of -(x^d g_j mod M), is affine in the digits of j.  One kernel
(_Multiples, odd-p code that the tests also run at p = 2) doubles the
keys up over the digits of j for all moduli of a degree at once, as
digit columns kept reduced below p in the smallest unsigned dtype that
holds 2p - 2, uint8 up to p = 127, in blocks of at most
SIEVE_BLOCK_CELLS cells, as the p = 2 pass.

The valuation sieve behind the correlate and stats scans,
prime_valuations, lists, block by block of the primes P of a degree,
the multiples of P^first (the first power whose value is not neutral)
among all monic polynomials of degree n and v_P there, counted only up
to the power where the value settles, so a scan divides nothing; with
every prime above n/2 neutral too, the caller keeps no remaining
degree; first = settle = 1 lists the multiples of the primes.  Only how
a block is listed depends on p: for odd p the same kernel lists the
multiples of every power (those of P^k sit at positions f // p^(first
d) among those of P^first); for p = 2 one span per block lists P^first
g in the order of g, and v_P(P g) = 1 + v_P(g) is read one level down.
A shift f -> f + h is a translation of that space (shifted): an array
over it, reshaped to (p,)*n, has one axis per coefficient, and h moves
each axis of a nonzero digit.  The multiples of every modulus of a
degree (_kernel_rows: the kernel at odd p, one span at p = 2) hold every
residue: the multiple of M at position j = f // p^d agrees with f from
x^d up, so f mod M is f minus that multiple, digit by digit (XOR for p
= 2; _residues).  residue_counts lists them once per degree pair and
yields the class counts of the primes block by block of moduli,
residue_histogram those of one modulus.
Factorization of a single polynomial (factorize) runs one
trial-division loop over a bitmask division (p = 2) or fieldpoly's
coefficient-tuple long division (odd p), converting the primes of a
degree only when the loop reaches it.

A table checks every N_d against Moebius inversion of the necklace
identity sum_{d|n} d*N_d = q^n (the coefficient form of the zeta
function's Euler product), which is that identity for every n <=
max_deg.  Counts beyond the tabulated range are produced exactly by the
same inversion; only listings are capped by the memory budget.

The cache file layout (little endian) is:
  magic "FFQI", u32 format version (2), u32 p, u32 max_deg,
  then for d = 1..max_deg: u64 N_d, then the N_d enumeration indices of
  the degree-d primes as int64, ascending.
A file is written under a temporary name and renamed into place.
A load through degree k (upto; the whole table without it) reads in
full only the degrees <= k, and checks before it returns: magic,
version and field, the file length against the Moebius counts (so a
truncated file and trailing bytes are caught before any index is read),
every N_d slot against Moebius inversion (the necklace identity for
every n <= max_deg) and every degree's first and last index in [0,
p^d), both from three cells per degree past k, and the indices of the
degrees <= k strictly ascending; each failure is a SieveError that names
the file.  The counts, ranges and ascents are compared at once for all
degrees, and the first failing degree is named (its count before its
range before its ascent).  Each degree of a loaded table is a read-only
view of bytes read into memory, never a mapping of a file that another
run may rewrite in place.
"""

from __future__ import annotations

import functools
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fieldpoly import (
    FieldSpec,
    Poly,
    PolyError,
    _c_divmod,
    monic_from_index,
    poly_from_encoding,
    poly_gcd_lcm,
)

CACHE_MAGIC = b"FFQI"
CACHE_VERSION = 2
DEFAULT_CELL_BUDGET = 1 << 27  # total enumeration cells across degrees


class SieveError(ValueError):
    pass


class MemoryBudgetError(RuntimeError):
    """q^max_deg listing would exceed the configured cell budget."""


class TableTooSmallError(SieveError):
    pass


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius_int(n: int) -> int:
    if n == 1:
        return 1
    m, cnt, k = n, 0, 2
    while k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return 0
            cnt += 1
        k += 1
    if m > 1:
        cnt += 1
    return -1 if cnt % 2 else 1


# charfn's main terms ask the same counts at every limit point
@functools.cache
def irreducible_count(q: int, n: int) -> int:
    """Exact |P_{n,q}| by Moebius inversion of the necklace identity."""
    if n < 1:
        raise SieveError("degree must be >= 1")
    total = sum(_mobius_int(n // d) * q**d for d in _divisors(n))
    return total // n


# ---------------------------------------------------------------------------
# sieve kernel: the monic multiples of a modulus, read off the residue map
# ---------------------------------------------------------------------------

# Most cells (moduli x multiples) one block of a sieve holds; it bounds the
# residue kernel's working set, d uint8 or uint16 digits and one int64
# index per cell, and the int64 cells of a span of the p = 2 table pass.
SIEVE_BLOCK_CELLS = 1 << 18


def _digit_matrix(p: int, idx: np.ndarray, width: int,
                  dtype=np.int64) -> np.ndarray:
    """Base-p digits of each index, least significant first, one row each.
    The division runs in float64, which is exact for indices below 2^52
    (no listable index reaches 2^28) and faster than int64 division."""
    out = np.empty((len(idx), width), dtype=dtype)
    x = idx.astype(np.float64)
    for i in range(width):
        quot = np.floor(x / p)
        out[:, i] = x - quot * p
        x = quot
    return out


def _monic_digits(p: int, idx: np.ndarray, d: int) -> np.ndarray:
    """Coefficient rows of the monic polynomials of degree d at idx,
    leading 1 included (int64)."""
    rows = np.ones((len(idx), d + 1), dtype=np.int64)
    rows[:, :d] = _digit_matrix(p, idx, d)
    return rows


def _poly_mul(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of coefficient rows, reduced mod p."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j:j + 1]
    return out % p


def _powers_mod(p: int, n: int, low: np.ndarray) -> np.ndarray:
    """Digits of -(x^i mod M) for i = d..n and every monic M of degree d <=
    n whose low coefficients c_0..c_{d-1} are the columns of low (one row
    per coefficient): out[i - d, :, b] holds the d digits for the modulus
    in column b (int64).  -x^d mod M is c_0 + ... + c_{d-1} x^{d-1}; from
    there on -x^(i+1) = x (-x^i), whose x^d term is replaced again: the
    top digit w times -c, plus the other digits shifted up."""
    d, count = low.shape
    out = np.empty((n - d + 1, d, count), dtype=np.int64)
    out[0] = low
    neg = -low % p
    for i in range(1, n - d + 1):
        prev, cur = out[i - 1], out[i]
        np.multiply(prev[-1], neg, out=cur)
        cur[1:] += prev[:-1]
        cur %= p
    return out


@functools.cache
def _digit_products(p: int) -> np.ndarray:
    """out[a, c] = a c mod p, in the kernel's digit dtype: the
    smallest unsigned one that holds 2p - 2, the most a digit-wise sum of
    two reduced digits reaches; read-only, as every kernel shares it."""
    digits = np.arange(p)
    out = (digits[:, None] * digits % p).astype(np.uint8 if p <= 128 else np.uint16)
    out.flags.writeable = False
    return out


def _add_digits(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Digit-wise a + b of two keys of digits below p, reduced below p in
    place, as a + b - p wraps past a + b in the unsigned digit dtype
    exactly when a + b < p."""
    out = a + b
    return np.minimum(out, out - p, out=out)


class _Multiples:
    """The residue kernel: indices of the monic multiples of degree t <=
    t_max of the monic moduli M of degree d whose coefficient rows
    (leading 1 included) are the rows of moduli.  The library runs it at
    odd p only; at p = 2 it is the tests' reference for the spans.

    With m = t - d, the multiples are x^d g_j - (x^d g_j mod M) for the
    monic g_j of degree m at index j, so the multiple of M with high part
    g_j sits at index j p^d + key_j and the indices ascend with j.  The
    key is affine in the digits a_k of j: the digits of -(x^d g_j mod M)
    are u_m + sum_k a_k u_k (mod p, digit-wise), u_k = -(x^(d+k) mod M).
    The keys of the low s digits of j are doubled up digit by digit for a
    block of moduli, and each value of the top m - s digits adds its own
    offset.  Every digit stays reduced below p, in the smallest unsigned
    dtype that holds 2p - 2 (uint8 up to p = 127, uint16 above), and a key
    is read by Horner's rule in the smallest unsigned dtype that holds
    p^d - 1.  While one block holds every modulus, the doubled keys are
    kept for the next, larger t.
    """

    def __init__(self, p: int, moduli: np.ndarray, t_max: int):
        d = moduli.shape[1] - 1
        u = _powers_mod(p, t_max, moduli[:, :d].T)  # (m + 1, d, count)
        self._steps = _digit_products(p)[u]  # c u_k for every digit c: (m + 1, d, count, p)
        self.p, self.d, self.count = p, d, len(moduli)
        self._kept, self._kept_digits = self._zeros(self.count), 0

    def _zeros(self, count: int) -> np.ndarray:
        return np.zeros((self.d, count, 1), dtype=self._steps.dtype)

    def _double(self, keys: np.ndarray, have: int, lo: int, s: int) -> np.ndarray:
        """Extend keys, those of j < p^have for the block of moduli at lo,
        to every j < p^s."""
        for k in range(have, s):  # j = c p^k + j_low
            step = self._steps[k, :, lo:lo + keys.shape[1], :, None]
            keys = _add_digits(self.p, step, keys[..., None, :])
            keys = keys.reshape(keys.shape[:2] + (-1,))
        return keys

    def blocks(self, t: int):
        """Yield (lo, j0, idx) in blocks of at most SIEVE_BLOCK_CELLS
        cells: idx[i, c] is the index of the degree-t multiple with j =
        j0 + c of the modulus in row lo + i."""
        p, d = self.p, self.d
        m = t - d
        s = m
        while s and p**s > SIEVE_BLOCK_CELLS:
            s -= 1
        width = p**s
        chunk = max(1, SIEVE_BLOCK_CELLS // width)
        base = np.arange(width, dtype=np.int64) * p**d
        horner = np.min_scalar_type(p**d - 1)
        for lo in range(0, self.count, chunk):
            steps = self._steps[:, :, lo:lo + chunk]
            if chunk >= self.count:  # one block: keep the keys for a larger t
                if self._kept_digits < s:
                    self._kept = self._double(self._kept, self._kept_digits, 0, s)
                    self._kept_digits = s
                keys = self._kept[..., :width]
            else:
                keys = self._double(self._zeros(steps.shape[2]), 0, lo, s)
            for hi in range(p ** (m - s)):
                off, rest, k = steps[m, ..., 1:2], hi, s  # u_m, then the top digits
                while rest:
                    rest, a = divmod(rest, p)
                    off = _add_digits(p, off, steps[k, ..., a:a + 1])
                    k += 1
                block = _add_digits(p, keys, off)
                key = block[-1].astype(horner, copy=False)
                for i in range(len(block) - 2, -1, -1):
                    key *= p
                    key += block[i]
                yield lo, hi * width, np.add(key, base + hi * width * p**d,
                                             dtype=np.int64)

    def rows(self, t: int) -> np.ndarray:
        """The degree-t multiples as one (count, p^(t - d)) matrix, each
        row ascending."""
        shape = (self.count, self.p ** (t - self.d))
        out = None
        for lo, j0, idx in self.blocks(t):
            if idx.shape == shape:
                return idx
            if out is None:
                out = np.empty(shape, dtype=np.int64)
            out[lo:lo + len(idx), j0:j0 + idx.shape[1]] = idx
        return out


@dataclass(frozen=True)
class NecklaceReport:
    n: int
    weighted_sum: int  # sum_{d|n} d * N_d
    expected: int      # q^n
    ok: bool


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition of a monic polynomial.

    factors are (prime, multiplicity) with distinct monic irreducible
    primes, sorted by (degree, enumeration index); the empty tuple is the
    factorization of 1.
    """

    factors: tuple[tuple[Poly, int], ...]

    def degree_mult_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((P.degree, m) for P, m in self.factors)

    def product(self) -> Poly:
        if not self.factors:
            raise SieveError("empty factorization has no carrier field")
        out = self.factors[0][0] ** self.factors[0][1]
        for P, m in self.factors[1:]:
            out = out * P**m
        return out

    @property
    def big_omega(self) -> int:
        return sum(m for _, m in self.factors)

    @property
    def num_distinct(self) -> int:
        return len(self.factors)


class IrreducibleTable:
    """All monic irreducibles of degree <= max_deg over F_p.

    by_degree[d] holds the enumeration indices of the degree-d primes,
    ascending, as a read-only int64 array: the sieve's listing, or a view
    of the bytes read from a cache file.  Construction refuses a listing
    whose length differs from the Moebius count of its degree.  The table
    is that checked data and nothing more: immutable after build, safe
    for concurrent reads.
    """

    def __init__(self, field: FieldSpec, max_deg: int,
                 by_degree: list[np.ndarray]):
        self.field = field
        self.max_deg = max_deg
        self._by_degree = list(by_degree)  # [empty, deg1 listing, deg2 listing, ...]
        for idx in self._by_degree:
            idx.flags.writeable = False
        self._counts = [0] + [len(a) for a in by_degree[1:]]
        # every N_d equal to its Moebius inversion is the necklace identity
        # sum_{d|n} d N_d = q^n for every n <= max_deg (the identities fix
        # N_1, N_2, ... one after another), and the true counts meet
        # |n N_n - q^n| < 2 q^{n/2}, so no square-root shape test can fail
        for d in range(1, max_deg + 1):
            if self._counts[d] != irreducible_count(field.p, d):
                raise SieveError(f"wrong prime count at degree {d}")

    # -- counting ---------------------------------------------------------

    def count(self, d: int) -> int:
        """Exact N_d for any d >= 1 (stored listing, or Moebius inversion
        of the necklace identity beyond max_deg)."""
        if d <= 0:
            raise SieveError("degree must be >= 1")
        if d <= self.max_deg:
            return self._counts[d]
        return irreducible_count(self.field.p, d)

    def necklace_check(self, n: int) -> NecklaceReport:
        if not 1 <= n <= self.max_deg:
            raise SieveError(f"n={n} outside tabulated range")
        s = sum(d * self._counts[d] for d in _divisors(n))
        rhs = self.field.p ** n
        return NecklaceReport(n, s, rhs, s == rhs)

    # -- listings ---------------------------------------------------------

    def prime_indices(self, d: int) -> np.ndarray:
        if not 1 <= d <= self.max_deg:
            raise TableTooSmallError(f"degree {d} not tabulated (max {self.max_deg})")
        return self._by_degree[d]

    def primes(self, d: int) -> list[Poly]:
        return [monic_from_index(self.field, d, int(i))
                for i in self.prime_indices(d)]

    # -- cache ------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the cache file through a temporary file in the same
        directory, so a reader never sees a half-written table."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(CACHE_MAGIC)
                fh.write(struct.pack("<III", CACHE_VERSION, self.field.p, self.max_deg))
                for idx in self._by_degree[1:]:
                    fh.write(struct.pack("<Q", len(idx)))
                    fh.write(idx.astype("<i8", copy=False))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path, upto: int | None = None,
             header: tuple[int, int] | None = None) -> "IrreducibleTable":
        """Read and check a cache file; any malformed content raises
        SieveError naming the file.  upto = k returns the table through
        degree min(k, max_deg), read in full only that far (see the module
        docstring); header = (p, max_deg) refuses a file whose header
        states other values."""
        with open(path, "rb") as fh:
            fd = fh.fileno()

            def read(size: int, at: int) -> bytes:
                raw = os.pread(fd, size, at)
                if len(raw) != size:
                    raise SieveError(f"{path}: cache shrank while read")
                return raw

            data = os.pread(fd, 16, 0)
            if data[:4] != CACHE_MAGIC:
                raise SieveError(f"{path}: bad magic")
            if len(data) < 16:
                raise SieveError(f"{path}: truncated cache in header")
            version, p, max_deg = struct.unpack_from("<III", data, 4)
            if version != CACHE_VERSION:
                raise SieveError(f"{path}: unsupported cache version {version}")
            try:
                field = FieldSpec(p)
            except PolyError as exc:
                raise SieveError(f"{path}: {exc}") from exc
            if header is not None and (p, max_deg) != header:
                raise SieveError(f"{path}: header says p={p}, max_deg={max_deg}")
            # the length follows from the Moebius counts; the sum stops
            # once it passes the file, so a forged max_deg costs nothing
            size = os.fstat(fd).st_size
            counts, end = [0], 16
            for d in range(1, max_deg + 1):
                counts.append(irreducible_count(p, d))
                end += 8 + 8 * counts[d]
                if end > size:
                    raise SieveError(f"{path}: truncated cache in degree {d}")
            if end != size:
                raise SieveError(f"{path}: {size - end} trailing bytes")
            # the payload as int64 cells: degree d's count slot, then its
            # indices; degrees 1..top are read in full, and of each later
            # one only its count slot and its first and last index
            top = max_deg if upto is None else max(0, min(upto, max_deg))
            slots = np.cumsum([1 + c for c in counts], dtype=np.int64) - 1
            sizes = np.array(counts[1:], dtype=np.int64)
            payload = np.frombuffer(read(8 * int(slots[top]), 16), dtype="<i8")
            at = slots[:top]
            heads, firsts, lasts = payload[at], payload[at + 1], payload[at + sizes[:top]]
            if top < max_deg:
                # for d = top + 1..max_deg, the 3 cells from the last index
                # of degree d - 1 to the first of degree d, then the last
                # index of max_deg
                rest = np.frombuffer(b"".join(
                    [read(24, 8 + 8 * s) for s in slots[top:-1].tolist()]
                    + [read(8, end - 8)]), dtype="<i8")
                heads = np.concatenate([heads, rest[1::3]])
                firsts = np.concatenate([firsts, rest[2::3]])
                lasts = np.concatenate([lasts, rest[3::3]])
        # every degree's count and range are checked, the ascent of the
        # degrees read in full, and the first failing degree is named, its
        # count before its range before its ascent
        wrong_count = heads != sizes
        out_of_range = (firsts < 0) | (
            lasts >= np.array([p**d for d in range(1, max_deg + 1)]))
        ascends = payload[1:] > payload[:-1]
        ascends[at[1:] - 1] = ascends[at] = True  # pairs with a count slot
        descents = np.zeros(max_deg, dtype=bool)
        if not ascends.all():
            descents[np.searchsorted(slots, np.flatnonzero(~ascends), "right") - 1] = True
        failing = np.flatnonzero(wrong_count | out_of_range | descents)
        if len(failing):
            i = failing[0]
            if wrong_count[i]:
                raise SieveError(f"{path}: wrong prime count at degree {i + 1}")
            if out_of_range[i]:
                raise SieveError(f"{path}: degree-{i + 1} index out of range")
            raise SieveError(f"{path}: degree-{i + 1} indices are not strictly ascending")
        by_degree = [np.empty(0, dtype=np.int64)]
        by_degree += [payload[s + 1:s + 1 + c] for s, c in zip(at.tolist(), counts[1:])]
        return cls(field, top, by_degree)


def necklace_check(table: IrreducibleTable, n: int) -> NecklaceReport:
    """Free-function form of the identity check sum_{d|n} d N_d = q^n."""
    return table.necklace_check(n)


def build_table(field: FieldSpec, max_deg: int,
                cell_budget: int = DEFAULT_CELL_BUDGET) -> IrreducibleTable:
    """Sieve all monic irreducibles of degree <= max_deg: in one pass at
    p = 2, one target degree at a time through _Multiples at odd p."""
    if max_deg < 1:
        raise SieveError("max_deg must be >= 1")
    p = field.p
    cells = 0
    for d in range(1, max_deg + 1):  # stops once past the budget
        cells += p**d
        if cells > cell_budget:
            raise MemoryBudgetError(
                f"p={p}, max_deg={max_deg} needs more than the budget of "
                f"{cell_budget} cells")
    if p == 2:
        return IrreducibleTable(field, max_deg, _gf2_listing(max_deg))

    by_degree: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    kernels: list[_Multiples | None] = [None]
    for target in range(1, max_deg + 1):
        composite = np.zeros(p**target, dtype=bool)
        for d in range(1, target // 2 + 1):
            for _, _, idx in kernels[d].blocks(target):
                composite[idx] = True
        by_degree.append(np.flatnonzero(~composite))
        if 2 * target <= max_deg:  # the primes of this degree sieve later ones
            kernels.append(_Multiples(
                p, _monic_digits(p, by_degree[target], target), max_deg))
    return IrreducibleTable(field, max_deg, by_degree)


# ---------------------------------------------------------------------------
# factorization by trial division
# ---------------------------------------------------------------------------

def _trial_division(a, primes, divmod_, degree):
    """Trial division of the monic a by the primes up to half its degree,
    primes(d) listing those of degree d; returns [(prime, mult)] sorted by
    (degree, index).  primes(d) is asked only for the degrees the loop
    reaches.  The final cofactor, if any, is irreducible because no prime
    up to half its degree divides it.  divmod_(a, P) gives the quotient
    and a remainder that is falsy when zero; degree(a) gives the degree."""
    out = []
    deg = degree(a)
    d = 1
    while 2 * d <= deg:
        for P in primes(d):
            q, r = divmod_(a, P)
            if r:
                continue
            m, a = 1, q
            while True:
                q, r = divmod_(a, P)
                if r:
                    break
                a, m = q, m + 1
            out.append((P, m))
            deg = degree(a)
            if 2 * d > deg:
                break
        d += 1
    if deg > 0:
        out.append((a, 1))
    return out


def _bits_divmod(a: int, b: int):
    # a divided by b in GF(2)[x], as bitmasks
    bl, q = b.bit_length(), 0
    while True:
        sh = a.bit_length() - bl
        if sh < 0:
            return q, a
        a ^= b << sh
        q |= 1 << sh


def factorize(f: Poly, table: IrreducibleTable) -> Factorization:
    """Prime-power factorization of a monic nonzero polynomial.

    Requires table.max_deg >= floor(deg(f)/2); re-multiplication of the
    result equals f exactly.  One trial-division loop runs on bitmasks at
    p = 2 and on coefficient tuples at odd p; the primes of a degree are
    converted to that form when the loop first reaches it, and the table
    keeps nothing of them.
    """
    if f.is_zero or not f.is_monic:
        raise SieveError("factorize requires a monic nonzero polynomial")
    if f.field != table.field:
        raise SieveError("polynomial and table fields differ")
    n = f.degree
    if n == 0:
        return Factorization(())
    if table.max_deg < n // 2:
        raise TableTooSmallError(
            f"factoring degree {n} needs primes to degree {n // 2}, "
            f"table has {table.max_deg}")
    field = f.field
    p = field.p
    if p == 2:
        factors = _trial_division(
            f.encode(), lambda d: (table.prime_indices(d) | 1 << d).tolist(),
            _bits_divmod, lambda a: a.bit_length() - 1)
        return Factorization(tuple((poly_from_encoding(field, pb), m)
                                   for pb, m in factors))
    factors = _trial_division(
        f.coeffs,
        lambda d: [(*cs, 1) for cs in _digit_matrix(
            p, table.prime_indices(d), d, np.uint8).tolist()],
        lambda a, b: _c_divmod(p, a, b), lambda a: len(a) - 1)
    return Factorization(tuple((Poly(field, pc), m) for pc, m in factors))


def check_enumeration(p: int, n: int, budget: int = DEFAULT_CELL_BUDGET) -> None:
    """Refuse to enumerate the p^n monic polynomials of degree n when
    that exceeds the cell budget (before anything is allocated).  p^n
    exceeds the budget once n reaches its bit length, so no power is
    taken beyond that.  A negative degree is refused."""
    if n < 0:
        raise SieveError(f"degree must be >= 0, got {n}")
    if p ** min(n, budget.bit_length()) > budget:
        raise MemoryBudgetError(
            f"enumerating the {p}^{n} monic polynomials of degree {n} "
            f"exceeds the budget {budget}")


def shifted(values: np.ndarray, field: FieldSpec, n: int, h: Poly) -> np.ndarray:
    """out[index(f)] = values[index(f + h)] for every monic f of degree n,
    read off values.reshape((p,)*n), where axis n - 1 - i holds the
    coefficient of x^i: a flip of the axes of h's set bits for p = 2, a
    take of (arange(p) + c) % p along the axis of each nonzero digit c
    otherwise.  h must be over field, and zero or of degree < n."""
    if h.field != field:
        raise SieveError(f"shift over F_{h.field.p}, polynomials over F_{field.p}")
    if h.is_zero:
        return values
    if h.degree >= n:
        raise SieveError(f"shift of degree {h.degree} is not below n={n}")
    p = field.p
    cube = values.reshape((p,) * n)
    for i, c in enumerate(h.coeffs):
        if c:  # at p = 2 a view, copied once by the reshape
            cube = (np.flip(cube, n - 1 - i) if p == 2 else
                    cube.take((np.arange(p) + c) % p, axis=n - 1 - i))
    return cube.reshape(-1)


def prime_valuations(table: IrreducibleTable, n: int,
                     powers: dict[int, tuple[int, int]]):
    """For the primes P of the degrees d in powers, in (degree, index)
    order, yield (d, idx, v) block by block: row i of idx holds the
    enumeration indices of the monic f of degree n that P_i^first
    divides, for the i-th prime P_i of the block, and v (int8) is
    min(v_P_i(f), settle) at each of them, where (first, settle) =
    powers[d] with 1 <= first <= settle and first * d <= n.  A block
    lists at most SIEVE_BLOCK_CELLS cells (one prime at least).

    That is all a rule neutral below P^first and constant from P^settle
    on needs; first = 1 and settle = n // d give exact valuations.

    Only how a block is listed depends on p.  For odd p the multiples of
    P^first and of the higher powers come from the sieve kernel: each row
    ascends, v is first plus the number of k in (first, settle] with P^k
    | f, and a multiple f of P^k sits at position f // p^(first d) among
    those of P^first (the kernel's j).  For p = 2 the row of P^first
    lists P^first g in the order of the monic g of degree m = n - first
    d, from one span (_gf2_span), and min(v_P(g), settle - first) is
    read off the listing of P one level down, built up over settle -
    first levels from zeros (v_P(P g) = 1 + v_P(g)); no level is built
    when settle = first.
    """
    p = table.field.p
    for d, (first, settle) in powers.items():
        for P in _prime_blocks(table, d, n - first * d):
            base = P
            for _ in range(first - 1):
                base = _poly_mul(p, base, P)
            if p == 2:
                yield d, *_gf2_valuations(P, base, n, first, settle)
                continue
            idx = _Multiples(p, base, n).rows(n)
            v = np.full(idx.shape, first, dtype=np.int8)
            at = np.arange(len(P))[:, None]
            power = base
            for _ in range(first, settle):
                power = _poly_mul(p, power, P)
                v[at, _Multiples(p, power, n).rows(n) // p ** (first * d)] += 1
            yield d, idx, v


def _gf2_span(first: np.ndarray | int, gens: np.ndarray) -> np.ndarray:
    """out[i, j] = first[i] XOR the gens[i, k] for the bits k set in j,
    for every j below 2 to the number of columns of gens: the one listing
    of multiples at p = 2, doubled up in place over the bits of j."""
    out = np.empty((len(gens), 1 << gens.shape[1]), dtype=np.int64)
    out[:, 0] = first
    for k in range(gens.shape[1]):
        np.bitwise_xor(out[:, :1 << k], gens[:, k:k + 1],
                       out=out[:, 1 << k:2 << k])
    return out


def _gf2_listing(max_deg: int) -> list[np.ndarray]:
    """build_table's listing at p = 2: one Eratosthenes pass over a bool
    per odd f of degree <= max_deg, at f >> 1; degree d's cells are final
    once the degrees up to d/2 have sieved.  A prime b of degree d marks
    b (2g + 1) >> 1 = b g ^ (b >> 1) for g < 2^(max_deg - d), b itself at
    g = 0, in blocks over the low s bits of g (the span of b x^k from
    b >> 1), each later one the last XOR b x^k for the bit k of g that
    flips in Gray-code order."""
    unmarked = np.ones(1 << max_deg, dtype=bool)
    by_degree = [np.empty(0, dtype=np.int64), np.arange(2, dtype=np.int64)]
    for d in range(1, max_deg + 1):
        if d > 1:  # cell c holds the index 2 (c - 2^(d-1)) + 1
            listed = np.flatnonzero(unmarked[1 << (d - 1):1 << d])
            listed <<= 1
            listed |= 1
            by_degree.append(listed)
        if 2 * d > max_deg:
            continue
        primes = by_degree[d][by_degree[d] & 1 == 1] | (1 << d)  # x sieves no odd f
        s = min(max_deg - d, SIEVE_BLOCK_CELLS.bit_length() - 1)
        chunk = max(1, SIEVE_BLOCK_CELLS >> s)
        for lo in range(0, len(primes), chunk):
            b = primes[lo:lo + chunk]
            cells = _gf2_span(b >> 1, b[:, None] << np.arange(s))
            unmarked[cells] = False
            for hi in range(1, 1 << (max_deg - d - s)):
                cells ^= (b << (s + (hi & -hi).bit_length() - 1))[:, None]
                unmarked[cells] = False
            del cells  # freed before the next block is allocated
    return by_degree


def _gf2_valuations(P: np.ndarray, base: np.ndarray, n: int, first: int,
                    settle: int) -> tuple[np.ndarray, np.ndarray]:
    """prime_valuations' block for p = 2, from the primes and their
    first powers as coefficient rows (leading 1 included).  The multiple
    of degree t of a bitmask b of degree e whose cofactor has low part g
    is b (x^(t - e) + g), at index (b << (t - e)) ^ 2^t ^ b g: the span
    of the b x^k, k < t - e, from (b << (t - e)) ^ 2^t.  A level of P
    reads the head of one span of the P x^k (idx itself when first = 1)
    with one XOR, not a span of its own."""
    d = P.shape[1] - 1
    prime, power = (rows @ (1 << np.arange(rows.shape[1])) for rows in (P, base))
    top = n - first * d
    idx = _gf2_span((power << top) ^ (1 << n), power[:, None] << np.arange(top))
    t = max(top - (settle - first) * d, top % d)
    v = np.zeros((len(P), 1 << t), dtype=np.int8)
    span, start = idx, (prime << top) ^ (1 << n)  # the levels list multiples of P
    if t < top and first > 1:
        span, start = _gf2_span(0, prime[:, None] << np.arange(top - d)), 0
    at = np.arange(len(P))[:, None]
    while t < top:
        t += d
        up = np.zeros((len(P), 1 << t), dtype=np.int8)
        low = span[:, :1 << (t - d)]
        up[at, low ^ (start ^ (prime << (t - d)) ^ (1 << t))[:, None]] = 1 + v
        v = up
    return idx, first + v


def _prime_blocks(table: IrreducibleTable, d: int, m: int):
    """The degree-d primes as coefficient rows (leading 1 included), in
    blocks whose listings of p^m multiples each fill at most
    SIEVE_BLOCK_CELLS cells (one prime at least)."""
    p = table.field.p
    primes = table.prime_indices(d)
    chunk = max(1, SIEVE_BLOCK_CELLS // p**m)
    for lo in range(0, len(primes), chunk):
        yield _monic_digits(p, primes[lo:lo + chunk], d)


# ---------------------------------------------------------------------------
# primes in arithmetic progressions
# ---------------------------------------------------------------------------

# Most cells (moduli x primes or moduli x residue classes) one block of
# residue_counts holds; with its kernel's p^n multiples it bounds its memory.
RESIDUE_BLOCK_CELLS = 1 << 13


def _kernel_rows(p: int, n: int, moduli: np.ndarray) -> np.ndarray:
    """The degree-n multiples of the monic moduli whose coefficient rows
    (leading 1 included) are the rows of moduli, one row each, ascending
    in the high part j; a modulus of degree above n has none (empty
    rows).  Odd p runs one sieve kernel.  At p = 2 the multiple of M with
    high part j is x^d g_j ^ (x^d g_j mod M), g_j = x^(n - d) + j: one
    span from x^n mod M over M (x^(d+k) div M) = x^(d+k) ^ (x^(d+k) mod
    M), k < n - d, the x^i mod M packed from _powers_mod."""
    d = moduli.shape[1] - 1
    if d > n:
        return np.empty((len(moduli), 0), dtype=np.int64)
    if p > 2:
        return _Multiples(p, moduli, n).rows(n)
    rem = (1 << np.arange(d)) @ _powers_mod(2, n, moduli[:, :d].T)  # (n - d + 1, count)
    return _gf2_span(rem[-1], rem[:-1].T ^ (1 << np.arange(d, n)))


def _residues(p: int, n: int, d: int, idx: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
    """Encodings of f mod M for the monic f of degree n at idx (columns)
    and monic moduli M of degree d >= 1, whose degree-n multiples are the
    rows of rows (_kernel_rows), as an int64 matrix.

    The multiple of M at the sieve kernel's position j = f // p^d agrees
    with f from x^d up, so f mod M is f minus that multiple, digit by
    digit (XOR for p = 2).  For d > n, f is its own residue."""
    if d > n:
        return np.repeat((idx + p**n)[None], len(rows), axis=0)
    at = idx // p**d
    if p == 2:
        return rows.take(at, axis=1) ^ idx
    # c digits at a time (p^(2c) <= 2^16), through a table of the
    # digit-wise differences of two c-digit numbers; digits past d, which
    # the top chunk may read, are those of j in both and come out 0
    c = max(1, 8 // p.bit_length())
    keys, size = 0, p**c
    for k in range(0, d, c):
        part = (rows // p**k % size).take(at, axis=1)
        part += idx // p**k % size * size
        keys += _differences(p, c).take(part) * p**k
    return keys


@functools.cache
def _differences(p: int, c: int) -> np.ndarray:
    """out[a * p^c + b]: the digit-wise difference a - b mod p of two
    c-digit numbers, encoded; read-only, as every call shares it."""
    digits = _digit_matrix(p, np.arange(p**c), c, np.int16)
    out = ((digits[:, None] - digits) % p @ p ** np.arange(c)).ravel()
    out.flags.writeable = False
    return out


def residue_counts(table: IrreducibleTable, n: int, d: int):
    """Count the degree-n primes in every residue class modulo every monic
    M of degree d.  Yields (moduli, counts) block by block in index order:
    counts[b, key] is the number of primes P with P mod M = key (encoded)
    for the modulus at index moduli[b].

    One sieve kernel lists the degree-n multiples of every modulus (p^n
    cells).  Every block holds at most RESIDUE_BLOCK_CELLS cells of
    residues (moduli x primes) and of counts (moduli x p^d), except that
    one modulus is never split.
    """
    p = table.field.p
    primes = table.prime_indices(n)
    classes = p**d
    rows = _kernel_rows(p, n, _monic_digits(p, np.arange(classes), d))
    chunk = max(1, RESIDUE_BLOCK_CELLS // max(len(primes), classes))
    for start in range(0, classes, chunk):
        moduli = np.arange(start, min(start + chunk, classes), dtype=np.int64)
        keys = _residues(p, n, d, primes, rows[start:start + chunk])
        keys += np.arange(len(moduli), dtype=np.int64)[:, None] * classes
        counts = np.bincount(keys.ravel(), minlength=len(moduli) * classes)
        yield moduli, counts.reshape(len(moduli), classes)


def residue_histogram(n: int, modulus: Poly, table: IrreducibleTable) -> dict[int, int]:
    """Count degree-n primes per residue class mod the given monic modulus.

    Keys are the integer encodings of the reduced residues, in the order
    in which they first occur among the primes in index order.
    """
    if modulus.is_zero or not modulus.is_monic or modulus.degree < 1:
        raise SieveError("modulus must be monic of degree >= 1")
    if modulus.field != table.field:
        raise SieveError("modulus and table fields differ")
    p = table.field.p
    rows = _kernel_rows(p, n, np.array([modulus.coeffs], dtype=np.int64))
    keys = _residues(p, n, modulus.degree, table.prime_indices(n), rows)[0]
    found, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(found[order].tolist(), counts[order].tolist()))


def prime_count_ap(n: int, modulus: Poly, residue: Poly,
                   table: IrreducibleTable) -> int:
    """Exact number of degree-n monic irreducibles congruent to the given
    residue; the residue must be coprime to the modulus."""
    if residue.is_zero or poly_gcd_lcm(modulus, residue)[0].degree != 0:
        raise SieveError("residue not coprime to modulus")
    return residue_histogram(n, modulus, table).get((residue % modulus).encode(), 0)
