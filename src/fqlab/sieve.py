"""Monic irreducibles over F_p: sieve, counting, factorization, primes in APs.

The sieve marks, degree by degree, every product of a lower-degree
irreducible with a monic cofactor; the unmarked indices of degree d are
exactly the irreducibles.  Everything is vectorized over the enumeration
index space (numpy), with a bitmask kernel for p = 2 and a base-p digit
kernel for general p.

The same kernels drive the valuation sieve behind the correlate and
stats scans: prime_valuations marks, prime by prime, the multiples of P
among all monic polynomials of degree n and reads v_P off the cofactor
space one level down, so a scan divides nothing.  A shift f -> f + h is
an index map on that space (shift_indices) and a domain is an index
list (domain_indices, which refuses more than DEFAULT_CELL_BUDGET
polynomials).  They also drive the primes in arithmetic progressions:
prime_multiples lists the multiples of a prime modulus, and reduction
mod M, being linear in the coefficients, takes one matrix product for
all primes of a degree and a block of moduli (residue_keys), whose
class counts residue_counts yields block by block.  Factorization of a
single polynomial (factorize) runs one trial-division loop over a
bitmask division (p = 2) or a coefficient-tuple division (odd p).

Counts are validated against the necklace identity sum_{d|n} d*N_d = q^n
(the coefficient form of the zeta function's Euler product) and against
the square-root error shape |n*N_n - q^n| <= 4*q^{n/2}.  Counts beyond
the tabulated range are produced exactly by Moebius inversion of the
necklace identity; only listings are capped by the memory budget.

The cache file layout (little endian) is:
  magic "FFQI", u32 format version, u32 p, u32 max_deg,
  then for d = 1..max_deg: u64 N_d, then N_d records of d bytes each
  holding coefficients c0..c_{d-1} (leading 1 implicit), in ascending
  index order.
A file is written under a temporary name and renamed into place.
Loading checks the whole file before it returns: magic, version and
field, the file length against the Moebius counts (so a truncated file
and trailing bytes are caught before any record is read), every N_d
against Moebius inversion, every digit < p, and the necklace identity.
The records of a degree are turned into enumeration indices only on the
first call that needs that degree, which also checks that they are
strictly ascending (no record repeated) and raises CacheOrderError,
naming the file, if not.
"""

from __future__ import annotations

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
    monic_from_index,
    poly_from_encoding,
)

CACHE_MAGIC = b"FFQI"
CACHE_VERSION = 1
DEFAULT_CELL_BUDGET = 1 << 27  # total enumeration cells across degrees


class SieveError(ValueError):
    pass


class MemoryBudgetError(RuntimeError):
    """q^max_deg listing would exceed the configured cell budget."""


class TableTooSmallError(SieveError):
    pass


class CacheOrderError(SieveError):
    """A cache file's records of one degree repeat or are out of order;
    found when the degree is first decoded.  path names the file."""

    def __init__(self, path, d: int):
        super().__init__(f"{path}: degree-{d} records are not strictly ascending")
        self.path = path


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


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


def irreducible_count(q: int, n: int) -> int:
    """Exact |P_{n,q}| by Moebius inversion of the necklace identity."""
    if n < 1:
        raise SieveError("degree must be >= 1")
    total = sum(_mobius_int(n // d) * q**d for d in _divisors(n))
    return total // n


# ---------------------------------------------------------------------------
# sieve kernels: indices of P*g over all monic g of a given degree
# ---------------------------------------------------------------------------

def _multiples_gf2(prime_full: int, m: int, target_deg: int) -> np.ndarray:
    """Indices of prime*g for all monic g of degree m (p=2 bit kernel)."""
    g = np.arange(1 << m, dtype=np.uint64) | np.uint64(1 << m)
    acc = np.zeros(1 << m, dtype=np.uint64)
    b = prime_full
    shift = 0
    while b:
        if b & 1:
            acc ^= g << np.uint64(shift)
        b >>= 1
        shift += 1
    return acc ^ np.uint64(1 << target_deg)


def _digit_matrix(p: int, idx: np.ndarray, width: int) -> np.ndarray:
    """Base-p digits of each index, least significant first, one row each."""
    return (idx[:, None] // p ** np.arange(width, dtype=np.int64)) % p


def _monic_rows(p: int, m: int) -> np.ndarray:
    """Coefficient rows of every monic polynomial of degree m in
    enumeration order, leading 1 included (int32)."""
    rows = np.empty((p**m, m + 1), dtype=np.int32)
    rows[:, :m] = _digit_matrix(p, np.arange(p**m, dtype=np.int64), m)
    rows[:, m] = 1
    return rows


def _multiples_generic(p: int, prime_coeffs, cofactors: np.ndarray,
                       target_deg: int) -> np.ndarray:
    """Same as the bit kernel but in base-p digit space (any p); cofactors
    holds the coefficient rows of every monic g of degree m, leading 1
    included.  int32 holds every coefficient sum, at most
    (m + 1) (p - 1)^2."""
    m = cofactors.shape[1] - 1
    out = np.zeros((len(cofactors), target_deg + 1), dtype=np.int32)
    for j, cj in enumerate(prime_coeffs):
        if cj:
            out[:, j:j + m + 1] += cj * cofactors
    out %= p
    pows = p ** np.arange(target_deg, dtype=np.int64)
    return out[:, :target_deg] @ pows


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

    by_degree[d] lists the degree-d primes either as numpy index arrays
    in enumeration order or, for a table read from a cache file, as their
    (N_d, d) coefficient records (uint8), decoded into indices on the
    first call that needs degree d.  Immutable after build, safe for
    concurrent reads: readers that decode the same degree at once compute
    equal arrays.
    """

    def __init__(self, field: FieldSpec, max_deg: int,
                 by_degree: list[np.ndarray]):
        self.field = field
        self.max_deg = max_deg
        self._by_degree = list(by_degree)  # [empty, deg1 listing, deg2 listing, ...]
        self._counts = [0] + [len(a) for a in by_degree[1:]]
        self._prime_rows: list[list] = [[]]
        self._path = None  # the cache file of a loaded table, named in errors
        self._validate()

    def _validate(self) -> None:
        q = self.field.p
        for n in range(1, self.max_deg + 1):
            rep = self.necklace_check(n)
            if not rep.ok:
                raise SieveError(
                    f"necklace identity fails at n={n}: "
                    f"{rep.weighted_sum} != {rep.expected}")
            if abs(n * self._counts[n] - q**n) > 4 * q ** (n / 2):
                raise SieveError(f"count N_{n} violates the sqrt error shape")

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
        idx = self._by_degree[d]
        if idx.ndim == 2:  # coefficient records read from a cache file
            idx = idx.astype(np.int64) @ self.field.p ** np.arange(d, dtype=np.int64)
            if not (idx[1:] > idx[:-1]).all():
                raise CacheOrderError(self._path, d)
            self._by_degree[d] = idx
        return idx

    def primes(self, d: int) -> list[Poly]:
        return [monic_from_index(self.field, d, int(i))
                for i in self.prime_indices(d)]

    def _rows(self, limit: int) -> list[list]:
        """rows[d] for d <= limit: the degree-d primes as bitmasks with the
        leading bit set (p=2) or as coefficient tuples with the leading 1
        (odd p).  Built one degree at a time, only as far as asked."""
        if limit > self.max_deg:
            raise TableTooSmallError(f"need primes to degree {limit}, have {self.max_deg}")
        rows = self._prime_rows
        if len(rows) <= limit:
            p = self.field.p
            rows = list(rows)  # readers keep the list they were handed
            for d in range(len(rows), limit + 1):
                idx = self.prime_indices(d)
                if p == 2:
                    rows.append([i | (1 << d) for i in idx.tolist()])
                else:
                    rows.append([tuple(cs) + (1,)
                                 for cs in _digit_matrix(p, idx, d).tolist()])
            self._prime_rows = rows
        return rows

    def bit_rows(self, limit: int) -> list[list[int]]:
        """rows[d] = degree-d prime bitmasks with the leading bit set (p=2)."""
        if self.field.p != 2:
            raise SieveError("bit rows exist only for p=2")
        return self._rows(limit)

    def coeff_rows(self, limit: int) -> list[list[tuple[int, ...]]]:
        """rows[d] = degree-d prime coefficient tuples, leading 1 included
        (odd p)."""
        if self.field.p == 2:
            raise SieveError("p=2 rows are bitmasks; use bit_rows")
        return self._rows(limit)

    # -- cache ------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the cache file through a temporary file in the same
        directory, so a reader never sees a half-written table."""
        p = self.field.p
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(CACHE_MAGIC)
                fh.write(struct.pack("<III", CACHE_VERSION, p, self.max_deg))
                for d in range(1, self.max_deg + 1):
                    idx = self.prime_indices(d)
                    fh.write(struct.pack("<Q", len(idx)))
                    fh.write(_digit_matrix(p, idx, d).astype(np.uint8).tobytes())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "IrreducibleTable":
        """Read and check a cache file; any malformed content raises
        SieveError here, except repeated or unsorted records, which raise
        CacheOrderError when their degree is first used (prime_indices)."""
        with open(path, "rb") as fh:
            head = fh.read(16)
            if head[:4] != CACHE_MAGIC:
                raise SieveError(f"{path}: bad magic")
            if len(head) != 16:
                raise SieveError(f"{path}: truncated cache in header")
            version, p, max_deg = struct.unpack_from("<III", head, 4)
            if version != CACHE_VERSION:
                raise SieveError(f"{path}: unsupported cache version {version}")
            try:
                field = FieldSpec(p)
            except PolyError as exc:
                raise SieveError(f"{path}: {exc}") from exc
            # the length follows from the Moebius counts; the sum stops
            # once it passes the file, so a forged max_deg costs nothing
            size = os.fstat(fh.fileno()).st_size
            counts, end = [0], 16
            for d in range(1, max_deg + 1):
                counts.append(irreducible_count(p, d))
                end += 8 + counts[d] * d
                if end > size:
                    raise SieveError(f"{path}: truncated cache in degree {d}")
            if end != size:
                raise SieveError(f"{path}: {size - end} trailing bytes")
            body = np.empty(size - 16, dtype=np.uint8)
            if fh.readinto(body) != len(body):
                raise SieveError(f"{path}: file changed while being read")
        by_degree: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        at = 0
        for d in range(1, max_deg + 1):
            (n_d,) = struct.unpack_from("<Q", body, at)
            if n_d != counts[d]:
                raise SieveError(f"{path}: wrong prime count at degree {d}")
            digits = body[at + 8:at + 8 + n_d * d].reshape(n_d, d)
            if digits.max() >= p:
                raise SieveError(f"{path}: coefficient out of range")
            by_degree.append(digits)
            at += 8 + n_d * d
        table = cls(field, max_deg, by_degree)  # necklace check runs in init
        table._path = path
        return table


def necklace_check(table: IrreducibleTable, n: int) -> NecklaceReport:
    """Free-function form of the identity check sum_{d|n} d N_d = q^n."""
    return table.necklace_check(n)


def build_table(field: FieldSpec, max_deg: int,
                cell_budget: int = DEFAULT_CELL_BUDGET) -> IrreducibleTable:
    """Sieve all monic irreducibles of degree <= max_deg."""
    if max_deg < 1:
        raise SieveError("max_deg must be >= 1")
    p = field.p
    cells = sum(p**d for d in range(1, max_deg + 1))
    if cells > cell_budget:
        raise MemoryBudgetError(
            f"p={p}, max_deg={max_deg} needs {cells} cells "
            f"(budget {cell_budget})")

    by_degree: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for target in range(1, max_deg + 1):
        composite = np.zeros(p**target, dtype=bool)
        for d in range(1, target // 2 + 1):
            m = target - d
            if p == 2:
                for idx in by_degree[d]:
                    full = int(idx) | (1 << d)
                    composite[_multiples_gf2(full, m, target)] = True
            else:
                # the cofactor rows are the same for every prime of degree d
                cofactors = _monic_rows(p, m)
                for cs in _digit_matrix(p, by_degree[d], d).tolist():
                    composite[_multiples_generic(p, cs + [1], cofactors, target)] = True
        by_degree.append(np.nonzero(~composite)[0].astype(np.int64))
    return IrreducibleTable(field, max_deg, by_degree)


# ---------------------------------------------------------------------------
# factorization by trial division
# ---------------------------------------------------------------------------

def _trial_division(a, rows, divmod_, degree):
    """Trial division of the monic a by the primes in rows (rows[d] lists
    those of degree d, up to half the degree of a); returns [(prime,
    mult)] sorted by (degree, index).  The final cofactor, if any, is
    irreducible because no prime up to half its degree divides it.
    divmod_(a, P) gives the quotient and a remainder that is falsy when
    zero; degree(a) gives the degree."""
    out = []
    deg = degree(a)
    d = 1
    while 2 * d <= deg:
        for P in rows[d]:
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


def _factor_bits(bits: int, rows: list[list[int]]):
    """Trial division of a monic GF(2) bitmask by prime bitmasks."""
    return _trial_division(bits, rows, _bits_divmod, lambda a: a.bit_length() - 1)


def _coeffs_divmod_monic(p: int, a: tuple[int, ...], b: tuple[int, ...]):
    # b monic; long division on a copy of a
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
            r[i] = 0
    while r and r[-1] == 0:
        r.pop()
    return tuple(q), r


def _factor_coeffs(p: int, coeffs: list[int],
                   rows: list[list[tuple[int, ...]]]):
    """Generic-p trial division on coefficient tuples, as the p=2 kernel."""
    return _trial_division(tuple(coeffs), rows,
                           lambda a, b: _coeffs_divmod_monic(p, a, b),
                           lambda a: len(a) - 1)


def factorize(f: Poly, table: IrreducibleTable) -> Factorization:
    """Prime-power factorization of a monic nonzero polynomial.

    Requires table.max_deg >= floor(deg(f)/2); re-multiplication of the
    result equals f exactly.
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
    rows = table._rows(max(1, n // 2))
    if field.p == 2:
        factors = [(poly_from_encoding(field, pb), m)
                   for pb, m in _factor_bits(f.encode(), rows)]
    else:
        factors = [(Poly(field, pc), m)
                   for pc, m in _factor_coeffs(field.p, f.coeffs, rows)]
    return Factorization(tuple(factors))


def check_enumeration(p: int, n: int, budget: int = DEFAULT_CELL_BUDGET) -> None:
    """Refuse to enumerate the p^n monic polynomials of degree n when
    that exceeds the cell budget (before anything is allocated)."""
    if p**n > budget:
        raise MemoryBudgetError(
            f"enumerating the {p}^{n} monic polynomials of degree {n} "
            f"exceeds the budget {budget}")


def domain_indices(table: IrreducibleTable, n: int, domain: str) -> np.ndarray:
    """Enumeration indices of the monic ("monic") or irreducible
    ("prime") polynomials of degree n, in ascending order."""
    check_enumeration(table.field.p, n)
    if domain == "monic":
        return np.arange(table.field.p ** n, dtype=np.int64)
    return table.prime_indices(n)


def shift_indices(field: FieldSpec, n: int, idx: np.ndarray, h: Poly) -> np.ndarray:
    """Enumeration indices of f + h for the monic f of degree n at idx: an
    XOR with the bits of h for p = 2, digit-wise addition mod p otherwise.
    h must be zero or of degree < n."""
    if h.is_zero:
        return idx
    if h.degree >= n:
        raise SieveError(f"shift of degree {h.degree} is not below n={n}")
    p = field.p
    if p == 2:
        return idx ^ h.encode()
    out = idx.copy()
    for i, c in enumerate(h.coeffs):
        if c:
            digit = idx // p**i % p
            out += ((digit + c) % p - digit) * p**i
    return out


def _multiples(p: int, P, d: int, t: int, cofactors: dict) -> np.ndarray:
    """Indices of P g for every monic g of degree t - d, in the order of
    g, for a prime row P of degree d (table._rows); cofactors keeps the
    odd-p cofactor rows per degree."""
    if p == 2:
        return _multiples_gf2(P, t - d, t)
    if t - d not in cofactors:
        cofactors[t - d] = _monic_rows(p, t - d)
    return _multiples_generic(p, P, cofactors[t - d], t)


def prime_valuations(table: IrreducibleTable, n: int, top: int):
    """For every prime P of degree d <= top, in (degree, index) order,
    yield (d, idx, v): idx holds the enumeration indices of the monic f
    of degree n that P divides, and v (int8) is v_P(f) at each of them.

    The multiples f = P g come from the sieve kernels with g running over
    the monic polynomials of degree n - d in index order, and v_P(f) =
    1 + v_P(g) is the same construction one level down.
    """
    p = table.field.p
    rows = table._rows(top)
    cofactors: dict[int, np.ndarray] = {}

    def valuation(P, d: int, t: int) -> np.ndarray:
        v = np.zeros(p**t, dtype=np.int8)
        if t >= d:
            v[_multiples(p, P, d, t, cofactors)] = 1 + valuation(P, d, t - d)
        return v

    for d in range(1, top + 1):
        for P in rows[d]:
            yield d, _multiples(p, P, d, n, cofactors), 1 + valuation(P, d, n - d)


def prime_multiples(table: IrreducibleTable, n: int, lo: int, hi: int):
    """For every prime P with lo <= deg P <= hi <= n, in (degree, index)
    order, yield (deg P, idx): the enumeration indices of the monic
    multiples of P of degree n."""
    p = table.field.p
    rows = table._rows(hi)
    cofactors: dict[int, np.ndarray] = {}
    for d in range(lo, hi + 1):
        for P in rows[d]:
            yield d, _multiples(p, P, d, n, cofactors)


# ---------------------------------------------------------------------------
# primes in arithmetic progressions
# ---------------------------------------------------------------------------

# Most cells (polynomials x moduli x residue digits in one matrix product,
# or moduli x residue classes in one block of counts) the residue map
# forms at a time; it bounds the memory of residue_counts.
RESIDUE_BLOCK_CELLS = 1 << 15


def _powers_mod(p: int, n: int, d: int, moduli: np.ndarray) -> np.ndarray:
    """Digits of x^i mod M for i = 0..n and every monic M of degree d >= 1
    at the given indices: row i holds them modulus by modulus, d digits
    each.  Below degree d, x^i is its own residue; from there on x^(i+1)
    = x * x^i, with x^d replaced by -(c_0 + ... + c_{d-1} x^{d-1})."""
    low = _digit_matrix(p, moduli, d)
    out = np.zeros((n + 1, len(moduli), d), dtype=np.float32)
    below = np.arange(min(d, n + 1))
    out[below, :, below] = 1
    r = -low % p
    for i in range(d, n + 1):
        out[i] = r
        top = r[:, -1:]
        r = np.concatenate((np.zeros_like(top), r[:, :-1]), axis=1)
        r = (r - top * low) % p
    return out.reshape(n + 1, -1)


def residue_keys(p: int, n: int, idx: np.ndarray, d: int,
                 moduli: np.ndarray) -> np.ndarray:
    """Encoding of f mod M for the monic f of degree n at idx (rows) and
    the monic M of degree d at moduli (columns), as int64.

    Reduction mod M is linear in the coefficients of f, so this is one
    matrix product: the digit rows of f, leading 1 included, times the
    digits of x^i mod M.  Every entry is an integer of at most
    (n + 1)(p - 1)^2, below 2^24 (so the float32 product is exact) at
    every degree whose polynomials can be listed (p <= 251).  The caller
    sizes the blocks.
    """
    if d == 0:
        return np.zeros((len(idx), len(moduli)), dtype=np.int64)
    digits = np.ones((len(idx), n + 1), dtype=np.float32)
    digits[:, :n] = _digit_matrix(p, idx, n)
    raw = (digits @ _powers_mod(p, n, d, moduli)).astype(np.int32)
    quot = raw // p  # raw %= p in place; numpy divides faster than % by a scalar
    quot *= p
    raw -= quot
    raw = raw.reshape(len(idx), len(moduli), d)
    keys = np.zeros((len(idx), len(moduli)), dtype=np.int64)
    for j in range(d - 1, -1, -1):  # Horner, without an int64 copy of raw
        keys *= p
        keys += raw[:, :, j]
    return keys


def residue_counts(table: IrreducibleTable, n: int, d: int):
    """Count the degree-n primes in every residue class modulo every monic
    M of degree d.  Yields (moduli, counts) block by block in index order:
    counts[b, key] is the number of primes P with P mod M = key (encoded)
    for the modulus at index moduli[b].

    Every matrix product (primes x moduli x d) and every block of counts
    (moduli x p^d) holds at most RESIDUE_BLOCK_CELLS cells, except that
    one modulus's row of p^d counts is never split.
    """
    p = table.field.p
    primes = table.prime_indices(n)
    classes = p**d
    width = max(1, RESIDUE_BLOCK_CELLS // max(classes, len(primes) * d))
    step = max(1, RESIDUE_BLOCK_CELLS // (width * d))
    for start in range(0, classes, width):
        moduli = np.arange(start, min(start + width, classes), dtype=np.int64)
        keys = np.concatenate([residue_keys(p, n, primes[s:s + step], d, moduli)
                               for s in range(0, len(primes), step)])
        keys += np.arange(len(moduli), dtype=np.int64) * classes
        counts = np.bincount(keys.ravel(), minlength=len(moduli) * classes)
        yield moduli, counts.reshape(len(moduli), classes)


def residue_histogram(n: int, modulus: Poly, table: IrreducibleTable) -> dict[int, int]:
    """Count degree-n primes per residue class mod the given monic modulus.

    Keys are the integer encodings of the reduced residues, in the order
    in which they first occur among the primes in index order.
    """
    if modulus.is_zero or not modulus.is_monic or modulus.degree < 1:
        raise SieveError("modulus must be monic of degree >= 1")
    p, d = table.field.p, modulus.degree
    primes = table.prime_indices(n)
    at = np.array([modulus.monic_index()], dtype=np.int64)
    step = max(1, RESIDUE_BLOCK_CELLS // d)
    keys = np.concatenate([residue_keys(p, n, primes[s:s + step], d, at)[:, 0]
                           for s in range(0, len(primes), step)])
    found, first, counts = np.unique(keys, return_index=True,
                                     return_counts=True)
    order = np.argsort(first)
    return dict(zip(found[order].tolist(), counts[order].tolist()))


def prime_count_ap(n: int, modulus: Poly, residue: Poly,
                   table: IrreducibleTable) -> int:
    """Exact number of degree-n monic irreducibles congruent to the given
    residue; the residue must be coprime to the modulus."""
    from .fieldpoly import poly_gcd_lcm
    if residue.is_zero:
        raise SieveError("residue not coprime to modulus")
    g, _ = poly_gcd_lcm(modulus, residue)
    if g.degree != 0:
        raise SieveError("residue not coprime to modulus")
    hist = residue_histogram(n, modulus, table)
    key = (residue % modulus).encode()
    return hist.get(key, 0)
