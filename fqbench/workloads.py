"""The benchmark's workloads: which fqlab operations each one runs.

An operation is either a CLI command, run in-process through
``fqlab.cli.main(argv)``, or the one library call the CLI does not
expose (``brun_titchmarsh_violations``).  Every operation carries the
number of shifted polynomials it evaluates, worked out from its
arguments alone (see ``evals_of`` and ``metrics.json``).

The scan and stats workloads are fixed: they are the paper's
experiments, and their exact answers are pinned in ``reference.json``.
The seed draws only the ``cli-small`` factor inputs and main-term shifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Op:
    """One operation.  ``argv`` is the CLI argument list without the
    per-run ``--cache-dir``/``--out`` flags; for the library call it is a
    pseudo-command ``("brun_titchmarsh", "--p", p, "--n-max", n)``."""

    argv: tuple[str, ...]
    check: str = "reference"  # reference, factor, necklace, exit, brun_titchmarsh
    expect_rc: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def library(self) -> bool:
        return self.command == "brun_titchmarsh"

    @property
    def evals(self) -> int:
        return evals_of(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Op, ...]
    ops: tuple[Op, ...]


def _op(text: str, check: str = "reference", expect_rc: int = 0) -> Op:
    return Op(tuple(text.split()), check, expect_rc)


def _sieve(p: int, max_deg: int) -> Op:
    return _op(f"sieve --p {p} --max-deg {max_deg}", "necklace")


# ---------------------------------------------------------------------------
# operation sizes: evaluations of shifted polynomials
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    out, m, k = 1, n, 2
    while k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return 0
            out = -out
        k += 1
    return -out if m > 1 else out


def irreducible_count(p: int, n: int) -> int:
    """|P_n|, the number of monic irreducibles of degree n over F_p."""
    return sum(_mobius(n // d) * p**d for d in range(1, n + 1) if n % d == 0) // n


def domain_size(p: int, n: int, domain: str) -> int:
    return p**n if domain == "monic" else irreducible_count(p, n)


def brun_titchmarsh_evals(p: int, n_max: int) -> int:
    """One residue reduction per prime of degree n and modulus of degree < n."""
    return sum(p**d * irreducible_count(p, n)
               for n in range(2, n_max + 1) for d in range(1, n))


def diagnostics_evals(p: int, n: int) -> int:
    """Divisor-product scan over degree n plus the H(1..n) scans."""
    return p**n + sum(p**m for m in range(1, n + 1))


def flags(argv) -> dict[str, str]:
    out: dict[str, str] = {}
    it = iter(argv[1:])
    for tok in it:
        if "=" in tok:
            k, v = tok.split("=", 1)
        else:
            k, v = tok, next(it)
        out[k.lstrip("-").replace("-", "_")] = v
    return out


def _degrees(fl: dict[str, str], default: str = "8") -> list[int]:
    """Degrees of --n-range a:b[:step] (endpoints inclusive) or --n."""
    parts = [int(x) for x in fl.get("n_range", fl.get("n", default)).split(":")]
    if len(parts) == 1:
        return parts
    return list(range(parts[0], parts[1] + 1, parts[2] if len(parts) == 3 else 1))


def evals_of(argv) -> int:
    """Shifted polynomials an operation evaluates, from its arguments.

    The formulas are written out in ``metrics.json``; operations that
    enumerate nothing (sieve, mainterm) count 0.
    """
    cmd = argv[0]
    fl = flags(argv)
    p = int(fl.get("p", 2))
    domain = fl.get("domain", "monic")
    if cmd == "correlate":
        shifts = len(fl["shifts"].split(",")) if "shifts" in fl else 2
        return shifts * sum(domain_size(p, n, domain) for n in _degrees(fl))
    if cmd == "chowla":
        return 2 * sum(p**n for n in _degrees(fl, "8:16"))
    if cmd in ("dist", "charfn"):
        return 2 * domain_size(p, int(fl.get("n", 8)), domain)
    if cmd == "tk":
        return sum(domain_size(p, n, domain) for n in _degrees(fl))
    if cmd == "diagnostics":
        return diagnostics_evals(p, int(fl.get("n", 8)))
    if cmd == "brun_titchmarsh":
        return brun_titchmarsh_evals(p, int(fl["n_max"]))
    if cmd == "factor":
        return 1
    if cmd in ("sieve", "mainterm"):
        return 0
    raise ValueError(f"no evaluation count for command {cmd!r}")


# ---------------------------------------------------------------------------
# seeded inputs for cli-small
# ---------------------------------------------------------------------------

def format_poly(coeffs: list[int]) -> str:
    """Canonical text of a polynomial from its coefficients c0, c1, ..."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            parts.append(("" if c == 1 else str(c)) + ("x" if i == 1 else f"x^{i}"))
    return "+".join(parts) or "0"


def random_monic(rng: random.Random, p: int, n: int) -> str:
    return format_poly([rng.randrange(p) for _ in range(n)] + [1])


def _all_polys(p: int, degrees) -> list[str]:
    out = []
    for d in degrees:
        for idx in range(p**d):
            cs = [(idx // p**i) % p for i in range(d)]
            out.append(format_poly(cs + [1]))
    return out


# kfree:2 main terms are drawn with h2 from these; all are pinned.
KFREE_SHIFTS = tuple(_all_polys(2, (1, 2, 3)))

FACTOR_INPUTS = ((2, 16, 18), (3, 12, 8), (5, 8, 8))  # (p, degree, count)
KFREE_DRAWS = 3


def _kfree_mainterm(h2: str) -> Op:
    return _op(f"mainterm --p 2 --n inf --f kfree:2 --g kfree:2 --h1 0 --h2 {h2}")


def _cli_small_fixed() -> list[Op]:
    return [
        _op("mainterm --p 2 --n inf --f phi_ratio --g phi_ratio --h1 0 --h2 1"),
        _op("mainterm --p 2 --n inf --f liouville_trunc:8 --g liouville_trunc:8 "
            "--h1 0 --h2 1 --gamma 8"),
        _op("mainterm --p 3 --n inf --domain prime --f phi_ratio --g phi_ratio "
            "--h1 0 --h2 1"),
        _op("mainterm --p 2 --n inf --f moebius --g moebius --h1 0 --h2 1",
            "exit", 1),
        _op("sieve --p 2 --max-deg 30", "exit", 2),
        _op("correlate --p 2 --n 8 --f kfree:2 --g kfree:2 --h1 0 --h2 1"),
        _op("correlate --p 2 --n 8 --f phi_ratio --g phi_ratio --h1 0 --h2 1"),
        _op("correlate --p 2 --n 8 --f liouville_trunc:2 --g liouville_trunc:2 "
            "--h1 0 --h2 x"),
        _op("tk --p 2 --n-range 6:9"),
        _op("tk --p 2 --domain prime --psi first_power --h 1 --n-range 6:9"),
        _op("diagnostics --p 2 --n 8 --h 1"),
        _op("diagnostics --p 2 --n 8 --h x"),
    ]


def _cli_small(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = _cli_small_fixed()
    ops += [_kfree_mainterm(rng.choice(KFREE_SHIFTS)) for _ in range(KFREE_DRAWS)]
    for p, n, count in FACTOR_INPUTS:
        ops += [Op(("factor", "--p", str(p), "--poly", random_monic(rng, p, n)),
                   "factor") for _ in range(count)]
    return Workload("cli-small", (_sieve(2, 20), _sieve(3, 12), _sieve(5, 8)),
                    tuple(ops))


def _fixed(name: str) -> Workload:
    if name == "scan-p2":
        return Workload(name, (_sieve(2, 18),), (
            _op("chowla --p 2 --y 2 --h x --n-range 11:15:2"),
            _op("correlate --p 2 --f phi_ratio --g phi_ratio --h1 0 --h2 1 "
                "--gamma 4 --n-range 9:13:2"),
            _op("correlate --p 2 --domain prime --n 16 --f kfree:2 --g kfree:2 "
                "--h1 0 --h2 1"),
        ))
    if name == "scan-odd":
        return Workload(name, (_sieve(3, 12), _sieve(5, 8)), (
            _op("correlate --p 3 --n 8 --f kfree:2 --g kfree:2 --h1 0 --h2 1"),
            _op("correlate --p 3 --n 7 --f phi_ratio --g phi_ratio --h1 0 --h2 1"),
            _op("correlate --p 5 --n 5 --f liouville_trunc:2 --g liouville_trunc:2 "
                "--h1 0 --h2 x"),
        ))
    if name == "stats-p2":
        return Workload(name, (_sieve(2, 14),), (
            _op("dist --p 2 --n 13"),
            _op("charfn --p 2 --n 13 --t-grid=-3:3:0.5"),
            _op("tk --p 2 --n-range 6:13"),
            _op("tk --p 2 --domain prime --psi first_power --h 1 --n-range 6:14"),
            _op("diagnostics --p 2 --n 12 --h 1"),
            _op("brun_titchmarsh --p 2 --n-max 11", "brun_titchmarsh"),
        ))
    raise KeyError(name)


WORKLOADS = ("scan-p2", "scan-odd", "stats-p2", "cli-small")


def build(name: str, seed: int) -> Workload:
    """The workload's operations; only cli-small depends on the seed."""
    if name == "cli-small":
        return _cli_small(seed)
    return _fixed(name)


def pinned_ops() -> list[Op]:
    """Every operation whose output reference.json pins, for any seed."""
    ops: list[Op] = []
    for name in ("scan-p2", "scan-odd", "stats-p2"):
        ops += [op for op in _fixed(name).ops if op.check == "reference"]
    ops += [op for op in _cli_small_fixed() if op.check == "reference"]
    ops += [_kfree_mainterm(h) for h in KFREE_SHIFTS]
    return ops
