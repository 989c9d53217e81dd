"""Output checks: each operation's result against the pinned reference
or an independent oracle.  A check returns a list of problems; an empty
list means the output is correct.

Tolerances (stated here, applied to every pinned artifact field):
  - integers and the raw sums of integer-valued experiments: exact;
  - other floats: relative 1e-9 (absolute 1e-12 near zero);
  - main terms (and the deviations derived from them): within the
    observed ``tail_bound`` plus 1e-9, and the observed tail bound no
    looser than the pinned one.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAIN_TERM_FIELDS = ("main_re", "main_im", "phi_re", "phi_im", "deviation",
                    "abs_error")


def _floats(text) -> list[float] | None:
    try:
        return [float(x) for x in str(text).split(";")]
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_rows(rows, ref: dict) -> list[str]:
    """Compare an artifact (list of row dicts) with a pinned reference
    ``{"rows": [...], "exact": [field, ...]}``."""
    want = ref["rows"]
    exact = set(ref.get("exact", ()))
    if len(rows) != len(want):
        return [f"{len(rows)} rows, reference has {len(want)}"]
    problems = []
    for i, (got, exp) in enumerate(zip(rows, want)):
        if set(got) - {"seconds"} != set(exp):
            problems.append(f"row {i}: fields {sorted(got)} != {sorted(exp)}")
            continue
        for k, e in exp.items():
            g = got[k]
            if k in exact or not isinstance(e, str) or _floats(e) is None:
                ok = g == e
            elif k in MAIN_TERM_FIELDS:
                tail = float(got["tail_bound"])
                ok = abs(float(g) - float(e)) <= tail + REL_TOL * max(1.0, abs(float(e)))
            elif k == "tail_bound":
                ok = float(g) <= float(e) * (1 + REL_TOL) + ABS_TOL
            else:
                gs, es = _floats(g), _floats(e)
                ok = gs is not None and len(gs) == len(es) and all(
                    _close(x, y) for x, y in zip(gs, es))
            if not ok:
                problems.append(f"row {i}: {k}={g!r}, reference {e!r}")
    return problems


# ---------------------------------------------------------------------------
# oracles that need no reference
# ---------------------------------------------------------------------------

def parse_poly(text: str, p: int) -> list[int]:
    """Coefficients c0, c1, ... of a polynomial in canonical text form."""
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        if "x" not in term:
            coeffs[0] = int(term) % p
            continue
        c, _, e = term.partition("x")
        deg = int(e[1:]) if e.startswith("^") else 1
        coeffs[deg] = int(c) % p if c else 1
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return out


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def check_factorization(rows, poly: str, p: int, prime_index_sets) -> list[str]:
    """The factors multiply back to the input and each is a tabulated
    prime.  ``prime_index_sets[d]`` is the set of enumeration indices of
    the degree-d monic irreducibles."""
    problems = []
    if any(r.get("poly") != poly for r in rows):
        problems.append(f"artifact names another input than {poly}")
    prod = [1]
    for r in rows:
        m = int(r["multiplicity"])
        if not r["prime"]:
            if m != 0 or len(rows) != 1:
                problems.append(f"empty factor row {r}")
            continue
        f = parse_poly(r["prime"], p)
        d = len(f) - 1
        if f[-1] != 1 or d < 1 or m < 1:
            problems.append(f"factor {r['prime']}^{m} is not a monic prime power")
            continue
        index = sum(c * p**i for i, c in enumerate(f[:-1]))
        if d >= len(prime_index_sets) or index not in prime_index_sets[d]:
            problems.append(f"factor {r['prime']} is not in the prime table")
        for _ in range(m):
            prod = poly_mul(prod, f, p)
    if prod != parse_poly(poly, p):
        problems.append(f"factors of {poly} multiply back to {prod}")
    return problems


def check_necklace(rows, p: int, max_deg: int, irreducible_count) -> list[str]:
    """Sieve report: one row per degree, every identity holding, every
    count equal to the Moebius-inversion count."""
    if [r["n"] for r in rows] != list(range(1, max_deg + 1)):
        return [f"sieve rows cover degrees {[r['n'] for r in rows]}"]
    return [f"degree {r['n']}: count {r['count']} ok={r['ok']}" for r in rows
            if r["ok"] is not True or r["count"] != irreducible_count(p, r["n"])]
