"""Batch front end: canned experiments, table caching, CSV/JSON artifacts.

Each command declares its settings once, as a table of key -> (converter,
default) given to _command beside its handler; the common keys p,
cache_dir, budget and out come with every table.  The registry of these
tables, _COMMANDS, is the only list of commands: the first argument
selects one (no command, or an unknown one, is invalid input), and its
table alone names the flags the run reads (--key, '_' written '-';
_read_flags reads them as argparse did, with no parser built), looks
each key up in the flat key=value config file named by --config (a flag
wins on conflict), and converts every value, so a bad value is invalid
input whichever way it came.  Every degree is an integer >= 1 (mainterm's
finite n at most MAX_PARSE_DEGREE), and so are y and budget; t and C are
finite, and t is >= 0.  gamma, the degree where the paper splits the
Euler product, and depth, where main terms once cut each local factor
short, change no main term; correlate and mainterm accept them (gamma
checked >= 0, depth >= 2) so that old command lines and config files
still run, and no handler reads them.  A handler sees only the
resolved namespace.  Each run writes a CSV artifact plus a JSON mirror
with identical field names, both renamed into place once written, and
prints a short human summary.  Exit codes: 0 success, 1 invalid input
(usage errors included), 2 memory budget exceeded;
--budget bounds the table and the monic scan of every command.

Artifacts are deterministic for a fixed config and cache; the seconds
column is wall-clock timing, so reproducible byte-identical output needs
omit_timing=1 (then the column is pinned to 0).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
import time
import uuid
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .arith import (
    AdditiveSpec,
    SpecError,
    builtin,
    parse_additive_spec,
    parse_function_spec,
    scan_degrees,
)
from .correlate import CorrelationSpec, correlate, main_term_pair
from .fieldpoly import (MAX_PARSE_DEGREE, FieldSpec, PolyError, format_poly,
                        parse_poly)
from .mainterm import MainTermError, ShiftPair, main_term
from .sieve import (
    DEFAULT_CELL_BUDGET,
    IrreducibleTable,
    MemoryBudgetError,
    SieveError,
    build_table,
    check_enumeration,
    factorize,
)
from .stats import (
    StatsError,
    charfn_comparison,
    empirical_distribution,
    sieve_diagnostics,
    tk_ratio,
)

CACHE_ENV = "FQLAB_CACHE_DIR"

_VALIDATION_ERRORS = (PolyError, SpecError, SieveError, MainTermError,
                      StatsError, ValueError, OSError)


@dataclass
class ExperimentConfig:
    """Flat key=value mapping; parse and format round-trip exactly."""

    entries: dict[str, str] = dc_field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        entries: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw!r}")
            k, v = line.split("=", 1)
            entries[k.strip()] = v.strip()
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.parse(Path(path).read_text())

    def format(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.entries.items())

    def get(self, key: str, flag_value, default=None):
        if flag_value is not None:
            return flag_value
        return self.entries.get(key, default)


def _at_least(lo: int) -> Callable[[str], int]:
    def convert(text) -> int:
        if (n := int(text)) < lo:
            raise ValueError(f"must be >= {lo}, got {n}")
        return n
    return convert


_degree = _at_least(1)


def _finite(text) -> float:
    if not math.isfinite(x := float(text)):
        raise ValueError(f"must be finite, got {x}")
    return x


def _finite_nonnegative(text) -> float:
    if (x := _finite(text)) < 0:
        raise ValueError(f"must be >= 0, got {x}")
    return x


def _degree_or_inf(text: str) -> str:
    """mainterm's n: inf or none (the limit) or a degree, kept as given;
    a finite walk visits every degree to n, so n <= MAX_PARSE_DEGREE."""
    if text not in ("inf", "none") and _degree(text) > MAX_PARSE_DEGREE:
        raise ValueError(f"must be <= {MAX_PARSE_DEGREE}, got {text}")
    return text


def _parse_range(text: str) -> range:
    """'a:b' or 'a:b:step' of degrees, endpoints inclusive, ascending and
    not empty; its largest value is [-1], so nothing iterates over it to
    find that."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad range {text!r}; expected a:b or a:b:step")
    a, b = _degree(parts[0]), _degree(parts[1])
    s = int(parts[2]) if len(parts) == 3 else 1
    if s <= 0:
        raise ValueError(f"range step must be > 0, got {s}")
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return range(a, b + 1, s)


MAX_GRID_POINTS = 10_000  # the most t values a --t-grid may list


def _parse_t_grid(text: str) -> list[float]:
    """A comma list, or 'a:b:step': from a, step added until past b.
    Every value is finite; a grid needs a <= b, a step > 0 and at most
    MAX_GRID_POINTS points, counted before any list is built."""
    if ":" not in text:
        if text.count(",") >= MAX_GRID_POINTS:
            raise ValueError(f"grid lists more than {MAX_GRID_POINTS} points")
        out = [float(x) for x in text.split(",")]
        if not all(map(math.isfinite, out)):
            raise ValueError(f"grid values must be finite, got {text!r}")
        return out
    a, b, s = (float(x) for x in text.split(":"))
    if not all(map(math.isfinite, (a, b, s))) or s <= 0 or a > b + 1e-9:
        raise ValueError(f"bad grid {text!r}; needs finite a <= b and step > 0")
    if (b + 1e-9 - a) / s >= MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    out, t = [], a
    while t <= b + 1e-9:
        if t + s == t:
            raise ValueError(f"grid step {s} does not move past {t}")
        out.append(round(t, 12))
        t += s
    return out


def _choice(*names: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return convert


_domain = _choice("monic", "prime")


def _cache_path(text: str) -> Path:
    path = Path(text)
    path.mkdir(parents=True, exist_ok=True)
    return path


def get_table(p: int, need_deg: int, cache: Path,
              budget: int = DEFAULT_CELL_BUDGET) -> IrreducibleTable:
    """The table through need_deg: read from the smallest adequate cached
    file only that far, else built and cached.  A cached file that fails
    to load, or whose header disagrees with its name, is deleted and
    replaced by a fresh build; the file is deleted only while the path
    still names the file that was read, so a sound table another run has
    just renamed into place stays."""
    best = None
    for f in sorted(cache.glob(f"p{p}_d*.fqi")):
        try:
            d = int(f.stem.split("_d")[1])
        except (IndexError, ValueError):
            continue
        if d >= need_deg and (best is None or d < best[0]):
            best = (d, f)
    if best is not None:
        d, path = best
        read = _file_identity(path)
        try:
            return IrreducibleTable.load(path, need_deg, (p, d))
        except SieveError as exc:
            print(f"rebuilding bad cache file: {exc}", file=sys.stderr)
            if _file_identity(path) == read:
                path.unlink(missing_ok=True)
    table = build_table(FieldSpec(p), need_deg, budget)
    table.save(cache / f"p{p}_d{need_deg}.fqi")
    return table


def _file_identity(path: Path):
    """Device, inode and change time (a write or rename moves it) of the
    file at path, None if there is none."""
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return st.st_dev, st.st_ino, st.st_ctime_ns


def _write_artifacts(out: str, rows: list[dict], summary: str) -> None:
    """Write <out>.csv and <out>.json to temporary files beside them, then
    rename both into place: a failed write leaves the previous pair, and
    a failure between the renames a new CSV beside the old JSON."""
    keys = list(rows[0].keys()) if rows else []
    # plain strings: pathlib would intern every one-off temporary name
    tag = uuid.uuid4().hex
    tmp = {ext: f"{out}{ext}.{tag}.tmp" for ext in (".csv", ".json")}
    try:
        with open(tmp[".csv"], "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            w.writerows(rows)
        with open(tmp[".json"], "w") as fh:
            fh.write(_json_rows(rows))
        for ext, path in tmp.items():
            os.replace(path, out + ext)
    except BaseException:
        for path in tmp.values():
            Path(path).unlink(missing_ok=True)
        raise
    print(summary)
    print(f"wrote {out}.csv and {out}.json")


# one row's items, one per line: json's C encoder, which indent would bypass
_ROW_ENCODER = json.JSONEncoder(separators=(",\n  ", ": "))


def _json_rows(rows: list[dict]) -> str:
    """The bytes of json.dumps(rows, indent=1) + "\n" for nonempty rows
    of scalars, as every command writes."""
    if not rows:
        return "[]\n"
    return "[\n" + ",\n".join(
        " {\n  " + _ROW_ENCODER.encode(r)[1:-1] + "\n }" for r in rows) + "\n]\n"


def _report_row(rep, omit_timing: int, extra: dict | None = None) -> dict:
    main_re = main_im = tail = dev = ""
    if rep.main is not None:
        main_re = repr(complex(rep.main.value).real)
        main_im = repr(complex(rep.main.value).imag)
        tail = repr(rep.main.tail_bound)
        dev = repr(rep.deviation)
    row = {
        "q": rep.q, "n": rep.n, "domain": rep.domain,
        "functions": ";".join(rep.function_names),
        "h_list": ";".join(rep.shift_texts),
        "raw_re": repr(complex(rep.raw_sum).real),
        "raw_im": repr(complex(rep.raw_sum).imag),
        "normalized_re": repr(rep.normalized.real),
        "normalized_im": repr(rep.normalized.imag),
        "main_re": main_re, "main_im": main_im, "tail_bound": tail,
        "deviation": dev,
        "seconds": 0.0 if omit_timing else round(rep.seconds, 6),
    }
    if extra:
        row.update(extra)
    return row


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_REQUIRED = object()  # a default that makes the key mandatory
_COMMON = {
    "p": (int, 2),
    "cache_dir": (_cache_path, lambda a: os.environ.get(CACHE_ENV, ".fqlab_cache")),
    "budget": (_at_least(1), DEFAULT_CELL_BUDGET),
}
_COMMANDS: dict[str, tuple[Callable, dict]] = {}


def _command(name: str, out: Callable, **keys):
    """Register a handler under name with its table: the common keys, then
    keys, then out.  A callable default is computed from the values
    resolved before it; out's is the artifact stem."""
    def register(handler):
        _COMMANDS[name] = (handler, {**_COMMON, **keys, "out": (str, out)})
        return handler
    return register


@_command("sieve", lambda a: f"sieve_p{a.p}", max_deg=(_degree, 12))
def _cmd_sieve(a) -> int:
    t0 = time.perf_counter()
    table = build_table(FieldSpec(a.p), a.max_deg, a.budget)
    path = a.cache_dir / f"p{a.p}_d{a.max_deg}.fqi"
    table.save(path)
    rows = []
    for n in range(1, a.max_deg + 1):
        rep = table.necklace_check(n)
        rows.append({"q": a.p, "n": n, "count": table.count(n),
                     "necklace_lhs": rep.weighted_sum,
                     "necklace_rhs": rep.expected, "ok": rep.ok})
    _write_artifacts(a.out, rows,
                     f"sieved p={a.p} to degree {a.max_deg} in "
                     f"{time.perf_counter()-t0:.2f}s; cache {path}")
    return 0


@_command("factor", lambda a: "factor", poly=(str, _REQUIRED))
def _cmd_factor(a) -> int:
    f = parse_poly(a.poly, FieldSpec(a.p))
    if f.is_zero or not f.is_monic:
        raise SieveError("factor expects a monic nonzero polynomial")
    table = get_table(a.p, max(1, f.degree // 2), a.cache_dir, a.budget)
    fact = factorize(f, table)
    rows = [{"q": a.p, "poly": format_poly(f), "prime": format_poly(P),
             "multiplicity": m} for P, m in fact.factors]
    if not rows:
        rows = [{"q": a.p, "poly": format_poly(f), "prime": "", "multiplicity": 0}]
    text = " * ".join(f"({format_poly(P)})^{m}" if m > 1 else f"({format_poly(P)})"
                      for P, m in fact.factors) or "1"
    _write_artifacts(a.out, rows, f"{format_poly(f)} = {text}")
    return 0


# the shifted pair, or k-point lists, of correlate and mainterm; gamma and
# depth are checked and read by no handler (see the module docstring)
_EXPERIMENT = {
    "domain": (_domain, "monic"), "f": (str, "one"), "g": (str, "one"),
    "h1": (str, "0"), "h2": (str, "0"), "functions": (str, None),
    "shifts": (str, None), "gamma": (_at_least(0), None),
    "depth": (_at_least(2), None),
}


def _specs(parse, names, field):
    # one spec object per name, so the engine sieves each function once
    specs = {s: parse(s, field) for s in dict.fromkeys(names)}
    return [specs[s] for s in names]


def _experiment_pieces(a):
    field = FieldSpec(a.p)
    if (a.functions is None) != (a.shifts is None):
        raise ValueError("--functions and --shifts must be given together")
    if a.functions is not None:
        names, hs = a.functions.split(","), a.shifts.split(",")
    else:
        names, hs = [a.f, a.g], [a.h1, a.h2]
    functions = _specs(parse_function_spec, names, field)
    return field, functions, [parse_poly(s, field) for s in hs]


@_command("correlate", lambda a: f"correlate_p{a.p}", n=(_degree, 8),
          n_range=(_parse_range, None), **_EXPERIMENT, omit_timing=(int, 0))
def _cmd_correlate(a) -> int:
    field, functions, shifts = _experiment_pieces(a)
    ns = [a.n] if a.n_range is None else a.n_range
    # the needed degree grows with n
    table = _scan_table(a, ns[-1], functions, a.domain,
                        main_term_pair(functions, shifts))
    rows = []
    for n in ns:
        spec = CorrelationSpec(field, n, a.domain, shifts, functions)
        rep = correlate(spec, table)
        rows.append(_report_row(rep, a.omit_timing))
    last = rows[-1]
    _write_artifacts(a.out, rows,
                     f"S over {a.domain}s: raw={last['raw_re']} "
                     f"normalized={last['normalized_re']} "
                     f"deviation={last['deviation']}")
    return 0


def _scan_table(a, n, functions, domain, pair=None):
    """The table for a scan of these functions at degree n over the
    domain, after the --budget check of a monic scan (the prime domain is
    bounded by its degree-n table instead): to scan_degrees, and to the
    table_degree of the main term of a given ShiftPair."""
    if domain == "monic":
        check_enumeration(a.p, n, a.budget)
    need = scan_degrees(functions, n, domain)
    if pair is not None:
        need = max(need, pair.table_degree)
    return get_table(a.p, max(1, need), a.cache_dir, a.budget)


@_command("mainterm", lambda a: "mainterm", n=(_degree_or_inf, "inf"),
          **_EXPERIMENT)
def _cmd_mainterm(a) -> int:
    field, functions, shifts = _experiment_pieces(a)
    if len(functions) != 2 or len(shifts) != 2:
        raise ValueError("mainterm takes two functions and two shifts "
                         "(--f/--g/--h1/--h2 or --functions f,g --shifts h1,h2)")
    n = None if a.n in ("inf", "none") else int(a.n)
    pair = ShiftPair(*shifts)
    table = get_table(a.p, max(1, pair.table_degree), a.cache_dir, a.budget)
    tv = main_term(n, pair, functions[0], functions[1], a.domain, table)
    rows = [{"q": a.p, "n": a.n, "mode": a.domain,
             "functions": ";".join(f.name for f in functions),
             "h_list": ";".join(format_poly(h) for h in shifts),
             "main_re": repr(complex(tv.value).real),
             "main_im": repr(complex(tv.value).imag),
             "tail_bound": repr(tv.tail_bound)}]
    _write_artifacts(a.out, rows, f"main term = {tv.value} (tail {tv.tail_bound:.2e})")
    return 0


@_command("chowla", lambda a: f"chowla_p{a.p}_y{a.y}", y=(_degree, 2),
          h=(str, "x"), n_range=(_parse_range, "8:16"), C=(_finite, 1.0),
          omit_timing=(int, 0))
def _cmd_chowla(a) -> int:
    """Truncated-Liouville autocorrelation scan with its theoretical cap."""
    field = FieldSpec(a.p)
    y, ns = a.y, a.n_range
    h = parse_poly(a.h, field)
    lam = builtin("liouville_truncated", field, y=y)
    zero = parse_poly("0", field)
    table = _scan_table(a, ns[-1], (lam, lam), "monic", ShiftPair(zero, h))
    cap = a.C * math.log(y) ** 4 / y**4 if y > 1 else math.inf
    rows = []
    for n in ns:
        spec = CorrelationSpec(field, n, "monic", (zero, h), (lam, lam))
        rep = correlate(spec, table)
        rows.append(_report_row(rep, a.omit_timing,
                                {"y": y, "bound_C_log4y_y4": repr(cap)}))
    _write_artifacts(a.out, rows,
                     f"truncated autocorrelation scan y={y}, n={ns[0]}..{ns[-1]}; "
                     f"|normalized| cap {cap:.4g}")
    return 0


# the shifted pair of additive functions of dist and charfn
_ADDITIVE_PAIR = {
    "n": (_degree, 8), "domain": (_domain, "monic"),
    "psi1": (str, "log_phi_ratio"), "psi2": (str, "log_phi_ratio"),
    "h1": (str, "0"), "h2": (str, "1"),
}


def _additive_pieces(a):
    """psi1, psi2 and their shift pair."""
    field = FieldSpec(a.p)
    psi1, psi2 = _specs(parse_additive_spec, (a.psi1, a.psi2), field)
    return psi1, psi2, ShiftPair(parse_poly(a.h1, field), parse_poly(a.h2, field))


@_command("dist", lambda a: f"dist_p{a.p}_n{a.n}", **_ADDITIVE_PAIR)
def _cmd_dist(a) -> int:
    psi1, psi2, pair = _additive_pieces(a)
    table = _scan_table(a, a.n, (psi1, psi2), a.domain)
    dist = empirical_distribution(psi1, psi2, pair, a.n, a.domain, table)
    rows = [{"value": repr(v), "multiplicity": c} for v, c in dist.dump_rows()]
    _write_artifacts(a.out, rows,
                     f"{len(rows)} distinct values over {dist.domain_size} "
                     f"{a.domain} polynomials")
    return 0


@_command("charfn", lambda a: f"charfn_p{a.p}_n{a.n}", **_ADDITIVE_PAIR,
          t_grid=(_parse_t_grid, "-3:3:0.5"))
def _cmd_charfn(a) -> int:
    psi1, psi2, pair = _additive_pieces(a)
    # the limit's main terms factor h2 - h1
    table = _scan_table(a, a.n, (psi1, psi2), a.domain, pair)
    comp = charfn_comparison(psi1, psi2, pair, a.n, a.domain, a.t_grid, table)
    rows = []
    for t, e, l, err in zip(comp.t_values, comp.phi_empirical,
                            comp.phi_limit, comp.per_t_error):
        rows.append({"t": repr(t),
                     "phi_n_re": repr(e.real), "phi_n_im": repr(e.imag),
                     "phi_re": repr(complex(l.value).real),
                     "phi_im": repr(complex(l.value).imag),
                     "tail_bound": repr(l.tail_bound),
                     "abs_error": repr(err)})
    worst = max(comp.per_t_error)
    _write_artifacts(a.out, rows, f"max_t |phi_n - phi| = {worst:.4g} at n={a.n}")
    return 0


_TK_RULES = {
    "ones": lambda d, m: 1.0,
    "first_power": lambda d, m: 1.0 if m == 1 else 0.0,
}


@_command("tk", lambda a: f"tk_p{a.p}", n=(_degree, 8),
          n_range=(_parse_range, None), domain=(_domain, "monic"),
          psi=(_choice(*_TK_RULES), "ones"), h=(str, "0"))
def _cmd_tk(a) -> int:
    field = FieldSpec(a.p)
    h = parse_poly(a.h, field)
    psi = AdditiveSpec(a.psi, field, _TK_RULES[a.psi], True, None, None)
    ns = [a.n] if a.n_range is None else a.n_range
    table = _scan_table(a, ns[-1], (psi,), a.domain)
    rows = []
    for n in ns:
        rep = tk_ratio(psi, h, n, a.domain, table)
        rows.append({"q": a.p, "domain": a.domain, "n": n, "psi": a.psi,
                     "h": format_poly(h), "lhs": repr(rep.lhs),
                     "rhs": repr(rep.rhs), "ratio": repr(rep.ratio)})
    _write_artifacts(a.out, rows, f"ratio at n={ns[-1]}: {rows[-1]['ratio']}")
    return 0


@_command("diagnostics", lambda a: f"diagnostics_p{a.p}_n{a.n}",
          n=(_degree, 8), h=(str, "1"), t=(_finite_nonnegative, 1.0))
def _cmd_diagnostics(a) -> int:
    h = parse_poly(a.h, FieldSpec(a.p))
    check_enumeration(a.p, a.n, a.budget)
    table = get_table(a.p, a.n, a.cache_dir, a.budget)
    diag = sieve_diagnostics(a.n, h, a.t, table)
    rows = [{"q": a.p, "n": a.n, "h": format_poly(h), "t": repr(a.t),
             "theta": diag.theta, "theta_ratio": repr(float(diag.theta_ratio)),
             "bv_sum": repr(float(diag.bv_sum)),
             "h_sequence": ";".join(repr(float(x)) for x in diag.h_sequence),
             "divprod_max": repr(float(diag.divprod_max))}]
    _write_artifacts(a.out, rows,
                     f"theta/|P_n|^2 = {float(diag.theta_ratio):.4g}, "
                     f"divisor product max = {float(diag.divprod_max):.4g}")
    return 0


# ---------------------------------------------------------------------------

def _read_flags(command: str, keys, argv: list[str]) -> dict[str, str]:
    """argv's value of each key given as its flag, read as argparse read
    one single-valued flag per key and --config (README.md's CLI section
    lists the spellings).  A refusal is a ValueError naming the flag;
    help prints the usage and exits 0 where it is read."""
    flags = {"-h": None, "--help": None, "--config": "config"}
    flags.update(("--" + key.replace("_", "-"), key) for key in keys)

    def parse(tok):  # (flag, =value|None), (None, None) unknown, None a value
        head, eq, value = tok.partition("=")
        if tok in flags:
            return tok, None
        if eq and head in flags:
            return head, value
        if tok[:2] == "-h":  # -hVALUE, of which -hh... is help
            return "-h", tok[2:]
        if tok[:2] == "--":
            hits = [f for f in flags if f.startswith(head)]
            if len(hits) > 1:
                raise ValueError(f"{tok}: ambiguous: {', '.join(hits)}")
            if hits:
                return hits[0], value if eq else None
        if tok[:1] != "-" or tok == "-" or " " in tok or \
                re.match(r"-\d+$|-\d*\.\d+$", tok):  # a negative number
            return None
        return None, None

    cut = argv.index("--") if "--" in argv else len(argv)
    marks = [parse(tok) for tok in argv[:cut]]
    given, extras, i = {}, [], 0
    while i < cut:
        flag, value = marks[i] or (None, None)
        i += 1
        if flag is None:
            extras.append(argv[i - 1])
        elif flags[flag] is None:  # help
            if value is None or flag == "-h" and set(value) == {"h"}:
                print(f"usage: fqlab {command} [-h] " + " ".join(
                    f"[{f} {k.upper()}]" for f, k in flags.items() if k))
                sys.exit(0)
            raise ValueError(f"{flag}: takes no value, got {value!r}")
        elif value is not None:
            given[flags[flag]] = value
        elif i < cut and marks[i] is None:
            given[flags[flag]], i = argv[i], i + 1
        else:
            raise ValueError(f"{flag}: expected one argument")
    if extras := extras + argv[cut:]:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return given


def _resolve(argv: list[str]) -> tuple[Callable, SimpleNamespace]:
    """The handler that argv[0] names in _COMMANDS and its values: flag,
    else config entry, else default, each converted by its table."""
    command = argv[0] if argv else None
    usage = f"usage: fqlab [-h] {{{','.join(_COMMANDS)}}} ..."
    if command in ("-h", "--help"):
        print(usage)
        sys.exit(0)
    if command not in _COMMANDS:
        print(usage, file=sys.stderr)
        what = "no command" if command is None else f"unknown command {command!r}"
        raise ValueError(f"fqlab: {what}; choose from {', '.join(_COMMANDS)}")
    handler, keys = _COMMANDS[command]
    given = _read_flags(command, keys, argv[1:])
    config = given.pop("config", None)
    cfg = ExperimentConfig.load(config) if config else ExperimentConfig()
    a = SimpleNamespace()
    for key, (convert, default) in keys.items():
        flag = "--" + key.replace("_", "-")
        value = cfg.get(key, given.get(key), default)
        if value is _REQUIRED:
            raise ValueError(f"{command} needs {flag} or {key}= in the config")
        if callable(value):
            value = value(a)
        try:
            setattr(a, key, None if value is None else convert(value))
        except (ValueError, OSError) as exc:
            raise ValueError(f"{flag}: {exc}") from exc
    return handler, a


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        handler, a = _resolve(argv)
        return handler(a)
    except MemoryBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # a closed pipe, a full disk: no file the user named
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
