"""Batch front end: canned experiments, table caching, CSV/JSON artifacts.

Every command reads a flat key=value config file (--config) whose keys
mirror the command-line flags; flags win on conflict.  Each run writes a
CSV artifact plus a JSON mirror with identical field names and prints a
short human summary.  Exit codes: 0 success, 1 invalid input, 2 memory
budget exceeded.

Artifacts are deterministic for a fixed config and cache; the seconds
column is wall-clock timing, so reproducible byte-identical output needs
omit_timing=1 (then the column is pinned to 0).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .arith import (
    SpecError,
    builtin,
    parse_additive_spec,
    parse_function_spec,
)
from .correlate import CorrelationSpec, correlate
from .fieldpoly import FieldSpec, PolyError, format_poly, parse_poly
from .mainterm import MainTermError, ShiftPair, default_gamma, main_term
from .sieve import (
    DEFAULT_CELL_BUDGET,
    IrreducibleTable,
    MemoryBudgetError,
    SieveError,
    build_table,
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
COMMANDS = ("sieve", "factor", "correlate", "mainterm", "chowla", "dist",
            "charfn", "tk", "diagnostics")

_VALIDATION_ERRORS = (PolyError, SpecError, SieveError, MainTermError,
                      StatsError, ValueError)


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
        if key in self.entries:
            return self.entries[key]
        return default


def _parse_range(text: str) -> list[int]:
    """'a:b' or 'a:b:step', endpoints inclusive."""
    parts = text.split(":")
    if len(parts) == 2:
        a, b, s = int(parts[0]), int(parts[1]), 1
    elif len(parts) == 3:
        a, b, s = int(parts[0]), int(parts[1]), int(parts[2])
    else:
        raise ValueError(f"bad range {text!r}; expected a:b or a:b:step")
    return list(range(a, b + 1, s))


def _parse_t_grid(text: str) -> list[float]:
    if ":" in text:
        a, b, s = text.split(":")
        a, b, s = float(a), float(b), float(s)
        out = []
        t = a
        while t <= b + 1e-9:
            out.append(round(t, 12))
            t += s
        return out
    return [float(x) for x in text.split(",")]


def _cache_dir(cfg: ExperimentConfig, flag) -> Path:
    d = cfg.get("cache_dir", flag, os.environ.get(CACHE_ENV, ".fqlab_cache"))
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def get_table(p: int, need_deg: int, cache: Path,
              budget: int = DEFAULT_CELL_BUDGET) -> IrreducibleTable:
    """Load the smallest adequate cached table, else build and cache.  A
    cached file that fails to load, or whose header disagrees with its
    name, is deleted and replaced by a fresh build."""
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
        try:
            table = IrreducibleTable.load(path)
            if (table.field.p, table.max_deg) != (p, d):
                raise SieveError(f"{path}: header says p={table.field.p}, "
                                 f"max_deg={table.max_deg}")
            return table
        except SieveError as exc:
            print(f"rebuilding bad cache file: {exc}", file=sys.stderr)
            path.unlink(missing_ok=True)
    table = build_table(FieldSpec(p), need_deg, budget)
    table.save(cache / f"p{p}_d{need_deg}.fqi")
    return table


def _write_artifacts(out: str, rows: list[dict], summary: str) -> None:
    keys = list(rows[0].keys()) if rows else []
    with open(out + ".csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow(r)
    with open(out + ".json", "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    print(summary)
    print(f"wrote {out}.csv and {out}.json")


def _report_row(rep, omit_timing: bool, extra: dict | None = None) -> dict:
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

def _cmd_sieve(args, cfg) -> int:
    p = int(cfg.get("p", args.p, 2))
    max_deg = int(cfg.get("max_deg", args.max_deg, 12))
    budget = int(cfg.get("budget", args.budget, DEFAULT_CELL_BUDGET))
    cache = _cache_dir(cfg, args.cache_dir)
    t0 = time.perf_counter()
    table = build_table(FieldSpec(p), max_deg, budget)
    path = cache / f"p{p}_d{max_deg}.fqi"
    table.save(path)
    rows = []
    for n in range(1, max_deg + 1):
        rep = table.necklace_check(n)
        rows.append({"q": p, "n": n, "count": table.count(n),
                     "necklace_lhs": rep.weighted_sum,
                     "necklace_rhs": rep.expected, "ok": rep.ok})
    out = cfg.get("out", args.out, f"sieve_p{p}")
    _write_artifacts(out, rows,
                     f"sieved p={p} to degree {max_deg} in "
                     f"{time.perf_counter()-t0:.2f}s; cache {path}")
    return 0


def _cmd_factor(args, cfg) -> int:
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    f = parse_poly(cfg.get("poly", args.poly), field)
    if f.is_zero or not f.is_monic:
        raise SieveError("factor expects a monic nonzero polynomial")
    need = max(1, f.degree // 2)
    table = get_table(p, need, _cache_dir(cfg, args.cache_dir))
    fact = factorize(f, table)
    rows = [{"q": p, "poly": format_poly(f), "prime": format_poly(P),
             "multiplicity": m} for P, m in fact.factors]
    if not rows:
        rows = [{"q": p, "poly": format_poly(f), "prime": "", "multiplicity": 0}]
    text = " * ".join(f"({format_poly(P)})^{m}" if m > 1 else f"({format_poly(P)})"
                      for P, m in fact.factors) or "1"
    out = cfg.get("out", args.out, "factor")
    _write_artifacts(out, rows, f"{format_poly(f)} = {text}")
    return 0


def _experiment_pieces(args, cfg):
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    domain = cfg.get("domain", getattr(args, "domain", None), "monic")
    fns = cfg.get("functions", getattr(args, "functions", None))
    shs = cfg.get("shifts", getattr(args, "shifts", None))
    if fns and shs:
        names, hs = fns.split(","), shs.split(",")
    else:
        names = [cfg.get("f", getattr(args, "f", None), "one"),
                 cfg.get("g", getattr(args, "g", None), "one")]
        hs = [cfg.get("h1", getattr(args, "h1", None), "0"),
              cfg.get("h2", getattr(args, "h2", None), "0")]
    # one spec object per name, so the engine sieves each function once
    specs = {s: parse_function_spec(s, field) for s in dict.fromkeys(names)}
    shifts = [parse_poly(s, field) for s in hs]
    return field, domain, [specs[s] for s in names], shifts


def _cmd_correlate(args, cfg) -> int:
    field, domain, functions, shifts = _experiment_pieces(args, cfg)
    p = field.p
    gamma = cfg.get("gamma", args.gamma)
    gamma = int(gamma) if gamma is not None else None
    depth = int(cfg.get("depth", args.depth, 30))
    partitions = int(cfg.get("partitions", args.partitions, 1))
    omit = bool(int(cfg.get("omit_timing", args.omit_timing, 0)))
    nr = cfg.get("n_range", args.n_range)
    ns = _parse_range(nr) if nr else [int(cfg.get("n", args.n, 8))]
    _check_enumeration(args, cfg, p, max(ns), domain)
    need = max(_needed_degree(n, functions, shifts, gamma, domain, p)
               for n in ns)
    table = get_table(p, need, _cache_dir(cfg, args.cache_dir),
                      int(cfg.get("budget", args.budget, DEFAULT_CELL_BUDGET)))
    rows = []
    for n in ns:
        spec = CorrelationSpec(field, n, domain, shifts, functions,
                               gamma, depth, partitions)
        rep = correlate(spec, table)
        rows.append(_report_row(rep, omit))
    out = cfg.get("out", args.out, f"correlate_p{p}")
    last = rows[-1]
    _write_artifacts(out, rows,
                     f"S over {domain}s: raw={last['raw_re']} "
                     f"normalized={last['normalized_re']} "
                     f"deviation={last['deviation']}")
    return 0


def _check_enumeration(args, cfg, p: int, n: int, domain: str = "monic") -> None:
    """Refuse to enumerate more monic polynomials than the cell budget;
    the prime domain is bounded by its degree-n table instead."""
    budget = int(cfg.get("budget", args.budget, DEFAULT_CELL_BUDGET))
    if domain == "monic" and p**n > budget:
        raise MemoryBudgetError(
            f"enumerating the {p}^{n} monic polynomials of degree {n} "
            f"exceeds the budget {budget}")


def _needed_degree(n, functions, shifts, gamma, domain, p) -> int:
    bounds = [f.trivial_beyond_degree for f in functions]
    limit = n // 2 if any(b is None for b in bounds) else min(max(bounds), n // 2)
    need = max(limit, 1, n if domain == "prime" else 0)
    if len(functions) == 2:
        mode = "monic" if domain == "monic" else "prime"
        pair = ShiftPair(shifts[0], shifts[1])
        g = gamma if gamma is not None else default_gamma(p, mode, pair)
        need = max(need, g)
        if not pair.delta.is_zero:
            need = max(need, pair.delta.degree // 2)
    return need


def _cmd_mainterm(args, cfg) -> int:
    field, domain, functions, shifts = _experiment_pieces(args, cfg)
    mode = "monic" if domain == "monic" else "prime"
    n_text = str(cfg.get("n", args.n, "inf"))
    n = None if n_text in ("inf", "none") else int(n_text)
    gamma = cfg.get("gamma", args.gamma)
    gamma = int(gamma) if gamma is not None else None
    depth = int(cfg.get("depth", args.depth, 30))
    need = int(cfg.get("max_deg", args.max_deg, 12))
    table = get_table(field.p, need, _cache_dir(cfg, args.cache_dir))
    pair = ShiftPair(shifts[0], shifts[1])
    tv = main_term(n, gamma, pair, functions[0], functions[1], mode, table,
                   depth=depth)
    rows = [{"q": field.p, "n": n_text, "mode": mode,
             "functions": ";".join(f.name for f in functions),
             "h_list": ";".join(format_poly(h) for h in shifts),
             "main_re": repr(complex(tv.value).real),
             "main_im": repr(complex(tv.value).imag),
             "tail_bound": repr(tv.tail_bound)}]
    out = cfg.get("out", args.out, "mainterm")
    _write_artifacts(out, rows, f"main term = {tv.value} (tail {tv.tail_bound:.2e})")
    return 0


def _cmd_chowla(args, cfg) -> int:
    """Truncated-Liouville autocorrelation scan with its theoretical cap."""
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    y = int(cfg.get("y", args.y, 2))
    h = parse_poly(cfg.get("h", args.h, "x"), field)
    big_c = float(cfg.get("C", args.C, 1.0))
    ns = _parse_range(cfg.get("n_range", args.n_range, "8:16"))
    partitions = int(cfg.get("partitions", args.partitions, 1))
    omit = bool(int(cfg.get("omit_timing", args.omit_timing, 0)))
    _check_enumeration(args, cfg, p, max(ns))
    lam = builtin("liouville_truncated", field, y=y)
    zero = parse_poly("0", field)
    need = max(y, 1, h.degree if not h.is_zero else 1)
    table = get_table(p, need, _cache_dir(cfg, args.cache_dir))
    cap = big_c * math.log(y) ** 4 / y**4 if y > 1 else math.inf
    rows = []
    for n in ns:
        spec = CorrelationSpec(field, n, "monic", (zero, h), (lam, lam),
                               gamma=y, partitions=partitions)
        rep = correlate(spec, table)
        rows.append(_report_row(rep, omit, {"y": y, "bound_C_log4y_y4": repr(cap)}))
    out = cfg.get("out", args.out, f"chowla_p{p}_y{y}")
    _write_artifacts(out, rows,
                     f"truncated autocorrelation scan y={y}, n={ns[0]}..{ns[-1]}; "
                     f"|normalized| cap {cap:.4g}")
    return 0


def _cmd_dist(args, cfg) -> int:
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    n = int(cfg.get("n", args.n, 8))
    domain = cfg.get("domain", args.domain, "monic")
    psi1 = parse_additive_spec(cfg.get("psi1", args.psi1, "log_phi_ratio"), field)
    psi2 = parse_additive_spec(cfg.get("psi2", args.psi2, "log_phi_ratio"), field)
    h1 = parse_poly(cfg.get("h1", args.h1, "0"), field)
    h2 = parse_poly(cfg.get("h2", args.h2, "1"), field)
    _check_enumeration(args, cfg, p, n, domain)
    need = max(n // 2, 1, n if domain == "prime" else 0)
    table = get_table(p, need, _cache_dir(cfg, args.cache_dir))
    dist = empirical_distribution(psi1, psi2, ShiftPair(h1, h2), n, domain, table)
    rows = [{"value": repr(v), "multiplicity": c} for v, c in dist.dump_rows()]
    out = cfg.get("out", args.out, f"dist_p{p}_n{n}")
    _write_artifacts(out, rows,
                     f"{len(rows)} distinct values over {dist.domain_size} "
                     f"{domain} polynomials")
    return 0


def _cmd_charfn(args, cfg) -> int:
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    n = int(cfg.get("n", args.n, 8))
    domain = cfg.get("domain", args.domain, "monic")
    psi1 = parse_additive_spec(cfg.get("psi1", args.psi1, "log_phi_ratio"), field)
    psi2 = parse_additive_spec(cfg.get("psi2", args.psi2, "log_phi_ratio"), field)
    h1 = parse_poly(cfg.get("h1", args.h1, "0"), field)
    h2 = parse_poly(cfg.get("h2", args.h2, "1"), field)
    grid = _parse_t_grid(cfg.get("t_grid", args.t_grid, "-3:3:0.5"))
    _check_enumeration(args, cfg, p, n, domain)
    need = max(n // 2, 5, n if domain == "prime" else 0)
    table = get_table(p, need, _cache_dir(cfg, args.cache_dir))
    comp = charfn_comparison(psi1, psi2, ShiftPair(h1, h2), n, domain, grid, table)
    rows = []
    for t, e, l, err in zip(comp.t_values, comp.phi_empirical,
                            comp.phi_limit, comp.per_t_error):
        rows.append({"t": repr(t),
                     "phi_n_re": repr(e.real), "phi_n_im": repr(e.imag),
                     "phi_re": repr(complex(l.value).real),
                     "phi_im": repr(complex(l.value).imag),
                     "tail_bound": repr(l.tail_bound),
                     "abs_error": repr(err)})
    out = cfg.get("out", args.out, f"charfn_p{p}_n{n}")
    worst = max(comp.per_t_error)
    _write_artifacts(out, rows, f"max_t |phi_n - phi| = {worst:.4g} at n={n}")
    return 0


_TK_RULES = {
    "ones": lambda d, m: 1.0,
    "first_power": lambda d, m: 1.0 if m == 1 else 0.0,
}


def _cmd_tk(args, cfg) -> int:
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    domain = cfg.get("domain", args.domain, "monic")
    name = cfg.get("psi", args.psi, "ones")
    if name not in _TK_RULES:
        raise StatsError(f"unknown tk rule {name!r}; choose from {sorted(_TK_RULES)}")
    h = parse_poly(cfg.get("h", args.h, "0"), field)
    nr = cfg.get("n_range", args.n_range)
    ns = _parse_range(nr) if nr else [int(cfg.get("n", args.n, 8))]
    need = max(max(ns), 1)
    table = get_table(p, need, _cache_dir(cfg, args.cache_dir))
    rows = []
    for n in ns:
        rep = tk_ratio(_TK_RULES[name], h, n, domain, table)
        rows.append({"q": p, "domain": domain, "n": n, "psi": name,
                     "h": format_poly(h), "lhs": repr(rep.lhs),
                     "rhs": repr(rep.rhs), "ratio": repr(rep.ratio)})
    out = cfg.get("out", args.out, f"tk_p{p}")
    _write_artifacts(out, rows, f"ratio at n={ns[-1]}: {rows[-1]['ratio']}")
    return 0


def _cmd_diagnostics(args, cfg) -> int:
    p = int(cfg.get("p", args.p, 2))
    field = FieldSpec(p)
    n = int(cfg.get("n", args.n, 8))
    h = parse_poly(cfg.get("h", args.h, "1"), field)
    t = float(cfg.get("t", args.t, 1.0))
    table = get_table(p, n, _cache_dir(cfg, args.cache_dir))
    diag = sieve_diagnostics(n, h, t, table)
    rows = [{"q": p, "n": n, "h": format_poly(h), "t": repr(t),
             "theta": diag.theta, "theta_ratio": repr(float(diag.theta_ratio)),
             "bv_sum": repr(float(diag.bv_sum)),
             "h_sequence": ";".join(repr(float(x)) for x in diag.h_sequence),
             "divprod_max": repr(float(diag.divprod_max))}]
    out = cfg.get("out", args.out, f"diagnostics_p{p}_n{n}")
    _write_artifacts(out, rows,
                     f"theta/|P_n|^2 = {float(diag.theta_ratio):.4g}, "
                     f"divisor product max = {float(diag.divprod_max):.4g}")
    return 0


# ---------------------------------------------------------------------------

def dispatch(command: str, args, cfg: ExperimentConfig) -> int:
    handlers = {
        "sieve": _cmd_sieve, "factor": _cmd_factor, "correlate": _cmd_correlate,
        "mainterm": _cmd_mainterm, "chowla": _cmd_chowla, "dist": _cmd_dist,
        "charfn": _cmd_charfn, "tk": _cmd_tk, "diagnostics": _cmd_diagnostics,
    }
    if command not in handlers:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 1
    try:
        return handlers[command](args, cfg)
    except MemoryBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fqlab",
        description="desk-scale experiments with correlations of "
                    "multiplicative functions over F_p[x]")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--p", type=int)
    common.add_argument("--cache-dir", dest="cache_dir")
    common.add_argument("--out")
    common.add_argument("--budget", type=int)

    sp = sub.add_parser("sieve", parents=[common])
    sp.add_argument("--max-deg", dest="max_deg", type=int)

    sp = sub.add_parser("factor", parents=[common])
    sp.add_argument("--poly", required=True)

    for name in ("correlate",):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--n", type=int)
        sp.add_argument("--n-range", dest="n_range")
        sp.add_argument("--domain", choices=("monic", "prime"))
        sp.add_argument("--f")
        sp.add_argument("--g")
        sp.add_argument("--h1")
        sp.add_argument("--h2")
        sp.add_argument("--functions", help="comma list for k-point sums")
        sp.add_argument("--shifts", help="comma list for k-point sums")
        sp.add_argument("--gamma", type=int)
        sp.add_argument("--depth", type=int)
        sp.add_argument("--partitions", type=int)
        sp.add_argument("--omit-timing", dest="omit_timing", type=int)

    sp = sub.add_parser("mainterm", parents=[common])
    sp.add_argument("--n", help="degree or 'inf'")
    sp.add_argument("--domain", choices=("monic", "prime"))
    sp.add_argument("--f")
    sp.add_argument("--g")
    sp.add_argument("--h1")
    sp.add_argument("--h2")
    sp.add_argument("--gamma", type=int)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--max-deg", dest="max_deg", type=int)

    sp = sub.add_parser("chowla", parents=[common])
    sp.add_argument("--y", type=int)
    sp.add_argument("--h")
    sp.add_argument("--n-range", dest="n_range")
    sp.add_argument("--C", type=float)
    sp.add_argument("--partitions", type=int)
    sp.add_argument("--omit-timing", dest="omit_timing", type=int)

    for name in ("dist", "charfn"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--n", type=int)
        sp.add_argument("--domain", choices=("monic", "prime"))
        sp.add_argument("--psi1")
        sp.add_argument("--psi2")
        sp.add_argument("--h1")
        sp.add_argument("--h2")
        if name == "charfn":
            sp.add_argument("--t-grid", dest="t_grid")

    sp = sub.add_parser("tk", parents=[common])
    sp.add_argument("--n", type=int)
    sp.add_argument("--n-range", dest="n_range")
    sp.add_argument("--domain", choices=("monic", "prime"))
    sp.add_argument("--psi")
    sp.add_argument("--h")

    sp = sub.add_parser("diagnostics", parents=[common])
    sp.add_argument("--n", type=int)
    sp.add_argument("--h")
    sp.add_argument("--t", type=float)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = ExperimentConfig()
    if args.config:
        try:
            cfg = ExperimentConfig.load(args.config)
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 1
    return dispatch(args.command, args, cfg)


if __name__ == "__main__":
    sys.exit(main())
