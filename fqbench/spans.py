"""Span recorder for the traced run.

The recorder wraps the public names that fqlab's callers bind (for
example ``fqlab.cli.correlate`` or ``fqlab.stats.residue_histogram``)
in this process only, and removes the wrappers again after each traced
operation, so untraced operations run the unmodified program.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1; spans stay in memory until the run writes them.

Every span time reported is a self time: the span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter, defaultdict

import workloads as wl

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "cli.main": ("cli.self_s", "cli.commands"),
    "sieve.build": ("sieve.build_s", None),
    "sieve.save": ("sieve.save_s", None),
    "sieve.load": ("sieve.load_s", None),
    "sieve.factorize": ("sieve.factorize_s", "sieve.factorize_calls"),
    "sieve.residue_histogram": ("sieve.residue_histogram_s",
                                "sieve.residue_histogram_calls"),
    "correlate.correlate": ("correlate.self_s", "correlate.calls"),
    "mainterm.main_term": ("mainterm.main_term_s", "mainterm.main_term_calls"),
    "stats.distribution": ("stats.distribution_s", None),
    "stats.charfn": ("stats.charfn_self_s", None),
    "stats.limit_charfn": ("stats.limit_charfn_s", None),
    "stats.tk": ("stats.tk_s", None),
    "stats.diagnostics": ("stats.diagnostics_self_s", None),
    "stats.squarefree_weight": ("stats.squarefree_weight_s", None),
    "stats.brun_titchmarsh": ("stats.brun_titchmarsh_self_s", None),
    "arith.phi": ("arith.phi_s", "arith.phi_calls"),
    "fieldpoly.monic_from_index": ("fieldpoly.monic_from_index_s",
                                   "fieldpoly.monic_from_index_calls"),
}
# spans whose metrics sum the traced set-up as well as the traced pass
SETUP_SPANS = ("sieve.build", "sieve.save")


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> list[float]:
    """Per span, its duration minus the union of its children's
    intervals (clipped to the span)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = _union_length((max(a, start), min(b, end))
                                for a, b in children[i] if b > start and a < end)
        out.append((end - start) - covered)
    return out


def outermost_time(spans, prefixes) -> float:
    """Time covered by spans whose name starts with one of ``prefixes``,
    counting nested ones once."""
    return _union_length((s, e) for name, s, e, _ in spans
                         if name.startswith(prefixes))


class Tracer:
    """Records spans and counters while installed.  ``fq`` holds the
    fqlab modules (``cli``, ``correlate``, ``stats``, ``sieve``)."""

    def __init__(self, fq):
        self.fq = fq
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self.archive: list[tuple[str, list]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._plan = self._patch_plan()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        sig = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            self.calls[name] += 1
            if after is not None:
                after(result, sig.bind(*args, **kwargs).arguments)
            return result
        return wrapper

    def _count_table_fit(self, fn):
        def wrapper(p, need_deg, *args, **kwargs):
            builds = self.calls["sieve.build"]
            table = fn(p, need_deg, *args, **kwargs)
            miss = self.calls["sieve.build"] > builds
            self.counters["sieve.cache_misses" if miss else "sieve.cache_hits"] += 1
            self.counters["cells_needed"] += _cells(p, max(1, need_deg))
            self.counters["cells_loaded"] += _cells(p, table.max_deg)
            return table
        return wrapper

    def _patch_plan(self):
        cli, corr, stats = self.fq.cli, self.fq.correlate, self.fq.stats
        table_cls = self.fq.sieve.IrreducibleTable
        c = self.counters

        def built(_, a):
            c["sieve.build_cells"] += _cells(a["field"].p, a["max_deg"])

        def saved(_, a):
            c["sieve.save_bytes"] += os.path.getsize(a["path"])

        def correlated(rep, _):
            c["correlate.evals"] += rep.domain_size * len(rep.function_names)

        def distributed(dist, _):
            c["stats.evals"] += 2 * dist.domain_size

        def tk_done(_, a):
            c["stats.evals"] += wl.domain_size(a["table"].field.p, a["n"], a["domain"])

        def per_degree(_, a):
            c["stats.evals"] += a["table"].field.p ** a["n"]

        def bt_done(_, a):
            c["stats.evals"] += wl.brun_titchmarsh_evals(a["table"].field.p, a["n_max"])

        plan = [  # (owner, attribute, span name or None, after-hook)
            (cli, "main", "cli.main", None),
            (cli, "get_table", None, None),
            (cli, "build_table", "sieve.build", built),
            (cli, "factorize", "sieve.factorize", None),
            (cli, "correlate", "correlate.correlate", correlated),
            (cli, "main_term", "mainterm.main_term", None),
            (corr, "main_term", "mainterm.main_term", None),
            (stats, "main_term", "mainterm.main_term", None),
            (cli, "empirical_distribution", "stats.distribution", distributed),
            (stats, "empirical_distribution", "stats.distribution", distributed),
            (cli, "charfn_comparison", "stats.charfn", None),
            (stats, "limit_charfn", "stats.limit_charfn", None),
            (cli, "tk_ratio", "stats.tk", tk_done),
            (cli, "sieve_diagnostics", "stats.diagnostics", per_degree),
            (stats, "squarefree_weight_sum", "stats.squarefree_weight", per_degree),
            (stats, "brun_titchmarsh_violations", "stats.brun_titchmarsh", bt_done),
            (stats, "residue_histogram", "sieve.residue_histogram", None),
            (stats, "phi", "arith.phi", None),
            (stats, "monic_from_index", "fieldpoly.monic_from_index", None),
            (table_cls, "save", "sieve.save", saved),
        ]
        out = []
        for owner, attr, name, after in plan:
            fn = getattr(owner, attr)
            out.append((owner, attr, self._count_table_fit(fn) if name is None
                        else self._span(name, fn, after)))
        load = table_cls.__dict__["load"].__func__
        out.append((table_cls, "load", classmethod(self._span("sieve.load", load))))
        return out

    def install(self) -> None:
        for owner, attr, wrapper in self._plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- collection ---------------------------------------------------------

    def take(self, phase: str):
        """Spans and counters recorded since the last take; archived for
        writing at the end of the run."""
        spans, counters = self.spans, self.counters.copy()
        self.archive.append((phase, spans))
        self.spans = []
        self.counters.clear()
        self.calls.clear()
        return spans, counters


def _cells(p: int, max_deg: int) -> int:
    return sum(p**d for d in range(1, max_deg + 1))


def layer_metrics(setup, run, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round: ``setup`` and ``run`` are
    (spans, counters) of the cold set-up and of one pass, ``wall`` the
    traced pass's wall time."""
    out: dict[str, float] = {}
    for time_m, calls_m in SPAN_METRICS.values():
        out[time_m] = 0.0
        if calls_m:
            out[calls_m] = 0
    for phase, (spans, counters) in (("setup", setup), ("run", run)):
        for (name, *_), st in zip(spans, self_times(spans)):
            time_m, calls_m = SPAN_METRICS[name]
            if phase == "run" or name in SETUP_SPANS:
                out[time_m] += st
                if calls_m:
                    out[calls_m] += 1
    s_counters, counters = setup[1], run[1]
    for k in ("sieve.build_cells", "sieve.save_bytes"):
        out[k] = s_counters[k] + counters[k]
    for k in ("sieve.cache_hits", "sieve.cache_misses", "correlate.evals",
              "stats.evals", "cli.exit_nonzero", "cli.artifact_bytes"):
        out[k] = counters[k]
    loaded = counters["cells_loaded"]
    out["sieve.cache_fit_ratio"] = counters["cells_needed"] / loaded if loaded else 0.0
    evals = out["correlate.evals"]
    out["correlate.ns_per_eval"] = 1e9 * out["correlate.self_s"] / evals if evals else 0.0
    stats_self = sum(v for k, v in out.items()
                     if k.startswith("stats.") and k.endswith("_s"))
    evals = out["stats.evals"]
    out["stats.ns_per_eval"] = 1e9 * stats_self / evals if evals else 0.0
    spans = run[0]
    out["trace.wall_s"] = wall
    out["trace.correlate_frac"] = outermost_time(spans, ("correlate.",)) / wall
    out["trace.stats_frac"] = outermost_time(spans, ("stats.",)) / wall
    return out
