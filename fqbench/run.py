#!/usr/bin/env python3
"""fqlab benchmark: run one workload and print its metrics.

    python3 fqbench/run.py --workload scan-p2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's own ``src/``; the run stops with a non-zero exit code when
that tree is missing.  One process, one client, a closed loop: each
operation starts after the previous one returned, and nothing runs in
other threads or processes.

A run first times the workload's cold set-up (its ``sieve`` commands
into an empty cache directory) several times, then repeats passes over
the workload's operations for ``--seconds``.  Every operation's output
is checked against ``reference.json`` or an oracle (``checks.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the
set-ups or passes.  The times are scaled to a reference host speed: the
speed of a shared host drifts by tens of percent over seconds to
minutes, so a fixed pure-Python loop that never touches fqlab (the
probe) is timed just before every operation, and the operation's wall
and CPU times are multiplied by ``PROBE_REF_S`` over the probe's time.
A change to fqlab moves the operation but not the probe; a change in
host speed moves both.  The unscaled times are kept in the result file.

``--trace 1`` alternates traced rounds (cold set-up plus one pass, with
span wrappers installed) with untraced passes and reports the per-layer
metrics, each the median over the traced rounds; these are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(every sample summary, per-command latencies, the environment, failures
and, with tracing, the spans) is written under ``.fqbench_runs/``.
"""

from __future__ import annotations

import os

# one thread: numpy's thread pools must not start before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 5        # cold set-ups per run, at least
SETUP_SECONDS = 1.0   # and more, up to MAX_SETUPS, until this much time is spent
MAX_SETUPS = 25
SETUP_PROBES = 5      # probes before each set-up operation; their median scales it
# The probe's median time on the host the baseline was measured on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11); it only fixes the
# unit, so that scaled times read as seconds on that host.
PROBE_REF_S = 0.0105
PROBE_LOOPS = 50_000

# Traced-run checks that each workload stresses the layer it claims.
STRESS = {
    "scan-p2": ("correlate.self_s >= 80% of traced wall",
                lambda m: m["correlate.self_s"] / m["trace.wall_s"] >= 0.8),
    "scan-odd": ("correlate.self_s >= 80% of traced wall",
                 lambda m: m["correlate.self_s"] / m["trace.wall_s"] >= 0.8),
    "stats-p2": ("stats spans >= 80% of traced wall",
                 lambda m: m["trace.stats_frac"] >= 0.8),
    "cli-small": ("correlate + stats spans < 20% of traced wall",
                  lambda m: m["trace.correlate_frac"] + m["trace.stats_frac"] < 0.2),
}


def import_fqlab() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "fqlab" / "__init__.py").is_file():
        raise SystemExit(f"fqbench: no fqlab sources at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import numpy
    import fqlab
    if Path(fqlab.__file__).resolve().parent != (src / "fqlab").resolve():
        raise SystemExit(f"fqbench: imported fqlab from {fqlab.__file__}, not {src}")
    # submodules by import: the package re-exports a function named correlate
    mods = {m: importlib.import_module(f"fqlab.{m}")
            for m in ("cli", "correlate", "sieve", "stats")}
    return SimpleNamespace(fqlab=fqlab, numpy=numpy, **mods)


def summary(values) -> dict:
    """Median plus the highest of a few percentiles (nearest rank) that
    has at least ten samples beyond it, with the sample count."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    for q in (99.9, 99, 95, 90, 75):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            tail = {"percentile": q, "value": xs[rank - 1]}
            break
    return {"median": statistics.median(xs), "tail": tail, "n": n,
            "samples": list(values)}


def probe() -> float:
    """Wall time of fixed pure-Python work that does not touch fqlab:
    integer arithmetic, then exact fractions and a dict count.  Tracking
    a shared host's speed needs both; integers alone track the stats
    layer's Fraction-heavy code less well."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    q, counts = Fraction(0), {}
    for i in range(1, PROBE_LOOPS // 33):
        q += Fraction(1, i % 97 + 1)
        counts[i % 31] = counts.get(i % 31, 0) + 1
    return time.perf_counter() - t0


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(fq, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": fq.numpy.__version__,
            "fqlab": fq.fqlab.__version__, "git_revision": git_revision(),
            "platform": platform.platform(), "seed": seed}


class Bench:
    """Runs one workload's set-ups and passes and checks every output."""

    def __init__(self, fq, workload: workloads.Workload, work: Path):
        self.fq = fq
        self.wl = workload
        self.work = work
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failures: list[dict] = []
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []
        self._prime_sets: dict[int, list[set]] = {}
        self._caches = 0
        (work / "out").mkdir(parents=True)

    # -- one operation ------------------------------------------------------

    def _call(self, op: workloads.Op, cache: Path, out: Path):
        if op.library:
            fl = workloads.flags(op.argv)
            n_max = int(fl["n_max"])
            table = self.fq.cli.get_table(int(fl["p"]), n_max, cache)
            return 0, self.fq.stats.brun_titchmarsh_violations(n_max, table)
        argv = [*op.argv, "--cache-dir", str(cache), "--out", str(out)]
        return self.fq.cli.main(argv), None

    def execute(self, op, cache: Path, slot: str, traced: bool,
                probes: int = 1) -> tuple[float, float, float]:
        """Run one operation, check it, and return its (wall, cpu) seconds
        and the factor that scales them to the reference host speed: the
        median of ``probes`` probes run just before it (1 in traced runs,
        which are not probed)."""
        scale = 1.0
        if not traced:
            self.probes.append(statistics.median(probe() for _ in range(probes)))
            scale = PROBE_REF_S / self.probes[-1]
        out = self.work / "out" / slot
        artifacts = [Path(f"{out}.csv"), Path(f"{out}.json")]
        for f in artifacts:
            f.unlink(missing_ok=True)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        rc = result = error = None
        if traced:
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    rc, result = self._call(op, cache, out)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    error = traceback.format_exc()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                self.tracer.uninstall()
        self.attempted += 1
        problems = [error] if error else self.check(op, rc, result, out, cache)
        if problems:
            self.failures.append({"op": op.key, "problems": problems,
                                  "stderr": sink_err.getvalue()[-2000:]})
            print(f"FAILED {op.key}: {problems[0]}", file=sys.stderr)
        if traced:
            c = self.tracer.counters
            c["cli.exit_nonzero"] += rc not in (0, None)
            c["cli.artifact_bytes"] += sum(f.stat().st_size for f in artifacts if f.exists())
        return wall, cpu, scale

    def check(self, op, rc, result, out: Path, cache: Path) -> list[str]:
        if rc != op.expect_rc:
            return [f"exit code {rc}, expected {op.expect_rc}"]
        if op.check == "exit":
            return []
        if op.check == "brun_titchmarsh":
            return [] if result == [] else [f"violations: {result[:5]}"]
        try:
            rows = json.loads(Path(f"{out}.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"no readable artifact: {exc}"]
        fl = workloads.flags(op.argv)
        p = int(fl["p"])
        if op.check == "necklace":
            return checks.check_necklace(rows, p, int(fl["max_deg"]),
                                         workloads.irreducible_count)
        if op.check == "factor":
            return checks.check_factorization(rows, fl["poly"], p,
                                              self.prime_sets(p, cache))
        ref = self.reference.get(op.key)
        if ref is None:
            return ["no pinned reference for this operation"]
        return checks.compare_rows(rows, ref)

    def prime_sets(self, p: int, cache: Path) -> list[set]:
        """Index sets of the tabulated primes per degree, from the largest
        cached table for p."""
        if p not in self._prime_sets:
            files = sorted(cache.glob(f"p{p}_d*.fqi"),
                           key=lambda f: int(f.stem.split("_d")[1]))
            table = self.fq.sieve.IrreducibleTable.load(files[-1])
            self._prime_sets[p] = [set()] + [
                set(table.prime_indices(d).tolist())
                for d in range(1, table.max_deg + 1)]
        return self._prime_sets[p]

    # -- set-up and passes ----------------------------------------------------

    def setup(self, traced: bool = False) -> tuple[Path, float, float]:
        """Cold set-up into a new empty cache directory; returns the cache
        and the set-up's scaled and unscaled wall seconds."""
        self._caches += 1
        cache = self.work / f"cache{self._caches}"
        cache.mkdir()
        scaled = raw = 0.0
        for i, op in enumerate(self.wl.setup):
            w, _, scale = self.execute(op, cache, f"setup{i}", traced, SETUP_PROBES)
            scaled += w * scale
            raw += w
        return cache, scaled, raw

    def run_pass(self, cache: Path, traced: bool = False) -> dict[str, float]:
        """One pass over the operations: scaled and unscaled wall and CPU
        seconds."""
        t = dict.fromkeys(("wall", "cpu", "raw_wall", "raw_cpu"), 0.0)
        for i, op in enumerate(self.wl.ops):
            w, c, scale = self.execute(op, cache, f"op{i}", traced)
            t["wall"] += w * scale
            t["cpu"] += c * scale
            t["raw_wall"] += w
            t["raw_cpu"] += c
            if not traced:
                self.latency[op.command].append(w)
        return t

    def run_plain(self, seconds: float) -> tuple[dict[str, dict], dict[str, dict]]:
        """The end-to-end metrics, and the same timings unscaled."""
        setups, raw_setups = [], []
        t0 = time.perf_counter()
        cache = None
        while len(setups) < MIN_SETUPS or (
                time.perf_counter() - t0 < SETUP_SECONDS and len(setups) < MAX_SETUPS):
            if cache is not None:
                shutil.rmtree(cache)
            cache, s, raw = self.setup()
            setups.append(s)
            raw_setups.append(raw)
        evals = sum(op.evals for op in self.wl.ops)
        passes: list[dict[str, float]] = []
        t0 = time.perf_counter()
        while not passes or (time.perf_counter() - t0
                             + statistics.median(p["raw_wall"] for p in passes)
                             <= seconds):
            passes.append(self.run_pass(cache))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [p["wall"] for p in passes]
        measured = {"setup_s": summary(setups), "wall_s": summary(walls),
                    "evals_per_s": summary([evals / w for w in walls]),
                    "cpu_s": summary([p["cpu"] for p in passes]),
                    "peak_rss_mb": summary([peak_mb])}
        unscaled = {"setup_s": summary(raw_setups),
                    "wall_s": summary([p["raw_wall"] for p in passes]),
                    "cpu_s": summary([p["raw_cpu"] for p in passes]),
                    "probe_s": summary(self.probes)}
        return measured, unscaled

    def run_traced(self, seconds: float) -> dict[str, dict]:
        self.tracer = spans.Tracer(self.fq)
        rounds: list[dict] = []
        plain: list[float] = []
        t0 = time.perf_counter()
        while not rounds or (time.perf_counter() - t0) * (len(rounds) + 1) \
                / len(rounds) <= seconds:
            cache, _, _ = self.setup(traced=True)
            setup_rec = self.tracer.take("setup")
            order = (True, False) if len(rounds) % 2 == 0 else (False, True)
            for traced in order:
                wall = self.run_pass(cache, traced)["raw_wall"]
                if traced:
                    run_rec = self.tracer.take("pass")
                    rounds.append(spans.layer_metrics(setup_rec, run_rec, wall))
                else:
                    plain.append(wall)
            shutil.rmtree(cache)
        out = {k: summary([r[k] for r in rounds]) for k in rounds[0]}
        overhead = out["trace.wall_s"]["median"] / statistics.median(plain) - 1
        out["trace.overhead_frac"] = summary([overhead])
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump([{"phase": phase, "spans": recs}
                       for phase, recs in self.tracer.archive], fh)

    def cleanup(self) -> None:
        for d in self.work.iterdir():
            if d.is_dir():
                shutil.rmtree(d)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    units = declared_metrics(bool(args.trace))
    fq = import_fqlab()
    work = ROOT / ".fqbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(fq, workloads.build(args.workload, args.seed), work)
    unscaled = None
    try:
        if args.trace:
            measured = bench.run_traced(args.seconds)
            bench.write_spans(work / "spans.json")
        else:
            measured, unscaled = bench.run_plain(args.seconds)
    finally:
        bench.cleanup()
    missing = set(units) - set(measured)
    if missing:
        raise SystemExit(f"fqbench: metrics not measured: {sorted(missing)}")

    stress = None
    if args.trace:
        claim, holds = STRESS[args.workload]
        med = {k: v["median"] for k, v in measured.items()}
        stress = {"claim": claim, "holds": bool(holds(med))}
    failed = len(bench.failures)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(fq, args.seed),
        "correct": not bench.failures, "attempted": bench.attempted,
        "failed": failed, "failures": bench.failures[:20],
        "metrics": {k: {"unit": units[k], **measured[k]} for k in units},
        "unscaled": unscaled, "probe_ref_s": PROBE_REF_S,
        "command_latency_s": {k: summary(v) for k, v in sorted(bench.latency.items())},
        "stress": stress,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    for name, unit in units.items():
        m = measured[name]
        print(f"{args.workload:10s} {name:34s} {m['median']:14.6g} {unit:6s} (n={m['n']})")
    if stress:
        print(f"{args.workload:10s} stress: {stress['claim']}: "
              f"{'holds' if stress['holds'] else 'DOES NOT HOLD'}")
    print(json.dumps({
        "correct": result["correct"], "attempted": bench.attempted, "failed": failed,
        "metrics": {k: {"value": measured[k]["median"], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
