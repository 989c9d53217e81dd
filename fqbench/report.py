#!/usr/bin/env python3
"""Run workloads over several seeds and summarise each metric.

    python3 fqbench/report.py                       # every workload, seed 1
    python3 fqbench/report.py --seeds 1-10 --workloads scan-p2,cli-small
    python3 fqbench/report.py --seeds 1-10 --out fqbench/baseline/seed.json

Runs ``run.py`` once per workload and seed, one run at a time, from the
checkout root, and prints every metric by name with its unit.  With
more than one seed it also prints each metric's median, quartiles and
spread (the distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the bound in
``BENCHMARK.json``; a spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's full result file (see run.py)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = ROOT / ".fqbench_runs" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return json.loads(result.read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the per-workload summaries here as JSON")
    args = ap.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    summaries = {}
    for wl in args.workloads.split(","):
        t0 = time.perf_counter()
        runs = [run_once(wl, s, args.seconds, args.trace) for s in seeds]
        print(f"\n{wl}: {len(runs)} runs in {time.perf_counter() - t0:.0f} s, "
              f"attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}")
        summaries[wl] = {"seeds": seeds, "seconds": args.seconds,
                         "correct": all(r["correct"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "environment": runs[0]["environment"],
                         "stress": [r["stress"] for r in runs if r["stress"]],
                         "metrics": {}}
        for m in declared:
            vals = [r["metrics"][m["name"]]["median"] for r in runs]
            med = statistics.median(vals)
            row = {"unit": m["unit"], "median": med, "values": vals}
            line = f"  {m['name']:34s} {med:14.6g} {m['unit']:6s}"
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                row.update(q1=q1, q3=q3, spread=spread)
                line += f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
                if "bound" in m:
                    flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
                    line += f" bound {m['bound']:.0%}{flag}"
            summaries[wl]["metrics"][m["name"]] = row
            print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summaries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
