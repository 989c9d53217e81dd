#!/usr/bin/env python3
"""Pin the outputs that ``run.py`` checks against: ``reference.json``.

    python3 fqbench/pin_reference.py

Runs every pinned operation of every workload once (for cli-small, with
every main-term shift the seed can draw) and stores its artifact rows,
without the timing column.  Pin only from a commit whose answers are
trusted; a later change that alters any pinned number must explain why
the new number is right before re-pinning.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
import workloads

GRID = ((2, 20), (3, 12), (5, 8))


def main() -> int:
    fq = run.import_fqlab()
    from fqlab.arith import parse_function_spec
    from fqlab.fieldpoly import FieldSpec

    work = run.ROOT / ".fqbench_runs" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    cache, out = work / "cache", work / "out"
    cache.mkdir(parents=True)
    out.mkdir()
    pinned = {}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for p, d in GRID:
                fq.cli.main(["sieve", "--p", str(p), "--max-deg", str(d),
                             "--cache-dir", str(cache), "--out", str(out / "sieve")])
            for op in workloads.pinned_ops():
                rc = fq.cli.main([*op.argv, "--cache-dir", str(cache),
                                  "--out", str(out / "op")])
                if rc != 0:
                    raise SystemExit(f"{op.key}: exit code {rc}")
                rows = json.loads((out / "op.json").read_text())
                for r in rows:
                    r.pop("seconds", None)
                exact = []
                if op.command in ("correlate", "chowla"):
                    field = FieldSpec(rows[0]["q"])
                    names = rows[0]["functions"].split(";")
                    if all(parse_function_spec(f, field).integer_valued for f in names):
                        exact = ["raw_re", "raw_im"]
                pinned[op.key] = {"rows": rows, "exact": exact}
    finally:
        shutil.rmtree(work)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} operations in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
