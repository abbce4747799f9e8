#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one JSON record.

    python3 perfbench/summarize.py --seeds 1-10 --seconds 50 \
        --trace-seeds 1 --label seed-d003596 --out perfbench/records/seed-d003596.json

Run it from the root of a checkout.  Each workload runs once per seed with
tracing off, then once per trace seed with tracing on.  For every metric the
record keeps each run's value plus the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median.  Each run's seed and the machine it ran on are kept with it.
It prints every metric and failed_frac per workload, and exits 1 if any
config failed or failed its check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit "
                           f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(l[len("record "):]) for l in lines if l.startswith("record "))
    return {"seed": seed, "exit": proc.returncode, **result,
            "pass_walls_s": record["pass_walls_s"], "passes": record["passes"],
            "failures": record["failures"],
            "machine": record["machine"]}


def summary(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace-seeds", default="", help="seeds of traced runs")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=None, help="JSON record to write")
    args = parser.parse_args(argv)

    record = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    failed = 0
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            runs = [one_run(workload, s, args.seconds, trace) for s in seed_list(seeds)] if seeds else []
            if not runs:
                continue
            key = "traced" if trace else "untraced"
            entry[key] = {"runs": runs, "summary": summary(runs)}
            for name, s in entry[key]["summary"].items():
                spread = "" if s["spread"] is None else f"spread {s['spread']:.3f}"
                print(f"{workload:17s} {name:28s} median {s['median']:.6g} "
                      f"{s['unit']:6s} {spread}", flush=True)
            n_failed, attempted = (sum(r[k] for r in runs) for k in ("failed", "attempted"))
            print(f"{workload:17s} {'failed_frac':28s} {n_failed / attempted:.6g} "
                  f"({n_failed}/{attempted} config runs, {key})", flush=True)
            failed += n_failed
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
