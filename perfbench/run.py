#!/usr/bin/env python3
"""Benchmark of the thcavity batch runner on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ./src.  It
writes the workload's configs as YAML under .perfbench_runs/, times a fresh
interpreter importing thcavity.cli (setup), then runs the configs through
thcavity.cli.run_config in a fresh worker process and checks every artifact
against a physics oracle.  With --trace 0 the worker repeats passes for about
S seconds; with --trace 1 it makes a warm-up, an untraced and a traced pass,
then a second worker runs the pool-capable scans with the CLI's default pool.
The last line of standard output is one JSON object: the end-to-end metrics
(wall_s, setup_s, peak_rss_mb) or the per-layer metrics.  wall_s is the sum
over configs of each config's fastest run_config time over the passes.
The exit code is 1 if any config failed or failed its check, 2 if the
sources are missing.

Thread-count variables (OPENBLAS_NUM_THREADS and the like) are passed through
untouched and recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, plan, to_yaml

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0   # a run must end within 180 s
SETUP_REPEATS = (5, 4)   # imports timed before and after the worker


def time_import(env) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import thcavity.cli"], env=env,
                   check=True, timeout=60)
    return perf_counter() - t0


def write_plan(args, run_dir: Path) -> None:
    (run_dir / "configs").mkdir()
    items = []
    for item in plan(args.workload, args.seed):
        path = run_dir / "configs" / f"{item.name}.yaml"
        path.write_text(to_yaml(item.config))
        items.append({"name": item.name, "path": str(path), "pooled": item.pooled})
    (run_dir / "plan.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "items": items}, indent=1))


class WorkerTimeout(Exception):
    pass


def run_worker(run_dir: Path, env, timeout: float, *mode) -> dict | None:
    """worker.py's result, or None if it failed; WorkerTimeout if it was stopped."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(run_dir), *mode],
                            env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        raise WorkerTimeout(f"worker {' '.join(mode)} still running after "
                            f"{timeout:.0f} s") from None
    finally:
        if proc.poll() is None:  # also stops its process-pool workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((run_dir / ("pooled.json" if mode else "worker.json")).read_text())


def pool_speedup(res: dict, run_dir: Path, env, timeout: float):
    """Serial time of the pool-capable scans over their time with the CLI's
    default pool.  A pooled pass that outlasts the run's deadline is stopped,
    and the speedup is taken with the time it had run: an upper bound."""
    t0 = perf_counter()
    try:
        pool = run_worker(run_dir, env, timeout, "pooled")
    except WorkerTimeout as stopped:
        print(f"perfbench: {stopped}; pool speedup is an upper bound", file=sys.stderr)
        return res["pooled_serial_s"] / (perf_counter() - t0), True
    if pool is None:
        return None, False
    res["attempted"] += pool["attempted"]
    res["failures"] += pool["failures"]
    return res["pooled_serial_s"] / pool["pooled_s"], False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "thcavity" / "cli.py").is_file():
        print(f"perfbench: no thcavity sources in {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-", dir=runs))
    write_plan(args, run_dir)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if not args.trace:
        time_import(env)  # not timed: byte-compiles a fresh checkout once
        setup_times = [time_import(env) for _ in range(SETUP_REPEATS[0])]

    def remaining():
        return DEADLINE_S - (perf_counter() - started)

    try:
        res = run_worker(run_dir, env, remaining())
    except WorkerTimeout as stopped:
        print(f"perfbench: {stopped}", file=sys.stderr)
        res = None
    if res is None:
        return 1

    walls = [sum(times.values()) for times in res["passes"]]
    pool_stopped = False
    if args.trace:
        speedup, pool_stopped = pool_speedup(res, run_dir, env, remaining())
        if speedup is None:
            return 1
        metrics = {**res["layers"], "cli.pool_speedup": {"value": speedup, "unit": "ratio"}}
    else:
        # imports on both sides of the worker, so that one slow spell of the
        # host does not set the median
        setup_times += [time_import(env) for _ in range(SETUP_REPEATS[1])]
        setup_s = statistics.median(setup_times)
        # each config's fastest pass: the host only ever adds time, so the
        # minimum is the least disturbed measure of the code's own cost
        wall_s = sum(min(times[name] for times in res["passes"])
                     for name in res["passes"][0])
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    attempted, failures = res["attempted"], res["failures"]
    # a pooled run can both fail its oracle and differ from the serial run
    failed = min(len(failures), attempted)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pass_walls_s": walls, "passes": res["passes"], "pool_stopped": pool_stopped,
              "failed_frac": failed / attempted,
              "failures": failures, "machine": res["machine"]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))

    for why in failures:
        print(f"FAILED {why}")
    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':28s} {failed / attempted:.6g} ({failed}/{attempted} config runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
