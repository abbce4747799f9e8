"""Runs one workload's configs through thcavity.cli.run_config, in a fresh
process started by run.py.

    python3 perfbench/worker.py RUN_DIR [pooled]

RUN_DIR/plan.json names the configs (written by run.py as YAML), the seconds
to measure and whether to trace.  The result goes to RUN_DIR/worker.json.

Untraced, the worker repeats passes over the configs for at most the given
seconds (at least one pass) and reports each config's time in each pass.
Traced, it makes a warm-up pass, whose artifacts it keeps, an untraced pass
and a traced pass.  With `pooled`
it runs the workload's pool-capable scans again with the CLI's default process
pool, checks that their artifacts are byte-identical to the kept serial ones,
and writes RUN_DIR/pooled.json.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy
import yaml

import thcavity.cli as cli
from tracer import LAYER_UNITS, Tracer
from workloads import Item, check

# thread-count variables BLAS and OpenMP read; recorded, never set here
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def machine() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k in THREAD_VARS or k.startswith("OMP_")},
    }


class Runner:
    """Runs passes over (item, config path) pairs; tallies attempts and failures."""

    def __init__(self, configs, out_root: Path):
        self.configs = configs
        self.out_root = out_root
        self.attempted = 0
        self.failures = []
        self._passes = 0

    def run(self, configs, jobs):
        """One pass; returns ({name: run_config seconds}, output root)."""
        self._passes += 1
        root = self.out_root / f"pass{self._passes}"
        times = {}
        for item, path in configs:
            out = root / item.name
            self.attempted += 1
            t0 = perf_counter()
            try:
                cli.run_config(path, out_dir=out, jobs=jobs)
            except Exception:  # a failed config is counted, the pass goes on
                self.failures.append(f"{item.name}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                times[item.name] = perf_counter() - t0
            why = check(item, out)
            if why:
                self.failures.append(f"{item.name}: {why}")
        return times, root

    def compare(self, configs, serial: Path, pooled: Path):
        for item, _ in configs:
            diff = _differences(serial / item.name, pooled / item.name)
            if diff:
                self.failures.append(
                    f"{item.name}: pooled artifacts differ from serial in {diff}")


def _differences(a: Path, b: Path):
    if not (a.is_dir() and b.is_dir()):
        return ["missing output directory"]
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return ["file lists"]
    out = []
    for name in names:
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "manifest.json":  # duration_seconds differs by design
            x, y = (json.loads(v) for v in (x, y))
            x.pop("duration_seconds"), y.pop("duration_seconds")
        if x != y:
            out.append(name)
    return out


def measure(runner: Runner, seconds: float, trace: bool, run_dir: Path) -> dict:
    configs = runner.configs
    if not trace:
        # start a pass only if one more like the last still ends in time
        start, last, passes = perf_counter(), 0.0, []
        while not passes or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            times, root = runner.run(configs, jobs=1)
            passes.append(times)
            shutil.rmtree(root, ignore_errors=True)
            last = perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0}

    # per-layer numbers carry no bound, so one round is enough.  The first
    # pass warms up and keeps its artifacts for the pooled worker to match.
    _, serial_root = runner.run(configs, jobs=1)
    times, root = runner.run(configs, jobs=1)
    shutil.rmtree(root, ignore_errors=True)
    tracer = Tracer()
    with tracer.installed():
        traced_times, root = runner.run(configs, jobs=1)
    shutil.rmtree(root, ignore_errors=True)
    tracer.dump(run_dir / "spans.json")
    metrics = tracer.metrics()
    metrics["tracing_overhead_s"] = sum(traced_times.values()) - sum(times.values())
    return {"passes": [times],
            "serial_root": str(serial_root),
            "pooled_serial_s": sum(times[item.name] for item, _ in configs if item.pooled),
            # all but cli.pool_speedup, which run.py adds from the pooled worker
            "layers": {k: {"value": metrics[k], "unit": unit}
                       for k, unit in LAYER_UNITS.items() if k in metrics}}


def measure_pool(runner: Runner, run_dir: Path) -> dict:
    """The pool-capable scans with the CLI default pool (one worker per core);
    their artifacts must match the serial pass of the traced worker."""
    serial_root = Path(json.loads((run_dir / "worker.json").read_text())["serial_root"])
    pooled = [(item, path) for item, path in runner.configs if item.pooled]
    times, root = runner.run(pooled, jobs=None)
    runner.compare(pooled, serial_root, root)
    return {"pooled_s": sum(times.values())}


def main() -> int:
    run_dir, pooled = Path(sys.argv[1]), sys.argv[2:] == ["pooled"]
    spec = json.loads((run_dir / "plan.json").read_text())
    configs = [(Item(d["name"], yaml.safe_load(Path(d["path"]).read_text()),
                     d["pooled"]), d["path"]) for d in spec["items"]]
    if pooled:
        runner = Runner(configs, run_dir / "out" / "pooled")
        result = measure_pool(runner, run_dir)
    else:
        runner = Runner(configs, run_dir / "out")
        result = measure(runner, spec["seconds"], spec["trace"], run_dir)
    result.update(attempted=runner.attempted, failures=runner.failures,
                  machine=machine())
    name = "pooled.json" if pooled else "worker.json"
    (run_dir / name).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
