#!/usr/bin/env python3
"""Run every figure config in scripts/configs and collect the artifacts.

Each config lands in <out>/<prefix>/; pass --only name,... to run only the
configs whose stem contains one of the comma-separated names.  Each
config's line gives its wall time in seconds, to the millisecond.
"""

import argparse
import logging
import sys
import time
from pathlib import Path

from thcavity.cli import ConfigError, run_config

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument("--only", default=None,
                        help="comma-separated names; run only configs whose "
                             "stem contains one of them")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if not args.quiet:
        logging.basicConfig(level=logging.INFO, format="%(message)s")

    configs = sorted(CONFIG_DIR.glob("*.yaml"))
    if args.only is not None:
        names = [n for n in args.only.split(",") if n]
        configs = [c for c in configs if any(n in c.stem for n in names)]
    if not configs:
        print("no configs matched", file=sys.stderr)
        return 1

    failures = 0
    for cfg in configs:
        out = Path(args.out) / cfg.stem
        start = time.perf_counter()
        try:
            manifest = run_config(cfg, out_dir=out, jobs=args.jobs)
        except ConfigError as err:
            print(f"{cfg.stem}: config error: {err}", file=sys.stderr)
            failures += 1
            continue
        except (ValueError, ArithmeticError, RuntimeError, MemoryError) as err:
            print(f"{cfg.stem}: {err}", file=sys.stderr)
            failures += 1
            continue
        n_out = len(manifest["outputs"])
        print(f"{cfg.stem}: {n_out} artifacts in {out} "
              f"({time.perf_counter() - start:.3f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
