#!/usr/bin/env python3
"""Compare two artifact trees: python scripts/compare_artifacts.py A B

Walks both output roots and prints one line per file: `same`, `differs`, or
`only in A` / `only in B`.  For a differing CSV it prints, per column, max |Δ|
and max |Δ| / max |column of A| (a text column gives the number of rows that
differ); for a differing JSON file, the dotted path of each differing value,
with the same two numbers for numbers.  Manifests (manifest.json) are compared
without `duration_seconds`, the one field a rerun changes.  Exits 1 when the
two file lists differ, else 0.
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np

_ABSENT = object()   # a JSON key one side does not have


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _json_diffs(a, b, path=""):
    """(dotted path, value in A, value in B) for each leaf that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys(), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                out.append((sub, a.get(key, _ABSENT), b.get(key, _ABSENT)))
            else:
                out += _json_diffs(a[key], b[key], sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _json_diffs(x, y, f"{path}[{i}]")]
    return [] if a == b else [(path, a, b)]


def _show(v) -> str:
    return "absent" if v is _ABSENT else json.dumps(v)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _delta(a, b) -> str:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    diff = np.abs(b - a).max()
    scale = np.abs(a).max()
    return f"max|Δ| {diff:.3e}  max|Δ|/max|A| {diff / scale if scale else np.inf:.3e}"


def _report_json(a: Path, b: Path, manifest: bool) -> list:
    ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
    if manifest:
        ja.pop("duration_seconds", None)
        jb.pop("duration_seconds", None)
    lines = []
    for path, x, y in _json_diffs(ja, jb):
        if _number(x) and _number(y):
            lines.append(f"    {path}: {_delta(x, y)}")
        else:
            lines.append(f"    {path}: {_show(x)} -> {_show(y)}")
    return lines


def _read_csv(path: Path):
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, list(zip(*rows)) if rows else [() for _ in header]


def _report_csv(a: Path, b: Path) -> list:
    (ha, ca), (hb, cb) = _read_csv(a), _read_csv(b)
    if ha != hb:
        return [f"    header {ha} -> {hb}"]
    lines = []
    for name, x, y in zip(ha, ca, cb):
        if x == y:
            continue
        if len(x) != len(y):
            lines.append(f"    {name}: {len(x)} rows -> {len(y)} rows")
            continue
        try:
            lines.append(f"    {name}: {_delta(x, y)}")
        except ValueError:   # a text column
            lines.append(f"    {name}: {sum(u != v for u, v in zip(x, y))} rows differ")
    return lines


def main(argv=None) -> int:
    root_a, root_b = map(Path, sys.argv[1:] if argv is None else argv)
    files_a, files_b = _files(root_a), _files(root_b)
    same = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            print(f"only in A  {rel}")
            continue
        if rel not in files_a:
            print(f"only in B  {rel}")
            continue
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            same += 1
            print(f"same       {rel}")
            continue
        if a.suffix == ".csv":
            detail = _report_csv(a, b)
        elif a.suffix == ".json":
            manifest = a.name == "manifest.json"
            detail = _report_json(a, b, manifest)
            if not detail:
                same += 1
                how = "without duration_seconds" if manifest else "as JSON"
                print(f"same       {rel} ({how})")
                continue
        else:
            detail = []
        print(f"differs    {rel}")
        for line in detail:
            print(line)
    print(f"{same} of {len(files_a | files_b)} files the same")
    return int(files_a != files_b)


if __name__ == "__main__":
    sys.exit(main())
