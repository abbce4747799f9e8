"""scripts/compare_artifacts.py on two small output roots."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"


def tree(root, csv_body, manifest, extra=False):
    (root / "run").mkdir(parents=True)
    (root / "run" / "a.csv").write_text("t,x,label\n" + csv_body)
    (root / "run" / "same.json").write_text('{"k": 1}\n')
    (root / "run" / "manifest.json").write_text(json.dumps(manifest))
    if extra:
        (root / "run" / "extra.csv").write_text("t\n0\n")
    return str(root)


def compare(a, b):
    done = subprocess.run([sys.executable, str(SCRIPT), a, b], capture_output=True,
                          text=True, check=False)
    return done.returncode, done.stdout.splitlines()


def test_compare_artifacts_reports_each_file_and_column(tmp_path):
    a = tree(tmp_path / "a", "0,1.0,p\n1,-4.0,q\n",
             {"duration_seconds": 1.0, "diagnostics": {"drift": 1e-9}})
    b = tree(tmp_path / "b", "0,1.5,p\n1,-4.0,r\n",
             {"duration_seconds": 2.0, "diagnostics": {"drift": 1e-9}})
    code, lines = compare(a, b)
    assert code == 0
    assert lines == [
        "differs    run/a.csv",
        "    x: max|Δ| 5.000e-01  max|Δ|/max|A| 1.250e-01",
        "    label: 1 rows differ",
        "same       run/manifest.json (without duration_seconds)",
        "same       run/same.json",
        "2 of 3 files the same",
    ]


def test_compare_artifacts_exits_1_when_the_file_lists_differ(tmp_path):
    a = tree(tmp_path / "a", "0,1.0,p\n", {"diagnostics": {}})
    b = tree(tmp_path / "b", "0,1.0,p\n", {"diagnostics": {"new": 3}}, extra=True)
    code, lines = compare(a, b)
    assert code == 1
    assert "only in B  run/extra.csv" in lines
    assert ["differs    run/manifest.json", "    diagnostics.new: absent -> 3"] == [
        line for line in lines if "manifest" in line or "diagnostics" in line]
