"""The benchmark's tracer wraps package attributes by name; each must exist,
and a wrapped call must pass its arguments and its return through."""

from pathlib import Path

import numpy as np

from thcavity._integrate import solve_sampled

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    targets = [(mod, attr) for mod, attr, _ in t._targets()]
    before = [getattr(mod, attr) for mod, attr in targets]
    with t.installed():
        assert all(getattr(mod, attr) is not fn
                   for (mod, attr), fn in zip(targets, before))
    assert [getattr(mod, attr) for mod, attr in targets] == before


def test_traced_solve_and_write_pass_through_and_are_tallied(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def rhs(t, y):
        return -y

    def observe(t, y):
        return y[0], 2.0 * y[1]

    args = (rhs, (0.0, 1.0), np.array([1.0, 0.5]), np.linspace(0.0, 1.0, 6))
    kw = dict(observe=observe, pulse=(0.5, 0.1))    # a capped and a free segment
    ref = solve_sampled(*args, **kw)
    columns = [(0.5, 2), ("a", "b")]
    t = tracer.Tracer()
    with t.installed():
        got = tracer.maxwell_bloch.solve_sampled(*args, **kw)
        path = tracer.cli.write_csv(tmp_path / "t.csv", ("x", "y"), columns)

    values, y_end, stats = got
    assert all(np.array_equal(a, b) for a, b in zip(values, ref[0]))
    assert np.array_equal(y_end, ref[1])
    assert len(stats) == 2
    assert ([(s["steps"], s["nfev"]) for s in stats]
            == [(s["steps"], s["nfev"]) for s in ref[2]])
    assert path == tmp_path / "t.csv" and path.read_text() == "x,y\n5.0000000000000000e-01,a\n2,b\n"
    m = t.metrics()
    assert m["integrate.solve_calls"] == 1
    assert m["integrate.rhs_calls"] == sum(s["nfev"] for s in ref[2]) > 0
    assert m["integrate.samples"] == 6
    assert m["output.files"] == 1 and m["output.bytes"] == path.stat().st_size > 0


def test_traced_rabi_scan_reads_its_solve_and_extraction(monkeypatch, tmp_path):
    """A rabi scan is one stacked solve (the kicks, then the free run, both
    segments inside it); the tracer sees that solve, its RHS calls and its
    extractions."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    cfg = tmp_path / "rabi.yaml"
    cfg.write_text("experiment: rabi\nunit: rad/s\n"
                   "model: {g: 1.0, kappa_vuv: 0.5, gamma_minus: 0.001}\n"
                   "scan: {n_nuclei: [16, 25, 36, 49]}\n"
                   "tolerances: {n_samples: 600}\n")
    t = tracer.Tracer()
    with t.installed():
        tracer.cli.run_config(cfg, out_dir=tmp_path / "out", jobs=1)
    m = t.metrics()
    assert sum(s[0] == "maxwell_bloch.solve" for s in t.spans) == 1
    assert m["integrate.solve_calls"] == 1
    assert m["maxwell_bloch.rhs_calls"] == m["integrate.rhs_calls"] > 0
    assert m["maxwell_bloch.extract_s"] > 0
    assert sum(s[0] == "maxwell_bloch.extract" for s in t.spans) == 4
