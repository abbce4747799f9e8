"""Exit codes, schema rejection, and artifact determinism of the batch runner."""

import importlib
import json
import logging
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import thcavity
from thcavity import sweep
from thcavity.cli import (
    _RUNNERS,
    _SCHEMAS,
    ConfigError,
    _apply,
    _load_config,
    list_experiments,
    main,
    run_config,
)
from thcavity.maxwell_bloch import rabi_scaling_fit
from thcavity.params import ModelParams

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "scripts" / "configs"
PERFBENCH = REPO / "perfbench"

SPECTRUM_YAML = """\
experiment: spectrum
unit: rad/s
omega: 2.0
scan:
  delta_min: -10.0
  delta_max: 10.0
  n_points: 21
"""

RABI_YAML = """\
experiment: rabi
unit: rad/s
model:
  g: 1.0
  kappa_vuv: 0.5
  gamma_minus: 0.001
scan:
  n_nuclei: [16, 25, 36, 49]
tolerances:
  n_samples: 1200
"""

SWEEP_YAML = """\
experiment: sweep
unit: rad/s
protocol:
  delta0: 30.0
  rate_k: 1.0
  omega: 1.0
sampling:
  n_samples: 501
"""

SWEEP_SCAN_YAML = """\
experiment: sweep
unit: rad/s
protocol:
  delta0: 50.0
  omega: 1.0
scan:
  rate_k: [6.283185307179586, 19.869176531592244, 62.83185307179586]
sampling:
  n_samples: 2001
"""

LINDBLAD_YAML = """\
experiment: lindblad11
unit: rad/s
model:
  g: 5.0
  kappa_vuv: 1.0
  gamma_minus: 0.1
  n_nuclei: 10
  fwm_u: 2.0
initial_state: [0, 0, 1, 0]
time:
  t_end: 0.5
  n_samples: 40
options:
  collective_coupling: true
"""

# the same run under a Gaussian pump: stepped by DOP853, not exactly
PUMPED_LINDBLAD_YAML = LINDBLAD_YAML.replace(
    "fwm_u: 2.0", "fwm_u: 2.0\n  pump_amp: 3.0\n  pump_center: 0.2\n  pump_width: 0.05")

COUPLING_YAML = """\
experiment: coupling
unit: Hz
transition:
  wavelength: 1.483821e-07
  vacuum_lifetime: 1740.0
  mode_volume: 1.0e-15
collective:
  n_nuclei: 100
  kappa_vuv: 1000.0
  gamma_minus: 0.0005747
"""

PHASE_YAML = """\
experiment: phase-diagram
unit: rad/s
model:
  g: 1.0
  gamma_minus: 0.1
grid:
  kappa:
    min: 1.0
    max: 1000.0
    n: 12
  sqrt_n:
    min: 1.0
    max: 8.0
    n: 6
"""

SUPERRADIANCE_YAML = """\
experiment: superradiance
unit: rad/s
model:
  g: 106.8
  kappa_vuv: 2.0e+5
  gamma_minus: 5.747126436781609e-4
  fwm_u: 1000.0
runs:
  n_nuclei: [4, 6]
pump:
  sigma: 1.0e-4
  fraction: 0.1
tolerances:
  n_samples: 200
"""

LIFETIME_YAML = """\
experiment: lifetime
unit: rad/s
model:
  g: 106.8
  gamma_minus: 5.747126436781609e-4
  n_nuclei: 6
  fwm_u: 1000.0
scan:
  kappa_vuv: [1.0e+5, 2.0e+5, 4.0e+5]
pump:
  sigma: 1.0e-4
  fraction: 0.1
tolerances:
  n_samples: 200
"""


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 8
    assert any(ln.startswith("sweep → Fig. 4") for ln in lines)
    assert any(ln.startswith("superradiance → Fig. S1") for ln in lines)
    assert out == list_experiments() + "\n"


@pytest.mark.parametrize("module", [
    "thcavity", *(f"thcavity.{m.name}" for m in pkgutil.iter_modules(thcavity.__path__))])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_console_script_list():
    """The entry point pyproject.toml declares, called as the installed script
    would call it, from the source tree."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    module, function = scripts["thcavity"].split(":")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    res = subprocess.run([sys.executable, "-c",
                          f"import sys, {module}; sys.exit({module}.{function}())", "list"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert "sweep → Fig. 4" in res.stdout


def test_spectrum_run_and_byte_identical_rerun(tmp_path):
    cfg = write(tmp_path, SPECTRUM_YAML)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", cfg, "--out", str(a)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("duration_seconds"), mb.pop("duration_seconds")
    assert ma == mb
    assert ma["experiment"] == "spectrum"
    assert ma["outputs"] == ["spectrum.csv"]
    assert ma["config"]["scan"]["n_points"] == 21
    assert ma["config"]["unit"] == "rad/s"


def test_spectrum_csv_contents(tmp_path):
    cfg = write(tmp_path, SPECTRUM_YAML)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "delta,e_upper,e_lower,c2_lp,x2_lp"
    assert len(lines) == 22
    mid = lines[11].split(",")     # the delta = 0 row
    assert float(mid[0]) == 0.0
    assert float(mid[3]) == 0.5


def test_rabi_writes_the_fit_traces_and_a_rerun_writes_the_same_bytes(tmp_path):
    cfg = write(tmp_path, RABI_YAML + "emit_traces: true\n")
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main(["rabi", "--config", cfg, "--out", str(first)]) == 0
    assert main(["rabi", "--config", cfg, "--out", str(rerun)]) == 0
    ns = (16, 25, 36, 49)
    traces = [f"rabi_trace_n{n}.csv" for n in ns]
    for name in ("rabi.csv", "rabi_fit.json", *traces):
        assert (first / name).read_bytes() == (rerun / name).read_bytes()
    fit = json.loads((first / "rabi_fit.json").read_text())
    assert fit["fit"]["slope"] == pytest.approx(1.0, rel=0.02)
    assert fit["fit"]["r2"] > 0.999

    # each written trace is the trace the fit read its frequency from, with
    # Im alpha and Re P as exact zeros and |alpha|^2 = (Re alpha)^2
    fit = rabi_scaling_fit(ns, ModelParams(g=1.0, kappa_vuv=0.5, gamma_minus=0.001,
                                           n_nuclei=16),
                           n_samples=1200)
    for ts, name in zip(fit.traces, traces):
        header = (first / name).read_text().splitlines()[0]
        assert header == "t,re_alpha,im_alpha,abs_alpha_sq,re_P,im_P,Z"
        t, a_re, a_im, a_sq, p_re, p_im, z = np.loadtxt(first / name, delimiter=",",
                                                         skiprows=1, unpack=True)
        assert (a_im == 0.0).all() and (p_re == 0.0).all()
        assert np.array_equal(a_sq, a_re**2)
        assert np.array_equal(np.column_stack([t, a_re, p_im, z]),
                              np.column_stack([ts.times, ts.values]))


def test_rabi_lists_the_overdamped_n_it_drops(tmp_path, caplog):
    """At kappa = 4.5, N = 1 has N g^2 = 1 < ((kappa - gamma) / 4)^2 = 1.265: the
    run drops it, fits the other four and names it in the manifest."""
    text = (RABI_YAML.replace("kappa_vuv: 0.5", "kappa_vuv: 4.5")
            .replace("n_nuclei: [16, 25, 36, 49]", "n_nuclei: [1, 16, 25, 36, 49]"))
    cfg, out = write(tmp_path, text), tmp_path / "out"
    assert main(["rabi", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
    assert json.loads((out / "rabi_fit.json").read_text())["n_nuclei"] == [16, 25, 36, 49]
    dropped = json.loads((out / "manifest.json").read_text())["diagnostics"]["dropped"]
    assert [d["n_nuclei"] for d in dropped] == [1]
    assert "overdamped" in dropped[0]["reason"]
    assert "N=1 dropped" in caplog.text


def test_sweep_single_run_artifacts(tmp_path):
    cfg = write(tmp_path, SWEEP_YAML)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["k"] == 1.0
    assert 0.0 <= summary["p_nuclear_final"] <= 1.0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "t,delta,p_photon,p_nuclear,p_up,p_lp"


def test_sweep_scan_artifacts(tmp_path):
    cfg = write(tmp_path, SWEEP_SCAN_YAML)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    fit = json.loads((out / "sweep_fit.json").read_text())
    assert fit["slope"] == pytest.approx(-1.0, abs=0.05)
    assert len(fit["points"]) == 3


@pytest.mark.parametrize("rates, n_samples, field, count", [
    ([1.0e-3, 2.0e-3, 3.0e-3], None, "scan.rate_k", "4.284e+09"),
    ([1.0, 2.0, 3.0], None, "scan.rate_k", "4.284e+06"),
    (None, 2_000_000, "sampling.n_samples", "2e+06"),
], ids=["rate-1e-3", "rate-1", "n-samples"])
def test_a_scan_over_the_sample_budget_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                         rates, n_samples, field, count):
    """The budget is checked before any run: no sweep is integrated."""
    def no_run(*args, **kwargs):
        raise AssertionError("a sweep ran")
    monkeypatch.setattr(sweep, "integrate_sweep", no_run)
    cfg = yaml.safe_load((CONFIGS / "fig4d_jump_scan.yaml").read_text())
    if rates is not None:
        cfg["scan"]["rate_k"] = rates
    if n_samples is not None:
        cfg["sampling"] = {"n_samples": n_samples}
    path = write(tmp_path, yaml.safe_dump(cfg))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert f"takes {count} samples, over the budget of 1e+06" in err


def test_bundled_and_benchmark_scans_take_the_floor_of_samples(monkeypatch):
    """fig4d and the benchmark's jump scans (seeds 1-10) take 4001 samples
    per rate, the sampling floor: the budget is 250 times that."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    scans = [yaml.safe_load((CONFIGS / "fig4d_jump_scan.yaml").read_text())]
    scans += [item.config for seed in range(1, 11)
              for item in workloads.plan("sweep_master", seed) if item.name == "jump_scan"]
    assert len(scans) == 11
    for cfg in scans:
        proto, rates = cfg["protocol"], cfg["scan"]["rate_k"]
        # the slowest sweep takes the most: 8 samples per period of delta0 over 10/k
        wanted = 8.0 * abs(proto["delta0"]) * 10.0 / min(rates) / (2.0 * math.pi)
        assert wanted < cfg.get("sampling", {}).get("n_samples", 4001) == 4001


def test_a_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 31.9 GiB for an array")
    monkeypatch.setitem(_RUNNERS, "spectrum", exhausted)
    cfg = write(tmp_path, SPECTRUM_YAML)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error [spectrum]: Unable to allocate 31.9 GiB "
                                       "for an array\n")


def test_sweep_rejects_rate_in_both_places(tmp_path, capsys):
    bad = SWEEP_SCAN_YAML.replace("protocol:\n  delta0: 50.0",
                                  "protocol:\n  delta0: 50.0\n  rate_k: 1.0")
    cfg = write(tmp_path, bad)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "protocol.rate_k" in capsys.readouterr().err


def test_sweep_requires_a_rate_somewhere(tmp_path, capsys):
    bad = SWEEP_YAML.replace("  rate_k: 1.0\n", "")
    cfg = write(tmp_path, bad)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "protocol.rate_k" in capsys.readouterr().err


def test_lindblad_run_writes_populations(tmp_path):
    cfg = write(tmp_path, LINDBLAD_YAML)
    out = tmp_path / "out"
    assert main(["lindblad11", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "lindblad11.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-1] == "purity"
    assert len(header) == 13                     # t + 11 states + purity
    first = [float(v) for v in lines[1].split(",")]
    assert first[header.index("p_0010")] == 1.0  # the chosen initial state
    assert first[-1] == pytest.approx(1.0, abs=1e-12)


def test_coupling_reports_both_units(tmp_path):
    cfg = write(tmp_path, COUPLING_YAML)
    out = tmp_path / "out"
    assert main(["coupling", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "coupling.json").read_text())
    g = data["g"]
    assert g["hz"] == pytest.approx(g["rad_per_s"] / (2 * 3.141592653589793))
    # the collective block runs in the declared unit (Hz here)
    col = data["collective"]
    assert col["unit"] == "Hz"
    assert col["g"] == pytest.approx(g["hz"])
    assert col["omega_collective"] == pytest.approx(10.0 * g["hz"])


def test_phase_diagram_artifacts(tmp_path):
    cfg = write(tmp_path, PHASE_YAML)
    out = tmp_path / "out"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "phase-diagram.csv").read_text().splitlines()
    assert len(rows) == 1 + 12 * 6
    bounds = json.loads((out / "phase-diagram_boundaries.json").read_text())
    assert set(bounds) == {"strong", "cooperativity"}


def test_missing_unit_names_the_field(tmp_path, capsys):
    cfg = write(tmp_path, SPECTRUM_YAML.replace("unit: rad/s\n", ""))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "missing required field" in err and "unit" in err


def test_unknown_keys_are_rejected_with_their_path(tmp_path, capsys):
    cfg = write(tmp_path, SPECTRUM_YAML + "bogus: 1\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown field: bogus" in capsys.readouterr().err

    cfg2 = write(tmp_path, SPECTRUM_YAML.replace("  n_points: 21",
                                                 "  n_points: 21\n  stride: 2"),
                 name="cfg2.yaml")
    assert main(["spectrum", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 2
    assert "unknown field: scan.stride" in capsys.readouterr().err


# a non-finite number must never hang a run (delta0), write nan cells with
# exit 0 (grid bound) or exit 1 (t_start)
@pytest.mark.parametrize("command, text, old, new, path", [
    pytest.param("rabi", RABI_YAML, "kappa_vuv: 0.5", "kappa_vuv: -0.5",
                 "model.kappa_vuv", id="negative"),
    pytest.param("sweep", SWEEP_YAML, "delta0: 30.0", "delta0: .inf",
                 "protocol.delta0", id="inf"),
    pytest.param("sweep", SWEEP_YAML, "delta0: 30.0", "delta0: -.inf",
                 "protocol.delta0", id="minus-inf"),
    pytest.param("sweep", SWEEP_YAML, "rate_k: 1.0", "rate_k: 1.0\n  t_start: .nan",
                 "protocol.t_start", id="nan"),
    pytest.param("phase-diagram", PHASE_YAML, "max: 1000.0", "max: .inf",
                 "grid.kappa.max", id="inf-grid-bound"),
    pytest.param("sweep", SWEEP_YAML, "omega: 1.0", "omega: 1" + "0" * 400,
                 "protocol.omega", id="int-beyond-float"),
    # a library check on one field is reported under that field
    pytest.param("sweep", SWEEP_YAML, "delta0: 30.0", "delta0: 0.0",
                 "protocol.delta0", id="zero-delta0"),
    # finite inputs whose regime margins overflow to inf
    pytest.param("phase-diagram", PHASE_YAML, "max: 8.0", "max: 1.0e+200",
                 "grid", id="overflow-sqrt-n"),
    pytest.param("phase-diagram", PHASE_YAML, "gamma_minus: 0.1",
                 "gamma_minus: 1.0e-320", "model.gamma_minus", id="overflow-gamma-minus"),
])
def test_negative_rate_is_a_config_error(tmp_path, capsys, command, text, old, new, path):
    assert old in text
    cfg = write(tmp_path, text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{path}:" in capsys.readouterr().err


# g^2 / gamma_minus scales the cooperativity margin of every grid point: when
# it overflows alone, the model field is named, and no numpy warning leaks
@pytest.mark.parametrize("old, new, cause", [
    ("gamma_minus: 0.1", "gamma_minus: 1.0e-320", "model.gamma_minus:"),
    ("g: 1.0", "g: 1.0e+200", "model.g:"),
    ("max: 8.0", "max: 1.0e+200", "grid:"),
], ids=["gamma-minus", "g", "grid"])
def test_phase_diagram_overflow_names_its_cause_without_a_warning(tmp_path, capsys,
                                                                  old, new, cause):
    assert old in PHASE_YAML
    cfg = write(tmp_path, PHASE_YAML.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cause}")
    assert "Warning" not in err


# a minimal valid config of every experiment; the sweep also as a scan
MINIMAL_CONFIGS = {
    "coupling": COUPLING_YAML,
    "spectrum": SPECTRUM_YAML,
    "rabi": RABI_YAML,
    "lindblad11": LINDBLAD_YAML,
    "superradiance": SUPERRADIANCE_YAML,
    "lifetime": LIFETIME_YAML,
    "sweep": SWEEP_YAML,
    "sweep-scan": SWEEP_SCAN_YAML,
    "phase-diagram": PHASE_YAML,
}


def _numeric_leaves(node, keys=()):
    """Key paths of every int and float leaf, list items included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return [keys]
    else:
        return []
    return [leaf for k, v in items for leaf in _numeric_leaves(v, keys + (k,))]


def _dotted(keys):
    out = ""
    for k in keys:
        out += f"[{k}]" if isinstance(k, int) else (f".{k}" if out else k)
    return out


@pytest.mark.parametrize("name, keys", [
    pytest.param(name, keys, id=f"{name}-{_dotted(keys)}")
    for name, text in MINIMAL_CONFIGS.items()
    for keys in _numeric_leaves(yaml.safe_load(text))])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "minus-inf", "nan"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, name, keys, value):
    cfg = yaml.safe_load(MINIMAL_CONFIGS[name])
    node = cfg
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    path = write(tmp_path, yaml.safe_dump(cfg))
    assert main([cfg["experiment"], "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{_dotted(keys)}:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["superradiance", "lifetime"])
@pytest.mark.parametrize("n_samples", [1, 3])
def test_too_few_burst_samples_is_a_config_error(tmp_path, capsys, name, n_samples):
    text = MINIMAL_CONFIGS[name].replace("n_samples: 200", f"n_samples: {n_samples}")
    cfg = write(tmp_path, text)
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "tolerances.n_samples:" in capsys.readouterr().err


def _set(cfg, keys, value):
    """cfg with value set at the key path, missing sections created."""
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    node[keys[-1]] = value
    return cfg


# settings no config may set: the solvers run at their own tolerances, the
# kick and its run length are fixed, as are the sampling density, the frame
# and the master equation's trace and eigenvalue checks; nothing dumps
# operators or snaps a grid's N; (config, keys set, value, field named)
@pytest.mark.parametrize("name, keys, value, field", [
    pytest.param(name, keys, value, field, id=f"{name}-{'.'.join(keys)}")
    for name, keys, value, field in [
        *[(name, ("tolerances", tol), 1.0e-3, f"tolerances.{tol}")
          for name in ("rabi", "superradiance", "lifetime") for tol in ("rtol", "atol")],
        ("lindblad11", ("tolerances", "rtol"), 1.0e-3, "tolerances"),
        ("lindblad11", ("tolerances", "atol"), 1.0e-3, "tolerances"),
        ("rabi", ("kick", "target_alpha"), 1.0e-3, "kick"),
        ("rabi", ("kick", "n_periods"), 8.0, "kick"),
        ("sweep-scan", ("scan", "samples_per_period"), 1.0e-3, "scan.samples_per_period"),
        ("sweep", ("tolerances", "rtol"), 1.0e-3, "tolerances"),
        ("lindblad11", ("model", "frame"), "rotating", "model.frame"),
        ("lindblad11", ("options", "check"), True, "options.check"),
        ("lindblad11", ("dump_operators",), True, "dump_operators"),
        ("phase-diagram", ("snap_integer_n",), True, "snap_integer_n"),
    ]])
def test_deleted_settings_are_unknown_fields(tmp_path, capsys, name, keys, value, field):
    cfg = _set(yaml.safe_load(MINIMAL_CONFIGS[name]), keys, value)
    path = write(tmp_path, yaml.safe_dump(cfg))
    assert main([cfg["experiment"], "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: unknown field: {field}\n"


# values a run cannot use: a scan with too few distinct values, fewer samples or
# grid points than the analysis needs, a window on a sweep scan (whose runs
# each take the default window of their rate); (config, keys, value)
@pytest.mark.parametrize("name, keys, value", [
    pytest.param(name, keys, value, id=f"{name}-{'.'.join(keys)}")
    for name, keys, value in [
        ("rabi", ("scan", "n_nuclei"), [25, 25, 25, 25]),
        ("lifetime", ("scan", "kappa_vuv"), [1.0e5, 1.0e5, 2.0e5]),
        ("sweep-scan", ("scan", "rate_k"), [6.0, 6.0, 6.0]),
        ("spectrum", ("scan", "n_points"), 1),
        ("phase-diagram", ("grid", "kappa", "n"), 1),
        ("phase-diagram", ("grid", "sqrt_n", "n"), 1),
        ("sweep", ("sampling", "n_samples"), 5),
        ("rabi", ("tolerances", "n_samples"), 8),
        ("superradiance", ("pump", "sigma"), 1.0e3),
        ("lifetime", ("pump", "sigma"), 1.0e3),
        ("lindblad11", ("time", "n_samples"), 1),
        ("sweep-scan", ("protocol", "t_start"), -0.5),
        ("sweep-scan", ("protocol", "t_end"), 0.5),
    ]] + [
    # 12 and 32 samples alias the |alpha|^2 peaks (slopes 0.298 and 0.925)
    pytest.param("rabi", ("tolerances", "n_samples"), n, id=f"rabi-tolerances.n_samples-{n}")
    for n in (12, 32)])
def test_a_value_the_run_cannot_use_is_a_config_error(tmp_path, capsys, name, keys, value):
    cfg = _set(yaml.safe_load(MINIMAL_CONFIGS[name]), keys, value)
    path = write(tmp_path, yaml.safe_dump(cfg))
    assert main([cfg["experiment"], "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {'.'.join(keys)}: ")


def _diagnostics(tmp_path, text):
    cfg = yaml.safe_load(text)
    out = tmp_path / cfg["experiment"]
    first = run_config(write(tmp_path, text), out_dir=out, jobs=1)
    again = run_config(write(tmp_path, text), out_dir=out, jobs=1)
    assert json.loads((out / "manifest.json").read_text())["diagnostics"] == again["diagnostics"]
    # the diagnostics hold no wall time: reruns differ only in duration_seconds
    first.pop("duration_seconds"), again.pop("duration_seconds")
    assert first == again
    return first["diagnostics"]


def test_manifest_carries_the_run_diagnostics(tmp_path):
    runs = _diagnostics(tmp_path, SUPERRADIANCE_YAML)["runs"]
    assert [r["n_nuclei"] for r in runs] == [4, 6]
    for r in runs:
        assert r["ladder_cut"] == r["n_nuclei"]
        assert 0.0 <= r["top_population"] < 1e-3
        assert 0.0 <= r["pump_trace_drift"] < 1e-14
        assert -1e-8 < r["pump_min_eigenvalue"] <= 0.0
        assert r["bad_cavity_ratio"] == pytest.approx(2.0e5 / (106.8 * math.sqrt(r["n_nuclei"])))
        # DOP853 spends 12 RHS calls on each step
        assert 12 * r["pump_steps"] <= r["pump_nfev"] and r["pump_steps"] > 0

    runs = _diagnostics(tmp_path, LIFETIME_YAML)["runs"]
    assert [r["kappa_vuv"] for r in runs] == [1.0e5, 2.0e5, 4.0e5]
    assert {r["ladder_cut"] for r in runs} == {6}
    assert all(12 * r["pump_steps"] <= r["pump_nfev"] and r["pump_steps"] > 0 for r in runs)
    assert all(r["pump_trace_drift"] < 1e-14 and r["pump_min_eigenvalue"] > -1e-8 for r in runs)

    sweep_keys = {"substeps", "doubling_error", "max_norm_drift"}
    single = _diagnostics(tmp_path, SWEEP_YAML)
    assert set(single) == sweep_keys
    assert single["substeps"] >= 1 and 0.0 <= single["doubling_error"] < 1e-9
    assert 0.0 <= single["max_norm_drift"] < 1e-12

    runs = _diagnostics(tmp_path, SWEEP_SCAN_YAML)["runs"]
    assert [r["k"] for r in runs] == sorted(yaml.safe_load(SWEEP_SCAN_YAML)["scan"]["rate_k"])
    assert all(set(r) == {"k", *sweep_keys} for r in runs)
    assert all(r["doubling_error"] < 1e-9 and 0.0 <= r["max_norm_drift"] < 1e-12 for r in runs)

    rabi = _diagnostics(tmp_path, RABI_YAML)
    assert rabi["dropped"] == []
    assert [pt["n_nuclei"] for pt in rabi["points"]] == [16, 25, 36, 49]
    for pt in rabi["points"]:
        assert set(pt) == {"n_nuclei", "steps", "nfev", "linear_deviation"}
        assert 12 * pt["steps"] <= pt["nfev"] and pt["steps"] > 0
        # a kick this small keeps every point in the damped linear regime
        assert 0.0 <= pt["linear_deviation"] < 1e-5

    health = _diagnostics(tmp_path, LINDBLAD_YAML)
    assert set(health) == {"trace_drift", "min_eigenvalue", "steps", "nfev"}
    assert 0.0 <= health["trace_drift"] < 1e-12
    assert -1e-12 < health["min_eigenvalue"] <= 0.0
    assert health["steps"] == health["nfev"] == 0    # the static run is exact

    pumped = _diagnostics(tmp_path, PUMPED_LINDBLAD_YAML)
    assert 12 * pumped["steps"] <= pumped["nfev"] and pumped["steps"] > 0
    assert 0.0 <= pumped["trace_drift"] < 1e-9

    assert _diagnostics(tmp_path, SPECTRUM_YAML) == {}


@pytest.mark.parametrize("name", list(MINIMAL_CONFIGS))
def test_every_run_explains_itself(tmp_path, name):
    """Each run that steps a solver or a propagator writes non-empty
    diagnostics, each scan entry included; a closed form writes none.  A
    rerun of the same config gives the same manifest up to duration_seconds."""
    diagnostics = _diagnostics(tmp_path, MINIMAL_CONFIGS[name])
    if name in ("coupling", "spectrum", "phase-diagram"):
        assert diagnostics == {}
        return
    assert diagnostics
    for key, entries in diagnostics.items():
        # rabi's `dropped` is empty when no N is overdamped
        if isinstance(entries, list) and key != "dropped":
            assert entries and all(entries)


# runs main(argv) in a fresh interpreter, then prints the modules it loaded
_PROBE = """\
import json, sys
from thcavity.cli import main
argv = json.loads(sys.argv[1])
code = None if argv is None else main(argv)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# what a run that steps nothing must not load
_HEAVY = {"scipy.integrate", "scipy.special", "scipy.linalg", "scipy.optimize",
          "concurrent.futures.process"}


def _loaded_modules(tmp_path, argv):
    env = dict(os.environ)
    src = str(Path(thcavity.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                         capture_output=True, text=True, env=env, cwd=tmp_path,
                         timeout=120)
    probe = json.loads(res.stdout.splitlines()[-1])
    return probe["code"], set(probe["modules"])


def _run_argv(tmp_path, name):
    text = {**MINIMAL_CONFIGS, "lindblad11-pumped": PUMPED_LINDBLAD_YAML}[name]
    experiment = yaml.safe_load(text)["experiment"]
    return [experiment, "--config", write(tmp_path, text), "--out", str(tmp_path / "o"),
            "--jobs", "1"]


@pytest.mark.parametrize("case", ["import", "list", "config-error"])
def test_startup_loads_no_solver(tmp_path, case):
    """Importing the CLI, listing the experiments and rejecting a config load
    neither scipy's solvers nor the process pool."""
    bad = write(tmp_path, SUPERRADIANCE_YAML.replace("n_samples: 200", "n_samples: 1"))
    argv = {"import": None, "list": ["list"],
            "config-error": ["superradiance", "--config", bad, "--out", str(tmp_path / "o")]}[case]
    code, modules = _loaded_modules(tmp_path, argv)
    assert code == {"import": None, "list": 0, "config-error": 2}[case]
    assert not modules & _HEAVY


@pytest.mark.parametrize("name", [*MINIMAL_CONFIGS, "lindblad11-pumped"])
def test_no_run_loads_scipy(tmp_path, name):
    """DOP853 and expm are the package's own: no run, closed form, adaptive or
    exact propagator, loads any scipy module, and at --jobs 1 none loads the
    process pool."""
    code, modules = _loaded_modules(tmp_path, _run_argv(tmp_path, name))
    assert code == 0
    assert not {m for m in modules if m == "scipy" or m.startswith("scipy.")}
    assert "concurrent.futures.process" not in modules


def test_overflowing_master_equation_exits_1_without_artifacts(tmp_path, capsys):
    """kappa_vuv = 1e300 overflows the exact propagator: the run must fail
    loudly instead of writing NaN populations."""
    cfg = yaml.safe_load(LINDBLAD_YAML)
    cfg["model"]["kappa_vuv"] = 1.0e300
    out = tmp_path / "out"
    assert main(["lindblad11", "--config", write(tmp_path, yaml.safe_dump(cfg)),
                 "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "lindblad11.csv").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_bundled_configs_pass_the_schema(path):
    """Every bundled config validates without running, so a schema change that
    drops a field a config still sets fails here, not in a figure run."""
    raw = _load_config(path)
    _apply(_SCHEMAS[raw["experiment"]], raw, "")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["sweep_master", "dicke_burst"])
def test_benchmark_configs_pass_the_schema(monkeypatch, workload, seed):
    """Every config of the benchmark's workloads validates, read the way the
    benchmark writes it, so a schema change that drops a field a workload sets
    fails here, not in the benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    items = workloads.plan(workload, seed)
    assert items
    for item in items:
        raw = yaml.safe_load(workloads.to_yaml(item.config))
        _apply(_SCHEMAS[raw["experiment"]], raw, item.name)


def _switches(field, keys=()):
    """Key paths of every optional true/false or choice field under a section."""
    out = []
    for key, child in field.children.items():
        if child.kind == "section":
            out += _switches(child, keys + (key,))
        elif not child.required and (child.kind == "bool" or child.choices is not None):
            out.append(keys + (key,))
    return out


def _sets(cfg, keys):
    for k in keys:
        if not isinstance(cfg, dict) or k not in cfg:
            return False
        cfg = cfg[k]
    return True


def test_every_switch_is_set_by_a_bundled_or_benchmark_config(monkeypatch):
    """A switch that no bundled config and no benchmark config sets at seeds
    1-3 is turned only by tests: it changes no artifact a user sees, so the
    schema does not take it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    configs = [_load_config(path) for path in sorted(CONFIGS.glob("*.yaml"))]
    configs += [yaml.safe_load(workloads.to_yaml(item.config))
                for workload in workloads.WORKLOADS for seed in (1, 2, 3)
                for item in workloads.plan(workload, seed)]
    unset = [f"{name}: {'.'.join(keys)}" for name, schema in _SCHEMAS.items()
             for keys in _switches(schema)
             if not any(cfg["experiment"] == name and _sets(cfg, keys) for cfg in configs)]
    assert unset == []


def test_the_c_loader_reads_every_config_as_the_python_loader_does(monkeypatch, tmp_path):
    """_load_config parses with a subclass of libyaml's CSafeLoader where
    PyYAML has it; every bundled config, every benchmark config and every
    snippet in this file loads to the same dict, with the same types, as under
    SafeLoader."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    texts = [path.read_text() for path in sorted(CONFIGS.glob("*.yaml"))]
    texts += [workloads.to_yaml(item.config) for workload in workloads.WORKLOADS
              for seed in (1, 2, 3) for item in workloads.plan(workload, seed)]
    snippets = [v for k, v in globals().items() if k.endswith("_YAML")]
    assert len(snippets) >= 10
    texts += snippets
    path = tmp_path / "cfg.yaml"
    for text in texts:
        path.write_text(text)
        assert repr(_load_config(path)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("sigma", ["1e-4", "1E-04", "0.0001e0", "100e-6"])
def test_a_float_without_a_dot_or_an_exponent_sign_is_a_number(tmp_path, sigma):
    """Floats resolve as in YAML 1.2: sigma 1e-4 runs as 1.0e-4 does, to the
    same bytes, where YAML 1.1 would read a string.  The shared loaders keep
    YAML 1.1."""
    outs = []
    for text in ("1.0e-4", sigma):
        outs.append(tmp_path / text)
        cfg = write(tmp_path, SUPERRADIANCE_YAML.replace("sigma: 1.0e-4", f"sigma: {text}"))
        assert main(["superradiance", "--config", cfg, "--out", str(outs[-1])]) == 0
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir()) and len(names) == 5
    for name in names:
        if name != "manifest.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma, mb = (json.loads((d / "manifest.json").read_text()) for d in (a, b))
    ma.pop("duration_seconds"), mb.pop("duration_seconds")
    assert ma == mb and ma["config"]["pump"]["sigma"] == 1e-4
    for loader in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:
        assert yaml.load(f"a: {sigma}", Loader=loader) == {"a": sigma}


@pytest.mark.parametrize("value", [".nan", ".NaN", ".inf", "-.inf", "+.INF"])
def test_a_yaml_non_finite_float_is_a_config_error(tmp_path, capsys, value):
    cfg = write(tmp_path, SUPERRADIANCE_YAML.replace("sigma: 1.0e-4", f"sigma: {value}"))
    assert main(["superradiance", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: pump.sigma: ")


def test_bool_is_not_a_number(tmp_path, capsys):
    cfg = write(tmp_path, SPECTRUM_YAML.replace("n_points: 21", "n_points: true"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "scan.n_points" in capsys.readouterr().err


def test_unknown_experiment(tmp_path, capsys):
    cfg = write(tmp_path, SPECTRUM_YAML.replace("experiment: spectrum",
                                                "experiment: warp"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_subcommand_config_mismatch(tmp_path, capsys):
    cfg = write(tmp_path, SPECTRUM_YAML)
    assert main(["coupling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["spectrum", "--config", write(tmp_path, "a: [unclosed"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["spectrum", "--config", write(tmp_path, "- 1\n- 2\n", "l.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "top level" in capsys.readouterr().err


def test_jobs_must_be_positive(tmp_path):
    cfg = write(tmp_path, SPECTRUM_YAML)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o"),
              "--jobs", "0"])
    assert exc.value.code == 2


def test_run_config_api(tmp_path):
    cfg = write(tmp_path, SPECTRUM_YAML)
    manifest = run_config(cfg, out_dir=tmp_path / "api")
    assert manifest["unit"] == "rad/s"
    assert manifest["outputs"] == ["spectrum.csv"]
    with pytest.raises(ConfigError, match="subcommand"):
        run_config(cfg, out_dir=tmp_path / "api2", expected="rabi")


def test_output_prefix_override(tmp_path):
    cfg = write(tmp_path, SPECTRUM_YAML + "output:\n  prefix: branches\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "branches.csv").exists()


def test_progress_goes_through_the_thcavity_logger(tmp_path, caplog, capsys):
    caplog.set_level(logging.INFO, logger="thcavity")
    out = tmp_path / "o"
    assert main(["superradiance", "--config", write(tmp_path, SUPERRADIANCE_YAML),
                 "--out", str(out), "--jobs", "1"]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "thcavity"]
    assert messages[:3] == ["[superradiance] N=4 done", "[superradiance] N=6 done",
                            "[superradiance] too few N values for a peak-scaling fit"]
    assert messages[3].startswith(f"[superradiance] wrote 5 files to {out} in ")
    assert len(messages) == 4
    # without --verbose nothing reaches stderr
    assert capsys.readouterr().err == ""


def test_reproduce_figures_only_takes_a_comma_separated_list(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    src = str(Path(thcavity.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(repo / "scripts" / "reproduce_figures.py"),
         "--only", "coupling,fig2de", "--out", str(tmp_path), "--quiet"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coupling", "fig2de_spectrum"]
    assert (tmp_path / "fig2de_spectrum" / "manifest.json").exists()
