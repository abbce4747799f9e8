"""Config-driven batch runner.

Each subcommand reads one YAML config, runs the matching experiment, and
writes CSV/JSON artifacts plus a manifest (config, outputs, diagnostics) into
the output directory.  Configs are validated against a strict per-experiment
schema: unknown keys are rejected and physical rates have no silent defaults.
Numeric CSV fields are formatted at 17 significant digits so a rerun of the
same config is byte-identical.

The `unit` field declares how the numbers in the config are to be read (Hz or
rad/s).  Dynamics experiments are scale-free and run verbatim in the declared
unit; only `coupling` computes a dimensional value, and it reports both.
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .coupling import NuclearTransition, collective_rates, derived_coupling
from .lindblad import (
    BASIS,
    DIM,
    DensityMatrix,
    basis_index,
    build_hamiltonian_operators,
    integrate_master,
    mode_operators,
    population_series,
    project_to_basis,
    standard_collapse_ops,
)
from .maxwell_bloch import linear_rabi_frequency, rabi_scaling_fit
from .output import write_csv, write_json
from .params import ModelParams
from .phase_diagram import grid_scan
from .spectrum import spectrum_scan
from .superradiance import (
    DickeSpace,
    burst_diagnostics,
    lifetime_vs_kappa,
    peak_scaling_fit,
    post_pump_segment,
    pulse_width_fwhm,
    pumped_effective_model,
    simulate_bursts,
)
from .sweep import (
    MAX_SCAN_SAMPLES,
    NoJumpError,
    SampleBudgetError,
    SweepProtocol,
    integrate_sweep,
    jump_time,
    jump_time_scan,
    polariton_populations,
    sweep_diagnostics,
)

__all__ = ["ConfigError", "run_config", "main"]

TWO_PI = 2.0 * np.pi

_log = logging.getLogger("thcavity")


class ConfigError(Exception):
    """Config rejected; the message names the offending field by dotted path."""


# name -> (figure, one-line description); also fixes the `list` output order
EXPERIMENT_ORDER = {
    "coupling": ("Fig. 1",
                 "single-nucleus cavity coupling rate from nuclear data"),
    "spectrum": ("Fig. 2",
                 "polariton branch energies and ground-state fractions vs detuning"),
    "rabi": ("Fig. 2", "vacuum Rabi splitting scaling with sqrt(N)"),
    "lindblad11": ("Fig. 2",
                   "master-equation dynamics on the truncated four-mode basis"),
    "superradiance": ("Fig. S1",
                      "collective emission burst of the pumped ensemble"),
    "lifetime": ("Fig. S2", "emission pulse width against cavity linewidth"),
    "sweep": ("Fig. 4", "detuning-sweep storage and jump-time scaling"),
    "phase-diagram": ("Fig. 3",
                      "coupling-regime map over cavity linewidth and sqrt(N)"),
}


# ---------------------------------------------------------------------------
# schema machinery

_MISSING = object()


class _Field:
    def __init__(self, kind, *, required=True, default=_MISSING, choices=None,
                 item=None, children=None, min_distinct=0, positive=False,
                 minimum=None):
        self.kind = kind
        self.required = required
        self.default = default
        self.choices = choices
        self.item = item
        self.children = children
        self.min_distinct = min_distinct
        self.positive = positive
        self.minimum = minimum


def _num(**kw):
    return _Field("float", **kw)


def _int(**kw):
    return _Field("int", **kw)


def _str(**kw):
    return _Field("str", **kw)


def _bool(**kw):
    return _Field("bool", **kw)


def _list(item, **kw):
    return _Field("list", item=item, **kw)


def _sec(children, **kw):
    return _Field("section", children=children, **kw)


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _apply(field, value, path):
    """Validate value against field; return the canonical (defaults-filled) form."""
    if field.kind == "section":
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'}: expected a mapping")
        for key in value:
            if key not in field.children:
                raise ConfigError(f"unknown field: {_join(path, key)}")
        out = {}
        for key, child in field.children.items():
            dotted = _join(path, key)
            if key in value:
                out[key] = _apply(child, value[key], dotted)
            elif child.required:
                raise ConfigError(f"missing required field: {dotted}")
            elif child.default is not _MISSING:
                d = child.default
                out[key] = dict(d) if isinstance(d, dict) else d
        return out

    if field.kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        out = [_apply(field.item, v, f"{path}[{i}]") for i, v in enumerate(value)]
        if len(set(out)) < field.min_distinct:
            raise ConfigError(f"{path}: need at least {field.min_distinct} distinct "
                              f"values, got {sorted(set(out))}")
        return out

    if field.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be a finite number, got {value}")
    elif field.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
    elif field.kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
    elif field.kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false")

    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"{path}: must be one of {sorted(field.choices)}, got {value!r}")
    if field.positive and not value > 0:
        raise ConfigError(f"{path}: must be > 0, got {value}")
    if field.minimum is not None and not value >= field.minimum:
        raise ConfigError(f"{path}: must be >= {field.minimum}, got {value}")
    return value


def _root(children):
    return _sec({
        "experiment": _str(choices=tuple(EXPERIMENT_ORDER)),
        "unit": _str(choices=("Hz", "rad/s")),
        "output": _sec({"prefix": _str(required=False)}, required=False),
        **children,
    })


def _model_sec(required, optional=()):
    # mode energies may be negative (detunings); rates may not
    children = {}
    for name in required:
        children[name] = _int(positive=True) if name == "n_nuclei" else _num(minimum=0)
    for name in optional:
        # mirrors the ModelParams defaults: auxiliary terms off
        default = 1.0 if name == "pump_width" else 0.0
        rate_like = name in ("kappa1", "kappa2", "fwm_u", "pump_amp", "pump_width")
        children[name] = _num(required=False, default=default,
                              minimum=0 if rate_like else None)
    return _sec(children)


def _tol_sec(n_samples, min_samples):
    # the section keeps its name; the solvers' tolerances are their own defaults
    return _sec({"n_samples": _int(required=False, default=n_samples,
                                   minimum=min_samples)},
                required=False, default={"n_samples": n_samples})


_SCHEMAS = {
    "coupling": _root({
        "transition": _sec({
            "wavelength": _num(positive=True),
            "vacuum_lifetime": _num(positive=True),
            "mode_volume": _num(positive=True),
        }),
        "collective": _sec({
            "n_nuclei": _int(positive=True),
            "kappa_vuv": _num(positive=True),
            "gamma_minus": _num(positive=True),
        }, required=False),
    }),
    "spectrum": _root({
        "omega": _num(positive=True),
        "scan": _sec({
            "delta_min": _num(),
            "delta_max": _num(),
            "n_points": _int(required=False, default=1001, minimum=2),
        }),
    }),
    "rabi": _root({
        "model": _model_sec(("g", "kappa_vuv", "gamma_minus")),
        "scan": _sec({"n_nuclei": _list(_int(positive=True), min_distinct=4)}),
        # the 8-period window holds 16 |alpha|^2 cycles: below 4 samples a
        # cycle the peaks alias and the fit exits 0 with a wrong slope
        "tolerances": _tol_sec(4000, min_samples=64),
        "emit_traces": _bool(required=False, default=False),
    }),
    "lindblad11": _root({
        "model": _model_sec(
            ("g", "kappa_vuv", "gamma_minus", "n_nuclei"),
            optional=("omega1", "omega2", "omega_vuv", "e_nuc", "fwm_u",
                      "pump_amp", "pump_center", "pump_width",
                      "kappa1", "kappa2")),
        "initial_state": _list(_int(minimum=0)),
        "time": _sec({
            "t_end": _num(positive=True),
            # one sample is t = 0 alone, where t_end changes nothing
            "n_samples": _int(required=False, default=400, minimum=2),
        }),
        "options": _sec({
            "collective_coupling": _bool(required=False, default=False),
        }, required=False, default={"collective_coupling": False}),
    }),
    "superradiance": _root({
        "model": _model_sec(("g", "kappa_vuv", "gamma_minus", "fwm_u")),
        "runs": _sec({"n_nuclei": _list(_int(positive=True), min_distinct=1)}),
        "pump": _sec({
            "sigma": _num(positive=True),
            "fraction": _num(positive=True),
        }),
        # a pulse width needs 4 samples; the burst's pump takes the first
        "tolerances": _tol_sec(1200, min_samples=4),
    }),
    "lifetime": _root({
        "model": _model_sec(("g", "gamma_minus", "n_nuclei", "fwm_u")),
        "scan": _sec({"kappa_vuv": _list(_num(positive=True), min_distinct=3)}),
        "pump": _sec({
            "sigma": _num(positive=True),
            "fraction": _num(positive=True),
        }),
        "tolerances": _tol_sec(1600, min_samples=4),
    }),
    "sweep": _root({
        "protocol": _sec({
            "delta0": _num(),
            "omega": _num(minimum=0),
            "rate_k": _num(required=False, positive=True),
            "t_start": _num(required=False),
            "t_end": _num(required=False),
        }),
        "scan": _sec({"rate_k": _list(_num(positive=True), min_distinct=3)},
                     required=False),
        # a jump time needs 20 samples
        "sampling": _sec({
            "n_samples": _int(required=False, default=4001, minimum=20),
        }, required=False, default={"n_samples": 4001}),
    }),
    "phase-diagram": _root({
        "model": _model_sec(("g", "gamma_minus")),
        "grid": _sec({
            "kappa": _sec({
                "min": _num(positive=True),
                "max": _num(positive=True),
                "n": _int(required=False, default=60, minimum=2),
            }),
            "sqrt_n": _sec({
                "min": _num(positive=True),
                "max": _num(positive=True),
                "n": _int(required=False, default=60, minimum=2),
            }),
        }),
    }),
}


def _build(ctor, path, *args, **kwargs):
    # library validation errors on config-supplied values are config errors,
    # named by field when the message names exactly one keyword argument
    try:
        return ctor(*args, **kwargs)
    except (ValueError, TypeError) as err:
        words = set(re.findall(r"\w+", str(err)))
        named = [key for key in kwargs if key in words]
        if len(named) == 1:
            path = _join(path, named[0])
        raise ConfigError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# experiment runners; each returns the list of files it wrote and the
# run's diagnostics for the manifest (deterministic: no wall times)

def _run_coupling(cfg, out, prefix, map_fn):
    tr = _build(NuclearTransition, "transition",
                wavelength=cfg["transition"]["wavelength"],
                vacuum_lifetime=cfg["transition"]["vacuum_lifetime"],
                effective_mode_volume=cfg["transition"]["mode_volume"])
    d = derived_coupling(tr)
    payload = {
        "g": {"rad_per_s": d.g, "hz": d.g / TWO_PI},
        "angular_frequency": {"rad_per_s": tr.angular_frequency,
                              "hz": tr.angular_frequency / TWO_PI},
        "transition_moment_am2": d.transition_moment,
        "vacuum_field_t": d.vacuum_field,
        "inputs": {"wavelength_m": tr.wavelength,
                   "vacuum_lifetime_s": tr.vacuum_lifetime,
                   "mode_volume_m3": tr.effective_mode_volume},
    }
    if "collective" in cfg:
        col = cfg["collective"]
        g_unit = d.g if cfg["unit"] == "rad/s" else d.g / TWO_PI
        rates = _build(collective_rates, "collective", g_unit,
                       col["n_nuclei"], col["kappa_vuv"], col["gamma_minus"])
        payload["collective"] = {
            "unit": cfg["unit"],
            "g": g_unit,
            "omega_collective": rates.omega_collective,
            "gamma_eff": rates.gamma_eff,
            "cooperativity": rates.cooperativity,
            "tau_eff_estimate": rates.tau_eff_estimate,
        }
    return [write_json(out / f"{prefix}.json", payload)], {}


def _run_spectrum(cfg, out, prefix, map_fn):
    scan = cfg["scan"]
    if not scan["delta_max"] > scan["delta_min"]:
        raise ConfigError("scan.delta_max: must exceed scan.delta_min")
    columns = _build(spectrum_scan, "scan", cfg["omega"],
                     (scan["delta_min"], scan["delta_max"], scan["n_points"]))
    path = write_csv(out / f"{prefix}.csv",
                     ("delta", "e_upper", "e_lower", "c2_lp", "x2_lp"), columns)
    return [path], {}


_MBE_TRACE_HEADER = ("t", "re_alpha", "im_alpha", "abs_alpha_sq", "re_P", "im_P", "Z")


def _mbe_trace_columns(ts):
    a_re = ts.column("re_alpha")
    a_im = ts.column("im_alpha")
    return (ts.times, a_re, a_im, a_re**2 + a_im**2,
            ts.column("re_p"), ts.column("im_p"), ts.column("z"))


def _run_rabi(cfg, out, prefix, map_fn):
    mod = cfg["model"]
    ns = cfg["scan"]["n_nuclei"]
    p0 = _build(ModelParams, "model", g=mod["g"], kappa_vuv=mod["kappa_vuv"],
                gamma_minus=mod["gamma_minus"], n_nuclei=ns[0])
    fit = rabi_scaling_fit(ns, p0, n_samples=cfg["tolerances"]["n_samples"])
    files = [write_csv(out / f"{prefix}.csv", ("sqrt_n", "omega_rabi"),
                       ([s for _, s, _ in fit.points], [w for _, _, w in fit.points]))]
    files.append(write_json(out / f"{prefix}_fit.json", {
        "n_nuclei": [n for n, _, _ in fit.points],
        "sqrt_n": [s for _, s, _ in fit.points],
        "omega_rabi": [w for _, _, w in fit.points],
        "fit": {"slope": fit.slope, "intercept": fit.intercept,
                "r2": fit.r_squared},
    }))
    if cfg["emit_traces"]:
        for (n, _, _), ts in zip(fit.points, fit.traces):
            files.append(write_csv(out / f"{prefix}_trace_n{n}.csv",
                                   _MBE_TRACE_HEADER, _mbe_trace_columns(ts)))
            _log.info("[rabi] trace N=%d done", n)
    for n, why in fit.failures:
        _log.warning("[rabi] N=%d dropped from the fit: %s", n, why)
    points = [{"n_nuclei": n,
               "steps": sum(s["steps"] for s in ts.meta["solver"]),
               "nfev": sum(s["nfev"] for s in ts.meta["solver"]),
               "linear_deviation": abs(w / linear_rabi_frequency(n, p0) - 1.0)}
              for (n, _, w), ts in zip(fit.points, fit.traces)]
    return files, {"points": points,
                   "dropped": [{"n_nuclei": n, "reason": why} for n, why in fit.failures]}


def _run_lindblad11(cfg, out, prefix, map_fn):
    p = _build(ModelParams, "model", **cfg["model"])
    state = tuple(cfg["initial_state"])
    if len(state) != 4:
        raise ConfigError("initial_state: expected exactly 4 occupation numbers")
    idx = _build(basis_index, "initial_state", state)
    rho0 = DensityMatrix.pure(DIM, idx)

    collective = cfg["options"]["collective_coupling"]
    # H(t) = h0 + pump.envelope(t) * (a1 + a1^dag), h0 with the pump off
    hamiltonian = h0 = build_hamiltonian_operators(replace(p, pump_amp=0.0),
                                                   collective_coupling=collective)
    if p.pump_amp != 0.0:
        a1 = mode_operators()["a1"]
        hamiltonian = (h0, project_to_basis(a1 + a1.T), p.pump)

    collapse = standard_collapse_ops(p, collective_coupling=collective)
    ts = integrate_master(hamiltonian, rho0, collapse,
                          (0.0, cfg["time"]["t_end"]),
                          n_samples=cfg["time"]["n_samples"])

    labels = ["p_" + "".join(str(v) for v in s) for s in BASIS]
    pops = [population_series(ts, i) for i in range(DIM)]
    purity = np.einsum("tij,tji->t", ts.values, ts.values).real
    files = [write_csv(out / f"{prefix}.csv", ("t", *labels, "purity"),
                       (ts.times, *pops, purity))]
    solver = ts.meta["solver"]     # empty for the exact static run
    return files, {"trace_drift": ts.meta["trace_drift"],
                   "min_eigenvalue": ts.meta["min_eigenvalue"],
                   "steps": sum(s["steps"] for s in solver),
                   "nfev": sum(s["nfev"] for s in solver)}


def _check_pump_sigma(p, sigma):
    # calibrate_pump's area holds only for a pump fast against the collective
    # decay; a slower one is no burst, and DOP853 crawls through it for minutes
    rate = sigma * p.n_nuclei * (p.gamma_minus + 4.0 * p.g**2 / p.kappa_vuv)
    if rate > 1.0:
        raise ConfigError(f"pump.sigma: sigma * N * gamma_eff = {rate:.3g} > 1 at "
                          f"N = {p.n_nuclei}, kappa_vuv = {p.kappa_vuv}; the pump "
                          "must be fast against the collective decay")


def _run_superradiance(cfg, out, prefix, map_fn):
    mod, pump = cfg["model"], cfg["pump"]
    ns = cfg["runs"]["n_nuclei"]
    p = _build(ModelParams, "model", g=mod["g"], kappa_vuv=mod["kappa_vuv"],
               gamma_minus=mod["gamma_minus"], fwm_u=mod["fwm_u"],
               n_nuclei=ns[0])
    if not 0.0 < pump["fraction"] < 1.0:
        raise ConfigError("pump.fraction: must be in (0, 1)")
    _check_pump_sigma(replace(p, n_nuclei=max(ns)), pump["sigma"])

    # the runs share the pump's window: one pump solve for the whole scan
    runs = list(simulate_bursts(
        [(pumped_effective_model(replace(p, n_nuclei=int(n)), sigma=pump["sigma"],
                                 fraction=pump["fraction"]), DickeSpace(int(n)))
         for n in ns],
        n_samples=cfg["tolerances"]["n_samples"]))

    files = []
    for n, ts in zip(ns, runs):
        files.append(write_csv(out / f"{prefix}_n{n}.csv", ("t", "intensity", "g1", "jz"),
                               [ts.times, *map(ts.column, ("intensity", "g1", "jz"))]))
        seg_t, seg_i = post_pump_segment(ts)
        peak = int(np.argmax(seg_i))
        files.append(write_json(out / f"{prefix}_n{n}.json", {
            "N": n,
            "kappa": p.kappa_vuv,
            "i_max": float(seg_i[peak]),
            "t_burst": float(seg_t[peak]),
            "tau_eff": pulse_width_fwhm(seg_t, seg_i),
        }))
        _log.info("[superradiance] N=%d done", n)

    distinct = sorted({int(n) for n in ns})
    if len(distinct) >= 5 and distinct[-1] >= 4 * distinct[0]:
        fit = peak_scaling_fit(runs)
        files.append(write_json(out / f"{prefix}_fit.json", {
            "exponent": fit.exponent,
            "prefactor": fit.prefactor,
            "r2": fit.r_squared,
            "points": [[n, i] for n, i in fit.points],
        }))
    else:
        _log.info("[superradiance] too few N values for a peak-scaling fit")
    return files, {"runs": [burst_diagnostics(ts) for ts in runs]}


def _run_lifetime(cfg, out, prefix, map_fn):
    mod, pump = cfg["model"], cfg["pump"]
    kappas = cfg["scan"]["kappa_vuv"]
    p = _build(ModelParams, "model", g=mod["g"], gamma_minus=mod["gamma_minus"],
               fwm_u=mod["fwm_u"], n_nuclei=mod["n_nuclei"],
               kappa_vuv=kappas[0])
    if not 0.0 < pump["fraction"] < 1.0:
        raise ConfigError("pump.fraction: must be in (0, 1)")
    _check_pump_sigma(replace(p, kappa_vuv=min(kappas)), pump["sigma"])
    scan = lifetime_vs_kappa(p, kappas, pump_sigma=pump["sigma"],
                             fraction=pump["fraction"],
                             n_samples=cfg["tolerances"]["n_samples"])
    files = [write_csv(out / f"{prefix}.csv", ("kappa", "tau_eff"),
                       list(zip(*scan.points)))]
    files.append(write_json(out / f"{prefix}_fit.json", {
        "slope": scan.slope,
        "intercept": scan.intercept,
        "r2": scan.r_squared,
        "points": [[k, tau] for k, tau in scan.points],
    }))
    return files, {"runs": list(scan.diagnostics)}


def _run_sweep(cfg, out, prefix, map_fn):
    proto_cfg = cfg["protocol"]

    if "scan" in cfg:
        # each scan run sets its own rate and the default window of that rate
        for key in ("rate_k", "t_start", "t_end"):
            if key in proto_cfg:
                raise ConfigError(f"protocol.{key}: remove it when scan.rate_k is given")
        try:
            scan = jump_time_scan(proto_cfg["omega"], proto_cfg["delta0"],
                                  cfg["scan"]["rate_k"],
                                  min_samples=cfg["sampling"]["n_samples"],
                                  map_fn=map_fn)
        except SampleBudgetError as err:
            field = ("sampling.n_samples" if cfg["sampling"]["n_samples"] > MAX_SCAN_SAMPLES
                     else "scan.rate_k")
            raise ConfigError(f"{field}: {err}") from None
        files = [write_csv(out / f"{prefix}.csv", ("k", "gamma_lz", "tau_jump"),
                           list(zip(*scan.points)))]
        files.append(write_json(out / f"{prefix}_fit.json", {
            "slope": scan.slope,
            "r2": scan.r_squared,
            "points": [[k, g, tau] for k, g, tau in scan.points],
        }))
        return files, {"runs": list(scan.diagnostics)}

    if "rate_k" not in proto_cfg:
        raise ConfigError("missing required field: protocol.rate_k")
    proto = _build(SweepProtocol, "protocol", delta0=proto_cfg["delta0"],
                   rate_k=proto_cfg["rate_k"], omega=proto_cfg["omega"],
                   t_start=proto_cfg.get("t_start"),
                   t_end=proto_cfg.get("t_end"))
    ts = integrate_sweep(proto, n_samples=cfg["sampling"]["n_samples"])
    p_photon = np.abs(ts.column("c_photon")) ** 2
    p_nuclear = np.abs(ts.column("c_nuclear")) ** 2
    p_up, p_lp = polariton_populations(ts)
    files = [write_csv(out / f"{prefix}.csv",
                       ("t", "delta", "p_photon", "p_nuclear", "p_up", "p_lp"),
                       (ts.times, proto.delta(ts.times), p_photon, p_nuclear,
                        p_up, p_lp))]
    try:
        tau = jump_time(ts.times, p_up)
    except NoJumpError:
        tau = None
    files.append(write_json(out / f"{prefix}.json", {
        "k": proto.rate_k,
        "gamma_lz": proto.lz_parameter,
        "tau_jump": tau,
        "p_nuclear_final": float(p_nuclear[-1]),
    }))
    return files, sweep_diagnostics(ts)


def _run_phase_diagram(cfg, out, prefix, map_fn):
    mod, grid = cfg["model"], cfg["grid"]
    if mod["gamma_minus"] <= 0:
        raise ConfigError("model.gamma_minus: must be > 0 (cooperativity)")
    # the cooperativity margin scales as g^2 / gamma_minus at every grid point:
    # when that alone overflows, the grid is not at fault
    if not math.isfinite(mod["g"] * mod["g"]):
        raise ConfigError(f"model.g: g^2 overflows at g={mod['g']}")
    if not math.isfinite(mod["g"] * mod["g"] / mod["gamma_minus"]):
        raise ConfigError(f"model.gamma_minus: g^2 / gamma_minus overflows at "
                          f"g={mod['g']}, gamma_minus={mod['gamma_minus']}")
    for axis in ("kappa", "sqrt_n"):
        if not grid[axis]["max"] > grid[axis]["min"]:
            raise ConfigError(f"grid.{axis}.max: must exceed grid.{axis}.min")
    scan = _build(grid_scan, "grid", mod["g"], mod["gamma_minus"],
                  (grid["kappa"]["min"], grid["kappa"]["max"],
                   grid["kappa"]["n"]),
                  (grid["sqrt_n"]["min"], grid["sqrt_n"]["max"],
                   grid["sqrt_n"]["n"]))
    # the regime cells as Python strs: write_csv formats them twice as fast
    # as numpy's
    files = [write_csv(out / f"{prefix}.csv",
                       ("kappa", "sqrt_n", "regime", "margin_sc", "margin_coop"),
                       (scan.kappa_vuv, scan.sqrt_n, scan.regime.tolist(),
                        scan.margin_strong, scan.margin_cooperativity))]
    files.append(write_json(out / f"{prefix}_boundaries.json", {
        "strong": [[s, k] for s, k in scan.boundary_strong if k is not None],
        "cooperativity": [[s, k] for s, k in scan.boundary_cooperativity
                          if k is not None],
    }))
    return files, {}


# ---------------------------------------------------------------------------
# driver

_RUNNERS = {
    "coupling": _run_coupling,
    "spectrum": _run_spectrum,
    "rabi": _run_rabi,
    "lindblad11": _run_lindblad11,
    "superradiance": _run_superradiance,
    "lifetime": _run_lifetime,
    "sweep": _run_sweep,
    "phase-diagram": _run_phase_diagram,
}

def list_experiments() -> str:
    lines = [f"{name} → {fig}: {blurb}"
             for name, (fig, blurb) in EXPERIMENT_ORDER.items()]
    return "\n".join(lines)


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser with SafeLoader's constructor and resolver: the same
    dicts, parsed an order of magnitude faster.  Only floats resolve as in
    YAML 1.2, where 1e-4 and 1.0e3 are numbers; YAML 1.1 needs a dot and a
    signed exponent (1.0e-4, 1.0e+3) and reads the others as strings."""


_FLOAT = "tag:yaml.org,2002:float"
# the resolvers of YAML 1.1 without its float, copied so the shared class keeps
# its own; the YAML 1.2 float pattern also matches integers, so it goes last
_ConfigLoader.yaml_implicit_resolvers = {
    first: [(tag, regexp) for tag, regexp in resolvers if tag != _FLOAT]
    for first, resolvers in _ConfigLoader.yaml_implicit_resolvers.items()}
_ConfigLoader.add_implicit_resolver(_FLOAT, re.compile(
    r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
    r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"), list("-+0123456789."))


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


@contextmanager
def _pool_map(jobs):
    # imported here: concurrent.futures.process loads multiprocessing, which a
    # serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def run_config(config_path, *, out_dir=None, jobs=None, expected=None):
    """Validate and run one experiment config; returns the manifest dict."""
    raw = _load_config(config_path)
    name = raw.get("experiment")
    if name is None:
        raise ConfigError("missing required field: experiment")
    if name not in _RUNNERS:
        raise ConfigError(f"experiment: unknown experiment {name!r}")
    if expected is not None and name != expected:
        raise ConfigError(
            f"experiment: config declares {name!r} but the {expected!r} "
            "subcommand was invoked")

    cfg = _apply(_SCHEMAS[name], raw, "")
    prefix = cfg.get("output", {}).get("prefix", name)
    cfg["output"] = {"prefix": prefix}
    out = Path(out_dir) if out_dir is not None else Path("runs") / name
    out.mkdir(parents=True, exist_ok=True)

    uses_grid = name == "sweep" and "scan" in cfg
    pool = _pool_map(jobs) if uses_grid and jobs != 1 else nullcontext(map)

    start = time.perf_counter()
    with pool as map_fn:
        files, diagnostics = _RUNNERS[name](cfg, out, prefix, map_fn)
    duration = time.perf_counter() - start

    manifest = {
        "experiment": name,
        "unit": cfg["unit"],
        "version": __version__,
        "duration_seconds": duration,
        "config": cfg,
        "outputs": sorted(Path(f).name for f in files),
        "diagnostics": diagnostics,
    }
    write_json(out / "manifest.json", manifest)
    _log.info("[%s] wrote %d files to %s in %.2fs", name, len(files) + 1, out,
              duration)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thcavity",
        description="Cavity-coupled nuclear ensemble experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENT_ORDER:
        sp = sub.add_parser(name, help=EXPERIMENT_ORDER[name][1])
        sp.add_argument("--config", required=True, help="YAML config path")
        sp.add_argument("--out", default=None,
                        help="output directory (default runs/<experiment>)")
        sp.add_argument("--jobs", type=int, default=None,
                        help="parallel grid evaluations (default: all cores)")
        sp.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub.add_parser("list", help="list experiments and the figure each feeds")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")

    try:
        run_config(args.config, out_dir=args.out, jobs=args.jobs,
                   expected=args.command)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, MemoryError) as err:
        print(f"error [{args.command}]: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
