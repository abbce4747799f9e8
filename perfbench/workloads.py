"""Seeded workload configs and the physics oracles that check their artifacts.

A workload is a list of `Item`s: one YAML config each, run through
`thcavity.cli.run_config`.  The seed moves only physical inputs (rates, sweep
rates k, kappa values, intermediate N values); work-size fields (n_samples, the
largest N, the number of scan points, the sweep window in units of 1/k) are
fixed, so every seed costs the same work.  Dimensionless ratios that set the
step count (Landau-Zener parameter, delta0/omega) move by at most 1%, while the
overall rate scale moves freely: the sweep dynamics are scale-free in it.

Both workloads run every dynamics module.  Each runs its own modules at full
size and the other workload's at a small size (about 6-8% of a pass), so that
every per-layer time is measured on every workload, while a change to a module
the workload does not stress still moves its wall time by far less than the
bound.  Full size is below figure size: no config takes much over 2 s, and a
pass about 3 s.  The end-to-end time takes each config's fastest pass, and
only short passes give enough of them in a run for that minimum to settle.

Each check is an oracle independent of the solver (a limit or a scaling law),
so an algorithm change that stays inside solver tolerance still passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep_master", "dicke_burst")

OMEGA_REF = 6729.114808246269   # g sqrt(N) at the N = 100 working point
G_REF = 672.9114808246269
GAMMA_MINUS = 5.747126436781609e-4


@dataclass(frozen=True)
class Item:
    """One config; `pooled` marks the scan the traced run repeats with the
    CLI's default process pool (one worker per core)."""

    name: str
    config: dict
    pooled: bool = False


def _near(rng, value, rel):
    return value * (1.0 + rng.uniform(-rel, rel))


# --- generators -------------------------------------------------------------

def _sweep_items(rng):
    omega = OMEGA_REF * rng.uniform(0.5, 2.0)
    # adiabatic (LZ parameter 4) but short: window +-1.5/k.  delta0/omega
    # = 32 keeps the bare-state mixing at the window's ends below 0.5%.
    d_slow = 32.0 * omega
    k_slow = math.pi * omega**2 / (_near(rng, 4.0, 0.005) * d_slow)
    d_fast = _near(rng, 50.0, 0.005) * omega
    k_fast = math.pi * omega**2 / (_near(rng, 0.1, 0.005) * d_fast)
    # 7 rates over two decades from 2 pi omega (the fig4d scan has 13)
    ks = [_near(rng, 2.0 * math.pi * omega * 10.0 ** (i / 3.0), 0.01)
          for i in range(7)]
    head = {"experiment": "sweep", "unit": "rad/s"}
    return [
        Item("sweep_adiabatic", {
            **head,
            "protocol": {"delta0": d_slow, "rate_k": k_slow, "omega": omega,
                         "t_start": -1.5 / k_slow, "t_end": 1.5 / k_slow},
            "output": {"prefix": "adiabatic"}}),
        Item("sweep_diabatic", {
            **head,
            "protocol": {"delta0": d_fast, "rate_k": k_fast, "omega": omega},
            "sampling": {"n_samples": 4001},
            "output": {"prefix": "diabatic"}}),
        Item("jump_scan", {
            **head,
            "protocol": {"delta0": 50.0 * omega, "omega": omega},
            "scan": {"rate_k": ks},
            "output": {"prefix": "jump"}}, pooled=True),
    ]


def _dicke_model(rng):
    return {"g": _near(rng, 106.8, 0.05), "kappa_vuv": _near(rng, 2.0e5, 0.05),
            "gamma_minus": GAMMA_MINUS, "fwm_u": _near(rng, 1000.0, 0.05)}


_PUMP = {"sigma": 1.0e-4, "fraction": 0.1}


def _lifetime_item(rng):
    model = _dicke_model(rng)
    del model["kappa_vuv"]
    kappas = [_near(rng, 1.0e5 * 5.0 ** (i / 4.0), 0.02) for i in range(5)]
    return Item("lifetime_scan", {
        "experiment": "lifetime", "unit": "rad/s",
        "model": {**model, "n_nuclei": 60},
        "scan": {"kappa_vuv": kappas},
        "pump": dict(_PUMP),
        "output": {"prefix": "lifetime"}}, pooled=True)


def _burst_item(name, rng, ns):
    return Item(name, {
        "experiment": "superradiance", "unit": "rad/s",
        "model": _dicke_model(rng),
        "runs": {"n_nuclei": ns},
        "pump": dict(_PUMP),
        "output": {"prefix": "burst"}})


def _dicke_items(rng):
    # 5 distinct N spanning x4 up to 120; only the middle three move
    ns = [30, rng.randint(52, 56), rng.randint(73, 77), rng.randint(95, 99), 120]
    return [_burst_item("burst_scan", rng, ns), _lifetime_item(rng)]


def _small_master_items(rng):
    """One small config per module of the sweep_master workload."""
    g = _near(rng, G_REF, 0.05)
    omega = g * 10.0
    rates = {"g": g, "kappa_vuv": _near(rng, 1000.0, 0.05),
             "gamma_minus": GAMMA_MINUS}
    d0 = _near(rng, 12.0, 0.005) * omega
    width = 4.0e-4 * G_REF / g
    return [
        Item("sweep_small", {
            "experiment": "sweep", "unit": "rad/s",
            "protocol": {"delta0": d0, "omega": omega,
                         "rate_k": math.pi * omega**2 / (_near(rng, 0.1, 0.005) * d0)},
            "sampling": {"n_samples": 201},
            "output": {"prefix": "diabatic"}}),
        Item("pumped_small", {
            "experiment": "lindblad11", "unit": "rad/s",
            "model": {**rates, "n_nuclei": 100, "fwm_u": _near(rng, 2000.0, 0.05),
                      "pump_amp": _near(rng, 3000.0, 0.05),
                      "pump_center": width, "pump_width": width},
            "initial_state": [1, 0, 0, 0],
            "time": {"t_end": width, "n_samples": 20},
            "options": {"collective_coupling": True},
            "output": {"prefix": "pumped"}}),
        Item("rabi_small", {
            "experiment": "rabi", "unit": "rad/s", "model": rates,
            "scan": {"n_nuclei": [25, 50, 100, 200]},
            "tolerances": {"n_samples": 400},
            "output": {"prefix": "rabi"}}),
        Item("spectrum_small", {
            "experiment": "spectrum", "unit": "rad/s", "omega": omega,
            "scan": {"delta_min": -6.0 * omega, "delta_max": 6.0 * omega,
                     "n_points": 101},
            "output": {"prefix": "spectrum"}}),
        Item("phase_small", {
            "experiment": "phase-diagram", "unit": "rad/s",
            "model": {"g": g, "gamma_minus": GAMMA_MINUS},
            "grid": {"kappa": {"min": 1.0e2, "max": 1.0e12, "n": 11},
                     "sqrt_n": {"min": 1.0, "max": 40.0, "n": 8}},
            "output": {"prefix": "phase"}}),
    ]


def _master_items(rng):
    g = _near(rng, G_REF, 0.05)
    rates = {"g": g, "kappa_vuv": _near(rng, 1000.0, 0.05),
             "gamma_minus": _near(rng, GAMMA_MINUS, 0.05)}
    # times scale with 1/g, so the dimensionless problem barely moves
    unit_time = G_REF / g
    width = 4.0e-4 * unit_time
    static = {"experiment": "lindblad11", "unit": "rad/s",
              "model": {**rates, "n_nuclei": 100},
              "initial_state": [0, 0, 1, 0],
              "time": {"t_end": 3.0e-3 * unit_time, "n_samples": 600},
              "options": {"collective_coupling": True}}
    pumped = {**static,
              "model": {**static["model"], "fwm_u": _near(rng, 2000.0, 0.05),
                        "pump_amp": _near(rng, 3000.0, 0.05),
                        "pump_center": 2.5 * width, "pump_width": width},
              "initial_state": [1, 0, 0, 0],
              "time": {"t_end": 10.0 * width, "n_samples": 600}}
    omega = g * 10.0
    return [
        Item("lindblad_static", {**static, "output": {"prefix": "static"}}),
        Item("lindblad_pumped", {**pumped, "output": {"prefix": "pumped"}}),
        Item("rabi_scan", {
            "experiment": "rabi", "unit": "rad/s", "model": rates,
            "scan": {"n_nuclei": [25, 50, 100, 200]},
            "emit_traces": True,
            "output": {"prefix": "rabi"}}, pooled=True),
        Item("spectrum", {
            "experiment": "spectrum", "unit": "rad/s", "omega": omega,
            "scan": {"delta_min": -6.0 * omega, "delta_max": 6.0 * omega,
                     "n_points": 1001},
            "output": {"prefix": "spectrum"}}),
        Item("phase_diagram", {
            "experiment": "phase-diagram", "unit": "rad/s",
            "model": {"g": g, "gamma_minus": rates["gamma_minus"]},
            "grid": {"kappa": {"min": 1.0e2, "max": 1.0e12, "n": 101},
                     "sqrt_n": {"min": 1.0, "max": 40.0, "n": 40}},
            "output": {"prefix": "phase"}}),
        Item("coupling", {
            "experiment": "coupling", "unit": "rad/s",
            "transition": {"wavelength": 148.3821e-9, "vacuum_lifetime": 1740.0,
                           "mode_volume": _near(rng, 1.0e-15, 0.05)},
            "collective": {"n_nuclei": 100, "kappa_vuv": rates["kappa_vuv"],
                           "gamma_minus": rates["gamma_minus"]},
            "output": {"prefix": "coupling"}}),
    ]


def plan(workload: str, seed: int) -> list[Item]:
    """The workload's configs for this seed; same seed, same configs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_master":
        # small states: the 2-state sweeps, then the 11-state and mean-field
        # runs, then a burst scan far below figure size
        return (_sweep_items(rng) + _master_items(rng)
                + [_burst_item("burst_small", rng, [4, 8, 16])])
    if workload == "dicke_burst":
        return _dicke_items(rng) + _small_master_items(rng)
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


# --- YAML -------------------------------------------------------------------

def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        text = repr(v)
        mantissa, e, exp = text.partition("e")
        # YAML 1.1 reads a float only with a dot in the mantissa
        if e and "." not in mantissa:
            text = f"{mantissa}.0e{exp}"
        return text
    return str(v)


def to_yaml(mapping: dict, indent: int = 0) -> str:
    """Block-style YAML of nested dicts, flow-style lists of scalars."""
    pad = " " * indent
    lines = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(to_yaml(value, indent + 2).rstrip("\n"))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{', '.join(_scalar(v) for v in value)}]")
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")
    return "\n".join(lines) + "\n"


# --- oracles ----------------------------------------------------------------

def _csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = list(zip(*(map(float, line.split(",")) for line in lines[1:])))
    return dict(zip(header, cols))


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _worst(deviations) -> float:
    # NaN counts as the worst possible deviation
    return max(d if d == d else math.inf for d in map(abs, deviations))


def _population_sum(cfg, out):
    cols = _csv(out / f"{cfg['output']['prefix']}.csv")
    pops = [c for name, c in cols.items() if name.startswith("p_")]
    worst = _worst(sum(row) - 1.0 for row in zip(*pops))
    if not worst <= 1e-6:
        return f"populations sum to 1 only within {worst:.3e} (> 1e-6)"
    return None


def _check_adiabatic(cfg, out):
    p = _json(out / "adiabatic.json")["p_nuclear_final"]
    return None if p >= 0.99 else f"p_nuclear_final = {p:.6f} < 0.99"


def _check_diabatic(cfg, out):
    cols = _csv(out / "diabatic.csv")
    if not cols["p_photon"][-1] >= 0.5:
        return f"p_photon[-1] = {cols['p_photon'][-1]:.6f} < 0.5"
    worst = _worst(u + l - 1.0 for u, l in zip(cols["p_up"], cols["p_lp"]))
    return None if worst <= 1e-6 else f"p_up + p_lp off 1 by {worst:.3e} (> 1e-6)"


def _check_jump(cfg, out):
    slope = _json(out / "jump_fit.json")["slope"]
    return None if abs(slope + 1.0) <= 0.05 else f"jump-scan slope {slope:.4f} not within 0.05 of -1"


def _check_burst(cfg, out):
    exponent = _json(out / "burst_fit.json")["exponent"]
    return None if abs(exponent - 2.0) <= 0.1 else f"burst exponent {exponent:.4f} not within 0.1 of 2"


def _check_burst_small(cfg, out):
    # too few N for the CLI's fit; fit log(i_max) against log(N) here
    ns = cfg["runs"]["n_nuclei"]
    xs = [math.log(n) for n in ns]
    ys = [math.log(_json(out / f"burst_n{n}.json")["i_max"]) for n in ns]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    exponent = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))
    return None if abs(exponent - 2.0) <= 0.1 else f"burst exponent {exponent:.4f} not within 0.1 of 2"


def _check_lifetime(cfg, out):
    fit = _json(out / "lifetime_fit.json")
    if fit["r2"] >= 0.99 and fit["slope"] > 0:
        return None
    return f"lifetime fit r2 = {fit['r2']:.5f}, slope = {fit['slope']:.4g}"


def _check_rabi(cfg, out):
    slope, g = _json(out / "rabi_fit.json")["fit"]["slope"], cfg["model"]["g"]
    rel = abs(slope - g) / g
    return None if rel <= 0.02 else f"Rabi slope {slope:.6g} is {rel:.2%} off g = {g:.6g}"


_CHECKS = {
    "sweep_adiabatic": _check_adiabatic,
    "sweep_diabatic": _check_diabatic,
    "sweep_small": _check_diabatic,
    "jump_scan": _check_jump,
    "burst_scan": _check_burst,
    "burst_small": _check_burst_small,
    "lifetime_scan": _check_lifetime,
    "lindblad_static": _population_sum,
    "lindblad_pumped": _population_sum,
    "pumped_small": _population_sum,
    "rabi_scan": _check_rabi,
    "rabi_small": _check_rabi,
}


def check(item: Item, out: Path) -> str | None:
    """None if the artifacts in out pass the item's oracle, else why not."""
    manifest = _json(out / "manifest.json")
    missing = [f for f in manifest["outputs"] if not (out / f).is_file()]
    if missing:
        return f"manifest names missing outputs {missing}"
    oracle = _CHECKS.get(item.name)
    return oracle(item.config, out) if oracle else None
