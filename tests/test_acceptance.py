"""Release gate: the eleven headline checks, each printing its own verdict.

Run with -s to see the per-criterion lines.  Every test times itself against
the budget it must meet and prints

    [criterion N] label: PASS|FAIL (elapsed, limit)

before asserting, so a red criterion still reports its timing.
"""

import math
import time

import numpy as np
import pytest

from thcavity.coupling import NuclearTransition, coupling_strength
from thcavity.lindblad import (
    BASIS,
    DensityMatrix,
    basis_index,
    build_hamiltonian_explicit,
    build_hamiltonian_operators,
    integrate_master,
    standard_collapse_ops,
)
from thcavity.maxwell_bloch import (
    MeanFieldState,
    OverdampedSignalError,
    dominant_angular_frequency,
    extract_rabi_frequency,
    integrate_mbe,
    rabi_kick,
    rabi_scaling_fit,
)
from thcavity.params import ModelParams
from thcavity.phase_diagram import classify_rates
from thcavity.spectrum import hopfield_coefficients
from thcavity.superradiance import (
    DickeSpace,
    lifetime_vs_kappa,
    peak_scaling_fit,
    post_pump_segment,
    pumped_effective_model,
    simulate_superradiance,
)
from thcavity.sweep import SweepProtocol, integrate_sweep, jump_time_scan

G_WORKING = 672.9114808246269          # closed form at the reference transition
GAMMA_MINUS = 1.0 / 1740.0


def _report(n, label, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {label}: {status} ({elapsed:.2f} s, limit {limit:g} s)")


def test_criterion_1_single_nucleus_coupling():
    t = NuclearTransition(wavelength=148.3821e-9, vacuum_lifetime=1740.0,
                          effective_mode_volume=1.0e-15)
    coupling_strength(t)                      # warm the call path before timing
    start = time.perf_counter()
    g = coupling_strength(t)
    elapsed = time.perf_counter() - start

    reference = 671.13
    rel = abs(g - reference) / reference
    ok = rel <= 1e-3 and elapsed < 1e-3
    _report(1, "single-nucleus coupling", ok, elapsed, 1e-3)
    assert elapsed < 1e-3
    assert rel <= 1e-3, (
        f"g = {g:.4f} rad/s differs from the 671.13 rad/s reference by "
        f"{100 * rel:.3f}%, outside the 0.1% band.  The closed form and the "
        "dipole-moment/vacuum-field route agree to 1e-12 on CODATA 2018 "
        "constants, so the discrepancy lies in the reference number, not in "
        "this computation."
    )


def test_criterion_2_rabi_slope_tracks_coupling():
    start = time.perf_counter()
    p = ModelParams(g=G_WORKING, kappa_vuv=1000.0, gamma_minus=GAMMA_MINUS,
                    n_nuclei=100)
    fit = rabi_scaling_fit([100, 200, 300, 400, 500], p)
    elapsed = time.perf_counter() - start

    rel = abs(fit.slope - G_WORKING) / G_WORKING
    ok = rel <= 0.02 and fit.r_squared >= 0.999 and elapsed < 30.0
    _report(2, "collective Rabi slope", ok, elapsed, 30.0)
    assert elapsed < 30.0
    assert rel <= 0.02, f"slope {fit.slope} vs g {G_WORKING}: {100 * rel:.2f}% off"
    assert fit.r_squared >= 0.999


def test_criterion_3_hopfield_balance():
    start = time.perf_counter()
    c2, x2, _, _ = hopfield_coefficients(0.0, 2.0)
    deltas = np.linspace(-20.0, 20.0, 1001)
    c2s, x2s, c2u, x2u = hopfield_coefficients(deltas, 2.0)
    worst = max(np.abs(c2s + x2s - 1.0).max(), np.abs(c2u + x2u - 1.0).max())
    elapsed = time.perf_counter() - start

    ok = c2 == 0.5 and x2 == 0.5 and worst <= 1e-12 and elapsed < 1.0
    _report(3, "resonant mixing fractions", ok, elapsed, 1.0)
    assert elapsed < 1.0
    assert c2 == 0.5 and x2 == 0.5
    assert worst <= 1e-12


def test_criterion_4_hamiltonian_paths_agree():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for draw in range(100):
        p = ModelParams(
            g=rng.uniform(0.1, 5.0),
            kappa_vuv=rng.uniform(0.0, 2.0),
            gamma_minus=rng.uniform(0.0, 1.0),
            n_nuclei=int(rng.integers(1, 200)),
            omega1=rng.uniform(-5.0, 5.0),
            omega2=rng.uniform(-5.0, 5.0),
            omega_vuv=rng.uniform(-5.0, 5.0),
            e_nuc=rng.uniform(-5.0, 5.0),
            fwm_u=rng.uniform(0.0, 3.0),
            pump_amp=rng.uniform(0.0, 2.0),
            pump_center=rng.uniform(0.0, 1.0),
            pump_width=rng.uniform(0.05, 0.5),
            kappa1=rng.uniform(0.0, 2.0),
            kappa2=rng.uniform(0.0, 2.0),
        )
        t = rng.uniform(0.0, 2.0)
        collective = bool(draw % 2)
        a = build_hamiltonian_explicit(p, t, collective_coupling=collective)
        b = build_hamiltonian_operators(p, t, collective_coupling=collective)
        worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-12 and elapsed < 1.0
    _report(4, "Hamiltonian assembly cross-check", ok, elapsed, 1.0)
    assert elapsed < 1.0
    assert worst <= 1e-12, f"entrywise gap {worst:.3e}"


def test_criterion_5_master_equation_hygiene():
    start = time.perf_counter()
    p = ModelParams(g=G_WORKING, kappa_vuv=1000.0, gamma_minus=GAMMA_MINUS,
                    n_nuclei=100)
    h = build_hamiltonian_explicit(p, collective_coupling=True)
    ops = standard_collapse_ops(p, collective_coupling=True)
    rho0 = DensityMatrix.pure(len(BASIS), basis_index((0, 0, 1, 0)))
    ts = integrate_master(h, rho0, ops, (0.0, 3.0e-3), n_samples=600)
    for rho in ts.values:
        DensityMatrix(rho).validate(trace_tol=1e-9, herm_tol=1e-10,
                                    eig_floor=-1e-8)
    elapsed = time.perf_counter() - start

    ok = elapsed < 60.0
    _report(5, "density-matrix hygiene", ok, elapsed, 60.0)
    assert elapsed < 60.0


def test_criterion_6_burst_peak_scaling():
    start = time.perf_counter()
    base = ModelParams(g=106.8, kappa_vuv=2.0e5, gamma_minus=GAMMA_MINUS,
                       fwm_u=1000.0, n_nuclei=50)
    runs = []
    for n in range(50, 501, 50):
        p = ModelParams(g=base.g, kappa_vuv=base.kappa_vuv,
                        gamma_minus=base.gamma_minus, fwm_u=base.fwm_u,
                        n_nuclei=n)
        model = pumped_effective_model(p, sigma=1.0e-4, fraction=0.1)
        runs.append(simulate_superradiance(model, DickeSpace(n)))

    fit = peak_scaling_fit(runs)

    big = runs[-1]
    seg_t, seg_i = post_pump_segment(big)
    peak_time = seg_t[int(np.argmax(seg_i))]
    idx = int(np.argmin(np.abs(big.times - peak_time)))
    g1_at_peak = big.column("g1")[idx]
    elapsed = time.perf_counter() - start

    ok = (abs(fit.exponent - 2.0) <= 0.1 and g1_at_peak >= 0.9
          and elapsed < 600.0)
    _report(6, "burst peak vs ensemble size", ok, elapsed, 600.0)
    assert elapsed < 600.0
    assert abs(fit.exponent - 2.0) <= 0.1, f"exponent {fit.exponent}"
    assert g1_at_peak >= 0.9, f"coherence fraction at burst peak: {g1_at_peak}"


def test_criterion_7_burst_width_tracks_cavity_loss():
    start = time.perf_counter()
    kappas = np.geomspace(1.0e5, 5.0e5, 5)
    slopes = []
    for n in (50, 100, 200):
        p = ModelParams(g=106.8, kappa_vuv=kappas[0], gamma_minus=GAMMA_MINUS,
                        fwm_u=1000.0, n_nuclei=n)
        scan = lifetime_vs_kappa(p, kappas, pump_sigma=1.0e-4)
        assert scan.r_squared >= 0.99, f"N={n}: r2 {scan.r_squared}"
        slopes.append(scan.slope)
    elapsed = time.perf_counter() - start

    ok = slopes[0] > slopes[1] > slopes[2] > 0 and elapsed < 600.0
    _report(7, "burst width vs cavity loss", ok, elapsed, 600.0)
    assert elapsed < 600.0
    assert slopes[0] > slopes[1] > slopes[2] > 0, f"slopes {slopes}"


def test_criterion_8_sweep_limits():
    start = time.perf_counter()

    # slow sweep: adiabaticity parameter 30, photon converts to the nucleus
    k_slow = math.pi / 720.0
    slow = SweepProtocol(delta0=24.0, rate_k=k_slow, omega=1.0,
                         t_start=-2.8 / k_slow, t_end=2.8 / k_slow)
    assert slow.lz_parameter == pytest.approx(30.0)
    ts = integrate_sweep(slow)
    p_nuclear = float(np.abs(ts.column("c_nuclear")[-1]) ** 2)

    # fast sweep: parameter 0.1, photon survives and beats at the detuning
    fast = SweepProtocol(delta0=50.0, rate_k=math.pi / 5.0, omega=1.0)
    assert fast.lz_parameter <= 0.1
    tf = integrate_sweep(fast, n_samples=20001)
    p_photon = np.abs(tf.column("c_photon")) ** 2
    tail = tf.times >= 3.0 / fast.rate_k
    beat = dominant_angular_frequency(tf.times[tail], p_photon[tail],
                                      transient_fraction=0.0)
    elapsed = time.perf_counter() - start

    ok = (p_nuclear >= 0.99 and p_photon[-1] >= 0.5
          and abs(beat - 50.0) <= 0.05 * 50.0 and elapsed < 10.0)
    _report(8, "sweep limits", ok, elapsed, 10.0)
    assert elapsed < 10.0
    assert p_nuclear >= 0.99, f"adiabatic transfer reached {p_nuclear}"
    assert p_photon[-1] >= 0.5, f"diabatic survival {p_photon[-1]}"
    assert beat == pytest.approx(50.0, rel=0.05)


def test_criterion_9_jump_time_slope():
    start = time.perf_counter()
    ks = np.geomspace(2.0 * math.pi, 200.0 * math.pi, 13)
    scan = jump_time_scan(1.0, 50.0, ks)
    elapsed = time.perf_counter() - start

    ok = abs(scan.slope + 1.0) <= 0.05 and elapsed < 60.0
    _report(9, "jump time vs sweep rate", ok, elapsed, 60.0)
    assert elapsed < 60.0
    assert scan.slope == pytest.approx(-1.0, abs=0.05)


def test_criterion_10_regime_boundary():
    start = time.perf_counter()
    point = classify_rates(G_WORKING, 100, 1000.0, GAMMA_MINUS)

    g, n = 106.8, 100
    kappa_star = 4.0 * g * math.sqrt(n) - GAMMA_MINUS
    period0 = 2.0 * math.pi / (g * math.sqrt(n))

    p_lo = ModelParams(g=g, kappa_vuv=0.5 * kappa_star,
                       gamma_minus=GAMMA_MINUS, n_nuclei=n)
    kick = rabi_kick(p_lo)
    omega2 = n * g**2 - ((p_lo.kappa_vuv - GAMMA_MINUS) / 4.0) ** 2
    t_end = kick.center + 8.0 * (2.0 * math.pi / math.sqrt(omega2))
    trace = integrate_mbe(p_lo, kick, (0.0, t_end), n_samples=4000)
    w = extract_rabi_frequency(trace, transient_fraction=0.05)

    # above the boundary there is no period; window on the decay instead so
    # the trace is not integrated down into the stepper's noise floor
    p_hi = ModelParams(g=g, kappa_vuv=2.0 * kappa_star,
                       gamma_minus=GAMMA_MINUS, n_nuclei=n)
    kick_hi = rabi_kick(p_hi)
    trace_hi = integrate_mbe(p_hi, kick_hi,
                             (0.0, kick_hi.center + 2.0 * period0),
                             n_samples=4000)
    with pytest.raises(OverdampedSignalError):
        extract_rabi_frequency(trace_hi, transient_fraction=0.05)
    elapsed = time.perf_counter() - start

    ok = (point.regime == "strong"
          and w == pytest.approx(math.sqrt(omega2), rel=5e-3)
          and elapsed < 120.0)
    _report(10, "regime boundary flip", ok, elapsed, 120.0)
    assert elapsed < 120.0
    assert point.regime == "strong"
    assert w == pytest.approx(math.sqrt(omega2), rel=5e-3)


def test_criterion_11_frozen_inversion_harmonic():
    start = time.perf_counter()
    p = ModelParams(g=1.0, kappa_vuv=0.0, gamma_minus=0.0, n_nuclei=100)
    omega_n = p.g * math.sqrt(p.n_nuclei)
    t_end = 10.0 * 2.0 * math.pi / omega_n
    init = MeanFieldState(re_alpha=1.0, im_p=0.0, z=-1.0)
    ts = integrate_mbe(p, t_span=(0.0, t_end), init=init, n_samples=4001,
                       freeze_inversion=True)

    # alpha = cos(W t) and P = -i sin(W t) / sqrt(N): Im alpha = Re P = 0
    alpha_ref = np.cos(omega_n * ts.times)
    im_p_ref = -np.sin(omega_n * ts.times) / math.sqrt(p.n_nuclei)
    err_a = np.abs(ts.column("re_alpha") - alpha_ref).max()
    err_p = np.abs(ts.column("im_p") - im_p_ref).max() * math.sqrt(p.n_nuclei)
    worst = max(err_a, err_p)
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-6 and elapsed < 5.0
    _report(11, "frozen-inversion harmonic limit", ok, elapsed, 5.0)
    assert elapsed < 5.0
    assert worst <= 1e-6, f"relative deviation {worst:.3e}"
