"""Dicke-ladder collective emission engine and its pump calibration."""

import math

import numpy as np
import pytest

from thcavity import superradiance
from thcavity._integrate import solve_sampled
from thcavity.lindblad import integrate_master
from thcavity.maxwell_bloch import OFF
from thcavity.params import ModelParams, TimeSeries
from thcavity.superradiance import (
    DickeSpace,
    EffectiveModel,
    PulseResolutionError,
    build_effective_model,
    calibrate_pump,
    lifetime_vs_kappa,
    peak_scaling_fit,
    post_pump_segment,
    pulse_width_fwhm,
    pump_off_time,
    pumped_effective_model,
    simulate_superradiance,
)

GAMMA_ISOMER = 1.0 / 1740.0


def bad_cavity_params(n, **kw):
    base = dict(g=106.8, kappa_vuv=2.0e5, gamma_minus=GAMMA_ISOMER,
                fwm_u=1000.0, n_nuclei=n)
    base.update(kw)
    return ModelParams(**base)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_collective_spin_algebra(n):
    sp = DickeSpace(n)
    jm, jp, jz = sp.j_minus(), sp.j_plus(), sp.j_z()
    np.testing.assert_allclose(jp @ jm - jm @ jp, 2.0 * jz, atol=1e-12)
    j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
    j = sp.j
    np.testing.assert_allclose(j2, j * (j + 1) * np.eye(sp.dim), atol=1e-12)
    np.testing.assert_allclose(jp, jm.T)


def test_ladder_amplitudes():
    sp = DickeSpace(4)
    c = sp.lowering_amplitudes()
    assert c[0] == 0.0                      # ground state is dark
    j = sp.j
    m = sp.m_values()
    np.testing.assert_allclose(c**2, (j + m) * (j - m + 1.0), atol=1e-13)
    assert sp.dim == 5


def test_space_validation():
    with pytest.raises(ValueError):
        DickeSpace(0)
    with pytest.raises(ValueError):
        DickeSpace(2.5)


def test_unpumped_ground_state_is_dark():
    model = EffectiveModel(drive_coupling=1.0, gamma_eff=0.5, pump=OFF)
    ts = simulate_superradiance(model, DickeSpace(6), (0.0, 2.0), n_samples=50)
    np.testing.assert_allclose(ts.column("intensity"), 0.0, atol=1e-14)
    np.testing.assert_allclose(ts.column("jz"), -3.0, atol=1e-12)


def test_single_nucleus_agrees_with_dense_master_equation():
    """N = 1 reduces to a driven two-level atom; cross-check the banded engine
    against the generic dense integrator on exactly that problem."""
    gamma, d0, sigma = 2.0, 1.5, 0.05
    pump = calibrate_pump(d0, sigma=sigma, fraction=0.2)
    model = EffectiveModel(drive_coupling=d0, gamma_eff=gamma, pump=pump)
    span = (0.0, 3.0)
    ts = simulate_superradiance(model, DickeSpace(1), span, n_samples=400,
                                rtol=1e-10, atol=1e-12)

    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    t_off = pump_off_time(pump)

    def ham(t):
        amp = d0 * pump.envelope(t) if t <= t_off else 0.0
        return amp * (sm + sm.T)

    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    ref = integrate_master(ham, rho0, [math.sqrt(gamma) * sm], span,
                           n_samples=400, rtol=1e-10, atol=1e-12,
                           max_step=sigma / 2)
    np.testing.assert_allclose(ts.column("intensity"),
                               gamma * ref.values[:, 1, 1].real, atol=1e-7)


# at N = 12 the RK45 step's own end state differs from the dense value in the
# last bits, so only the dense value at t_off passes there
@pytest.mark.parametrize("n", [1, 4, 12, 16])
def test_burst_matches_the_two_pass_path(spy_solves, n):
    """One pumped and one free solve, bit for bit equal to the former path
    that integrated the pump a second time only to get the switch-off state."""
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    calls = spy_solves(superradiance)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300)

    assert len(calls) == 2
    (rhs_p, span_p, rho0, head, kw_p), (rhs_f, span_f, _, tail, kw_f) = calls
    assert span_p[1] == span_f[0] == pump_off_time(model.pump)
    state_kw = {k: v for k, v in kw_p.items() if k != "observe"}
    states, _ = solve_sampled(rhs_p, span_p, rho0, np.array([span_p[1]]), **state_kw)
    obs_head, _ = solve_sampled(rhs_p, span_p, rho0, head, **kw_p)
    obs_tail, _ = solve_sampled(rhs_f, span_f, states[-1], tail, **kw_f)
    two_pass = np.column_stack([np.concatenate(ab) for ab in zip(obs_head, obs_tail)])
    assert np.array_equal(ts.values, two_pass)


@pytest.mark.parametrize("n", [4, 40])
def test_pump_calibration_is_size_independent(n):
    pump = calibrate_pump(1.0, sigma=1e-3, fraction=0.1)
    model = EffectiveModel(drive_coupling=1.0, gamma_eff=1e-6, pump=pump)
    t_off = pump_off_time(pump)
    ts = simulate_superradiance(model, DickeSpace(n), (0.0, 1.05 * t_off),
                                n_samples=200)
    fraction = (ts.column("jz")[-1] + n / 2.0) / n
    assert fraction == pytest.approx(0.1, abs=1e-3)


def test_calibrate_pump_validation():
    with pytest.raises(ValueError, match="fraction"):
        calibrate_pump(1.0, sigma=1.0, fraction=0.0)
    with pytest.raises(ValueError, match="fraction"):
        calibrate_pump(1.0, sigma=1.0, fraction=1.0)
    with pytest.raises(ValueError, match="drive"):
        calibrate_pump(0.0, sigma=1.0)
    with pytest.raises(ValueError, match="sigma"):
        calibrate_pump(1.0, sigma=-1.0)
    assert calibrate_pump(1.0, sigma=2.0).center == 10.0


def test_effective_model_rates():
    p = bad_cavity_params(100)
    m = build_effective_model(p)
    assert m.gamma_eff == pytest.approx(p.gamma_minus + 4 * p.g**2 / p.kappa_vuv)
    assert m.drive_coupling == pytest.approx(2 * p.g * p.fwm_u / p.kappa_vuv)
    assert m.bad_cavity_ratio == pytest.approx(p.kappa_vuv / (p.g * 10.0))


def test_effective_model_warns_outside_bad_cavity():
    p = bad_cavity_params(100, kappa_vuv=500.0)
    with pytest.warns(UserWarning, match="validity"):
        build_effective_model(p)


def test_effective_model_needs_cavity_loss():
    with pytest.raises(ValueError, match="kappa"):
        build_effective_model(bad_cavity_params(10, kappa_vuv=0.0))


def test_pumped_model_carries_a_calibrated_pump():
    m = pumped_effective_model(bad_cavity_params(50), sigma=1e-4, fraction=0.1)
    assert m.pump.kind == "gaussian"
    assert m.pump.width == 1e-4
    assert m.pump.amplitude > 0


def test_peak_intensity_scales_as_n_squared():
    runs = []
    for n in (8, 16, 32, 64, 128):
        model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4,
                                       fraction=0.1)
        runs.append(simulate_superradiance(model, DickeSpace(n), n_samples=800))
    fit = peak_scaling_fit(runs)
    assert fit.exponent == pytest.approx(2.0, abs=0.1)
    assert fit.r_squared > 0.999
    # the tipped ensemble radiates almost fully coherently at the burst
    ts = runs[-1]
    peak = int(np.argmax(ts.column("intensity")))
    assert ts.column("g1")[peak] > 0.9


def test_peak_fit_validation():
    model = pumped_effective_model(bad_cavity_params(8), sigma=1e-4, fraction=0.1)
    short = [simulate_superradiance(model, DickeSpace(8), n_samples=300)] * 5
    with pytest.raises(ValueError, match="distinct"):
        peak_scaling_fit(short)


def test_fwhm_of_a_gaussian_pulse():
    t = np.linspace(0.0, 10.0, 2000)
    s = 0.7
    y = np.exp(-0.5 * ((t - 5.0) / s) ** 2)
    expect = 2.0 * math.sqrt(2.0 * math.log(2.0)) * s
    assert pulse_width_fwhm(t, y) == pytest.approx(expect, rel=1e-2)


def test_fwhm_clamps_to_segment_start_for_monotone_decay():
    t = np.linspace(0.0, 10.0, 2000)
    tau = 1.3
    assert pulse_width_fwhm(t, np.exp(-t / tau)) == pytest.approx(tau * math.log(2.0),
                                                                  rel=1e-2)


def test_fwhm_resolution_errors():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(PulseResolutionError, match="half maximum"):
        pulse_width_fwhm(t, t)                       # never decays
    spike = np.zeros(50)
    spike[25] = 1.0
    with pytest.raises(PulseResolutionError, match="sample intervals"):
        pulse_width_fwhm(t, spike)
    with pytest.raises(PulseResolutionError, match="no emission"):
        pulse_width_fwhm(t, np.zeros(50))
    with pytest.raises(ValueError):
        pulse_width_fwhm(t[:3], np.ones(3))


def test_post_pump_segment_needs_tail_samples():
    ts = TimeSeries(times=np.linspace(0, 1, 10), values=np.zeros((10, 3)),
                    columns=("intensity", "g1", "jz"), meta={"t_off": 5.0})
    with pytest.raises(PulseResolutionError):
        post_pump_segment(ts)


def test_lifetime_scan_is_linear_in_kappa():
    p = bad_cavity_params(16, kappa_vuv=1.0e5)
    scan = lifetime_vs_kappa(p, [1.0e5, 2.0e5, 4.0e5], pump_sigma=1e-4,
                             n_samples=800)
    assert scan.r_squared > 0.99
    assert scan.slope > 0
    taus = [tau for _, tau in scan.points]
    assert taus == sorted(taus)


def test_lifetime_scan_needs_three_kappas():
    with pytest.raises(ValueError, match="kappa"):
        lifetime_vs_kappa(bad_cavity_params(8), [1e5, 1e5], pump_sigma=1e-4)
