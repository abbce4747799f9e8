"""Dicke-ladder collective emission engine and its pump calibration."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from thcavity import _expm, superradiance
from thcavity._integrate import solve_sampled
from thcavity.cli import _SCHEMAS, _apply, _load_config
from thcavity.lindblad import liouvillian
from thcavity.params import DriveProfile, ModelParams, TimeSeries
from thcavity.superradiance import (
    DickeSpace,
    EffectiveModel,
    PulseResolutionError,
    _decay_generators,
    _pump_angle,
    _rotated_rhs,
    _rotation,
    build_effective_model,
    burst_diagnostics,
    calibrate_pump,
    lifetime_vs_kappa,
    peak_scaling_fit,
    post_pump_segment,
    pulse_width_fwhm,
    pump_off_time,
    pumped_effective_model,
    simulate_bursts,
    simulate_superradiance,
)

GAMMA_ISOMER = 1.0 / 1740.0
REPO = Path(__file__).resolve().parents[1]


def bad_cavity_params(n, **kw):
    base = dict(g=106.8, kappa_vuv=2.0e5, gamma_minus=GAMMA_ISOMER,
                fwm_u=1000.0, n_nuclei=n)
    base.update(kw)
    return ModelParams(**base)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_collective_spin_algebra(n):
    """The amplitudes the pump and the decay use obey the su(2) algebra."""
    sp = DickeSpace(n)
    j, m = sp.j, sp.m_values()
    # J- from the library's amplitudes; J+ from the textbook raising amplitudes
    # sqrt(j (j + 1) - m (m + 1)), J+|m> = that |m + 1>
    jm = np.diag(sp.lowering_amplitudes()[1:], 1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    jz = np.diag(m)
    np.testing.assert_allclose(jp @ jm - jm @ jp, 2.0 * jz, atol=1e-12)
    j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
    np.testing.assert_allclose(j2, j * (j + 1) * np.eye(sp.dim), atol=1e-12)
    np.testing.assert_allclose(jp, jm.T, atol=1e-12)


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
    model = EffectiveModel(drive_coupling=1.0, gamma_eff=0.5)
    ts = simulate_superradiance(model, DickeSpace(6), (0.0, 2.0), n_samples=50)
    np.testing.assert_allclose(ts.column("intensity"), 0.0, atol=1e-14)
    np.testing.assert_allclose(ts.column("jz"), -3.0, atol=1e-12)
    diag = burst_diagnostics(ts)
    assert diag["pump_steps"] == diag["pump_nfev"] == 0


def _two_level_reference(model, span, n_samples):
    """N = 1 is a driven two-level atom: the master equation with
    H = d(t) (sigma+ + sigma-), d = drive_coupling * envelope(t) cut at
    pump_off_time, and sqrt(gamma) sigma- (lower state first)."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    t_off = pump_off_time(model.pump)

    def d(t):
        return model.drive_coupling * model.pump.envelope(t) if t <= t_off else 0.0

    gen = liouvillian(np.zeros((2, 2)), [math.sqrt(model.gamma_eff) * sm])
    drive = liouvillian(sm.T + sm)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    rhos, _, _ = solve_sampled(lambda t, y: gen @ y + d(t) * (drive @ y), span,
                               rho0.ravel(), np.linspace(*span, n_samples),
                               rtol=1e-10, atol=1e-12, pulse=model.pump.window)
    return rhos.reshape(n_samples, 2, 2)


def test_single_nucleus_agrees_with_dense_master_equation():
    """N = 1 reduces to a driven two-level atom; cross-check the banded engine
    against the master equation on exactly that problem."""
    gamma, d0, sigma = 2.0, 1.5, 0.05
    pump = calibrate_pump(d0, sigma=sigma, fraction=0.2)
    model = EffectiveModel(drive_coupling=d0, gamma_eff=gamma, pump=pump)
    span = (0.0, 3.0)
    ts = simulate_superradiance(model, DickeSpace(1), span, n_samples=400,
                                rtol=1e-10, atol=1e-12)
    ref = _two_level_reference(model, span, 400)
    np.testing.assert_allclose(ts.column("intensity"),
                               gamma * ref[:, 1, 1].real, atol=1e-7)


def complex_pumped_rhs(model, cdn):
    """Oracle: the pumped master equation on the complex rho over the levels
    0..len(cdn) - 1, as the pump was integrated before the real reduction."""
    dim, gamma = cdn.size, model.gamma_eff
    cdn1, g2 = cdn[1:], cdn**2
    w_anti = 0.5 * gamma * (g2[:, None] + g2[None, :])

    def rhs_pumped(t, y):
        rho = y.reshape(dim, dim)
        b = np.zeros_like(rho)
        b[1:, :] = cdn1[:, None] * rho[:-1, :]
        b[:-1, :] += cdn1[:, None] * rho[1:, :]
        s = np.zeros_like(rho)
        s[:-1, :-1] = cdn1[:, None] * rho[1:, 1:] * cdn1[None, :]
        d = model.drive_coupling * model.pump.envelope(t)
        return ((-1j * d) * (b - b.conj().T) + gamma * s - w_anti * rho).ravel()

    return rhs_pumped


def phase_pattern(dim):
    """Phi[k, l] = i^(l - k): rho = Phi o R for the engine's real state R."""
    k = np.arange(dim)
    return 1j ** ((k[None, :] - k[:, None]) % 4)


def full_ladder_burst(model, space, n_samples, *, rtol=1e-10, atol=1e-16):
    """Oracle: the pump and the free decay both integrated on the full complex
    (N+1)^2 density matrix with the banded right-hand sides, as the burst was
    solved before the ladder cut, the exact decay and the real reduction.
    Returns the columns of simulate_superradiance and the populations of the
    N+1 levels at the end of the pump."""
    dim, gamma = space.dim, model.gamma_eff
    cdn = space.lowering_amplitudes()
    cdn1, g2, m = cdn[1:], cdn**2, space.m_values()
    rhs_pumped = complex_pumped_rhs(model, cdn)
    rhs_free = complex_pumped_rhs(replace(model, pump=DriveProfile()), cdn)

    def observe(t, y):
        rho = y.reshape(dim, dim)
        pops = rho.diagonal().real
        jpjm = g2 @ pops
        g1 = abs(cdn1 @ rho.diagonal(-1)) / math.sqrt(jpjm) if jpjm > 1e-12 else 0.0
        return gamma * jpjm, g1, m @ pops

    t_off = pump_off_time(model.pump)
    samples = np.linspace(0.0, t_off + 12.0 / (space.n_nuclei * gamma), n_samples)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    kw = dict(observe=observe, rtol=rtol, atol=atol)
    head, rho_off, _ = solve_sampled(rhs_pumped, (0.0, t_off), rho0.ravel(),
                                     samples[samples <= t_off],
                                     pulse=model.pump.window, **kw)
    tail, _, _ = solve_sampled(rhs_free, (t_off, samples[-1]), rho_off,
                               samples[samples > t_off], **kw)
    pops_off = rho_off.reshape(dim, dim).diagonal().real
    return np.column_stack([np.concatenate(ab) for ab in zip(head, tail)]), pops_off


def assert_matches_oracle(values, ref):
    """Intensity and <Jz> to 1e-9 of their column maxima, g1 to 1e-9."""
    for col, scale in ((0, np.abs(ref[:, 0]).max()), (1, 1.0),
                       (2, np.abs(ref[:, 2]).max())):
        np.testing.assert_allclose(values[:, col], ref[:, col], rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("n, fraction", [
    *(pytest.param(n, 0.1, id=str(n)) for n in (1, 4, 12, 16, 40, 60)), (60, 0.5)])
def test_burst_matches_the_full_ladder_oracle(n, fraction):
    """The ladder is cut at K < N from N = 16 at f = 0.1 and at N = 60, f = 0.5;
    the levels above K hold at most 1e-14 in the oracle's own pumped state."""
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=fraction)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300,
                                rtol=1e-10, atol=1e-12)
    ref, pops_off = full_ladder_burst(model, DickeSpace(n), 300)
    k = ts.meta["ladder_cut"]
    assert (k < n) == (n >= 16)
    assert pops_off[k + 1:].sum() <= 1e-14
    assert_matches_oracle(ts.values, ref)


def _burst_runs(cfg):
    """(N, sigma, gamma_eff) of every simulate_superradiance run of a
    superradiance or lifetime config, gamma_eff of the model the runner
    builds."""
    m, pump = cfg["model"], cfg["pump"]
    if cfg["experiment"] == "superradiance":
        runs = [(n, m["kappa_vuv"]) for n in cfg["runs"]["n_nuclei"]]
    else:
        runs = [(m["n_nuclei"], k) for k in cfg["scan"]["kappa_vuv"]]
    for n, kappa in runs:
        p = ModelParams(g=m["g"], kappa_vuv=kappa, gamma_minus=m["gamma_minus"],
                        fwm_u=m["fwm_u"], n_nuclei=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the bad-cavity check
            model = pumped_effective_model(p, sigma=pump["sigma"], fraction=pump["fraction"])
        yield n, model.pump.width, model.gamma_eff


def test_every_bundled_and_benchmark_pump_is_fast_against_the_decay(monkeypatch):
    """calibrate_pump's area holds for sigma N gamma_eff << 1, and the runner
    rejects a pump past 1: every bundled and benchmark run is under that bound
    (the largest, figS1 at N = 500, is 0.0114)."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    configs = [_apply(_SCHEMAS[raw["experiment"]], raw, "")
               for raw in map(_load_config, sorted((REPO / "scripts" / "configs").glob("*.yaml")))]
    configs += [item.config for workload in workloads.WORKLOADS
                for seed in [*range(1, 11), 9173] for item in workloads.plan(workload, seed)]
    runs = [run for cfg in configs if cfg["experiment"] in ("superradiance", "lifetime")
            for run in _burst_runs(cfg)]
    # figS1, figS2, the workloads' bursts and lifetime scans
    assert {4, 8, 16, 30, 50, 60, 100, 120, 500} <= {n for n, _, _ in runs}
    assert all(sigma * n * gamma <= 1.0 for n, sigma, gamma in runs)


def test_single_nucleus_free_decay_is_exponential():
    model = pumped_effective_model(bad_cavity_params(1), sigma=1e-4, fraction=0.3)
    ts = simulate_superradiance(model, DickeSpace(1), n_samples=400)
    gamma = model.gamma_eff
    t, intensity = post_pump_segment(ts)
    free = ts.times >= t[0]
    np.testing.assert_allclose(intensity, intensity[0] * np.exp(-gamma * (t - t[0])),
                               rtol=1e-12, atol=0)
    # |rho_10| and sqrt(rho_11) both decay as exp(-gamma t / 2)
    np.testing.assert_allclose(ts.column("g1")[free], ts.column("g1")[free][0], rtol=1e-12)
    np.testing.assert_allclose(ts.column("jz")[free], intensity / gamma - 0.5, atol=1e-15)


def test_near_full_pump_keeps_the_whole_ladder():
    n = 20
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.99)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300,
                                rtol=1e-10, atol=1e-12)
    assert ts.meta["ladder_cut"] == n
    assert_matches_oracle(ts.values, full_ladder_burst(model, DickeSpace(n), 300)[0])


def test_rotated_guard_trip_reruns_the_pump_on_twice_the_levels(monkeypatch, spy_solves):
    """The guard reruns the whole stack: N = 1 holds all its levels from m = 1
    and is padded above, while N = 40 keeps doubling m."""
    ns = (1, 40)
    runs = [(pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1),
             DickeSpace(n)) for n in ns]
    monkeypatch.setattr(superradiance, "_ROTATED_LEVELS", 1)
    calls = spy_solves(superradiance)
    stack = list(simulate_bursts(runs, n_samples=300, rtol=1e-10, atol=1e-12))
    # N = 40's levels 1 and 2 end above 1e-14, level 4 below
    assert [y0.size for _, _, y0, _, _ in calls] == [2 * 2**2, 2 * 3**2, 2 * 5**2]
    assert [ts.meta["rotated_cut"] for ts in stack] == [1, 4]
    for ts, (model, space) in zip(stack, runs):
        assert ts.meta["solver"] == stack[0].meta["solver"]
        assert [s["steps"] > 0 and s["nfev"] > s["steps"] for s in ts.meta["solver"]] == [True] * 3
        diag = burst_diagnostics(ts)
        assert diag["rotated_cut"] == ts.meta["rotated_cut"]
        assert diag["pump_steps"] == sum(s["steps"] for s in ts.meta["solver"])
        assert diag["pump_nfev"] == sum(s["nfev"] for s in ts.meta["solver"])
        assert_matches_oracle(ts.values, full_ladder_burst(model, space, 300)[0])


def _burst_scan(ns, kappas, **kw):
    """(model, space) of each (N, kappa) of a burst or lifetime scan at figS1's
    pump, and the scan as one simulate_bursts call."""
    runs = [(pumped_effective_model(bad_cavity_params(n, kappa_vuv=kappa), sigma=1e-4,
                                    fraction=0.1), DickeSpace(n)) for n in ns for kappa in kappas]
    return runs, list(simulate_bursts(runs, **kw))


@pytest.mark.parametrize("ns, kappas", [
    pytest.param((4, 8, 16, 60), (2.0e5,), id="burst"),
    pytest.param((60,), (1.0e5, 2.0e5, 4.0e5), id="lifetime")])
def test_each_run_of_a_stack_is_the_run_alone(ns, kappas):
    """N = 4 and 8 are padded to the 9 levels of the stack; the lifetime runs
    each turn by their own angle.  At the default tolerances the shared solve
    takes each run's own accepted steps.  At 4000 samples the runs' grids
    differ inside the pump, where the largest N or the smallest kappa_vuv
    has 5 or 9 samples."""
    runs, stack = _burst_scan(ns, kappas, n_samples=4000)
    heads = [tuple(ts.times[ts.times <= ts.meta["t_off"]]) for ts in stack]
    assert len(set(heads)) > 1 and max(map(len, heads)) >= 5
    for (model, space), ts in zip(runs, stack):
        alone = simulate_superradiance(model, space, n_samples=4000)
        np.testing.assert_array_equal(ts.times, alone.times)
        peak = alone.column("intensity").max()
        assert np.abs(ts.column("intensity") - alone.column("intensity")).max() <= 1e-12 * peak
        assert np.abs(ts.column("g1") - alone.column("g1")).max() <= 1e-10
        assert ts.meta["solver"] == stack[0].meta["solver"]
        assert ([s["steps"] for s in ts.meta["solver"]]
                == [s["steps"] for s in alone.meta["solver"]])
        for key in ("ladder_cut", "rotated_cut", "top_population", "pump_min_eigenvalue"):
            assert ts.meta[key] == pytest.approx(alone.meta[key], rel=1e-9, abs=1e-15), key


def test_a_stack_is_one_pump_solve(spy_solves):
    calls = spy_solves(superradiance)
    runs, stack = _burst_scan((4, 30, 120), (2.0e5,))
    ((rhs, span, y0, sample_times, kw),) = calls
    assert rhs.__qualname__.endswith("rhs_pumped")
    assert y0.size == 3 * 9**2 and span == (0.0, stack[0].meta["t_off"])
    # the union of the runs' samples up to the pump's end
    heads = [ts.times[ts.times <= span[1]] for ts in stack]
    np.testing.assert_array_equal(sample_times, np.unique(np.concatenate(heads)))


def test_stacked_rhs_is_each_runs_own_with_empty_padding():
    runs, _ = _burst_scan((3, 12), (2.0e5,), n_samples=2)
    m, t = 8, 4.6e-4
    angle = _pump_angle([model for model, _ in runs], 0.0)
    r = np.zeros((2, m + 1, m + 1))
    rng = np.random.default_rng(5)
    r[0, :4, :4] = _random_symmetric(rng, 4)
    r[1] = _random_symmetric(rng, m + 1)
    dr = _rotated_rhs(runs, m, angle)(t, r.ravel()).reshape(r.shape)
    assert not dr[0, 4:].any() and not dr[0, :, 4:].any()
    for b, ((model, space), k) in enumerate(zip(runs, (3, m))):
        own = _rotated_rhs([(model, space)], k, _pump_angle([model], 0.0))
        np.testing.assert_allclose(dr[b, :k + 1, :k + 1],
                                   own(t, r[b, :k + 1, :k + 1].ravel()).reshape(k + 1, k + 1),
                                   rtol=0, atol=1e-15 * np.abs(dr[b]).max())


def test_runs_with_different_pump_windows_are_an_error():
    narrow, wide = (pumped_effective_model(bad_cavity_params(8), sigma=sigma, fraction=0.1)
                    for sigma in (1e-4, 2e-4))
    dark = EffectiveModel(drive_coupling=1.0, gamma_eff=0.5)
    for runs in ([(narrow, DickeSpace(8)), (wide, DickeSpace(8))],
                 [(narrow, DickeSpace(8)), (dark, DickeSpace(8))], []):
        with pytest.raises(ValueError, match="window"):
            simulate_bursts(runs)


def test_default_tolerances_keep_the_far_tail_within_1e_9_of_the_reference():
    """Where I < 1e-3 of the peak, g1 is a ratio of two small numbers, the
    column most sensitive to the pump's tolerance error.  At the default
    tolerances the shipped path stays within 1e-9 of the full-ladder
    reference there, and its intensity within 1e-9 of the peak everywhere."""
    n = 40
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    ref, _ = full_ladder_burst(model, DickeSpace(n), 300)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300).values
    far = ref[:, 0] < 1e-3 * ref[:, 0].max()
    assert far.sum() > 50
    assert np.abs(ts[far, 1] - ref[far, 1]).max() <= 1e-9
    assert np.abs(ts[:, 0] - ref[:, 0]).max() <= 1e-9 * ref[:, 0].max()


def test_too_few_samples_is_an_error():
    model = pumped_effective_model(bad_cavity_params(4), sigma=1e-4, fraction=0.1)
    with pytest.raises(ValueError, match="n_samples"):
        simulate_superradiance(model, DickeSpace(4), n_samples=1)
    assert len(simulate_superradiance(model, DickeSpace(4), n_samples=2).times) == 2


def _random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a + a.T


def test_pump_health_is_the_trace_and_spectrum_of_rho():
    """rho = S R S*, S = diag(i^k), shares R's trace and spectrum, so the
    health of the pumped state needs only eigvalsh of the real R.  The pump
    in the drive's frame keeps R positive to roundoff at any tolerance."""
    rng = np.random.default_rng(3)
    r = _random_symmetric(rng, 9)
    k = np.arange(9)
    rho = 1j ** (k[None, :] - k[:, None]) * r
    np.testing.assert_allclose(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(r), atol=1e-12)

    dark = simulate_superradiance(EffectiveModel(drive_coupling=1.0, gamma_eff=0.5),
                                  DickeSpace(6), (0.0, 2.0), n_samples=50)
    assert dark.meta["pump_trace_drift"] == dark.meta["pump_min_eigenvalue"] == 0.0

    n = 40
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    for rtol, atol in ((1e-7, 1e-9), (1e-11, 1e-16)):
        ts = simulate_superradiance(model, DickeSpace(n), n_samples=300, rtol=rtol, atol=atol)
        assert 0.0 <= ts.meta["pump_trace_drift"] < 1e-14
        assert -1e-12 <= ts.meta["pump_min_eigenvalue"] <= 1e-15
        diag = burst_diagnostics(ts)
        assert diag["pump_trace_drift"] == ts.meta["pump_trace_drift"]
        assert diag["pump_min_eigenvalue"] == ts.meta["pump_min_eigenvalue"]


@pytest.mark.parametrize("n", [350, 500])
def test_figs1_runs_keep_g1_below_one_and_the_pumped_state_positive(n):
    """figS1's model at the default tolerances.  |<J->|^2 <= <J+J-> for any
    state (Cauchy-Schwarz), so g1 <= 1 up to roundoff, also at the first
    samples of the pump's rise where g1 is a ratio of two small numbers."""
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    ts = simulate_superradiance(model, DickeSpace(n))
    assert ts.column("g1").max() <= 1.0 + 1e-9
    assert ts.meta["pump_min_eigenvalue"] >= -1e-12


def drive_generator(space):
    """X = J+ - J-, real antisymmetric: the drive term of R' is D(t) [X, R]."""
    c = space.lowering_amplitudes()[1:]
    return np.diag(c, -1) - np.diag(c, 1)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
@pytest.mark.parametrize("phi", [0.0, 0.3, -0.7, math.pi / 2, 2.0, math.pi])
def test_rotation_columns_are_the_exponential(n, phi):
    space = DickeSpace(n)
    m = min(n, 8)
    np.testing.assert_allclose(_rotation(space, m)(phi),
                               _expm.expm(phi * drive_generator(space))[:, :m + 1],
                               rtol=0, atol=1e-12)


def test_rotation_columns_at_zero_angle_are_the_unit_vectors():
    """A run without a pump goes back to the lab frame through O = 1: exactly."""
    for n in (1, 6, 500):
        np.testing.assert_array_equal(_rotation(DickeSpace(n), min(n, 8))(0.0),
                                      np.eye(n + 1)[:, :min(n, 8) + 1])


@pytest.mark.parametrize("m", [8, 16])
def test_rotation_columns_are_orthonormal_on_a_long_ladder(m):
    """To 1e-15 at N = 500.  The Gram matrix is summed in extended precision
    (x86 long double), or the rounding of its 501-term sums (up to 1.3e-15)
    would count against the columns."""
    columns = _rotation(DickeSpace(500), m)
    for phi in np.linspace(-3.2, 3.2, 65):
        o = columns(phi).astype(np.longdouble)
        assert np.abs(o.T @ o - np.eye(m + 1)).max() <= 1e-15, phi


def test_pump_angle_is_the_integral_of_the_drive():
    """One angle per model, here two cavity linewidths of a lifetime scan
    (each pump calibrated to its own drive) and a model pumped to f = 0.3."""
    models = [pumped_effective_model(bad_cavity_params(40, kappa_vuv=kappa), sigma=1e-4,
                                     fraction=fraction)
              for kappa, fraction in ((2.0e5, 0.1), (5.0e5, 0.1), (2.0e5, 0.3))]
    pump = models[0].pump

    for t0 in (0.0, 3e-4, 6e-4):
        angle = _pump_angle(models, t0)
        assert angle(t0).tolist() == [0.0] * 3
        for t in (1e-4, 4.5e-4, 5e-4, 7e-4, pump_off_time(pump)):
            for model, phi in zip(models, angle(t)):
                ref = quad(lambda s: model.drive_coupling * abs(model.pump.envelope(s)),
                           t0, t, epsabs=0.0, epsrel=1e-13, points=[pump.center])[0]
                assert phi == pytest.approx(ref, rel=1e-12)
    # the whole pulse turns |0> into the coherent state of excitation sin^2(phi) = f
    np.testing.assert_allclose(np.sin(_pump_angle(models, -1.0)(1.0)) ** 2, [0.1, 0.1, 0.3],
                               rtol=1e-12)


def _ladder(n, data):
    """cdn on the full ladder of N = n or on a cut one, drawn by hypothesis."""
    k = data.draw(st.sampled_from(sorted({n, data.draw(st.integers(1, n))})))
    return DickeSpace(n).lowering_amplitudes()[:k + 1]


def _pumped_model(n, data):
    """A pumped model for N = n tipped to a fraction drawn by hypothesis, with a
    drawn pump sign."""
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4,
                                   fraction=data.draw(st.floats(0.01, 0.99)))
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    return replace(model, pump=replace(model.pump, amplitude=sign * model.pump.amplitude))


@given(n=st.integers(1, 40), data=st.data(), t=st.floats(0.0, 1e-3),
       seed=st.integers(0, 2**32 - 1))
def test_rotated_rhs_is_traceless_and_symmetric(n, data, t, seed):
    m = data.draw(st.integers(1, n))
    model = _pumped_model(n, data)
    r = _random_symmetric(np.random.default_rng(seed), m + 1)
    dr = _rotated_rhs([(model, DickeSpace(n))], m, _pump_angle([model], 0.0))(t, r.ravel())
    dr = dr.reshape(m + 1, m + 1)
    assert dr.dtype == np.float64
    assert abs(np.trace(dr)) <= 1e-12 * np.abs(dr).max()
    np.testing.assert_array_equal(dr, dr.T)


@given(n=st.integers(1, 40), data=st.data(), t=st.floats(0.0, 1e-3),
       seed=st.integers(0, 2**32 - 1))
def test_rotated_rhs_is_the_lab_decay_in_the_drive_frame(n, data, t, seed):
    """R = O R~ O^T, O = expm(phi X): R' = D [X, R] + O R~' O^T, so O R~' O^T
    is the decay of R, here the pump-off complex RHS on rho = Phi o R.  The
    levels 0..m hold the rotated state exactly when it lies below level m - 1
    (L and L^T L reach two levels up), or when m = N."""
    space = DickeSpace(n)
    m = data.draw(st.integers(min(n, 2), n))
    model = _pumped_model(n, data)
    angle = _pump_angle([model], 0.0)
    r = _random_symmetric(np.random.default_rng(seed), m + 1)
    if m < n:
        r[m - 1:] = r[:, m - 1:] = 0.0
    dr = _rotated_rhs([(model, space)], m, angle)(t, r.ravel()).reshape(m + 1, m + 1)
    o = _expm.expm(angle(t)[0] * drive_generator(space))[:, :m + 1]
    phi = phase_pattern(space.dim)
    decay = complex_pumped_rhs(replace(model, pump=DriveProfile()), space.lowering_amplitudes())
    lab = decay(t, (phi * (o @ r @ o.T)).ravel()).reshape(space.dim, space.dim)
    # the scale of the decay's terms; lab itself is near 0 for a state near |0>
    scale = model.gamma_eff * space.dim**2 * np.abs(r).max()
    np.testing.assert_allclose(phi * (o @ dr @ o.T), lab, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("n", [12, 40])
def test_the_complex_pump_keeps_the_phase_pattern(n):
    """From |0><0| the complex rho stays Phi o R with R real through the pump,
    the premise of the real engine."""
    dim = n + 1
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    cdn = DickeSpace(n).lowering_amplitudes()[:dim]
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    t_off = pump_off_time(model.pump)
    states, rho_off, _ = solve_sampled(complex_pumped_rhs(model, cdn), (0.0, t_off),
                                       rho0.ravel(), np.linspace(0.0, t_off, 40),
                                       rtol=1e-7, atol=1e-9, pulse=model.pump.window)
    rhos = np.concatenate([states, rho_off[None]]).reshape(-1, dim, dim)
    r = phase_pattern(dim).conj() * rhos
    assert np.abs(r.real).max() > 0.1
    assert np.abs(r.imag).max() <= 1e-15


@given(n=st.integers(1, 60), data=st.data(), gamma=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_decay_generators_are_the_free_rhs_on_two_diagonals(n, data, gamma, seed):
    cdn = _ladder(n, data)
    k = cdn.size - 1
    a_pop, a_coh = _decay_generators(cdn, gamma)
    # the populations' generator conserves the trace: its columns sum to 0
    np.testing.assert_allclose(a_pop.sum(axis=0), 0.0, atol=1e-14 * np.abs(a_pop).max())
    model = EffectiveModel(drive_coupling=1.0, gamma_eff=gamma)
    r = _random_symmetric(np.random.default_rng(seed), k + 1)
    phi = phase_pattern(k + 1)
    drho = complex_pumped_rhs(model, cdn)(0.0, (phi * r).ravel()).reshape(k + 1, k + 1)
    dr = (phi.conj() * drho).real
    tol = 1e-13 * np.abs(dr).max()
    np.testing.assert_allclose(a_pop @ r.diagonal(), dr.diagonal(), atol=tol)
    np.testing.assert_allclose(a_coh @ r.diagonal(-1), dr.diagonal(-1), atol=tol)


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
    # three samples after the switch-off resolve no pulse width either
    ts.meta["t_off"] = 0.75
    with pytest.raises(PulseResolutionError, match="3 samples"):
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
