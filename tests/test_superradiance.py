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
from scipy.special import bdtrc

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
    ladder_cut,
    lifetime_vs_kappa,
    peak_scaling_fit,
    post_pump_segment,
    pulse_width_fwhm,
    pump_fraction,
    pump_off_time,
    pumped_effective_model,
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


def _two_level_reference(model, span, n_samples, phase=0.0):
    """N = 1 is a driven two-level atom: the master equation with
    H = d(t) sigma+ + conj(d(t)) sigma-, d = drive_coupling * envelope(t) cut
    at pump_off_time, and sqrt(gamma) sigma- (lower state first)."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    t_off = pump_off_time(model.pump)

    def magnitude(t):
        return abs(model.drive_coupling * model.pump.envelope(t)) if t <= t_off else 0.0

    # d sigma+ + conj(d) sigma- = |d| h1 for a pump of constant phase
    h1 = np.exp(1j * phase) * sm.T + np.exp(-1j * phase) * sm
    gen = liouvillian(np.zeros((2, 2)), [math.sqrt(model.gamma_eff) * sm])
    drive = liouvillian(h1)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    rhos, _, _ = solve_sampled(lambda t, y: gen @ y + magnitude(t) * (drive @ y), span,
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


@pytest.mark.parametrize("phase", [0.7, math.pi / 2, -2.5])
def test_complex_pump_amplitude_is_a_rotation_the_columns_do_not_see(phase):
    """A pump a e^{i phi} drives d sigma+ + conj(d) sigma-; intensity, g1 and
    <Jz> equal the N = 1 master equation under that Hamiltonian."""
    gamma, d0, sigma = 2.0, 1.5, 0.05
    pump = calibrate_pump(d0, sigma=sigma, fraction=0.2)
    pump = replace(pump, amplitude=pump.amplitude * complex(math.cos(phase), math.sin(phase)))
    model = EffectiveModel(drive_coupling=d0, gamma_eff=gamma, pump=pump)
    span = (0.0, 3.0)
    ts = simulate_superradiance(model, DickeSpace(1), span, n_samples=400,
                                rtol=1e-10, atol=1e-12)
    ref = _two_level_reference(model, span, 400, phase)
    excited = ref[:, 1, 1].real
    coherence = np.abs(ref[:, 0, 1])
    assert coherence.max() > 0.1
    np.testing.assert_allclose(ts.column("intensity"), gamma * excited, atol=1e-7)
    np.testing.assert_allclose(ts.column("jz"), excited - 0.5, atol=1e-7)
    bright = excited > 1e-6
    np.testing.assert_allclose(ts.column("g1")[bright],
                               coherence[bright] / np.sqrt(excited[bright]), atol=1e-6)


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
    solved before the ladder cut, the exact decay and the real reduction;
    columns as simulate_superradiance."""
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
    return np.column_stack([np.concatenate(ab) for ab in zip(head, tail)])


def assert_matches_oracle(values, ref):
    """Intensity and <Jz> to 1e-9 of their column maxima, g1 to 1e-9."""
    for col, scale in ((0, np.abs(ref[:, 0]).max()), (1, 1.0),
                       (2, np.abs(ref[:, 2]).max())):
        np.testing.assert_allclose(values[:, col], ref[:, col], rtol=0, atol=1e-9 * scale)


# N = 40 is the smallest size here whose ladder is cut (K = 37)
@pytest.mark.parametrize("n", [1, 4, 12, 16, 40])
def test_burst_matches_the_full_ladder_oracle(n):
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300,
                                rtol=1e-10, atol=1e-12)
    k = ladder_cut(n, 0.1)
    assert ts.meta["ladder_cut"] == k == (37 if n == 40 else n)
    assert k == n or ts.meta["top_population"] < 1e-14
    assert_matches_oracle(ts.values, full_ladder_burst(model, DickeSpace(n), 300))


@pytest.mark.parametrize("n, fraction, k", [
    (100, 0.1, 54), (120, 0.1, 58), (300, 0.1, 94), (500, 0.1, 127),
    (16, 0.1, 16), (50, 0.0, 10), (7, 0.0, 7), (50, 0.99, 50), (50, 1.0, 50)])
def test_ladder_cut(n, fraction, k):
    assert ladder_cut(n, fraction) == k


def bdtrc_ladder_cut(n, fraction):
    """Oracle: the cut from scipy's binomial upper tail P(X > k)."""
    tails = bdtrc(np.arange(n + 1), n, fraction)
    return min(int(np.argmax(tails < superradiance._TAIL_TOL)) + superradiance._CUT_MARGIN, n)


def _burst_points(cfg):
    """(N, f) of every simulate_superradiance run of a superradiance or
    lifetime config, f = pump_fraction of the model the runner builds."""
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
        yield n, pump_fraction(model)


def test_ladder_cut_is_the_bdtrc_cut_on_every_bundled_and_benchmark_run(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    configs = [_apply(_SCHEMAS[raw["experiment"]], raw, "")
               for raw in map(_load_config, sorted((REPO / "scripts" / "configs").glob("*.yaml")))]
    configs += [item.config for workload in workloads.WORKLOADS
                for seed in [*range(1, 11), 9173] for item in workloads.plan(workload, seed)]
    points = {pt for cfg in configs if cfg["experiment"] in ("superradiance", "lifetime")
              for pt in _burst_points(cfg)}
    # figS1, figS2, the workloads' bursts and lifetime scans, all near f = 0.1
    assert {4, 8, 16, 30, 50, 60, 100, 120, 500} <= {n for n, _ in points}
    assert all(abs(f - 0.1) < 1e-12 for _, f in points)
    for n, f in points:
        assert ladder_cut(n, f) == bdtrc_ladder_cut(n, f), (n, f)


@given(st.integers(1, 1000), st.floats(0.0, 1.0))
def test_ladder_cut_is_the_bdtrc_cut(n, fraction):
    assert ladder_cut(n, fraction) == bdtrc_ladder_cut(n, fraction)


@pytest.mark.parametrize("n", [1, 2, 7, 11, 500])
@pytest.mark.parametrize("fraction", [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 1.0])
def test_ladder_cut_edges_are_the_bdtrc_cut(n, fraction):
    """log 0 at f = 0 or 1 must not turn the tail into NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = ladder_cut(n, fraction)
    assert k == bdtrc_ladder_cut(n, fraction)
    if fraction < 1e-299:      # the tail is below 1e-18 from k = 0: only the margin stays
        assert k == min(10, n)
    if fraction > 0.9:         # every level is occupied
        assert k == n


def test_pump_fraction_is_the_peak_excitation():
    model = pumped_effective_model(bad_cavity_params(10), sigma=1e-4, fraction=0.1)
    assert pump_fraction(model) == pytest.approx(0.1, rel=1e-12)
    # an area past pi tips the Bloch vector over the pole on the way
    assert pump_fraction(replace(model, drive_coupling=5.0 * model.drive_coupling)) == 1.0
    assert pump_fraction(replace(model, pump=DriveProfile())) == 0.0


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
    assert_matches_oracle(ts.values, full_ladder_burst(model, DickeSpace(n), 300))


def test_rotated_guard_trip_reruns_the_pump_on_twice_the_levels(monkeypatch, spy_solves):
    n = 40
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    monkeypatch.setattr(superradiance, "_ROTATED_LEVELS", 1)
    calls = spy_solves(superradiance)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300,
                                rtol=1e-10, atol=1e-12)
    # levels 1 and 2 end above 1e-14, level 4 below
    assert [y0.size for _, _, y0, _, _ in calls] == [2**2, 3**2, 5**2]
    assert ts.meta["rotated_cut"] == 4 and ts.meta["ladder_cut"] == 37
    assert [s["steps"] > 0 and s["nfev"] > s["steps"] for s in ts.meta["solver"]] == [True] * 3
    diag = burst_diagnostics(ts)
    assert diag["rotated_cut"] == 4
    assert diag["pump_steps"] == sum(s["steps"] for s in ts.meta["solver"])
    assert diag["pump_nfev"] == sum(s["nfev"] for s in ts.meta["solver"])
    assert_matches_oracle(ts.values, full_ladder_burst(model, DickeSpace(n), 300))


def test_ladder_guard_trip_takes_the_full_ladder_without_a_second_solve(monkeypatch,
                                                                       spy_solves):
    n = 40
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    monkeypatch.setattr(superradiance, "ladder_cut", lambda n, fraction: 3)
    calls = spy_solves(superradiance)
    ts = simulate_superradiance(model, DickeSpace(n), n_samples=300,
                                rtol=1e-10, atol=1e-12)
    assert [y0.size for _, _, y0, _, _ in calls] == [9**2]
    assert ts.meta["ladder_cut"] == n and ts.meta["rotated_cut"] == 8
    assert_matches_oracle(ts.values, full_ladder_burst(model, DickeSpace(n), 300))


def test_default_tolerances_keep_the_far_tail_within_1e_9_of_the_reference():
    """Where I < 1e-3 of the peak, g1 is a ratio of two small numbers, the
    column most sensitive to the pump's tolerance error.  At the default
    tolerances the shipped path stays within 1e-9 of the full-ladder
    reference there, and its intensity within 1e-9 of the peak everywhere."""
    n = 40
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4, fraction=0.1)
    ref = full_ladder_burst(model, DickeSpace(n), 300)
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
    model = pumped_effective_model(bad_cavity_params(40), sigma=1e-4, fraction=0.1)
    pump = model.pump

    def drive(t):
        return model.drive_coupling * abs(pump.envelope(t))

    for t0 in (0.0, 3e-4, 6e-4):
        angle = _pump_angle(model, t0)
        assert angle(t0) == 0.0
        for t in (1e-4, 4.5e-4, 5e-4, 7e-4, pump_off_time(pump)):
            ref = quad(drive, t0, t, epsabs=0.0, epsrel=1e-13, points=[pump.center])[0]
            assert angle(t) == pytest.approx(ref, rel=1e-12)
    # the whole pulse turns |0> into the coherent state of excitation sin^2(phi) = f
    assert math.sin(_pump_angle(model, -1.0)(1.0)) ** 2 == pytest.approx(0.1, rel=1e-12)


def _ladder(n, data):
    """cdn on the full ladder of N = n or on a cut one, drawn by hypothesis."""
    k = data.draw(st.sampled_from(sorted({n, data.draw(st.integers(1, n))})))
    return DickeSpace(n).lowering_amplitudes()[:k + 1]


def _pumped_model(n, data):
    """A pumped model for N = n tipped to a fraction drawn by hypothesis, with a
    drawn pump phase."""
    model = pumped_effective_model(bad_cavity_params(n), sigma=1e-4,
                                   fraction=data.draw(st.floats(0.01, 0.99)))
    phase = data.draw(st.floats(-math.pi, math.pi))
    pump = model.pump
    return replace(model, pump=replace(pump, amplitude=pump.amplitude * np.exp(1j * phase)))


@given(n=st.integers(1, 40), data=st.data(), t=st.floats(0.0, 1e-3),
       seed=st.integers(0, 2**32 - 1))
def test_rotated_rhs_is_traceless_and_symmetric(n, data, t, seed):
    m = data.draw(st.integers(1, n))
    model = _pumped_model(n, data)
    r = _random_symmetric(np.random.default_rng(seed), m + 1)
    dr = _rotated_rhs(model, DickeSpace(n), m, _pump_angle(model, 0.0))(t, r.ravel())
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
    angle = _pump_angle(model, 0.0)
    r = _random_symmetric(np.random.default_rng(seed), m + 1)
    if m < n:
        r[m - 1:] = r[:, m - 1:] = 0.0
    dr = _rotated_rhs(model, space, m, angle)(t, r.ravel()).reshape(m + 1, m + 1)
    o = _expm.expm(angle(t) * drive_generator(space))[:, :m + 1]
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
    dim = ladder_cut(n, 0.1) + 1
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
