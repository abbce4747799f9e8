import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from thcavity import maxwell_bloch
from thcavity._integrate import solve_sampled
from thcavity.maxwell_bloch import (
    MBE_COLUMNS,
    MeanFieldState,
    OverdampedSignalError,
    dominant_angular_frequency,
    extract_rabi_frequency,
    integrate_mbe,
    intensity_series,
    linear_rabi_frequency,
    rabi_kick,
    rabi_scaling_fit,
)
from thcavity.params import DriveProfile, ModelParams, TimeSeries


def params(**kw):
    base = dict(g=1.0, kappa_vuv=0.5, gamma_minus=1e-3, n_nuclei=100)
    base.update(kw)
    return ModelParams(**base)


REFERENCE_COLUMNS = ("re_alpha", "im_alpha", "re_p", "im_p", "z")


def mbe_reference(p, drive, t_span, init=None, *, n_samples, rtol=1e-8, atol=1e-10):
    """Oracle: the mean-field equations on all five real components (Re and
    Im of alpha and P, and Z, REFERENCE_COLUMNS), one run, the drive through
    its own envelope, on solve_sampled with the drive's pulse window."""
    s = MeanFieldState.ground() if init is None else init
    kappa, gamma, g, n = p.kappa_vuv, p.gamma_minus, p.g, p.n_nuclei

    def rhs(t, y):
        ar, ai, pr, pi, z = y
        return np.array([drive.envelope(t) - 0.5 * kappa * ar + n * g * pi,
                         -0.5 * kappa * ai - n * g * pr,
                         -0.5 * gamma * pr - g * z * ai,
                         -0.5 * gamma * pi + g * z * ar,
                         -gamma * (z + 1.0) - 4.0 * g * (ar * pi - ai * pr)])

    y0 = np.array([s.re_alpha, 0.0, 0.0, s.im_p, s.z])
    times = np.linspace(*t_span, n_samples)
    values, _, solver = solve_sampled(rhs, t_span, y0, times, rtol=rtol, atol=atol,
                                      pulse=drive.window)
    return TimeSeries(times=times, values=values, columns=REFERENCE_COLUMNS,
                      meta={"solver": solver})


def synthetic_trace(t, re_alpha, im_p=0.0, z=-1.0):
    cols = np.zeros((len(t), 3))
    cols[:, 0], cols[:, 1], cols[:, 2] = re_alpha, im_p, z
    return TimeSeries(times=t, values=cols, columns=MBE_COLUMNS)


def test_ground_state_is_a_fixed_point():
    ts = integrate_mbe(params(), t_span=(0.0, 5.0), n_samples=100)
    assert ts.columns == MBE_COLUMNS == ("re_alpha", "im_p", "z")
    assert np.abs(ts.values[:, :2]).max() < 1e-14
    assert np.abs(ts.values[:, 2] + 1.0).max() < 1e-14


def test_decoupled_cavity_decays_at_half_kappa():
    p = params(g=0.0, kappa_vuv=2.0, n_nuclei=1)
    init = MeanFieldState(re_alpha=1.0, im_p=0.0, z=-1.0)
    ts = integrate_mbe(p, t_span=(0.0, 3.0), init=init, n_samples=200)
    np.testing.assert_allclose(ts.column("re_alpha"),
                               np.exp(-0.5 * 2.0 * ts.times), rtol=1e-7)


def test_frozen_inversion_harmonic_limit():
    """Z pinned at -1, no loss: Re alpha = cos(Wt), Im P = -sin(Wt)/sqrt(N), W = g sqrt(N)."""
    p = params(kappa_vuv=0.0, gamma_minus=0.0)
    w = p.g * math.sqrt(p.n_nuclei)
    t_end = 3 * 2 * math.pi / w
    ts = integrate_mbe(p, t_span=(0.0, t_end),
                       init=MeanFieldState(1.0, 0.0, -1.0),
                       n_samples=1200, rtol=1e-10, atol=1e-12,
                       freeze_inversion=True)
    np.testing.assert_allclose(ts.column("re_alpha"), np.cos(w * ts.times), atol=1e-8)
    np.testing.assert_allclose(ts.column("im_p"),
                               -np.sin(w * ts.times) / math.sqrt(p.n_nuclei), atol=1e-8)
    assert np.all(ts.column("z") == -1.0)


def test_small_signal_oscillates_at_collective_rate():
    p = params(kappa_vuv=0.0, gamma_minus=0.0)
    w = p.g * math.sqrt(p.n_nuclei)
    ts = integrate_mbe(p, t_span=(0.0, 8 * 2 * math.pi / w),
                       init=MeanFieldState(1e-3, 0.0, -1.0), n_samples=4000)
    assert extract_rabi_frequency(ts) == pytest.approx(w, rel=1e-3)


def test_lossless_invariants():
    # kappa = gamma = 0 conserves |alpha|^2 + (N/2) Z and 4|P|^2 + Z^2
    p = params(g=1.0, kappa_vuv=0.0, gamma_minus=0.0, n_nuclei=25)
    ts = integrate_mbe(p, t_span=(0.0, 6.0),
                       init=MeanFieldState(0.5, 0.0, -1.0),
                       n_samples=600, rtol=1e-10, atol=1e-12)
    a2 = intensity_series(ts)
    z = ts.column("z")
    p2 = ts.column("im_p") ** 2
    assert np.ptp(a2 + 12.5 * z) < 1e-8
    assert np.ptp(4 * p2 + z**2) < 1e-8


def test_dominant_frequency_on_damped_cosine():
    t = np.linspace(0.0, 40.0, 6000)
    y = np.exp(-0.1 * t) * np.cos(5.0 * t)
    assert dominant_angular_frequency(t, y) == pytest.approx(5.0, rel=5e-3)


def test_extractor_halves_the_intensity_frequency():
    t = np.linspace(0.0, 30.0, 5000)
    ts = synthetic_trace(t, np.exp(-0.05 * t) * np.cos(4.0 * t))
    # |alpha|^2 beats at 8 rad/time; the field's frequency is 4
    assert extract_rabi_frequency(ts) == pytest.approx(4.0, rel=5e-3)


def test_monotone_decay_is_reported_overdamped():
    t = np.linspace(0.0, 10.0, 500)
    with pytest.raises(OverdampedSignalError, match="maxima"):
        dominant_angular_frequency(t, np.exp(-t))


def test_extractor_input_guards():
    with pytest.raises(ValueError, match="few"):
        dominant_angular_frequency(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError, match="matching"):
        dominant_angular_frequency(np.arange(10.0), np.arange(9.0))
    t = np.linspace(0.0, 10.0, 100)
    with pytest.raises(OverdampedSignalError, match="transient"):
        dominant_angular_frequency(t, np.cos(5 * t), transient_fraction=0.999)


def test_series_accessors():
    t = np.linspace(0.0, 1.0, 4)
    ts = synthetic_trace(t, np.array([1.0, 2.0, 0.0, -1.0]),
                         im_p=np.array([0.5, 0, 0, 0]), z=0.25)
    np.testing.assert_array_equal(intensity_series(ts), [1.0, 4.0, 0.0, 1.0])
    np.testing.assert_array_equal(ts.column("im_p"), [0.5, 0, 0, 0])
    np.testing.assert_array_equal(ts.column("z"), 0.25)


def test_drive_profile_shapes():
    g = DriveProfile(amplitude=2.0, center=1.0, width=0.5)
    assert g.envelope(1.0) == 2.0
    assert g.envelope(1.5) == pytest.approx(2.0 * math.exp(-0.5))
    assert g.window == (1.0 + 6.0 * 0.5, 0.25)
    assert DriveProfile().envelope(0.0) == 0.0 and DriveProfile().window is None
    with pytest.raises(ValueError, match="width"):
        DriveProfile(amplitude=1.0, width=0.0)


def test_kick_deposits_the_target_amplitude():
    # negligible coupling and loss: the deposited field is the pulse area
    p = ModelParams(g=1e-6, kappa_vuv=0.0, gamma_minus=1.0, n_nuclei=1)
    kick = rabi_kick(p)
    ts = integrate_mbe(p, kick, (0.0, kick.center + 5 * kick.width), n_samples=300)
    assert ts.column("re_alpha")[-1] == pytest.approx(0.01, rel=1e-3)


def test_kick_and_free_run_are_each_solved_once(spy_solves):
    """One solve, two segments: the free run starts from the kick segment's
    end state, bit for bit equal to a sample at the seam time of a kick solve
    that ends there."""
    calls = spy_solves(maxwell_bloch)
    p = params(n_nuclei=25)
    kick = rabi_kick(p)
    ts = integrate_mbe(p, kick, (0.0, 30.0), n_samples=500)

    (rhs, span, y0, samples, kw), = calls
    assert kw["pulse"] == kick.window
    seam = kick.center + 6.0 * kick.width
    head, tail = samples[samples <= seam], samples[samples > seam]
    ys, _, _ = solve_sampled(rhs, (span[0], seam), y0, np.append(head, seam), **kw)
    ys_tail, _, _ = solve_sampled(rhs, (seam, span[1]), ys[-1], tail,
                                  rtol=kw["rtol"], atol=kw["atol"])
    assert np.array_equal(ts.values, np.concatenate([ys[:-1], ys_tail]))
    assert [sorted(s) for s in ts.meta["solver"]] == [["nfev", "steps", "wall_s"]] * 2


@pytest.mark.parametrize("n", [1, 25, 400])
def test_a_real_kick_from_the_ground_never_moves_im_alpha_or_re_p(n):
    """The invariance the three-component solve rests on, on the oracle."""
    p = params(n_nuclei=n)
    kick = rabi_kick(p)
    ref = mbe_reference(p, kick, (0.0, kick.center + 40.0 / math.sqrt(n)),
                        n_samples=500)
    assert np.abs(ref.column("re_alpha")).max() > 1e-3
    assert np.abs(ref.column("im_p")).max() > 1e-5
    assert (ref.column("im_alpha") == 0.0).all()
    assert (ref.column("re_p") == 0.0).all()


@pytest.mark.parametrize("amplitude", [0.3 - 0.2j], ids=["complex-drive"])
def test_an_input_off_the_real_subspace_is_an_error(amplitude, spy_solves):
    """A drive off the real subspace never reaches the solve: DriveProfile
    rejects it when built. The state cannot leave the subspace by type."""
    calls = spy_solves(maxwell_bloch)
    with pytest.raises(ValueError, match="drive amplitude must be a finite real number"):
        drive = DriveProfile(amplitude=amplitude, center=1.0, width=0.2)
        integrate_mbe(params(), drive, (0.0, 1.0), n_samples=10)
    assert calls == []


def test_kick_needs_a_rate_scale():
    with pytest.raises(ValueError, match="rate"):
        rabi_kick(ModelParams(g=0.0, kappa_vuv=0.0, gamma_minus=0.0, n_nuclei=1))


def test_scaling_fit_recovers_the_coupling():
    p = ModelParams(g=1.0, kappa_vuv=0.5, gamma_minus=1e-3, n_nuclei=1)
    fit = rabi_scaling_fit([16, 25, 36, 49], p, n_samples=1200)
    assert fit.slope == pytest.approx(1.0, rel=5e-3)
    assert fit.r_squared > 0.9999
    assert len(fit.points) == 4
    ns = [n for n, _, _ in fit.points]
    assert ns == sorted(ns)
    assert [tr.meta["params"].n_nuclei for tr in fit.traces] == ns
    for (_, _, w), tr in zip(fit.points, fit.traces):
        assert extract_rabi_frequency(tr, transient_fraction=0.05) == w


def test_scaling_fit_needs_four_points():
    p = ModelParams(g=1.0, kappa_vuv=0.5, gamma_minus=1e-3, n_nuclei=1)
    with pytest.raises(ValueError, match="4 distinct"):
        rabi_scaling_fit([10, 10, 20], p)


def test_scaling_fit_rejects_fully_overdamped_scans():
    # kappa/4 far above g sqrt(N) for every N in the scan
    p = ModelParams(g=1.0, kappa_vuv=500.0, gamma_minus=1e-3, n_nuclei=1)
    with pytest.raises(OverdampedSignalError, match="overdamped"):
        rabi_scaling_fit([4, 9, 16, 25], p, n_samples=500)


def test_stacked_scan_matches_independent_tight_runs():
    """Oracle for the stacked scan: each point against its own run of the
    five-component equations (mbe_reference) at rtol 1e-12, atol 1e-16, on
    the same time column.  The shared solve
    takes at most 1.2x the steps of the largest point run on its own at the
    default tolerances."""
    p = ModelParams(g=1.0, kappa_vuv=0.5, gamma_minus=1e-3, n_nuclei=1)
    ns = [16, 25, 36, 49]
    fit = rabi_scaling_fit(ns, p, n_samples=1200)
    assert [n for n, _, _ in fit.points] == ns
    single_steps = []
    for (n, _, w), tr in zip(fit.points, fit.traces):
        pn = replace(p, n_nuclei=n)
        kick = rabi_kick(pn)
        t_end = kick.center + 8.0 * (2.0 * math.pi / linear_rabi_frequency(n, p))
        ref = mbe_reference(pn, kick, (0.0, t_end), n_samples=1200, rtol=1e-12, atol=1e-16)
        assert np.array_equal(tr.times, np.linspace(0.0, t_end, 1200))
        assert np.array_equal(tr.times, ref.times)
        moving = np.column_stack([ref.column(c) for c in MBE_COLUMNS])
        scale = np.abs(moving).max(axis=0)
        assert (np.abs(tr.values - moving).max(axis=0) <= 1e-6 * scale).all()
        ref_w = extract_rabi_frequency(ref, transient_fraction=0.05)
        assert w == pytest.approx(ref_w, rel=1e-7)
        alone = integrate_mbe(pn, kick, (0.0, t_end), n_samples=1200)
        single_steps.append(sum(s["steps"] for s in alone.meta["solver"]))
    shared = fit.traces[0].meta["solver"]
    assert all(tr.meta["solver"] is shared for tr in fit.traces)
    assert sum(s["steps"] for s in shared) <= 1.2 * max(single_steps)


def test_stacked_scan_is_one_solve_per_segment(spy_solves):
    calls = spy_solves(maxwell_bloch)
    p = ModelParams(g=1.0, kappa_vuv=0.5, gamma_minus=1e-3, n_nuclei=1)
    fit = rabi_scaling_fit([16, 25, 36, 49], p, n_samples=600)
    (_, span, y0, _, kw), = calls            # the kicks, then the free run
    assert y0.shape == (12,)                 # (Re alpha, Im P, Z) of each point
    kicks = [tr.meta["drive"] for tr in fit.traces]
    t_ends = [tr.times[-1] for tr in fit.traces]
    mapped = [(k.center + 6.0 * k.width) * t_ends[0] / t for k, t in zip(kicks, t_ends)]
    widths = [k.width * t_ends[0] / t for k, t in zip(kicks, t_ends)]
    end, cap = kw["pulse"]
    assert end == pytest.approx(max(mapped), rel=1e-12)
    assert cap == pytest.approx(min(widths) / 2.0, rel=1e-12)
    assert span == (0.0, t_ends[0])
    assert len(fit.traces[0].meta["solver"]) == 2


# (steps, nfev) per segment and sha256 of the sampled values of integrate_mbe
# runs, recorded from the three-component solve
ONE_RUN_RECORDS = [
    ("kick", [(25, 359), (55, 923)],
     "e9465ec11f90724d1f2d7c07ee530f50b7b5e23a91716cd8cae1e73d434bfd39"),
    ("frozen", [(35, 527)],
     "bddb6ad095b26f390d1462f11e06c8bb1af0f3af4d10b13ab7d206a71e40040e"),
]


def _one_run(case):
    if case == "kick":
        p = ModelParams(g=1.0, kappa_vuv=0.5, gamma_minus=1e-3, n_nuclei=25)
        kick = rabi_kick(p)
        omega = math.sqrt(25 - ((0.5 - 1e-3) / 4.0) ** 2)
        return integrate_mbe(p, kick, (0.0, kick.center + 6.0 * 2.0 * math.pi / omega),
                             n_samples=1200)
    return integrate_mbe(params(kappa_vuv=0.0, gamma_minus=0.0), t_span=(0.0, 2.0),
                         init=MeanFieldState(1.0, 0.0, -1.0), n_samples=400,
                         freeze_inversion=True)


@pytest.mark.parametrize("case, segments, digest", ONE_RUN_RECORDS,
                         ids=[r[0] for r in ONE_RUN_RECORDS])
def test_one_run_keeps_its_steps_and_bits(case, segments, digest):
    ts = _one_run(case)
    assert [(s["steps"], s["nfev"]) for s in ts.meta["solver"]] == segments
    assert ts.values.flags["C_CONTIGUOUS"] and ts.values.dtype == np.float64
    assert hashlib.sha256(ts.values.tobytes()).hexdigest() == digest
