import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thcavity._integrate import IntegrationFailure, solve_sampled
import thcavity.sweep as sweep_module
from thcavity.sweep import (
    _DOUBLING_TOL,
    NoJumpError,
    NormDriftError,
    SampleBudgetError,
    SweepProtocol,
    _chain,
    _interval_propagators,
    _log_cosh,
    integrate_sweep,
    jump_time,
    jump_time_scan,
    polariton_populations,
)


def quiet_protocol(delta0, rate_k, omega, **kw):
    # ratios below 10 warn by design; tests that want one use it deliberately
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SweepProtocol(delta0=delta0, rate_k=rate_k, omega=omega, **kw)


def test_protocol_validation():
    with pytest.raises(ValueError, match="rate_k"):
        SweepProtocol(delta0=10.0, rate_k=0.0, omega=1.0)
    with pytest.raises(ValueError, match="omega"):
        SweepProtocol(delta0=10.0, rate_k=1.0, omega=-1.0)
    with pytest.raises(ValueError, match="delta0"):
        SweepProtocol(delta0=0.0, rate_k=1.0, omega=1.0)
    with pytest.raises(ValueError, match="crossing region"):
        SweepProtocol(delta0=2.0, rate_k=1.0, omega=1.0)


def test_protocol_warns_when_barely_separated():
    with pytest.warns(UserWarning, match="separated"):
        SweepProtocol(delta0=5.0, rate_k=1.0, omega=1.0)


def test_window_and_sweep_shape():
    proto = SweepProtocol(delta0=20.0, rate_k=4.0, omega=1.0)
    assert proto.window == (-1.25, 1.25)
    assert proto.delta(0.0) == 0.0
    assert proto.delta(100.0) == pytest.approx(20.0)
    assert proto.delta(-100.0) == pytest.approx(-20.0)
    custom = SweepProtocol(delta0=20.0, rate_k=4.0, omega=1.0,
                           t_start=-2.0, t_end=3.0)
    assert custom.window == (-2.0, 3.0)
    with pytest.raises(ValueError, match="window"):
        SweepProtocol(delta0=20.0, rate_k=4.0, omega=1.0,
                      t_start=1.0, t_end=1.0).window


def test_lz_parameter():
    proto = SweepProtocol(delta0=-50.0, rate_k=2.0, omega=3.0)
    assert proto.lz_parameter == pytest.approx(math.pi * 9.0 / (2.0 * 50.0))


def test_uncoupled_sweep_keeps_the_photon():
    proto = SweepProtocol(delta0=20.0, rate_k=2.0, omega=0.0)
    ts = integrate_sweep(proto, n_samples=201)
    np.testing.assert_allclose(np.abs(ts.column("c_photon")), 1.0, atol=1e-10)
    np.testing.assert_allclose(ts.column("c_nuclear"), 0.0, atol=1e-10)


def test_matches_brute_force_lab_frame_integration():
    """The frame transformation and phase restoration must reproduce a direct
    integration of the untransformed equations."""
    proto = quiet_protocol(12.0, 1.0, 1.0)
    ts = integrate_sweep(proto, n_samples=101)

    d0, k, w = proto.delta0, proto.rate_k, proto.omega

    def rhs(t, y):
        d = d0 * math.tanh(k * t)
        return np.array([-1j * (d * y[0] + w * y[1]), -1j * w * y[0]])

    ref, _, _ = solve_sampled(rhs, proto.window, np.array([1.0 + 0j, 0j]),
                              ts.times, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(ts.values, ref, atol=1e-9)


def dop853_sweep(proto, n_samples):
    """The sweep by DOP853 at rtol 1e-12 in the traceless frame, with the
    global phase restored at the samples: the propagator's oracle."""
    half, k, w = 0.5 * proto.delta0, proto.rate_k, proto.omega

    def rhs(t, y):
        dh = half * math.tanh(k * t)
        return np.array([-1j * (dh * y[0] + w * y[1]),
                         -1j * (w * y[0] - dh * y[1])])

    t0, t1 = proto.window
    samples = np.linspace(t0, t1, n_samples)
    amps, _, _ = solve_sampled(rhs, (t0, t1), np.array([1.0 + 0j, 0j]), samples,
                               rtol=1e-12, atol=1e-14)
    phase = (half / k) * (_log_cosh(k * samples) - _log_cosh(k * t0))
    return amps * np.exp(-1j * phase)[:, None]


@pytest.mark.parametrize("proto", [
    # adiabatic: LZ parameter 2, the photon is stored in the nucleus
    SweepProtocol(delta0=20.0, rate_k=math.pi / 40.0, omega=1.0,
                  t_start=-2.0 * 40.0 / math.pi, t_end=2.0 * 40.0 / math.pi),
    # diabatic: LZ parameter 0.25
    SweepProtocol(delta0=50.0, rate_k=math.pi / 12.5, omega=1.0),
    # reversed: the detuning falls through the crossing
    SweepProtocol(delta0=-30.0, rate_k=0.5, omega=1.0),
], ids=["adiabatic", "diabatic", "reversed"])
def test_matches_the_dop853_oracle(proto):
    ts = integrate_sweep(proto, n_samples=401)
    np.testing.assert_allclose(ts.values, dop853_sweep(proto, 401), rtol=0, atol=1e-9)


@settings(max_examples=40)
@given(ratio=st.floats(3.0, 60.0), sign=st.sampled_from([-1.0, 1.0]),
       rate_k=st.floats(0.5, 20.0),
       omega=st.one_of(st.just(0.0), st.floats(0.05, 4.0)))
def test_propagator_is_unitary(ratio, sign, rate_k, omega):
    delta0 = sign * ratio * (omega if omega > 0 else 1.0)
    # the protocol's own test: 3.0 * 1.9 rounds to a ratio just below 3
    assume(omega == 0.0 or abs(delta0) / omega >= 3.0)
    proto = quiet_protocol(delta0, rate_k, omega)
    times = np.linspace(*proto.window, 51)
    a, b = _interval_propagators(times, proto, 4)
    np.testing.assert_allclose(np.abs(a) ** 2 + np.abs(b) ** 2, 1.0, rtol=0, atol=1e-14)
    assert integrate_sweep(proto, n_samples=201).meta["max_norm_drift"] < 1e-12


def sequential_chain(a, b):
    """Oracle: the states from the photon (1, 0), one interval at a time."""
    p, q = 1.0 + 0.0j, 0.0j
    out = [(p, q)]
    for aj, bj in zip(a.tolist(), b.tolist()):
        p, q = aj * p - bj.conjugate() * q, bj * p + aj.conjugate() * q
        out.append((p, q))
    return np.array(out)


@settings(max_examples=40)
@given(ratio=st.floats(3.0, 60.0), sign=st.sampled_from([-1.0, 1.0]),
       rate_k=st.floats(0.5, 20.0), omega=st.floats(0.05, 4.0),
       n_samples=st.integers(1, 700), m=st.sampled_from([1, 2, 8]))
def test_prefix_chain_is_the_sequential_chain(ratio, sign, rate_k, omega, n_samples, m):
    delta0 = sign * ratio * omega
    # the protocol's own test: 3.0 * omega / omega can round to just below 3
    assume(abs(delta0) / omega >= 3.0)
    proto = quiet_protocol(delta0, rate_k, omega)
    a, b = _interval_propagators(np.linspace(*proto.window, n_samples), proto, m)
    states = _chain(a, b)
    assert states.shape == (n_samples, 2)
    np.testing.assert_allclose(states, sequential_chain(a, b), rtol=0, atol=1e-13)


def test_step_is_fourth_order():
    # halving the step cuts the error 16-fold; without the commutator term
    # b_y the step would be second order and cut it 4-fold
    proto = SweepProtocol(delta0=30.0, rate_k=1.0, omega=1.0)
    times = np.linspace(*proto.window, 101)
    ref = _chain(*_interval_propagators(times, proto, 256))
    errs = [np.abs(_chain(*_interval_propagators(times, proto, m)) - ref).max()
            for m in (2, 4, 8)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_meta_records_the_step_doubling():
    proto = SweepProtocol(delta0=30.0, rate_k=1.0, omega=1.0)
    meta = integrate_sweep(proto, n_samples=101).meta
    m = meta["substeps"]
    assert m >= 2 and m & (m - 1) == 0       # a power of two
    assert 0.0 <= meta["doubling_error"] <= _DOUBLING_TOL
    assert "rtol" not in meta and "atol" not in meta


def test_unresolvable_sweep_raises_instead_of_running_on():
    # two samples over a crossing of 1e6 rad/s: no step count up to the cap settles
    proto = SweepProtocol(delta0=1e6, rate_k=1.0, omega=1.0)
    with pytest.raises(IntegrationFailure, match="did not settle"):
        integrate_sweep(proto, n_samples=2)


def test_norm_is_conserved_at_defaults():
    proto = SweepProtocol(delta0=24.0, rate_k=math.pi / (8 * 24),
                          omega=1.0, t_start=-2.8 * 8 * 24 / math.pi,
                          t_end=2.8 * 8 * 24 / math.pi)
    ts = integrate_sweep(proto)
    assert ts.meta["max_norm_drift"] <= 1e-9


def test_norm_guard_trips_on_impossible_tolerance(monkeypatch):
    monkeypatch.setattr(sweep_module, "_NORM_TOL", 1e-16)
    proto = SweepProtocol(delta0=30.0, rate_k=1.0, omega=1.0)
    with pytest.raises(NormDriftError):
        integrate_sweep(proto, n_samples=101)


def test_polariton_projection_is_complete():
    proto = SweepProtocol(delta0=30.0, rate_k=1.0, omega=1.0)
    ts = integrate_sweep(proto, n_samples=301)
    p_up, p_lp = polariton_populations(ts)
    np.testing.assert_allclose(p_up + p_lp, 1.0, atol=1e-9)


def test_initial_photon_fills_the_lower_branch():
    # far below resonance the photon is the lower polariton
    proto = SweepProtocol(delta0=30.0, rate_k=1.0, omega=1.0)
    ts = integrate_sweep(proto, n_samples=101)
    assert ts.times[0] == proto.window[0]
    assert np.array_equal(ts.values[0], [1.0, 0.0])
    up, lp = polariton_populations(ts)
    assert lp[0] > 0.998
    assert up[0] < 2e-3


def test_adiabatic_sweep_transfers_the_photon():
    k = math.pi / (8 * 24.0)   # adiabaticity parameter of 8
    proto = SweepProtocol(delta0=24.0, rate_k=k, omega=1.0,
                          t_start=-2.8 / k, t_end=2.8 / k)
    ts = integrate_sweep(proto)
    p_nuclear = np.abs(ts.column("c_nuclear")[-1]) ** 2
    assert p_nuclear > 0.99


def test_diabatic_survival_matches_the_crossing_formula():
    # survival in the diabatic state is exp(-2 Gamma) up to O(omega/delta0)
    gamma_target = 0.25
    proto = SweepProtocol(delta0=50.0, rate_k=math.pi / (gamma_target * 50.0),
                          omega=1.0)
    ts = integrate_sweep(proto, n_samples=2001)
    p_up, _ = polariton_populations(ts)
    assert abs(p_up[-1] - math.exp(-2 * gamma_target)) < 0.02


def test_jump_time_on_a_logistic_rise():
    w = 1.0
    t = np.linspace(-20.0, 20.0, 4001)
    y = 1.0 / (1.0 + np.exp(-t / w))
    # 10-90 width of a logistic is ln(81) times its scale
    assert jump_time(t, y) == pytest.approx(w * math.log(81.0), rel=1e-3)
    # a falling edge measures the same width
    assert jump_time(t, 1.0 - y) == pytest.approx(w * math.log(81.0), rel=1e-3)


def test_jump_time_guards():
    t = np.linspace(-10.0, 10.0, 500)
    with pytest.raises(NoJumpError, match="changes by"):
        jump_time(t, np.full_like(t, 0.3))
    with pytest.raises(NoJumpError):
        jump_time(t, 0.005 / (1.0 + np.exp(-t)))     # below min_jump
    with pytest.raises(ValueError, match="20 samples"):
        jump_time(np.arange(10.0), np.arange(10.0))


def loop_jump_time(times, p_up, *, plateau_fraction=0.05, min_jump=0.01):
    """jump_time as it was, one sample pair at a time: the oracle of the
    vectorized crossing search."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(p_up, dtype=float)
    n_edge = max(2, int(plateau_fraction * len(t)))
    early = float(y[:n_edge].mean())
    jump = float(y[-n_edge:].mean()) - early
    if abs(jump) < min_jump:
        raise NoJumpError("changes by")

    def first_crossing(level, start):
        sign = 1.0 if jump > 0 else -1.0
        for i in range(start, len(t) - 1):
            if sign * (y[i] - level) < 0.0 <= sign * (y[i + 1] - level):
                frac = (level - y[i]) / (y[i + 1] - y[i])
                return i, t[i] + frac * (t[i + 1] - t[i])
        return None, None

    i10, t10 = first_crossing(early + 0.1 * jump, 0)
    if t10 is None:
        raise NoJumpError("10% level never crossed")
    _, t90 = first_crossing(early + 0.9 * jump, i10)
    if t90 is None:
        raise NoJumpError("90% level never crossed after the 10% crossing")
    return float(t90 - t10)


def test_jump_time_is_the_per_sample_loop():
    # the traces of a 7-rate scan: 14 crossings, each the same float
    for k in np.geomspace(2 * math.pi, 20 * math.pi, 7):
        ts = integrate_sweep(SweepProtocol(delta0=50.0, rate_k=k, omega=1.0), n_samples=1500)
        p_up, _ = polariton_populations(ts)
        assert jump_time(ts.times, p_up) == loop_jump_time(ts.times, p_up)
    t = np.linspace(-10.0, 10.0, 400)
    rng = np.random.default_rng(4)
    for trial in range(50):
        # noisy edges cross a level several times; NaN rows never count as a crossing
        y = np.tanh(t / rng.uniform(0.2, 3.0)) + rng.normal(scale=0.3, size=t.size)
        y[rng.choice(t.size, size=trial, replace=False)] = np.nan
        y[:20] = y[-20:] = 0.0
        y[-20:] = rng.choice([-1.0, 1.0])
        try:
            expect = loop_jump_time(t, y)
        except NoJumpError as err:
            with pytest.raises(NoJumpError, match=str(err)):
                jump_time(t, y)
        else:
            assert jump_time(t, y) == expect


@pytest.mark.parametrize("gap, after, message", [
    (0.0, 1.0, "10% level"), (0.5, 1.0, "90% level"),
    # a row exactly on the level after the NaN starts no crossing either
    (0.0, 0.1, "10% level"), (0.5, 0.9, "90% level")])
def test_a_crossing_over_a_nan_row_is_no_crossing(gap, after, message):
    # a plateau at 0 (then at `gap`), one NaN row, `after`, a plateau at 1
    t = np.arange(60.0)
    y = np.where(t < 30, np.where(t < 15, 0.0, gap), 1.0)
    y[30] = np.nan
    y[31] = after
    with pytest.raises(NoJumpError, match=message):
        loop_jump_time(t, y)
    with pytest.raises(NoJumpError, match=message):
        jump_time(t, y)


def test_jump_scan_slope_is_inverse_in_rate():
    scan = jump_time_scan(1.0, 50.0, np.geomspace(2 * math.pi, 20 * math.pi, 3))
    assert scan.slope == pytest.approx(-1.0, abs=0.05)
    assert scan.r_squared > 0.999
    ks = [k for k, _, _ in scan.points]
    gammas = [g for _, g, _ in scan.points]
    assert ks == sorted(ks)
    assert gammas == sorted(gammas, reverse=True)


def test_jump_scan_needs_three_rates():
    with pytest.raises(ValueError, match="distinct"):
        jump_time_scan(1.0, 50.0, [1.0, 1.0])


def test_jump_scan_checks_its_sample_budget_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a sweep ran")
    monkeypatch.setattr(sweep_module, "integrate_sweep", no_run)
    # 8 samples per period of delta0 = 50 over 10/k: 6.4e6 at k = 1e-4
    with pytest.raises(SampleBudgetError, match=r"k = 0\.0001 takes 6\.366e\+06 samples"):
        jump_time_scan(1.0, 50.0, [3e-4, 1e-4, 2e-4])
