"""The shared integration layer: the in-package DOP853 against scipy's, step
for step; batched sampling against the per-sample loop; end state, statistics,
argument checks and non-finite guards of the adaptive solver; and the exact
stepper for constant generators."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.linalg import expm

from thcavity import lindblad, maxwell_bloch, superradiance
from thcavity._integrate import IntegrationFailure, propagate_sampled, solve_sampled
from thcavity.lindblad import (
    DensityMatrix,
    basis_index,
    build_hamiltonian_operators,
    integrate_master,
    mode_operators,
    project_to_basis,
    standard_collapse_ops,
)
from thcavity.maxwell_bloch import integrate_mbe, rabi_kick
from thcavity.params import ModelParams
from thcavity.superradiance import (
    DickeSpace,
    _decay_generators,
    pumped_effective_model,
    simulate_superradiance,
)


def oscillator(t, y):
    # driven damped oscillator: enough structure for several adaptive steps
    return np.array([y[1], -4.0 * y[0] - 0.3 * y[1] + math.cos(1.7 * t)])


# a following segment starts from y_end: it must be the state a sample at t_end records
@pytest.mark.parametrize("t_end", [1.0, 8.0])
@pytest.mark.parametrize("n_samples", [7, 0])
def test_end_state_is_the_recorded_state_at_t_end(t_end, n_samples):
    y0 = np.array([1.0, 0.0])
    samples = np.linspace(0.0, t_end, n_samples)
    values, y_end, _ = solve_sampled(oscillator, (0.0, t_end), y0, samples)
    assert len(values) == n_samples
    states, _, _ = solve_sampled(oscillator, (0.0, t_end), y0, np.array([t_end]))
    assert np.array_equal(y_end, states[-1])


def scipy_solve(rhs, t_span, y0, samples, *, observe=None, rtol=1e-8,
                atol=1e-10, pulse=None):
    """The sampler as it was before batching, on scipy's DOP853: one scalar
    dense-output call per sample.  A pulse window (end, cap) runs as two scipy
    solves: capped at cap over (t0, end), then a fresh uncapped one over
    (end, t1) from the first one's dense output at end; a window that ends
    past t1 leaves the capped one, one that ends before t0 the uncapped one.
    The oracle of solve_sampled; returns (values, y_end, (accepted steps, RHS
    calls) per segment)."""
    t0, t1 = t_span
    segments = [(t0, t1, np.inf)]
    if pulse is not None:
        end, cap = pulse
        segments = [(a, b, h) for a, b, h in [(t0, min(end, t1), cap),
                                              (max(end, t0), t1, np.inf)] if b > a]
    out = []
    i = 0
    while i < samples.size and samples[i] <= t0:
        out.append(observe(t0, y0) if observe is not None else np.array(y0, copy=True))
        i += 1
    y_end = y0
    counts = []
    for a, b, max_step in segments:
        solver = DOP853(rhs, a, y_end, b, rtol=rtol, atol=atol, max_step=max_step)
        steps = 0
        while solver.status == "running":
            if solver.step() is not None:
                raise IntegrationFailure("scipy's DOP853 failed", t=solver.t)
            steps += 1
            dense = None
            if i < samples.size and samples[i] <= solver.t:
                dense = solver.dense_output()
                while i < samples.size and samples[i] <= solver.t:
                    ys = dense(samples[i])
                    out.append(observe(samples[i], ys) if observe is not None else ys)
                    i += 1
        y_end = (dense or solver.dense_output())(b)
        counts.append((steps, solver.nfev))
    while i < samples.size:
        out.append(observe(samples[i], solver.y) if observe is not None
                   else np.array(solver.y, copy=True))
        i += 1
    if observe is not None and out and isinstance(out[0], tuple):
        values = [np.asarray(comp) for comp in zip(*out)]
    else:
        values = np.asarray(out)
    return values, y_end, counts


def segment_counts(stats):
    """(steps, nfev) of each segment of a solve_sampled run."""
    return [(s["steps"], s["nfev"]) for s in stats]


def per_sample_solve(*args, **kwargs):
    """scipy_solve's (values, y_end)."""
    return scipy_solve(*args, **kwargs)[:2]


def assert_same_run(args, kwargs, result):
    """solve_sampled's (values, y_end, stats) for args, kwargs is scipy's run
    to the bit: every value, the end state, and the steps and the RHS calls of
    each segment."""
    values, y_end, stats = result
    ref, ref_end, counts = scipy_solve(*args, **kwargs)
    assert segment_counts(stats) == counts
    assert np.array_equal(y_end, ref_end) and y_end.dtype == ref_end.dtype
    assert type(values) is type(ref)
    pairs = zip(values, ref) if isinstance(ref, list) else [(values, ref)]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in pairs)


def recorded_solves(monkeypatch, module, run):
    """run(), recording each (args, kwargs, result) of the solve_sampled calls
    it makes through module."""
    calls = []

    def recording(*args, **kwargs):
        result = solve_sampled(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, "solve_sampled", recording)
    run()
    return calls


def test_maxwell_bloch_kick_and_free_segments_are_scipys_run(monkeypatch):
    p = ModelParams(g=3.0, kappa_vuv=2.0, gamma_minus=0.1, n_nuclei=25)
    kick = rabi_kick(p)
    calls = recorded_solves(monkeypatch, maxwell_bloch, lambda: integrate_mbe(
        p, kick, (0.0, kick.center + 4.0), n_samples=500))
    assert len(calls) == 1                        # one solve: the kick, then the free run
    args, kwargs, result = calls[0]
    assert kwargs["pulse"] == kick.window == (kick.center + 6.0 * kick.width, kick.width / 2.0)
    assert len(result[2]) == 2 and all(s["steps"] > 3 for s in result[2])
    assert_same_run(args, kwargs, result)


def test_dicke_pump_is_scipys_run(monkeypatch):
    model = pumped_effective_model(
        ModelParams(g=106.8, kappa_vuv=2.0e5, gamma_minus=1e-4, fwm_u=1000.0, n_nuclei=12),
        sigma=1e-4, fraction=0.1)
    calls = recorded_solves(monkeypatch, superradiance, lambda: simulate_superradiance(
        model, DickeSpace(12), n_samples=300))
    assert len(calls) == 1
    (rhs, *_), kwargs, result = calls[0]
    assert rhs.__qualname__.endswith("rhs_pumped")
    assert kwargs["observe"].__name__ == "diagonals"
    assert kwargs["pulse"] == model.pump.window
    (stats,) = result[2]                          # the cut at t_off is inside the window
    assert stats["steps"] > 3 and len(result[0]) == 2
    assert_same_run(calls[0][0], kwargs, result)


def test_pumped_master_equation_is_scipys_run(monkeypatch):
    p = ModelParams(g=5.0, kappa_vuv=1.0, gamma_minus=0.1, n_nuclei=10, fwm_u=2.0,
                    pump_amp=3.0, pump_center=0.2, pump_width=0.05)
    a1 = mode_operators()["a1"]
    h = (build_hamiltonian_operators(replace(p, pump_amp=0.0), collective_coupling=True),
         project_to_basis(a1 + a1.T), p.pump)
    rho0 = DensityMatrix.pure(h[0].shape[0], basis_index((0, 0, 1, 0)))
    calls = recorded_solves(monkeypatch, lindblad, lambda: integrate_master(
        h, rho0, standard_collapse_ops(p, collective_coupling=True), (0.0, 0.8),
        n_samples=40))
    assert len(calls) == 1
    args, kwargs, result = calls[0]
    assert kwargs["pulse"] == p.pump.window == (0.5, 0.025)
    assert len(result[2]) == 2 and all(s["steps"] > 3 for s in result[2])
    assert_same_run(args, kwargs, result)


@pytest.mark.parametrize("cap", [np.inf, 0.05])
def test_complex_state_is_scipys_run(cap):
    # a damped spin-1 precession: y' = (-i H - gamma) y in complex arithmetic
    h = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.5j], [0.0, -0.5j, -1.0]])
    gen = -1j * h - 0.2 * np.eye(3)
    y0 = np.array([1.0, 0.5j, -0.25 + 0.1j])
    args = (lambda t, y: gen @ y * math.cos(t), (0.0, 6.0), y0, np.linspace(0.0, 6.0, 61))
    result = solve_sampled(*args, pulse=(2.5, cap))
    assert result[0].dtype == complex and all(s["steps"] > 3 for s in result[2])
    assert_same_run(args, {"pulse": (2.5, cap)}, result)


# (window, segments): ends inside t_span, past t1, before t0
WINDOWS = {
    "inside": ((3.0, 0.05), 2),
    "past-t1": ((9.0, 0.05), 1),
    "before-t0": ((-1.0, 0.05), 1),
}


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("observer", ["state", "tuple"])
def test_a_pulse_window_is_scipys_capped_then_uncapped_run(window, observer):
    """The one rule for a pulse: solve_sampled caps the step up to the
    window's end and restarts uncapped from the dense-output state there, as
    two scipy DOP853 solves do, to the bit, per segment."""
    pulse, n_segments = WINDOWS[window]
    args = (oscillator, (0.0, 8.0), np.array([1.0, 0.0]),
            np.linspace(0.0, 8.0, 33))        # a sample exactly at the end 3.0
    kwargs = {"observe": OBSERVERS[observer], "pulse": pulse}
    result = solve_sampled(*args, **kwargs)
    assert len(result[2]) == n_segments
    assert_same_run(args, kwargs, result)
    # the capped segment steps at most cap, the uncapped one is not held to it
    steps = [s["steps"] for s in result[2]]
    if window == "inside":
        assert steps[0] >= 3.0 / 0.05 > steps[1]
    elif window == "past-t1":
        assert steps[0] >= 8.0 / 0.05
    else:
        assert steps[0] < 8.0 / 0.05


def test_an_rtol_below_100_eps_is_clamped_as_scipy_does():
    args = (oscillator, (0.0, 2.0), np.array([1.0, 0.0]), np.linspace(0.0, 2.0, 11))
    with pytest.warns(UserWarning, match="rtol"):
        result = solve_sampled(*args, rtol=1e-20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_run(args, {"rtol": 1e-20}, result)
    clamped = solve_sampled(*args, rtol=100 * np.finfo(float).eps)
    assert np.array_equal(result[0], clamped[0])
    assert segment_counts(result[2]) == segment_counts(clamped[2])


def test_step_size_underflow_fails_where_scipy_does():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    args = (lambda t, y: y * y, (0.0, 2.0), np.array([1.0]), np.array([0.5, 1.5]))
    with pytest.raises(IntegrationFailure, match="Required step size") as err:
        solve_sampled(*args)
    with pytest.raises(IntegrationFailure) as ref, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scipy_solve(*args)
    assert err.value.t == ref.value.t
    assert abs(err.value.t - 1.0) < 1e-6


def test_a_nan_step_size_fails_instead_of_hanging():
    # atol = 0 on a component that is 0 makes the first step size 0/0; scipy's
    # DOP853 retries that step forever
    with pytest.raises(IntegrationFailure) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solve_sampled(lambda t, y: -y, (0.0, 1.0), np.array([1.0, 0.0]),
                      np.linspace(0.0, 1.0, 3), atol=0.0)
    assert err.value.t == 0.0


@pytest.mark.parametrize("bad, match", [
    ({"pulse": (0.5, 0.0)}, "cap"),
    ({"pulse": (0.5, -1.0)}, "cap"),
    ({"pulse": (0.5, math.nan)}, "cap"),
    ({"pulse": (math.nan, 0.1)}, "end"),
    ({"atol": -1e-12}, "atol"),
    ({"y0": np.array([1.0, math.nan])}, "finite"),
    ({"y0": np.array([1.0, math.inf])}, "finite"),
    ({"y0": np.ones((2, 1))}, "1-d"),
    ({"y0": np.empty(0)}, "1-d"),
], ids=["cap=0", "cap<0", "cap=nan", "end=nan", "atol<0", "y0-nan", "y0-inf",
        "y0-2d", "y0-empty"])
def test_bad_arguments_raise_value_error(bad, match):
    kw = {"y0": np.array([1.0, 0.0]), **bad}
    with pytest.raises(ValueError, match=match):
        solve_sampled(oscillator, (0.0, 1.0), kw.pop("y0"), np.linspace(0.0, 1.0, 5), **kw)


_WIDE = np.random.default_rng(11).normal(size=(64, 64)) / 8.0 - 0.5 * np.eye(64)

# (rhs, y0, t_span): a 2-state oscillator and a 64-state linear system
SYSTEMS = {
    "oscillator": (oscillator, np.array([1.0, 0.0]), (0.0, 8.0)),
    "wide": (lambda t, y: _WIDE @ y, np.linspace(-1.0, 1.0, 64), (0.0, 3.0)),
}


def grids(t0, t1):
    """Sample grids covering every branch of the sampler."""
    return {
        "uniform, both ends": np.linspace(t0, t1, 37),
        "many per step": np.linspace(t0, t1, 3001),
        "steps without samples": np.array([t0 + 0.01 * (t1 - t0), t1 - 0.3 * (t1 - t0)]),
        "single": np.array([0.5 * (t0 + t1)]),
        "empty": np.array([]),
        "repeats": np.array([t0, t0, 0.5 * (t0 + t1), 0.5 * (t0 + t1), t1, t1]),
        "past t1 by slop": np.array([t0 + 0.2, t1 * (1.0 + 5e-13)]),
    }


# the callbacks read both ends of the row, so a transposed block shows
OBSERVERS = {
    "state": None,
    "array": lambda t, y: np.array([t, y[0], y[-1]]),
    "tuple": lambda t, y: (t, y[:2].copy(), float(y[-1])),
}


@pytest.mark.parametrize("cap", [np.inf, 0.05])
@pytest.mark.parametrize("observer", sorted(OBSERVERS))
def test_batched_sampling_is_the_per_sample_loop(cap, observer):
    """DOP853's interpolant is elementwise, so a batched sample has the bits
    of the scalar call, on both sides of a pulse window's end."""
    observe = OBSERVERS[observer]
    for name, (rhs, y0, span) in SYSTEMS.items():
        for grid, samples in grids(*span).items():
            kw = dict(observe=observe, pulse=(span[0] + 0.4 * (span[1] - span[0]), cap))
            values, y_end, _ = solve_sampled(rhs, span, y0, samples, **kw)
            ref, ref_end = per_sample_solve(rhs, span, y0, samples, **kw)
            assert np.array_equal(y_end, ref_end), (name, grid)
            assert type(values) is type(ref), (name, grid)
            pairs = zip(values, ref) if isinstance(ref, list) else [(values, ref)]
            assert len(values) == len(ref), (name, grid)
            assert all(np.array_equal(a, b) for a, b in pairs), (name, grid)


def test_an_unsorted_grid_raises():
    # the sample at 0.2 would otherwise be read off the interpolant of a later
    # step: 0.81912 against the exact exp(-0.2) = 0.81873
    with pytest.raises(ValueError, match="non-decreasing"):
        solve_sampled(lambda t, y: -y, (0.0, 2.0), np.array([1.0]),
                      np.array([0.5, 1.5, 0.2, 1.0]), rtol=1e-8)
    with pytest.raises(ValueError, match="non-decreasing"):
        solve_sampled(lambda t, y: -y, (0.0, 2.0), np.array([1.0]),
                      np.array([0.5, np.nan, 1.0]))


def test_repeated_sample_times_give_repeated_rows():
    values, _, _ = solve_sampled(lambda t, y: -y, (0.0, 2.0), np.array([1.0]),
                                 np.array([0.2, 0.2, 1.0, 1.0]), rtol=1e-10, atol=1e-12)
    assert np.array_equal(values[0], values[1]) and np.array_equal(values[2], values[3])
    np.testing.assert_allclose(values[[0, 2], 0], np.exp([-0.2, -1.0]), rtol=1e-8)


def test_stats_count_the_segment():
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return oscillator(t, y)

    _, _, (capped, free) = solve_sampled(rhs, (0.0, 8.0), np.array([1.0, 0.0]),
                                         np.linspace(0.0, 8.0, 9), pulse=(4.0, 0.25))
    assert set(capped) == set(free) == {"steps", "nfev", "wall_s"}
    assert capped["steps"] >= 16         # 4.0 / cap
    assert free["steps"] < capped["steps"]
    assert capped["nfev"] + free["nfev"] == calls[0]
    assert capped["wall_s"] > 0.0 and free["wall_s"] > 0.0


def test_nan_derivative_at_the_start_raises():
    def rhs(t, y):
        return np.full_like(y, np.nan)

    with pytest.raises(IntegrationFailure, match="non-finite") as err:
        solve_sampled(rhs, (0.0, 1.0), np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5))
    assert err.value.t == 0.0


def test_nan_derivative_mid_run_raises():
    def rhs(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    with pytest.raises(IntegrationFailure) as err:
        solve_sampled(rhs, (0.0, 1.0), np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5))
    assert 0.0 < err.value.t <= 0.5



def matvec_loop(generator, x0, t0, samples):
    """Oracle: one product with expm(generator * dt) per sample."""
    out = [expm(generator * (samples[0] - t0)) @ x0]
    if len(samples) > 1:
        step = expm(generator * (samples[-1] - samples[0]) / (len(samples) - 1))
        for _ in samples[1:]:
            out.append(step @ out[-1])
    return np.array(out)


# n = 1 and 2 are all loop; 24, 25 and 26 end on a block short by one and a
# full block (B = ceil(sqrt(n)) = 5), and on a block of two (B = 6)
@pytest.mark.parametrize("n", [1, 2, 3, 24, 25, 26, 1200])
@pytest.mark.parametrize("dtype", [float, complex])
def test_blocked_powers_are_the_matvec_loop(n, dtype):
    rng = np.random.default_rng(n)
    # a damped generator with rotation, so the states neither blow up nor vanish
    gen = rng.normal(size=(9, 9)) - 4.0 * np.eye(9)
    gen -= np.linalg.eigvals(gen).real.max() * np.eye(9)
    x0 = rng.normal(size=9).astype(dtype)
    if dtype is complex:
        x0 += 1j * rng.normal(size=9)
    samples = np.linspace(0.2, 3.0, n)
    xs = propagate_sampled(gen, x0, 0.1, samples)
    assert xs.dtype == dtype and xs.shape == (n, 9)
    ref = matvec_loop(gen, x0, 0.1, samples)
    np.testing.assert_allclose(xs, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_propagate_sampled_is_the_closed_form():
    # damped rotation: x(t) = exp(-a t) R(w t) x0, first sample off the grid start
    a, w = 0.4, 3.0
    gen = np.array([[-a, -w], [w, -a]])
    x0 = np.array([1.0, 0.5])
    t0 = 0.3
    samples = np.linspace(0.35, 6.0, 500)
    xs = propagate_sampled(gen, x0, t0, samples)
    tau = samples - t0
    c, s = np.cos(w * tau), np.sin(w * tau)
    expect = np.exp(-a * tau)[:, None] * np.column_stack([c * x0[0] - s * x0[1],
                                                          s * x0[0] + c * x0[1]])
    np.testing.assert_allclose(xs, expect, rtol=0, atol=1e-13)


def test_propagate_sampled_keeps_a_complex_state_and_matches_solve_sampled():
    rng = np.random.default_rng(3)
    gen = np.triu(rng.normal(size=(6, 6)))
    x0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    samples = np.linspace(0.0, 2.0, 41)
    xs = propagate_sampled(gen, x0, 0.0, samples)
    assert xs.dtype == complex and xs.shape == (41, 6)
    ref, _, _ = solve_sampled(lambda t, y: gen @ y, (0.0, 2.0), x0, samples,
                              rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(xs, ref, rtol=1e-9, atol=1e-12)


def test_propagate_sampled_keeps_a_real_state_real():
    # the Dicke decay steps the real coherences R[k+1, k] with a real generator
    _, a_coh = _decay_generators(DickeSpace(12).lowering_amplitudes(), 0.7)
    x0 = np.random.default_rng(5).normal(size=12)
    samples = np.linspace(0.1, 1.0, 31)
    xs = propagate_sampled(a_coh, x0, 0.0, samples)
    assert xs.dtype == np.float64 and xs.shape == (31, 12)
    as_complex = propagate_sampled(a_coh, x0.astype(complex), 0.0, samples)
    np.testing.assert_allclose(xs, as_complex.real, rtol=0, atol=1e-14 * np.abs(x0).max())


def test_propagate_sampled_needs_a_uniform_grid_after_t0():
    gen = -np.eye(2)
    assert propagate_sampled(gen, np.ones(2), 0.0, np.array([])).shape == (0, 2)
    with pytest.raises(ValueError, match="uniformly"):
        propagate_sampled(gen, np.ones(2), 0.0, np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="precede"):
        propagate_sampled(gen, np.ones(2), 1.0, np.array([0.5, 1.5]))


def test_propagate_sampled_raises_on_a_non_finite_state():
    # the Dicke decay generator at gamma = 1e306 overflows: expm gives NaN
    a_pop, _ = _decay_generators(DickeSpace(4).lowering_amplitudes(), 1e306)
    x0 = np.zeros(5)
    x0[2] = 1.0
    with pytest.raises(IntegrationFailure, match="non-finite") as err:
        propagate_sampled(a_pop, x0, 0.0, np.linspace(0.0, 1.0, 5))
    assert err.value.t == 0.25   # the first sample after the exact start
