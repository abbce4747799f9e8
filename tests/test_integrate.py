"""The shared integration layer: batched sampling against the per-sample loop,
end state, statistics and non-finite guards of the adaptive solver, and the
exact stepper for constant generators."""

import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.linalg import expm

from thcavity._integrate import IntegrationFailure, propagate_sampled, solve_sampled
from thcavity.superradiance import DickeSpace, _decay_generators


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


def per_sample_solve(rhs, t_span, y0, samples, *, observe=None, rtol=1e-8,
                     atol=1e-10, max_step=np.inf):
    """The sampler as it was before batching: one scalar dense-output call per
    sample.  The oracle of solve_sampled's (values, y_end)."""
    t0, t1 = t_span
    solver = DOP853(rhs, t0, y0, t1, rtol=rtol, atol=atol, max_step=max_step)
    out = []
    i = 0
    while i < samples.size and samples[i] <= t0:
        out.append(observe(t0, y0) if observe is not None else np.array(y0, copy=True))
        i += 1
    while solver.status == "running":
        solver.step()
        dense = None
        if i < samples.size and samples[i] <= solver.t:
            dense = solver.dense_output()
            while i < samples.size and samples[i] <= solver.t:
                ys = dense(samples[i])
                out.append(observe(samples[i], ys) if observe is not None else ys)
                i += 1
    y_end = (dense or solver.dense_output())(t1)
    while i < samples.size:
        out.append(observe(samples[i], solver.y) if observe is not None
                   else np.array(solver.y, copy=True))
        i += 1
    if observe is not None and out and isinstance(out[0], tuple):
        return [np.asarray(comp) for comp in zip(*out)], y_end
    return np.asarray(out), y_end


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


@pytest.mark.parametrize("max_step", [np.inf, 0.05])
@pytest.mark.parametrize("observer", sorted(OBSERVERS))
def test_batched_sampling_is_the_per_sample_loop(max_step, observer):
    """DOP853's interpolant is elementwise, so a batched sample has the bits
    of the scalar call."""
    observe = OBSERVERS[observer]
    for name, (rhs, y0, span) in SYSTEMS.items():
        for grid, samples in grids(*span).items():
            kw = dict(observe=observe, max_step=max_step)
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

    _, _, stats = solve_sampled(rhs, (0.0, 8.0), np.array([1.0, 0.0]),
                                np.linspace(0.0, 8.0, 9), max_step=0.25)
    assert set(stats) == {"steps", "nfev", "wall_s"}
    assert stats["steps"] >= 32          # 8.0 / max_step
    assert stats["nfev"] == calls[0]
    assert stats["wall_s"] > 0.0


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
