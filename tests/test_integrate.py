"""The shared integration layer: end state and non-finite guards of the adaptive
solver, and the exact stepper for constant generators."""

import math

import numpy as np
import pytest

from thcavity._integrate import IntegrationFailure, propagate_sampled, solve_sampled
from thcavity.superradiance import DickeSpace, _decay_generators


def oscillator(t, y):
    # driven damped oscillator: enough structure for several adaptive steps
    return np.array([y[1], -4.0 * y[0] - 0.3 * y[1] + math.cos(1.7 * t)])


# at these ends RK45's step end state differs from its dense value in the last
# bits; a following segment must start from the dense value
@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("t_end", [1.0, 8.0])
@pytest.mark.parametrize("n_samples", [7, 0])
def test_end_state_is_the_recorded_state_at_t_end(method, t_end, n_samples):
    y0 = np.array([1.0, 0.0])
    samples = np.linspace(0.0, t_end, n_samples)
    values, y_end = solve_sampled(oscillator, (0.0, t_end), y0, samples, method=method)
    assert len(values) == n_samples
    states, _ = solve_sampled(oscillator, (0.0, t_end), y0, np.array([t_end]),
                              method=method)
    assert np.array_equal(y_end, states[-1])


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_nan_derivative_at_the_start_raises(method):
    def rhs(t, y):
        return np.full_like(y, np.nan)

    with pytest.raises(IntegrationFailure, match="non-finite") as err:
        solve_sampled(rhs, (0.0, 1.0), np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5),
                      method=method)
    assert err.value.t == 0.0


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_nan_derivative_mid_run_raises(method):
    def rhs(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    with pytest.raises(IntegrationFailure) as err:
        solve_sampled(rhs, (0.0, 1.0), np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5),
                      method=method)
    assert 0.0 < err.value.t <= 0.5



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
    ref, _ = solve_sampled(lambda t, y: gen @ y, (0.0, 2.0), x0, samples,
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
