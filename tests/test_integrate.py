"""The shared adaptive-integration layer: end state and non-finite guards."""

import math

import numpy as np
import pytest

from thcavity._integrate import IntegrationFailure, solve_sampled


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

