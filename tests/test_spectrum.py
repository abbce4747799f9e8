import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thcavity.spectrum import (
    DegenerateBasisError,
    hopfield_coefficients,
    polariton_energies,
    spectrum_scan,
)


def test_energies_closed_form():
    # delta = 3 omega: branches at (3 +- sqrt(13)) omega / 2
    up, lo = polariton_energies(6.0, 2.0)
    assert up == pytest.approx(3.0 + math.sqrt(13.0), rel=1e-14)
    assert lo == pytest.approx(3.0 - math.sqrt(13.0), rel=1e-14)


def test_resonant_splitting():
    up, lo = polariton_energies(0.0, 1.5)
    assert up - lo == pytest.approx(2 * 1.5)
    assert up == -lo


def test_resonant_fractions_exact():
    c2_lp, x2_lp, c2_up, x2_up = hopfield_coefficients(0.0, 3.0)
    # exactly half-and-half, not approximately
    assert c2_lp == 0.5 and x2_lp == 0.5 and c2_up == 0.5 and x2_up == 0.5


def test_fractions_at_delta_equals_omega():
    c2_lp, x2_lp, _, _ = hopfield_coefficients(1.0, 1.0)
    assert x2_lp == pytest.approx(0.5 * (1.0 + 1.0 / math.sqrt(5.0)), rel=1e-14)
    assert c2_lp == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(5.0)), rel=1e-14)


@given(st.floats(-50.0, 50.0), st.floats(1e-3, 20.0))
def test_against_dense_eigensolver(delta, omega):
    """Branch energies and fractions must match numpy's eigensolver."""
    h = np.array([[delta, omega], [omega, 0.0]])
    evals, evecs = np.linalg.eigh(h)
    up, lo = polariton_energies(delta, omega)
    assert lo == pytest.approx(evals[0], abs=1e-10)
    assert up == pytest.approx(evals[1], abs=1e-10)
    c2_lp, x2_lp, c2_up, x2_up = hopfield_coefficients(delta, omega)
    assert c2_lp == pytest.approx(evecs[0, 0] ** 2, abs=1e-10)
    assert x2_lp == pytest.approx(evecs[1, 0] ** 2, abs=1e-10)
    assert c2_up == pytest.approx(evecs[0, 1] ** 2, abs=1e-10)
    assert x2_up == pytest.approx(evecs[1, 1] ** 2, abs=1e-10)


@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e3))
def test_sum_rules(delta, omega):
    c2_lp, x2_lp, c2_up, x2_up = hopfield_coefficients(delta, omega)
    assert c2_lp + x2_lp == pytest.approx(1.0, abs=1e-14)
    assert c2_up + x2_up == pytest.approx(1.0, abs=1e-14)
    # the branches exchange characters
    assert c2_up == x2_lp and x2_up == c2_lp


def test_far_detuned_labels():
    # large positive detuning: lower branch is the nuclear excitation
    _, x2_lp, c2_up, _ = hopfield_coefficients(1000.0, 1.0)
    assert x2_lp > 0.999999
    assert c2_up > 0.999999
    # large negative detuning flips the roles
    c2_lp, _, _, x2_up = hopfield_coefficients(-1000.0, 1.0)
    assert c2_lp > 0.999999
    assert x2_up > 0.999999


def test_degenerate_point_rejected():
    with pytest.raises(DegenerateBasisError):
        hopfield_coefficients(0.0, 0.0)
    with pytest.raises(DegenerateBasisError):
        hopfield_coefficients(np.array([1.0, 0.0, -1.0]), 0.0)
    # energies themselves are fine there (both zero)
    assert polariton_energies(0.0, 0.0) == (0.0, 0.0)


def test_negative_omega_rejected():
    with pytest.raises(ValueError):
        polariton_energies(1.0, -1.0)
    with pytest.raises(ValueError):
        hopfield_coefficients(1.0, -1.0)


def test_array_input_shapes():
    d = np.linspace(-5, 5, 11)
    up, lo = polariton_energies(d, 2.0)
    assert up.shape == d.shape and lo.shape == d.shape
    assert np.all(up >= lo)
    fr = hopfield_coefficients(d, 2.0)
    assert all(a.shape == d.shape for a in fr)


def test_scan_midpoint_and_antisymmetry():
    columns = spectrum_scan(2.0, (-10.0, 10.0, 21))
    assert all(c.dtype == np.float64 and c.shape == (21,) for c in columns)
    delta, e_up, e_lo, c2_lp, _ = columns
    assert delta[10] == 0.0
    assert c2_lp[10] == 0.5
    # e_lower(-d) = -e_upper(d) by the closed form
    np.testing.assert_allclose(e_lo, -e_up[::-1], atol=1e-12)


def test_scan_consistency_with_pointwise():
    delta, e_up, e_lo, c2_lp, x2_lp = spectrum_scan(1.5, (-4.0, 4.0, 9))
    for i, d in enumerate(delta):
        up, lo = polariton_energies(float(d), 1.5)
        assert e_up[i] == pytest.approx(up, rel=1e-14)
        assert e_lo[i] == pytest.approx(lo, rel=1e-14)
        assert c2_lp[i] + x2_lp[i] == pytest.approx(1.0, abs=1e-14)


def test_scan_validation():
    with pytest.raises(ValueError, match="grid points"):
        spectrum_scan(1.0, (-1.0, 1.0, 1))
    with pytest.raises(ValueError, match="range"):
        spectrum_scan(1.0, (1.0, -1.0, 5))
