"""Closed-form coupling numbers and their scaling laws.

The frozen values below were computed once from the CODATA-2018 constants in
thcavity.constants and are asserted to full double precision; any drift in the
formulas or the constants shows up here first.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thcavity.constants import HBAR
from thcavity.coupling import (
    THORIUM_229,
    NuclearTransition,
    collective_rates,
    coupling_strength,
    derived_coupling,
    dipole_moment_from_lifetime,
    vacuum_field,
)

G_FROZEN = 672.9114808246269  # rad/s for the reference transition


def test_reference_coupling_value_frozen():
    assert coupling_strength(THORIUM_229) == pytest.approx(G_FROZEN, rel=1e-12)


def test_two_path_identity():
    """The closed form must equal mu * B_vac / hbar computed the long way."""
    d = derived_coupling(THORIUM_229)
    mu = dipole_moment_from_lifetime(THORIUM_229)
    b = vacuum_field(THORIUM_229)
    assert d.g == pytest.approx(mu * b / HBAR, rel=1e-13)
    assert d.transition_moment == mu
    assert d.vacuum_field == b


def test_transition_moment_near_half_nuclear_magneton():
    mu_n = 5.0507837461e-27   # nuclear magneton, J/T (CODATA 2018)
    d = derived_coupling(THORIUM_229)
    assert abs(d.transition_moment / mu_n - 0.4844) < 5e-3


def test_reference_transition_attributes():
    t = THORIUM_229
    assert t.angular_frequency == pytest.approx(2 * math.pi * 299792458.0 / 148.3821e-9)
    assert t.decay_rate == pytest.approx(1.0 / 1740.0)


transitions = st.builds(
    NuclearTransition,
    wavelength=st.floats(1e-8, 1e-5),
    vacuum_lifetime=st.floats(1e-2, 1e6),
    effective_mode_volume=st.floats(1e-20, 1e-10),
)


@given(transitions)
def test_mode_volume_scaling(t):
    # g ~ 1/sqrt(V): quadrupling the volume halves the coupling
    big = NuclearTransition(t.wavelength, t.vacuum_lifetime,
                            4.0 * t.effective_mode_volume)
    assert coupling_strength(big) == pytest.approx(0.5 * coupling_strength(t), rel=1e-12)


@given(transitions)
def test_lifetime_scaling(t):
    slow = NuclearTransition(t.wavelength, 4.0 * t.vacuum_lifetime,
                             t.effective_mode_volume)
    assert coupling_strength(slow) == pytest.approx(0.5 * coupling_strength(t), rel=1e-12)


@given(transitions)
def test_wavelength_scaling(t):
    # g ~ 1/omega ~ lambda, the moment grows as lambda^(3/2), B falls as 1/sqrt(lambda)
    red = NuclearTransition(2.0 * t.wavelength, t.vacuum_lifetime,
                            t.effective_mode_volume)
    assert coupling_strength(red) == pytest.approx(2.0 * coupling_strength(t), rel=1e-12)
    assert dipole_moment_from_lifetime(red) == pytest.approx(
        2.0 ** 1.5 * dipole_moment_from_lifetime(t), rel=1e-12)
    assert vacuum_field(red) == pytest.approx(vacuum_field(t) / math.sqrt(2.0), rel=1e-12)


@given(transitions)
def test_two_path_identity_everywhere(t):
    d = derived_coupling(t)
    assert d.g > 0


@pytest.mark.parametrize("kw", [
    {"wavelength": -1e-9},
    {"wavelength": 0.0},
    {"vacuum_lifetime": 0.0},
    {"effective_mode_volume": float("inf")},
    {"effective_mode_volume": float("nan")},
])
def test_transition_validation(kw):
    base = dict(wavelength=1.5e-7, vacuum_lifetime=1000.0,
                effective_mode_volume=1e-15)
    base.update(kw)
    with pytest.raises(ValueError):
        NuclearTransition(**base)


def test_collective_rates_formulas():
    r = collective_rates(2.0, 25, 100.0, 0.5)
    assert r.omega_collective == pytest.approx(2.0 * 5.0)
    assert r.gamma_eff == pytest.approx(0.5 + 4 * 25 * 4.0 / 100.0)
    assert r.cooperativity == pytest.approx(25 * 4.0 / (100.0 * 0.5))
    assert r.tau_eff_estimate == pytest.approx(100.0 / (4 * 25 * 4.0))


def test_collective_rates_empty_ensemble():
    r = collective_rates(2.0, 0, 100.0, 0.5)
    assert r.omega_collective == 0.0
    assert r.gamma_eff == 0.5
    assert r.cooperativity == 0.0
    assert r.tau_eff_estimate == math.inf


@pytest.mark.parametrize("args", [
    (-1.0, 10, 1.0, 1.0),
    (1.0, -3, 1.0, 1.0),
    (1.0, 2.5, 1.0, 1.0),
    (1.0, 10, 0.0, 1.0),
    (1.0, 10, 1.0, 0.0),
])
def test_collective_rates_validation(args):
    with pytest.raises(ValueError):
        collective_rates(*args)
