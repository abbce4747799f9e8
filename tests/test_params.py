import math
import warnings

import numpy as np
import pytest

from thcavity.params import DriveProfile, ModelParams, TimeSeries


def make(**kw):
    base = dict(g=1.0, kappa_vuv=2.0, gamma_minus=0.1, n_nuclei=10)
    base.update(kw)
    return ModelParams(**base)


def test_defaults_are_off():
    p = make()
    assert p.fwm_u == 0.0
    assert p.pump_amp == 0.0
    assert p.kappa1 == 0.0 and p.kappa2 == 0.0


@pytest.mark.parametrize("field", ["g", "fwm_u", "pump_amp", "kappa1",
                                   "kappa2", "kappa_vuv", "gamma_minus"])
def test_rates_must_be_nonnegative(field):
    with pytest.raises(ValueError, match=field):
        make(**{field: -0.5})


def test_rotating_frame_allows_negative_detunings():
    p = make(omega1=-3.0, e_nuc=-1.5)
    assert p.omega1 == -3.0


def test_n_nuclei_validation():
    with pytest.raises(ValueError):
        make(n_nuclei=0)
    with pytest.raises(ValueError):
        make(n_nuclei=2.5)


def test_pump_width_positive():
    with pytest.raises(ValueError, match="pump_width"):
        make(pump_width=0.0)


def test_pump_envelope():
    p = make(pump_amp=3.0, pump_center=1.0, pump_width=0.5)
    assert p.pump == DriveProfile(amplitude=3.0, center=1.0, width=0.5)
    assert p.pump.envelope(1.0) == 3.0
    # one width out the envelope is down by exp(-1/2)
    assert p.pump.envelope(1.5) == pytest.approx(3.0 * math.exp(-0.5), rel=1e-15)
    assert make().pump.window is None           # pump_amp 0 is no pump


@pytest.mark.parametrize("amplitude", [0.3 - 0.2j, np.complex128(1 + 0j), math.nan, math.inf],
                         ids=["complex", "numpy-complex", "nan", "inf"])
def test_a_drive_amplitude_must_be_a_finite_real_number(amplitude):
    """The one check of a drive's amplitude, at construction: the mean-field
    state and the master equation's real coordinates hold a real drive only.
    A numpy complex must fail the type check, not pass math.isfinite with a
    ComplexWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="drive amplitude must be a finite real number"):
            DriveProfile(amplitude=amplitude, center=0.2, width=0.05)


def test_timeseries_basics():
    t = np.linspace(0, 1, 5)
    v = np.arange(10).reshape(5, 2)
    ts = TimeSeries(times=t, values=v, columns=("a", "b"))
    assert len(ts) == 5
    np.testing.assert_array_equal(ts.column("b"), v[:, 1])
    with pytest.raises(KeyError, match="nope"):
        ts.column("nope")


def test_timeseries_shape_validation():
    with pytest.raises(ValueError, match="length"):
        TimeSeries(times=np.arange(4.0), values=np.arange(5.0))
    with pytest.raises(ValueError, match="one-dimensional"):
        TimeSeries(times=np.zeros((2, 2)), values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="column count"):
        TimeSeries(times=np.arange(3.0), values=np.zeros((3, 2)), columns=("a",))


def test_timeseries_without_columns_rejects_lookup():
    ts = TimeSeries(times=np.arange(3.0), values=np.zeros(3))
    with pytest.raises(KeyError):
        ts.column("a")
