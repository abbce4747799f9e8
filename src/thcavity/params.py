"""Shared parameter records for the dynamics modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DriveProfile", "ModelParams", "TimeSeries"]

# fields that must be nonnegative rates; mode energies are exempt because they
# are detunings of either sign
_RATE_FIELDS = ("g", "fwm_u", "pump_amp", "kappa1", "kappa2", "kappa_vuv", "gamma_minus")


@dataclass(frozen=True)
class DriveProfile:
    """Gaussian drive envelope amplitude * exp(-(t - center)^2 / (2 width^2)).
    amplitude may be complex; amplitude 0 is no drive."""

    amplitude: complex = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"drive width must be > 0, got {self.width}")

    def envelope(self, t: float) -> complex:
        x = (t - self.center) / self.width
        return self.amplitude * math.exp(-0.5 * x * x)

    @property
    def window(self) -> tuple[float, float] | None:
        """solve_sampled's pulse window (end, cap): steps of at most width / 2
        up to center + 6 width (envelope e^-18); None when the drive is off."""
        if self.amplitude == 0:
            return None
        return self.center + 6.0 * self.width, self.width / 2.0


@dataclass(frozen=True)
class ModelParams:
    """Rates and energies of the two-color cavity + nuclear ensemble model.

    All rates share one unit chosen by the caller (plain or angular frequency;
    never mixed).  The four mode energies are detunings and may be negative.

    omega1, omega2   pump-cavity modes (two photons of mode 1 convert to one of
                     mode 2 plus one VUV photon)
    omega_vuv        VUV cavity mode
    e_nuc            nuclear transition energy
    g                single-nucleus VUV coupling
    fwm_u            four-wave-mixing conversion amplitude
    pump_amp/center/width   Gaussian pump pulse on mode 1
    kappa1/2/vuv     cavity field decay rates
    gamma_minus      single-nucleus decay rate
    n_nuclei         ensemble size
    """

    g: float
    kappa_vuv: float
    gamma_minus: float
    n_nuclei: int
    omega1: float = 0.0
    omega2: float = 0.0
    omega_vuv: float = 0.0
    e_nuc: float = 0.0
    fwm_u: float = 0.0
    pump_amp: float = 0.0
    pump_center: float = 0.0
    pump_width: float = 1.0
    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self):
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("omega1", "omega2", "omega_vuv", "e_nuc", "pump_center"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.pump_width) and self.pump_width > 0):
            raise ValueError(f"pump_width must be > 0, got {self.pump_width!r}")
        if self.n_nuclei < 1 or int(self.n_nuclei) != self.n_nuclei:
            raise ValueError(f"n_nuclei must be an integer >= 1, got {self.n_nuclei!r}")

    @property
    def pump(self) -> DriveProfile:
        """The Gaussian pump pulse on mode 1."""
        return DriveProfile(self.pump_amp, self.pump_center, self.pump_width)


@dataclass
class TimeSeries:
    """Sampled trajectory: times (n,), values (n,) or (n, k), free-form meta.

    Column names, when present, name the value columns for downstream fitting
    and CSV export.
    """

    times: np.ndarray
    values: np.ndarray
    columns: tuple[str, ...] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times)
        self.values = np.asarray(self.values)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"values length {self.values.shape[0]} != times length {self.times.shape[0]}"
            )
        if self.columns is not None and self.values.ndim == 2:
            if len(self.columns) != self.values.shape[1]:
                raise ValueError("column count does not match values width")

    def __len__(self) -> int:
        return len(self.times)

    def column(self, name: str) -> np.ndarray:
        if self.columns is None:
            raise KeyError("time series has no named columns")
        try:
            i = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return self.values[:, i]
