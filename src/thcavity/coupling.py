"""Single-nucleus magnetic-dipole cavity coupling and derived collective rates.

Everything in this module is closed-form. SI inputs, angular frequencies (rad/s)
internally and on output; conversion to ordinary frequency happens only at I/O
boundaries (see cli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C, HBAR, MU_0

__all__ = [
    "NuclearTransition",
    "DerivedCoupling",
    "CollectiveRates",
    "THORIUM_229",
    "dipole_moment_from_lifetime",
    "vacuum_field",
    "coupling_strength",
    "derived_coupling",
    "collective_rates",
]


@dataclass(frozen=True)
class NuclearTransition:
    """A magnetic-dipole transition inside a cavity mode volume.

    wavelength            transition wavelength in m
    vacuum_lifetime       radiative lifetime of the bare nucleus in s
    effective_mode_volume cavity mode volume the nucleus sits in, m^3
    """

    wavelength: float
    vacuum_lifetime: float
    effective_mode_volume: float

    def __post_init__(self):
        for name in ("wavelength", "vacuum_lifetime", "effective_mode_volume"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")

    @property
    def angular_frequency(self) -> float:
        """Transition angular frequency 2*pi*c/lambda, rad/s."""
        return 2.0 * math.pi * C / self.wavelength

    @property
    def decay_rate(self) -> float:
        """Radiative decay rate 1/tau, 1/s."""
        return 1.0 / self.vacuum_lifetime


# 229Th isomer parameters: 148.3821 nm, 1740 s radiative lifetime, and the
# 1e-15 m^3 effective mode volume of the reference cavity design.
THORIUM_229 = NuclearTransition(
    wavelength=148.3821e-9,
    vacuum_lifetime=1740.0,
    effective_mode_volume=1.0e-15,
)


def dipole_moment_from_lifetime(t: NuclearTransition) -> float:
    """Magnetic dipole matrix element (J/T) from the radiative decay rate.

    Inverts Gamma = mu0 * omega^3 * mu^2 / (3 pi hbar c^3).
    """
    w = t.angular_frequency
    return math.sqrt(3.0 * math.pi * HBAR * C**3 / (MU_0 * w**3) * t.decay_rate)


def vacuum_field(t: NuclearTransition) -> float:
    """RMS vacuum magnetic field of the mode, B = sqrt(mu0 hbar omega / 2V), in T."""
    return math.sqrt(MU_0 * HBAR * t.angular_frequency / (2.0 * t.effective_mode_volume))


def coupling_strength(t: NuclearTransition) -> float:
    """Single-nucleus coupling g = mu * B_vac / hbar, in rad/s.

    Closed form after mu0 and hbar cancel: g = sqrt(3 pi c^3 / (2 omega^2 V tau)).
    """
    w = t.angular_frequency
    return math.sqrt(
        3.0 * math.pi * C**3 / (2.0 * w**2 * t.effective_mode_volume * t.vacuum_lifetime)
    )


@dataclass(frozen=True)
class DerivedCoupling:
    """Bundle of the derived single-nucleus quantities."""

    g: float                  # rad/s
    transition_moment: float  # J/T
    vacuum_field: float       # T


def derived_coupling(t: NuclearTransition) -> DerivedCoupling:
    """Compute g both ways (closed form and mu*B/hbar) and require agreement.

    The internal cross-check guards against independent edits to the three
    formulas drifting apart.
    """
    mu = dipole_moment_from_lifetime(t)
    b = vacuum_field(t)
    g = coupling_strength(t)
    g_alt = mu * b / HBAR
    if abs(g - g_alt) > 1e-12 * g:
        raise AssertionError(
            f"coupling-path mismatch: {g!r} (closed form) vs {g_alt!r} (mu*B/hbar)"
        )
    return DerivedCoupling(g=g, transition_moment=mu, vacuum_field=b)


@dataclass(frozen=True)
class CollectiveRates:
    """Collective figures of merit for N nuclei in one cavity mode.

    omega_collective  g*sqrt(N), the collective vacuum Rabi rate
    gamma_eff         gamma_minus + 4 N g^2 / kappa_vuv (bad-cavity collective decay)
    cooperativity     N g^2 / (kappa_vuv * gamma_minus)
    tau_eff_estimate  kappa_vuv / (4 N g^2), the collective emission time scale
    """

    omega_collective: float
    gamma_eff: float
    cooperativity: float
    tau_eff_estimate: float


def collective_rates(g: float, n_nuclei: int, kappa_vuv: float,
                     gamma_minus: float) -> CollectiveRates:
    """Collective rates from the bare rates.  All rates in one consistent unit.

    n_nuclei = 0 is allowed and degrades gracefully (no collective enhancement).
    kappa_vuv and gamma_minus must be > 0: the cooperativity is undefined
    otherwise.
    """
    if g < 0:
        raise ValueError(f"g must be >= 0, got {g}")
    if n_nuclei < 0 or int(n_nuclei) != n_nuclei:
        raise ValueError(f"n_nuclei must be a nonnegative integer, got {n_nuclei}")
    if kappa_vuv <= 0:
        raise ValueError(f"kappa_vuv must be > 0, got {kappa_vuv}")
    if gamma_minus <= 0:
        raise ValueError(f"gamma_minus must be > 0, got {gamma_minus}")

    n = float(n_nuclei)
    omega_c = g * math.sqrt(n)
    gamma_eff = gamma_minus + 4.0 * n * g**2 / kappa_vuv
    coop = n * g**2 / (kappa_vuv * gamma_minus)
    if n > 0 and g > 0:
        tau_est = kappa_vuv / (4.0 * n * g**2)
    else:
        tau_est = math.inf

    return CollectiveRates(
        omega_collective=omega_c,
        gamma_eff=gamma_eff,
        cooperativity=coop,
        tau_eff_estimate=tau_est,
    )
