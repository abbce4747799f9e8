"""Polariton branches and Hopfield fractions of the coupled cavity-nucleus pair.

Two-mode picture: a VUV cavity photon at detuning delta from the nuclear line,
coupled with collective strength omega.  In the frame of the nuclear transition
the 2x2 Hamiltonian is [[delta, omega], [omega, 0]].
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateBasisError",
    "polariton_energies",
    "hopfield_coefficients",
    "spectrum_scan",
]


class DegenerateBasisError(ValueError):
    """Both detuning and coupling vanish: branches are indistinguishable."""


def polariton_energies(delta, omega: float):
    """Upper/lower branch energies (delta +- sqrt(delta^2 + 4 omega^2)) / 2.

    delta may be a scalar or array; omega is a scalar >= 0.  Returns
    (e_upper, e_lower) with e_upper >= e_lower everywhere.
    """
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    d = np.asarray(delta, dtype=float)
    root = np.sqrt(d * d + 4.0 * omega * omega)
    e_up = 0.5 * (d + root)
    e_lo = 0.5 * (d - root)
    if np.isscalar(delta) or d.ndim == 0:
        return float(e_up), float(e_lo)
    return e_up, e_lo


def hopfield_coefficients(delta, omega: float):
    """Photon/nuclear weight of each branch.

    Returns (c2_lp, x2_lp, c2_up, x2_up) where c2 is the photon fraction and
    x2 the nuclear fraction:

        |C_LP|^2 = (1 - delta/sqrt(delta^2+4 omega^2)) / 2,
        |X_LP|^2 = (1 + delta/sqrt(delta^2+4 omega^2)) / 2,

    and the upper branch exchanges the signs.  Consequence of the eigenvector
    convention (omega, E - delta): at large positive delta the lower branch is
    nuclear-like, the upper branch photon-like.
    """
    d = np.asarray(delta, dtype=float)
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    root = np.sqrt(d * d + 4.0 * omega * omega)
    if np.any(root == 0.0):
        raise DegenerateBasisError(
            "delta = omega = 0: polariton branches are degenerate and unlabelable"
        )
    ratio = d / root
    c2_lp = 0.5 * (1.0 - ratio)
    x2_lp = 0.5 * (1.0 + ratio)
    if np.isscalar(delta) or d.ndim == 0:
        return float(c2_lp), float(x2_lp), float(x2_lp), float(c2_lp)
    return c2_lp, x2_lp, x2_lp.copy(), c2_lp.copy()


def spectrum_scan(omega: float, delta_range: tuple[float, float, int]):
    """Sample the branches over a uniform detuning grid (lo, hi, n).

    Returns the float64 columns (delta, e_upper, e_lower, c2_lp, x2_lp), the
    last two the photon and nuclear fractions of the lower branch.
    """
    lo, hi, n = delta_range
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    if not lo < hi:
        raise ValueError(f"empty detuning range [{lo}, {hi}]")
    deltas = np.linspace(lo, hi, int(n))
    e_up, e_lo = polariton_energies(deltas, omega)
    c2_lp, x2_lp, _, _ = hopfield_coefficients(deltas, omega)
    return deltas, e_up, e_lo, c2_lp, x2_lp
