"""Coupling-regime classification over (kappa_vuv, sqrt(N)).

Three regimes:
  strong      4 g sqrt(N) > kappa_vuv + gamma_minus (resolved vacuum Rabi
              splitting)
  collective  not strong, but cooperativity C = N g^2 / (kappa_vuv gamma_minus)
              exceeds 1
  weak        neither

Margins are signed and normalized so that zero is the boundary; classification
uses strict inequalities, so a point exactly on a boundary belongs to the
lower regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PhasePoint", "classify_rates", "GridScan", "grid_scan"]


@dataclass(frozen=True)
class PhasePoint:
    """One classified point of the diagram."""

    kappa_vuv: float
    sqrt_n: float
    regime: str
    margin_strong: float
    margin_cooperativity: float


def classify_rates(g: float, n_nuclei: float, kappa_vuv: float,
                   gamma_minus: float) -> PhasePoint:
    """Classify from bare rates.  n_nuclei may be non-integral (grid points
    parameterized by sqrt(N) need not snap to integers)."""
    if g < 0 or n_nuclei < 0:
        raise ValueError("g and n_nuclei must be >= 0")
    if kappa_vuv <= 0:
        raise ValueError(f"kappa_vuv must be > 0, got {kappa_vuv}")
    if gamma_minus <= 0:
        raise ValueError(
            f"gamma_minus must be > 0, got {gamma_minus}: cooperativity undefined")
    sqrt_n = math.sqrt(n_nuclei)
    loss = kappa_vuv + gamma_minus
    margin_sc = (4.0 * g * sqrt_n - loss) / loss
    margin_coop = n_nuclei * g**2 / (kappa_vuv * gamma_minus) - 1.0
    if not (math.isfinite(margin_sc) and math.isfinite(margin_coop)):
        raise ValueError(
            f"margins overflow at g={g}, n_nuclei={n_nuclei}, kappa_vuv={kappa_vuv}, "
            f"gamma_minus={gamma_minus}: rates out of range")
    if margin_sc > 0.0:
        regime = "strong"
    elif margin_coop > 0.0:
        regime = "collective"
    else:
        regime = "weak"
    return PhasePoint(kappa_vuv=kappa_vuv, sqrt_n=sqrt_n, regime=regime,
                      margin_strong=margin_sc, margin_cooperativity=margin_coop)


@dataclass(frozen=True)
class GridScan:
    """Classified grid plus boundary polylines.

    points is row-major: sqrt_n outer, kappa inner.  Boundaries hold
    (sqrt_n, kappa_crossing) pairs where the respective margin changes sign
    along the kappa axis, interpolated linearly in log(kappa); rows whose
    margin does not change sign inside the grid contribute no vertex.
    """

    points: tuple
    boundary_strong: tuple
    boundary_cooperativity: tuple


def _crossing_log_kappa(kappas: np.ndarray, margins: np.ndarray) -> float | None:
    s = np.sign(margins)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if flips.size == 0:
        exact = np.nonzero(margins == 0.0)[0]
        return float(kappas[exact[0]]) if exact.size else None
    i = int(flips[0])
    x0, x1 = math.log(kappas[i]), math.log(kappas[i + 1])
    y0, y1 = margins[i], margins[i + 1]
    return math.exp(x0 - y0 * (x1 - x0) / (y1 - y0))


def grid_scan(
    g: float,
    gamma_minus: float,
    kappa_range: tuple[float, float, int],
    sqrt_n_range: tuple[float, float, int],
) -> GridScan:
    """Classify a log(kappa) x linear sqrt(N) grid."""
    k_lo, k_hi, nk = kappa_range
    s_lo, s_hi, ns = sqrt_n_range
    if not (k_lo > 0 and k_hi > k_lo and nk >= 2):
        raise ValueError(f"bad kappa_range {kappa_range}")
    if not (s_lo >= 0 and s_hi > s_lo and ns >= 2):
        raise ValueError(f"bad sqrt_n_range {sqrt_n_range}")

    kappas = np.geomspace(k_lo, k_hi, int(nk))
    sqrt_ns = np.linspace(s_lo, s_hi, int(ns))

    points = []
    boundary_sc = []
    boundary_coop = []
    # Python floats overflow to inf silently, where numpy scalars would warn
    for s in sqrt_ns.tolist():
        row = [classify_rates(g, s * s, float(k), gamma_minus) for k in kappas]
        points.extend(row)
        m_sc = np.array([pt.margin_strong for pt in row])
        m_coop = np.array([pt.margin_cooperativity for pt in row])
        k_sc = _crossing_log_kappa(kappas, m_sc)
        if k_sc is not None:
            boundary_sc.append((row[0].sqrt_n, k_sc))
        k_coop = _crossing_log_kappa(kappas, m_coop)
        if k_coop is not None:
            boundary_coop.append((row[0].sqrt_n, k_coop))

    return GridScan(points=tuple(points), boundary_strong=tuple(boundary_sc),
                    boundary_cooperativity=tuple(boundary_coop))
