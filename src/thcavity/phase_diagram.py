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


def _check_rates(g, n_nuclei, kappa_vuv, gamma_minus):
    if g < 0 or n_nuclei < 0:
        raise ValueError("g and n_nuclei must be >= 0")
    if kappa_vuv <= 0:
        raise ValueError(f"kappa_vuv must be > 0, got {kappa_vuv}")
    if gamma_minus <= 0:
        raise ValueError(
            f"gamma_minus must be > 0, got {gamma_minus}: cooperativity undefined")


def _overflow(g, n_nuclei, kappa_vuv, gamma_minus):
    return ValueError(
        f"margins overflow at g={g}, n_nuclei={n_nuclei}, kappa_vuv={kappa_vuv}, "
        f"gamma_minus={gamma_minus}: rates out of range")


def classify_rates(g: float, n_nuclei: float, kappa_vuv: float,
                   gamma_minus: float) -> PhasePoint:
    """Classify from bare rates.  n_nuclei may be non-integral (grid points
    parameterized by sqrt(N) need not snap to integers)."""
    _check_rates(g, n_nuclei, kappa_vuv, gamma_minus)
    sqrt_n = math.sqrt(n_nuclei)
    loss = kappa_vuv + gamma_minus
    margin_sc = (4.0 * g * sqrt_n - loss) / loss
    margin_coop = n_nuclei * g**2 / (kappa_vuv * gamma_minus) - 1.0
    if not (math.isfinite(margin_sc) and math.isfinite(margin_coop)):
        raise _overflow(g, n_nuclei, kappa_vuv, gamma_minus)
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

    kappa_vuv, sqrt_n, regime, margin_strong and margin_cooperativity are
    columns with one entry per grid point, row-major: sqrt_n outer, kappa
    inner; each point is what classify_rates gives for it.  Boundaries hold
    (sqrt_n, kappa_crossing) pairs where the respective margin changes sign
    along the kappa axis, interpolated linearly in log(kappa); rows whose
    margin does not change sign inside the grid contribute no vertex.
    """

    kappa_vuv: np.ndarray
    sqrt_n: np.ndarray
    regime: np.ndarray
    margin_strong: np.ndarray
    margin_cooperativity: np.ndarray
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
    """Classify a log(kappa) x linear sqrt(N) grid.

    The whole grid is classified as arrays, with classify_rates' operations
    in its order, so every column entry is the one classify_rates gives for
    that point; a non-finite margin raises classify_rates' error for the
    first such point.
    """
    k_lo, k_hi, nk = kappa_range
    s_lo, s_hi, ns = sqrt_n_range
    if not (k_lo > 0 and k_hi > k_lo and nk >= 2):
        raise ValueError(f"bad kappa_range {kappa_range}")
    if not (s_lo >= 0 and s_hi > s_lo and ns >= 2):
        raise ValueError(f"bad sqrt_n_range {sqrt_n_range}")
    _check_rates(g, 0.0, k_lo, gamma_minus)

    kappa = np.geomspace(k_lo, k_hi, int(nk))
    # a row per sqrt_n, a column per kappa; inf and nan are caught below,
    # so numpy need not warn about them
    with np.errstate(all="ignore"):
        s = np.linspace(s_lo, s_hi, int(ns))[:, None]
        n = s * s
        sqrt_n = np.sqrt(n)
        loss = kappa + gamma_minus
        margin_sc = (4.0 * g * sqrt_n - loss) / loss
        margin_coop = n * g**2 / (kappa * gamma_minus) - 1.0
    finite = np.isfinite(margin_sc) & np.isfinite(margin_coop)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), kappa.size)
        raise _overflow(g, float(n[i, 0]), float(kappa[j]), gamma_minus)
    regime = np.where(margin_sc > 0.0, "strong",
                      np.where(margin_coop > 0.0, "collective", "weak"))

    boundary_sc = []
    boundary_coop = []
    for row_sqrt_n, m_sc, m_coop in zip(sqrt_n[:, 0].tolist(), margin_sc, margin_coop):
        k_sc = _crossing_log_kappa(kappa, m_sc)
        if k_sc is not None:
            boundary_sc.append((row_sqrt_n, k_sc))
        k_coop = _crossing_log_kappa(kappa, m_coop)
        if k_coop is not None:
            boundary_coop.append((row_sqrt_n, k_coop))

    shape = margin_sc.shape
    return GridScan(kappa_vuv=np.broadcast_to(kappa, shape).ravel(),
                    sqrt_n=np.broadcast_to(sqrt_n, shape).ravel(),
                    regime=regime.ravel(), margin_strong=margin_sc.ravel(),
                    margin_cooperativity=margin_coop.ravel(),
                    boundary_strong=tuple(boundary_sc),
                    boundary_cooperativity=tuple(boundary_coop))
