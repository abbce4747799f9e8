"""Photon-to-nucleus storage by a tanh detuning sweep through the avoided
crossing.

Two amplitudes (c_photon, c_nuclear) evolve under

    H(t) = [[delta(t), omega], [omega, 0]],   delta(t) = delta0 * tanh(k t),

starting far below resonance in the photonic state.  Analysis works in the
instantaneous polariton basis using the spectrum module's conventions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fit import fit_loglog
from ._integrate import solve_sampled
from .params import TimeSeries
from .spectrum import polariton_energies

__all__ = [
    "SweepProtocol",
    "NormDriftError",
    "NoJumpError",
    "integrate_sweep",
    "project_polariton",
    "polariton_populations",
    "jump_time",
    "SweepScanResult",
    "jump_time_scan",
]

SWEEP_COLUMNS = ("c_photon", "c_nuclear")


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance during the sweep."""


class NoJumpError(RuntimeError):
    """Upper-branch population shows no resolvable jump."""


@dataclass(frozen=True)
class SweepProtocol:
    """A tanh sweep: delta0 (asymptotic detuning), rate_k, coupling omega.

    delta0 may be negative (reversed sweep); |delta0|/omega < 3 is rejected
    because the window never reaches the far-detuned regime, and < 10 warns.
    The default window is +-5/k, where tanh has saturated to 1 - 9e-5.
    """

    delta0: float
    rate_k: float
    omega: float
    t_start: float | None = None
    t_end: float | None = None

    def __post_init__(self):
        if not self.rate_k > 0:
            raise ValueError(f"rate_k must be > 0, got {self.rate_k}")
        if not self.omega >= 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.delta0 == 0:
            raise ValueError("delta0 must be nonzero")
        if self.omega > 0:
            ratio = abs(self.delta0) / self.omega
            if ratio < 3.0:
                raise ValueError(
                    f"|delta0|/omega = {ratio:.2f} < 3: sweep never leaves the "
                    "crossing region")
            if ratio < 10.0:
                warnings.warn(
                    f"|delta0|/omega = {ratio:.2f} < 10: asymptotic states are "
                    "not well separated", stacklevel=2)

    @property
    def window(self) -> tuple[float, float]:
        t0 = self.t_start if self.t_start is not None else -5.0 / self.rate_k
        t1 = self.t_end if self.t_end is not None else 5.0 / self.rate_k
        if not t1 > t0:
            raise ValueError(f"empty sweep window ({t0}, {t1})")
        return (t0, t1)

    def delta(self, t):
        return self.delta0 * np.tanh(self.rate_k * np.asarray(t, dtype=float))

    @property
    def lz_parameter(self) -> float:
        """pi omega^2 / (k |delta0|); diabatic survival is exp(-2 * this)."""
        return math.pi * self.omega**2 / (self.rate_k * abs(self.delta0))


def _log_cosh(x):
    # overflow-safe log(cosh(x)) for any magnitude
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def integrate_sweep(
    proto: SweepProtocol,
    *,
    n_samples: int = 4001,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    method: str = "DOP853",
    norm_tol: float = 1e-6,
) -> TimeSeries:
    """Evolve the photonic state through the sweep; store both amplitudes.

    Integration runs in the traceless frame (diagonal +-delta/2), which halves
    the oscillation rate the stepper must resolve; the global phase
    exp(-i/2 int delta dt) is restored analytically at the sample times, so the
    returned amplitudes are the lab-frame ones.

    Default tolerances keep the norm within 1e-9 of 1 even on long strongly
    adiabatic sweeps (drift grows roughly linearly with rtol).  The run is
    rejected (NormDriftError) if the norm leaves 1 by more than norm_tol
    anywhere; the worst drift is recorded in meta["max_norm_drift"].
    """
    d0, k, w = proto.delta0, proto.rate_k, proto.omega
    t0, t1 = proto.window
    half = 0.5 * d0

    def rhs(t, y):
        dh = half * math.tanh(k * t)
        return np.array([-1j * (dh * y[0] + w * y[1]),
                         -1j * (w * y[0] - dh * y[1])])

    y0 = np.array([1.0 + 0.0j, 0.0j])
    samples = np.linspace(t0, t1, int(n_samples))
    amps, _ = solve_sampled(rhs, (t0, t1), y0, samples,
                            method=method, rtol=rtol, atol=atol)

    # int_{t0}^{t} delta/2 ds = (delta0 / 2k) [log cosh(kt) - log cosh(kt0)]
    phase = (half / k) * (_log_cosh(k * samples) - _log_cosh(k * t0))
    amps = amps * np.exp(-1j * phase)[:, None]

    norms = np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2
    drift = float(np.abs(norms - 1.0).max())
    if drift > norm_tol:
        raise NormDriftError(
            f"norm drifted by {drift:.3e} (> {norm_tol:g}); tighten tolerances")

    return TimeSeries(times=samples, values=amps, columns=SWEEP_COLUMNS,
                      meta={"protocol": proto, "max_norm_drift": drift,
                            "rtol": rtol, "atol": atol})


def project_polariton(state, proto: SweepProtocol, t: float) -> tuple[float, float]:
    """(P_upper, P_lower) of a two-component state in the instantaneous basis.

    Branch vectors are (omega, E - delta)/norm with a real, positive-first-
    component convention, which is smooth through the crossing.
    """
    c_photon, c_nuclear = complex(state[0]), complex(state[1])
    delta = float(proto.delta(t))
    e_up, e_lo = polariton_energies(delta, proto.omega)
    out = []
    for e in (e_up, e_lo):
        a, b = proto.omega, e - delta
        n2 = a * a + b * b
        amp = a * c_photon + b * c_nuclear
        out.append(abs(amp) ** 2 / n2)
    return out[0], out[1]


def polariton_populations(ts: TimeSeries, proto: SweepProtocol | None = None):
    """(p_up, p_lp) arrays along a stored sweep trace."""
    if proto is None:
        proto = ts.meta["protocol"]
    c_photon = ts.column("c_photon")
    c_nuclear = ts.column("c_nuclear")
    delta = proto.delta(ts.times)
    e_up, e_lo = polariton_energies(delta, proto.omega)
    p = []
    for e in (e_up, e_lo):
        b = e - delta
        n2 = proto.omega**2 + b * b
        amp = proto.omega * c_photon + b * c_nuclear
        p.append(np.abs(amp) ** 2 / n2)
    return p[0], p[1]


def jump_time(times: np.ndarray, p_up: np.ndarray, *,
              plateau_fraction: float = 0.05, min_jump: float = 0.01) -> float:
    """10-90 rise time of the upper-branch population.

    Plateaus are the means over the first and last plateau_fraction of the
    window; a jump smaller than min_jump raises NoJumpError.  Crossing times
    are first crossings (scanning forward) with linear interpolation.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(p_up, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or len(t) < 20:
        raise ValueError("need matching 1-d arrays of at least 20 samples")
    n_edge = max(2, int(plateau_fraction * len(t)))
    early = float(y[:n_edge].mean())
    late = float(y[-n_edge:].mean())
    jump = late - early
    if abs(jump) < min_jump:
        raise NoJumpError(
            f"upper-branch population changes by {jump:.3e} (< {min_jump:g})")

    lo = early + 0.1 * jump
    hi = early + 0.9 * jump

    def first_crossing(level, start):
        sign = 1.0 if jump > 0 else -1.0
        for i in range(start, len(t) - 1):
            if sign * (y[i] - level) < 0.0 <= sign * (y[i + 1] - level):
                frac = (level - y[i]) / (y[i + 1] - y[i])
                return i, t[i] + frac * (t[i + 1] - t[i])
        return None, None

    i10, t10 = first_crossing(lo, 0)
    if t10 is None:
        raise NoJumpError("10% level never crossed")
    _, t90 = first_crossing(hi, i10)
    if t90 is None:
        raise NoJumpError("90% level never crossed after the 10% crossing")
    return float(t90 - t10)


@dataclass(frozen=True)
class SweepScanResult:
    """Jump time against sweep rate, with the log-log fit."""

    points: tuple  # (k, gamma_lz, tau_jump) triples
    slope: float
    r_squared: float


def _jump_scan_point(k, omega, delta0, samples_per_period, min_samples, rtol, atol):
    proto = SweepProtocol(delta0=delta0, rate_k=k, omega=omega)
    t0, t1 = proto.window
    n = max(min_samples,
            int(samples_per_period * abs(delta0) * (t1 - t0) / (2.0 * math.pi)))
    ts = integrate_sweep(proto, n_samples=n, rtol=rtol, atol=atol)
    p_up, _ = polariton_populations(ts)
    return (k, proto.lz_parameter, jump_time(ts.times, p_up))


def jump_time_scan(
    omega: float,
    delta0: float,
    k_values,
    *,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    samples_per_period: float = 8.0,
    min_samples: int = 4001,
    map_fn=map,
) -> SweepScanResult:
    """tau_jump(k) over a set of sweep rates, fitted on log-log axes.

    Sampling scales with the fast phase delta0 * window so plateau averages
    stay meaningful at slow sweeps.  map_fn may be an executor's map.
    """
    ks = sorted(float(k) for k in k_values)
    if len(set(ks)) < 3:
        raise ValueError(f"need >= 3 distinct sweep rates, got {ks}")

    work = partial(_jump_scan_point, omega=omega, delta0=delta0,
                   samples_per_period=samples_per_period,
                   min_samples=min_samples, rtol=rtol, atol=atol)
    points = list(map_fn(work, ks))

    fit = fit_loglog([k for k, _, _ in points], [tau for _, _, tau in points])
    return SweepScanResult(points=tuple(points), slope=fit.slope,
                           r_squared=fit.r_squared)
