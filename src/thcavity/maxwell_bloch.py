"""Mean-field cavity + ensemble dynamics and vacuum Rabi extraction.

Scaled variables: alpha is the VUV cavity field amplitude, P the per-nucleus
polarization, Z the per-nucleus inversion (Z = -1 in the ground state):

    alpha' = E(t) - (kappa_vuv/2) alpha - i N g P
    P'     = -(gamma_minus/2) P + i g alpha Z
    Z'     = -gamma_minus (Z + 1) + 2 i g (alpha* P - alpha P*)

The Z equation's bracket is purely imaginary, so Z stays real; the state is
integrated as five real components and Z never acquires an imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._fit import fit_line
from ._integrate import solve_sampled
from .params import ModelParams, TimeSeries

__all__ = [
    "DriveProfile",
    "MeanFieldState",
    "OverdampedSignalError",
    "integrate_mbe",
    "alpha_series",
    "polarization_series",
    "inversion_series",
    "intensity_series",
    "dominant_angular_frequency",
    "extract_rabi_frequency",
    "rabi_kick",
    "linear_rabi_frequency",
    "RabiFit",
    "rabi_scaling_fit",
]

MBE_COLUMNS = ("re_alpha", "im_alpha", "re_p", "im_p", "z")


class OverdampedSignalError(RuntimeError):
    """Fewer than the required number of intensity maxima: no oscillation to fit."""


@dataclass(frozen=True)
class DriveProfile:
    """Cavity drive envelope E(t).

    kind "gaussian": amplitude * exp(-(t-center)^2 / (2 width^2))
    kind "constant": amplitude
    kind "off":      0
    amplitude may be complex.
    """

    amplitude: complex = 0.0
    center: float = 0.0
    width: float = 1.0
    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in ("gaussian", "constant", "off"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.kind == "gaussian" and not self.width > 0:
            raise ValueError(f"gaussian drive needs width > 0, got {self.width}")

    def envelope(self, t: float) -> complex:
        if self.kind == "off":
            return 0.0
        if self.kind == "constant":
            return self.amplitude
        x = (t - self.center) / self.width
        return self.amplitude * math.exp(-0.5 * x * x)


OFF = DriveProfile(kind="off")


@dataclass(frozen=True)
class MeanFieldState:
    alpha: complex
    polarization: complex
    inversion: float

    @classmethod
    def ground(cls) -> "MeanFieldState":
        return cls(alpha=0.0, polarization=0.0, inversion=-1.0)


def integrate_mbe(
    p: ModelParams,
    drive: DriveProfile = OFF,
    t_span: tuple[float, float] = (0.0, 1.0),
    init: MeanFieldState | None = None,
    *,
    n_samples: int = 2000,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    freeze_inversion: bool = False,
) -> TimeSeries:
    """Integrate the mean-field equations over t_span.

    freeze_inversion pins Z at its initial value (linearized regime).  A
    gaussian drive bounds the step size through the pulse so a narrow kick
    cannot be stepped over, then integrates the remainder unconstrained.
    meta["solver"] lists the solve_sampled stats of each segment.
    """
    if init is None:
        init = MeanFieldState.ground()
    kappa = p.kappa_vuv
    gamma = p.gamma_minus
    g = p.g
    ng = p.n_nuclei * g

    def rhs(t, y):
        ar, ai, pr, pi, z = y
        e = drive.envelope(t)
        dar = e.real - 0.5 * kappa * ar + ng * pi
        dai = e.imag - 0.5 * kappa * ai - ng * pr
        dpr = -0.5 * gamma * pr - g * z * ai
        dpi = -0.5 * gamma * pi + g * z * ar
        if freeze_inversion:
            dz = 0.0
        else:
            dz = -gamma * (z + 1.0) - 4.0 * g * (ar * pi - ai * pr)
        return np.array([dar, dai, dpr, dpi, dz])

    y0 = np.array(
        [
            complex(init.alpha).real,
            complex(init.alpha).imag,
            complex(init.polarization).real,
            complex(init.polarization).imag,
            float(init.inversion),
        ]
    )
    t0, t1 = t_span
    samples = np.linspace(t0, t1, int(n_samples))

    # a gaussian drive: resolve the pulse with a bounded step, then run free
    t_pulse = min(t1, drive.center + 6.0 * drive.width)
    if drive.kind == "gaussian" and drive.amplitude != 0 and t_pulse > t0:
        tail = samples[samples > t_pulse]
        values, y_pulse, stats = solve_sampled(
            rhs, (t0, t_pulse), y0, samples[samples <= t_pulse],
            rtol=rtol, atol=atol, max_step=drive.width / 2.0,
        )
        solver = [stats]
        if tail.size:
            ys_tail, _, stats = solve_sampled(rhs, (t_pulse, t1), y_pulse, tail,
                                              rtol=rtol, atol=atol)
            values = np.concatenate([values, ys_tail])
            solver.append(stats)
    else:
        values, _, stats = solve_sampled(rhs, (t0, t1), y0, samples, rtol=rtol, atol=atol)
        solver = [stats]

    return TimeSeries(
        times=samples,
        values=values,
        columns=MBE_COLUMNS,
        meta={"params": p, "drive": drive, "rtol": rtol, "atol": atol,
              "freeze_inversion": freeze_inversion, "solver": solver},
    )


def alpha_series(ts: TimeSeries) -> np.ndarray:
    return ts.column("re_alpha") + 1j * ts.column("im_alpha")


def polarization_series(ts: TimeSeries) -> np.ndarray:
    return ts.column("re_p") + 1j * ts.column("im_p")


def inversion_series(ts: TimeSeries) -> np.ndarray:
    return ts.column("z")


def intensity_series(ts: TimeSeries) -> np.ndarray:
    """|alpha|^2."""
    return ts.column("re_alpha") ** 2 + ts.column("im_alpha") ** 2


def dominant_angular_frequency(
    times: np.ndarray,
    signal: np.ndarray,
    *,
    transient_fraction: float = 0.1,
) -> float:
    """Angular frequency of a decaying oscillation from mean peak spacing.

    Discards the leading transient_fraction of the window, locates strict local
    maxima above 1e-12 * max, refines each by a parabolic fit through its three
    samples, and returns 2*pi / mean(spacing); fewer than 3 maxima raise
    OverdampedSignalError.  For an exponentially damped cosine the spacing is
    exactly one period, so the estimate is unbiased by the envelope.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(signal, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("times and signal must be matching 1-d arrays")
    if len(t) < 8:
        raise ValueError("too few samples for peak extraction")
    t_lo = t[0] + transient_fraction * (t[-1] - t[0])
    mask = t >= t_lo
    t, y = t[mask], y[mask]
    if len(t) < 8:
        raise OverdampedSignalError("transient cut removed nearly all samples")

    floor = 1e-12 * y.max() if y.max() > 0 else 0.0
    core = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] > floor)
    idx = np.nonzero(core)[0] + 1
    if len(idx) < 3:
        raise OverdampedSignalError(
            f"found {len(idx)} usable maxima, need 3: signal is "
            "overdamped or the window is too short"
        )
    # parabolic refinement on the local sample triplet
    ym, y0_, yp = y[idx - 1], y[idx], y[idx + 1]
    denom = ym - 2.0 * y0_ + yp
    shift = np.where(denom != 0.0, 0.5 * (ym - yp) / np.where(denom != 0.0, denom, 1.0), 0.0)
    h = np.diff(t).mean()
    t_peaks = t[idx] + shift * h
    spacing = np.diff(t_peaks).mean()
    if spacing <= 0:
        raise OverdampedSignalError("degenerate peak spacing")
    return 2.0 * math.pi / spacing


def extract_rabi_frequency(trace: TimeSeries, *, transient_fraction: float = 0.1) -> float:
    """Rabi frequency from an integrate_mbe trace.

    |alpha|^2 oscillates at twice the field's Rabi frequency, so the reported
    value is half the dominant intensity frequency.
    """
    w = dominant_angular_frequency(trace.times, intensity_series(trace),
                                   transient_fraction=transient_fraction)
    return 0.5 * w


def rabi_kick(p: ModelParams, *, target_alpha: float = 0.01) -> DriveProfile:
    """Short Gaussian kick that leaves |alpha| ~ target_alpha in the cavity.

    The kick is made fast against both g*sqrt(N) and kappa so that the field it
    deposits is just the pulse area and the ensemble stays in the linear regime.
    """
    omega = p.g * math.sqrt(p.n_nuclei)
    scale = max(omega, p.kappa_vuv, p.gamma_minus)
    if scale <= 0:
        raise ValueError("need at least one nonzero rate to size the kick")
    sigma = 0.05 / scale
    amp = target_alpha / (math.sqrt(2.0 * math.pi) * sigma)
    return DriveProfile(amplitude=amp, center=6.0 * sigma, width=sigma, kind="gaussian")


@dataclass(frozen=True)
class RabiFit:
    """Linear fit of Rabi frequency against sqrt(N)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple  # (n, sqrt_n, omega_rabi) triples
    traces: tuple  # integrate_mbe TimeSeries, one per point
    failures: tuple  # (n, reason) pairs, one per dropped N


def linear_rabi_frequency(n, p: ModelParams) -> float:
    """sqrt(N g^2 - ((kappa - gamma)/4)^2), the damped linear-regime Rabi
    frequency of N nuclei; 0 when the oscillation is overdamped."""
    omega2 = n * p.g**2 - ((p.kappa_vuv - p.gamma_minus) / 4.0) ** 2
    return math.sqrt(max(omega2, 0.0))


def _rabi_scan_point(n, p, n_periods, n_samples):
    # one scan point; returns (n, omega or None, failure message or None, trace)
    pn = replace(p, n_nuclei=n)
    kick = rabi_kick(pn)
    omega_lin = linear_rabi_frequency(n, p)
    if omega_lin <= 0:
        return (n, None, "overdamped (negative oscillation frequency squared)", None)
    period = 2.0 * math.pi / omega_lin
    t_end = kick.center + n_periods * period
    trace = integrate_mbe(pn, kick, (0.0, t_end), n_samples=n_samples)
    try:
        w = extract_rabi_frequency(trace, transient_fraction=0.05)
    except OverdampedSignalError as err:
        return (n, None, str(err), None)
    return (n, w, None, trace)


def rabi_scaling_fit(
    n_values,
    p: ModelParams,
    *,
    n_periods: float = 8.0,
    n_samples: int = 4000,
    map_fn=map,
) -> RabiFit:
    """Extracted Rabi frequency vs sqrt(N), fitted linearly.

    Each N reuses p with n_nuclei replaced and gets its own rabi_kick, short
    against that N's oscillation, then runs n_periods linear-regime periods
    through integrate_mbe at its default tolerances.  Overdamped points are
    dropped and listed in failures; fewer than 4 distinct usable points is an
    error.  map_fn may be an executor's map; points evaluate independently.
    """
    ns = [int(n) for n in n_values]
    if len(set(ns)) < 4:
        raise ValueError(f"need at least 4 distinct N values, got {sorted(set(ns))}")

    work = partial(_rabi_scan_point, p=p, n_periods=n_periods, n_samples=n_samples)
    points = []
    traces = []
    failures = []
    for n, w, msg, trace in map_fn(work, ns):
        if w is None:
            failures.append((n, msg))
        else:
            points.append((n, math.sqrt(n), w))
            traces.append(trace)

    if len({n for n, _, _ in points}) < 4:
        raise OverdampedSignalError(
            f"only {len(points)} usable points ({failures!r}); need 4 for the fit"
        )

    x = np.array([s for _, s, _ in points])
    y = np.array([w for _, _, w in points])
    fit = fit_line(x, y)
    return RabiFit(slope=fit.slope, intercept=fit.intercept,
                   r_squared=fit.r_squared, points=tuple(points),
                   traces=tuple(traces), failures=tuple(failures))
