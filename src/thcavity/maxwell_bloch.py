"""Mean-field cavity + ensemble dynamics and vacuum Rabi extraction.

Scaled variables: alpha is the VUV cavity field amplitude, P the per-nucleus
polarization, Z the per-nucleus inversion (Z = -1 in the ground state):

    alpha' = E(t) - (kappa_vuv/2) alpha - i N g P
    P'     = -(gamma_minus/2) P + i g alpha Z
    Z'     = -gamma_minus (Z + 1) + 2 i g (alpha* P - alpha P*)

The Z equation's bracket is purely imaginary, so Z stays real.  With a real
drive E(t), Im alpha' = -(kappa_vuv/2) Im alpha - N g Re P and
Re P' = -(gamma_minus/2) Re P - g Z Im alpha vanish where Im alpha = Re P = 0,
so a run that starts there (the ground state does) never leaves: Im alpha
and Re P stay exactly 0.  The state is integrated as the three components
that move, (Re alpha, Im P, Z), and Im alpha and Re P are written as exact
zeros; a complex drive amplitude or a start with Im alpha or Re P != 0 is a
ValueError.  The drive is a Gaussian kick (params.DriveProfile);
solve_sampled caps the step through its window and runs the free evolution
after it uncapped.

A Rabi scan is self-similar: in tau = t / t_end(N) every point has its kick
at nearly the same tau and the same number of periods in [0, 1].  So
rabi_scaling_fit runs all its points as one DOP853 solve of their stacked
states (3 components per point), each point's time rescaled to the first
point's, and integrate_mbe is the one-point case of that solve: one
right-hand side serves both.  At this size a step costs numpy call overhead,
not arithmetic, so a scan of B points pays that overhead once instead of B
times, and the B kicks are one numpy expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._fit import fit_line
from ._integrate import solve_sampled
from .params import DriveProfile, ModelParams, TimeSeries

__all__ = [
    "MeanFieldState",
    "OverdampedSignalError",
    "integrate_mbe",
    "alpha_series",
    "polarization_series",
    "intensity_series",
    "dominant_angular_frequency",
    "extract_rabi_frequency",
    "rabi_kick",
    "linear_rabi_frequency",
    "RabiFit",
    "rabi_scaling_fit",
]

MBE_COLUMNS = ("re_alpha", "im_alpha", "re_p", "im_p", "z")
_LIVE = [0, 3, 4]   # the MBE_COLUMNS a real kick moves: re_alpha, im_p, z
_RTOL, _ATOL = 1e-8, 1e-10   # integrate_mbe's and every Rabi scan's tolerances
_N_PERIODS = 8.0   # linear-regime periods each Rabi scan point runs after its kick


class OverdampedSignalError(RuntimeError):
    """Fewer than the required number of intensity maxima: no oscillation to fit."""


@dataclass(frozen=True)
class MeanFieldState:
    alpha: complex
    polarization: complex
    inversion: float

    @classmethod
    def ground(cls) -> "MeanFieldState":
        return cls(alpha=0.0, polarization=0.0, inversion=-1.0)


def _check_real_subspace(drive: DriveProfile, init: MeanFieldState) -> None:
    if complex(drive.amplitude).imag != 0:
        raise ValueError(f"drive amplitude must be real, got {drive.amplitude}: the "
                         "mean-field solve steps Re alpha, Im P and Z only")
    if complex(init.alpha).imag != 0 or complex(init.polarization).real != 0:
        raise ValueError(f"initial state must have Im alpha = Re P = 0, got alpha="
                         f"{init.alpha}, polarization={init.polarization}: the "
                         "mean-field solve steps Re alpha, Im P and Z only")


def _integrate_scaled(runs, t_span, n_samples, rtol=_RTOL, atol=_ATOL,
                      freeze_inversion=False):
    """One DOP853 solve of several mean-field runs in a shared time variable.

    runs holds (params, drive, init, scale) per run; the solve's time s runs
    over t_span, and run b sits at its own time scale_b * s, so its equations
    are those of integrate_mbe times scale_b.  The state stacks the three
    moving components (Re alpha, Im P, Z) of every run, component by
    component.  The drives' windows (DriveProfile.window), mapped to the
    shared time, merge into one: the step is capped by the narrowest mapped
    cap up to the latest mapped end.  Returns the samples at
    np.linspace(*t_span, n_samples), an array (runs, n_samples, 5) in
    MBE_COLUMNS order, and the solve_sampled stats of each segment.
    """
    ps, drives, inits, scales = zip(*runs)
    for drive, init in zip(drives, inits):
        _check_real_subspace(drive, init)
    kappa, gamma, g, n = (np.array([getattr(p, k) for p in ps], dtype=float)
                          for k in ("kappa_vuv", "gamma_minus", "g", "n_nuclei"))
    # each run's coefficients in the shared time
    c = np.array(scales, dtype=float)
    g = c * g
    ng = n * g
    neg_gamma = c * -gamma
    # run b's kick c_b * envelope(c_b * s) = amp_b * exp(rate_b * (s - center_b)^2)
    amp = c * np.array([complex(d.amplitude).real for d in drives])
    center = np.array([d.center for d in drives]) / c
    rate = -0.5 * (c / np.array([d.width for d in drives])) ** 2
    # y' = diag * y + const + cross * (Z, Im P) * Re alpha on the (Im P, Z)
    # rows, plus the kick and N g Im P on the Re alpha rows
    b = len(runs)
    diag = np.concatenate((c * (-0.5 * kappa), c * (-0.5 * gamma), neg_gamma))
    const = np.concatenate((np.zeros(2 * b), neg_gamma))
    cross = np.concatenate((g, -4.0 * g))
    if freeze_inversion:
        diag[2 * b:] = const[2 * b:] = cross[b:] = 0.0
    rows = np.arange(b)
    z_then_p = np.concatenate((rows + 2 * b, rows + b))
    ar_twice = np.concatenate((rows, rows))

    def rhs(t, y):
        x = t - center
        dy = diag * y + const
        dy[b:] += cross * y[z_then_p] * y[ar_twice]
        dy[:b] += amp * np.exp(rate * (x * x)) + ng * y[b:2 * b]
        return dy

    y0 = np.array([[complex(s.alpha).real, complex(s.polarization).imag,
                    float(s.inversion)] for s in inits]).T.ravel()
    samples = np.linspace(*t_span, int(n_samples))

    # one pulse window for all runs: the latest mapped end, the narrowest mapped cap
    windows = [(w[0] / k, w[1] / k) for d, k in zip(drives, scales) if (w := d.window)]
    pulse = (max(e for e, _ in windows), min(c for _, c in windows)) if windows else None
    values, _, solver = solve_sampled(rhs, t_span, y0, samples, rtol=rtol, atol=atol,
                                      pulse=pulse)
    stacked = np.zeros((len(runs), len(samples), len(MBE_COLUMNS)))
    stacked[..., _LIVE] = values.reshape(len(samples), 3, len(runs)).transpose(2, 0, 1)
    return stacked, solver


def integrate_mbe(
    p: ModelParams,
    drive: DriveProfile = DriveProfile(),
    t_span: tuple[float, float] = (0.0, 1.0),
    init: MeanFieldState | None = None,
    *,
    n_samples: int = 2000,
    rtol: float = _RTOL,
    atol: float = _ATOL,
    freeze_inversion: bool = False,
) -> TimeSeries:
    """Integrate the mean-field equations over t_span.

    freeze_inversion pins Z at its initial value (linearized regime).  A
    drive caps the step through its pulse window (DriveProfile.window) so a
    narrow kick cannot be stepped over, and the rest runs uncapped.
    meta["solver"] lists the solve_sampled stats of each segment.  This is
    the one-run case of the solve rabi_scaling_fit stacks, on the subspace
    Im alpha = Re P = 0: a complex drive amplitude, or an init off it, raises
    ValueError.
    """
    if init is None:
        init = MeanFieldState.ground()
    values, solver = _integrate_scaled([(p, drive, init, 1.0)], t_span, n_samples,
                                       rtol, atol, freeze_inversion)
    return TimeSeries(
        times=np.linspace(t_span[0], t_span[1], int(n_samples)),
        values=values[0],
        columns=MBE_COLUMNS,
        meta={"params": p, "drive": drive, "rtol": rtol, "atol": atol,
              "freeze_inversion": freeze_inversion, "solver": solver},
    )


def alpha_series(ts: TimeSeries) -> np.ndarray:
    return ts.column("re_alpha") + 1j * ts.column("im_alpha")


def polarization_series(ts: TimeSeries) -> np.ndarray:
    return ts.column("re_p") + 1j * ts.column("im_p")


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


def rabi_kick(p: ModelParams) -> DriveProfile:
    """Short Gaussian kick that leaves |alpha| ~ 0.01 in the cavity.

    The kick is made fast against both g*sqrt(N) and kappa so that the field it
    deposits is just the pulse area and the ensemble stays in the linear regime.
    """
    omega = p.g * math.sqrt(p.n_nuclei)
    scale = max(omega, p.kappa_vuv, p.gamma_minus)
    if scale <= 0:
        raise ValueError("need at least one nonzero rate to size the kick")
    sigma = 0.05 / scale
    amp = 0.01 / (math.sqrt(2.0 * math.pi) * sigma)
    return DriveProfile(amplitude=amp, center=6.0 * sigma, width=sigma)


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


def _scan_traces(runs, n_samples):
    # (params, kick, t_end) per point, as one stacked solve in the first
    # point's own time; each trace keeps its own time column
    if not runs:
        return []
    t_scale = runs[0][2]
    ground = MeanFieldState.ground()
    values, solver = _integrate_scaled(
        [(pn, kick, ground, t_end / t_scale) for pn, kick, t_end in runs],
        (0.0, t_scale), n_samples)
    return [TimeSeries(times=np.linspace(0.0, t_end, int(n_samples)), values=v,
                       columns=MBE_COLUMNS,
                       meta={"params": pn, "drive": kick, "rtol": _RTOL, "atol": _ATOL,
                             "freeze_inversion": False, "solver": solver})
            for (pn, kick, t_end), v in zip(runs, values)]


def rabi_scaling_fit(
    n_values,
    p: ModelParams,
    *,
    n_samples: int = 4000,
) -> RabiFit:
    """Extracted Rabi frequency vs sqrt(N), fitted linearly.

    Each N reuses p with n_nuclei replaced and gets its own rabi_kick, short
    against that N's oscillation, and runs to kick.center + _N_PERIODS (8)
    linear-regime periods.  The scan is self-similar: in tau = t / t_end(N)
    every point has its kick at nearly the same tau and 8 periods in
    [0, 1].  So all points run as one DOP853 solve of their stacked states,
    at integrate_mbe's default tolerances, in the first point's own time
    (see _integrate_scaled); each trace's meta["solver"] holds that shared
    solve's stats.  Overdamped points are dropped before the solve, or when
    their trace shows fewer than 3 maxima, and listed in failures; fewer than
    4 distinct usable points is an error.
    """
    ns = [int(n) for n in n_values]
    if len(set(ns)) < 4:
        raise ValueError(f"need at least 4 distinct N values, got {sorted(set(ns))}")

    plans = []   # (n, (params, kick, t_end) or None)
    for n in ns:
        pn = replace(p, n_nuclei=n)
        kick = rabi_kick(pn)
        omega_lin = linear_rabi_frequency(n, p)
        run = None
        if omega_lin > 0:
            period = 2.0 * math.pi / omega_lin
            run = (pn, kick, kick.center + _N_PERIODS * period)
        plans.append((n, run))
    runs = [run for _, run in plans if run is not None]
    solved = iter(_scan_traces(runs, n_samples))

    points = []
    traces = []
    failures = []
    for n, run in plans:
        if run is None:
            failures.append((n, "overdamped (negative oscillation frequency squared)"))
            continue
        trace = next(solved)
        try:
            w = extract_rabi_frequency(trace, transient_fraction=0.05)
        except OverdampedSignalError as err:
            failures.append((n, str(err)))
            continue
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
