"""Photon-to-nucleus storage by a tanh detuning sweep through the avoided
crossing.

Two amplitudes (c_photon, c_nuclear) evolve under

    H(t) = [[delta(t), omega], [omega, 0]],   delta(t) = delta0 * tanh(k t),

starting far below resonance in the photonic state.  The sweep is propagated
in closed form: each step is a fourth-order Magnus step, an SU(2) element
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), and the number of
steps per sample interval is chosen by step doubling.  Analysis works in the
instantaneous polariton basis using the spectrum module's conventions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._fit import fit_loglog
from ._integrate import IntegrationFailure
from ._integrate import solve_sampled  # noqa: F401  perfbench/tracer.py wraps it by name
from .params import TimeSeries
from .spectrum import polariton_energies

__all__ = [
    "SweepProtocol",
    "NormDriftError",
    "NoJumpError",
    "integrate_sweep",
    "sweep_diagnostics",
    "polariton_populations",
    "jump_time",
    "MAX_SCAN_SAMPLES",
    "SampleBudgetError",
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


# step doubling stops once two passes agree this closely on every amplitude,
# and gives up at this many Magnus steps per sample interval
_DOUBLING_TOL = 1e-9
_MAX_SUBSTEPS = 2**14
# the two Gauss-Legendre nodes sit this many steps either side of the midpoint
_GAUSS = math.sqrt(3.0) / 6.0
# a run whose norm leaves 1 by more than this anywhere is rejected
_NORM_TOL = 1e-6


def _interval_propagators(times, proto: SweepProtocol, m: int):
    """(a, b) of U = [[a, -b*], [b, a*]] over each interval of times, in m
    fourth-order Magnus steps of the traceless H = z sz + omega sx, z = delta/2.

    One step is U = exp(-i b.s) = cos|b| - i sin|b| (b/|b|).s with
    b_z = h (z1 + z2)/2, b_x = h omega, b_y = -(sqrt(3)/6) h^2 omega (z1 - z2),
    z1 and z2 taken at the nodes t_mid -+ (sqrt(3)/6) h.
    """
    w = proto.omega
    h = np.diff(times) / m
    a = np.ones_like(h, dtype=complex)
    b = np.zeros_like(h, dtype=complex)
    for s in range(m):
        mid = times[:-1] + (s + 0.5) * h
        z1 = 0.5 * proto.delta(mid - _GAUSS * h)
        z2 = 0.5 * proto.delta(mid + _GAUSS * h)
        bz = 0.5 * h * (z1 + z2)
        bx = h * w
        by = -_GAUSS * h * h * w * (z1 - z2)
        angle = np.sqrt(bx * bx + by * by + bz * bz)
        sinc = np.sinc(angle / math.pi)          # sin|b| / |b|, 1 at |b| = 0
        step_a = np.cos(angle) - 1j * bz * sinc
        step_b = (by - 1j * bx) * sinc
        a, b = step_a * a - step_b.conj() * b, step_b * a + step_a.conj() * b
    return a, b


def _chain(a, b) -> np.ndarray:
    """States (n, 2) at the samples, from the photon (1, 0) through the interval
    propagators (a, b) in turn.

    Sample j holds the first column (a, b) of U_j ... U_1.  The products come
    from a Hillis-Steele prefix scan (Hillis & Steele, Commun. ACM 29, 1170
    (1986)): in the pass with offset d = 1, 2, 4, ..., entry j >= d is
    composed with entry j - d as U2 U1 = (a2 a1 - b2* b1, b2 a1 + a2* b1),
    so after the pass it spans up to 2d intervals, and log2(n) array passes
    replace the loop over the intervals.
    """
    a, b = a.astype(complex), b.astype(complex)
    d = 1
    while d < a.size:
        a[d:], b[d:] = (a[d:] * a[:-d] - b[d:].conj() * b[:-d],
                        b[d:] * a[:-d] + a[d:].conj() * b[:-d])
        d *= 2
    out = np.empty((a.size + 1, 2), dtype=complex)
    out[0] = 1.0, 0.0
    out[1:, 0], out[1:, 1] = a, b
    return out


def integrate_sweep(
    proto: SweepProtocol,
    *,
    n_samples: int = 4001,
) -> TimeSeries:
    """Evolve the photonic state through the sweep; store both amplitudes.

    Propagation runs in the traceless frame (diagonal +-delta/2) with an exact
    SU(2) Magnus step, so the norm holds to roundoff; the global phase
    exp(-i/2 int delta dt) is restored analytically at the sample times, so the
    returned amplitudes are the lab-frame ones.

    Each sample interval takes m Magnus steps, with m = 2, 4, 8, ... doubled
    until the passes with m/2 and m steps agree to 1e-9 on every amplitude;
    the m-step pass is returned, and m and that difference are recorded in
    meta["substeps"] and meta["doubling_error"].  IntegrationFailure is raised
    if they do not agree by 2**14 steps per interval.  The run is rejected
    (NormDriftError) if the norm leaves 1 by more than 1e-6 anywhere; the
    worst drift is recorded in meta["max_norm_drift"].
    """
    k = proto.rate_k
    t0, t1 = proto.window
    samples = np.linspace(t0, t1, int(n_samples))

    m = 1
    prev = _chain(*_interval_propagators(samples, proto, m))
    while True:
        m *= 2
        amps = _chain(*_interval_propagators(samples, proto, m))
        diff = float(np.abs(amps - prev).max())
        if diff <= _DOUBLING_TOL:
            break
        if not math.isfinite(diff) or m >= _MAX_SUBSTEPS:
            raise IntegrationFailure(
                f"sweep propagation did not settle: passes with {m // 2} and {m} "
                f"steps per sample interval differ by {diff:.3e}")
        prev = amps

    # int_{t0}^{t} delta/2 ds = (delta0 / 2k) [log cosh(kt) - log cosh(kt0)]
    phase = (0.5 * proto.delta0 / k) * (_log_cosh(k * samples) - _log_cosh(k * t0))
    amps = amps * np.exp(-1j * phase)[:, None]

    norms = np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2
    drift = float(np.abs(norms - 1.0).max())
    if drift > _NORM_TOL:
        raise NormDriftError(f"norm drifted by {drift:.3e} (> {_NORM_TOL:g})")

    return TimeSeries(times=samples, values=amps, columns=SWEEP_COLUMNS,
                      meta={"protocol": proto, "max_norm_drift": drift,
                            "substeps": m, "doubling_error": diff})


def sweep_diagnostics(ts: TimeSeries) -> dict:
    """Step refinement and norm health of an integrate_sweep run."""
    return {key: ts.meta[key] for key in ("substeps", "doubling_error", "max_norm_drift")}


def _branch_populations(c_photon, c_nuclear, delta, omega):
    """(P_upper, P_lower) of amplitudes in the instantaneous branch basis.

    Branch vectors are (omega, E - delta)/norm with a real, positive-first-
    component convention, which is smooth through the crossing.
    """
    e_up, e_lo = polariton_energies(delta, omega)
    p = []
    for e in (e_up, e_lo):
        b = e - delta
        n2 = omega**2 + b * b
        amp = omega * c_photon + b * c_nuclear
        p.append(np.abs(amp) ** 2 / n2)
    return p[0], p[1]


def polariton_populations(ts: TimeSeries):
    """(p_up, p_lp) arrays along an integrate_sweep trace."""
    proto = ts.meta["protocol"]
    return _branch_populations(ts.column("c_photon"), ts.column("c_nuclear"),
                               proto.delta(ts.times), proto.omega)


def jump_time(times: np.ndarray, p_up: np.ndarray) -> float:
    """10-90 rise time of the upper-branch population.

    Plateaus are the means over the first and last 5% of the samples (at
    least 2 each); a jump smaller than 0.01 raises NoJumpError.  Crossing
    times are first crossings (scanning forward) with linear interpolation.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(p_up, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or len(t) < 20:
        raise ValueError("need matching 1-d arrays of at least 20 samples")
    n_edge = max(2, int(0.05 * len(t)))
    early = float(y[:n_edge].mean())
    late = float(y[-n_edge:].mean())
    jump = late - early
    if abs(jump) < 0.01:
        raise NoJumpError(f"upper-branch population changes by {jump:.3e} (< 0.01)")

    lo = early + 0.1 * jump
    hi = early + 0.9 * jump
    sign = 1.0 if jump > 0 else -1.0

    def first_crossing(level, start):
        # first i >= start with y[i] short of level and y[i + 1] at or past it
        d = sign * (y[start:] - level)
        hits = np.flatnonzero((d[:-1] < 0.0) & (0.0 <= d[1:]))
        if not hits.size:
            return None, None
        i = start + int(hits[0])
        frac = (level - y[i]) / (y[i + 1] - y[i])
        return i, t[i] + frac * (t[i + 1] - t[i])

    i10, t10 = first_crossing(lo, 0)
    if t10 is None:
        raise NoJumpError("10% level never crossed")
    _, t90 = first_crossing(hi, i10)
    if t90 is None:
        raise NoJumpError("90% level never crossed after the 10% crossing")
    return float(t90 - t10)


# samples of one jump_time_scan run: 250x the 4001 of every bundled and
# benchmark scan.  A run of 1e6 samples takes about 1.7 s and 214 MiB of heap
# (2 cores, numpy 2.4); the count grows as 1/k, and k = 1e-3 in fig4d asks for
# 4.3e9 samples, 32 GiB in the first array alone
MAX_SCAN_SAMPLES = 1_000_000


class SampleBudgetError(ValueError):
    """A jump_time_scan run would take more than MAX_SCAN_SAMPLES samples."""


@dataclass(frozen=True)
class SweepScanResult:
    """Jump time against sweep rate, with the log-log fit."""

    points: tuple  # (k, gamma_lz, tau_jump) triples
    slope: float
    r_squared: float
    diagnostics: tuple  # per point: k, substeps, doubling_error, max_norm_drift


def _jump_scan_point(proto, n_samples):
    ts = integrate_sweep(proto, n_samples=n_samples)
    p_up, _ = polariton_populations(ts)
    return (proto.rate_k, proto.lz_parameter, jump_time(ts.times, p_up)), {
        "k": proto.rate_k, **sweep_diagnostics(ts)}


def jump_time_scan(
    omega: float,
    delta0: float,
    k_values,
    *,
    min_samples: int = 4001,
    map_fn=map,
) -> SweepScanResult:
    """tau_jump(k) over a set of sweep rates, fitted on log-log axes.

    Each run takes 8 samples per period of the fast phase delta0 over its
    window, and at least min_samples, so plateau averages stay meaningful at
    slow sweeps.  The count grows as 1/k; a run past MAX_SCAN_SAMPLES raises
    SampleBudgetError before any run starts.  map_fn may be an executor's map.
    """
    ks = sorted(float(k) for k in k_values)
    if len(set(ks)) < 3:
        raise ValueError(f"need >= 3 distinct sweep rates, got {ks}")

    protos = [SweepProtocol(delta0=delta0, rate_k=k, omega=omega) for k in ks]
    wanted = [max(min_samples, 8.0 * abs(delta0) * (t1 - t0) / (2.0 * math.pi))
              for t0, t1 in (proto.window for proto in protos)]
    worst = max(range(len(ks)), key=wanted.__getitem__)
    if wanted[worst] > MAX_SCAN_SAMPLES:
        raise SampleBudgetError(
            f"the run at k = {ks[worst]:.6g} takes {wanted[worst]:.4g} samples, over "
            f"the budget of {MAX_SCAN_SAMPLES:.0e} per run (8 per period of delta0 "
            "over its window, and at least min_samples)")
    counts = [int(n) for n in wanted]
    points, diagnostics = zip(*map_fn(_jump_scan_point, protos, counts))

    fit = fit_loglog([k for k, _, _ in points], [tau for _, _, tau in points])
    return SweepScanResult(points=points, slope=fit.slope, r_squared=fit.r_squared,
                           diagnostics=diagnostics)
