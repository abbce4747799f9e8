"""Collective emission on the symmetric Dicke ladder after adiabatic cavity
elimination.

In the bad-cavity limit the VUV mode follows the ensemble and the dynamics
reduce to the N+1 symmetric states |j, m>, j = N/2, with

    rho' = -i [D(t) (J+ + J-), rho] + gamma_eff D[J-] rho,

where gamma_eff = gamma_minus + 4 g^2 / kappa_vuv and D(t) is the pump-fed
drive 2 g U |eta(t)| / kappa_vuv.  A run from the de-excited state uses four
facts.  The state keeps the phase pattern of a rotated coherent spin state
(Arecchi et al. 1972), rho[k, l] = i^(l-k) R[k, l] with R real and symmetric:
the real drive -i D [J+ + J-, .] moves an entry to a neighbouring diagonal
times -i D c, which is just the change of i^(l-k) there, and D[J-] maps each
diagonal of rho to itself (Gross & Haroche 1982).  On R the drive is
D [X, R] with X = J+ - J- real, a rotation about y by the angle phi(t) =
integral of D, which has a closed form (erf).  So the pump runs in the frame
the drive rotates, R = O R~ O^T with O = expm(phi X): there only the slow
collective decay acts, and R~ stays on a few levels (0..8 up to N = 500), a
9 x 9 state for DOP853.  The pump tips the ensemble to excitation fraction f
with binomial(N, f) populations, and decay only lowers them, so in the lab
frame only the levels 0..K below a negligible binomial tail are ever occupied
(ladder_cut; K = 127 at N = 500, f = 0.1).  After the pump the observables
need only the populations R[k, k] and the first off-diagonal R[k+1, k] =
i rho[k+1, k]: each evolves under a constant bidiagonal generator, stepped
exactly on the sample grid (propagate_sampled).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._fit import fit_line, fit_loglog
from ._integrate import propagate_sampled, solve_sampled
from .params import DriveProfile, ModelParams, TimeSeries

__all__ = [
    "DickeSpace",
    "EffectiveModel",
    "PulseResolutionError",
    "build_effective_model",
    "pumped_effective_model",
    "calibrate_pump",
    "pump_fraction",
    "ladder_cut",
    "simulate_superradiance",
    "burst_diagnostics",
    "post_pump_segment",
    "pulse_width_fwhm",
    "PeakFit",
    "peak_scaling_fit",
    "LifetimeScan",
    "lifetime_vs_kappa",
]

SUPERRADIANCE_COLUMNS = ("intensity", "g1", "jz")

# the ladder keeps the levels below a binomial tail of _TAIL_TOL plus a margin
_TAIL_TOL = 1e-18
_CUT_MARGIN = 10
# the pumped state in the drive's frame starts on the levels 0..8; a top level
# that ends above _TOP_POPULATION_TOL doubles them (rerun) or, for the ladder
# cut in the lab frame, keeps the full ladder
_ROTATED_LEVELS = 8
_TOP_POPULATION_TOL = 1e-14


class PulseResolutionError(RuntimeError):
    """Emission pulse not resolved by the sampling or the time window."""


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric subspace of N two-level nuclei: states |j, m>, j = N/2.

    Index k = 0..N maps to m = k - j, so index 0 is the fully de-excited
    state.
    """

    n_nuclei: int

    def __post_init__(self):
        if self.n_nuclei < 1 or int(self.n_nuclei) != self.n_nuclei:
            raise ValueError(f"n_nuclei must be an integer >= 1, got {self.n_nuclei!r}")

    @property
    def j(self) -> float:
        return 0.5 * self.n_nuclei

    @property
    def dim(self) -> int:
        return self.n_nuclei + 1

    def m_values(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float) - self.j

    def lowering_amplitudes(self) -> np.ndarray:
        """c[k] with J-|k> = c[k] |k-1>; c[0] = 0 (ground is dark)."""
        m = self.m_values()
        amp2 = (self.j + m) * (self.j - m + 1.0)
        return np.sqrt(np.maximum(amp2, 0.0))


@dataclass(frozen=True)
class EffectiveModel:
    """Adiabatically eliminated cavity: drive coupling, decay, pump envelope.

    drive_coupling = 2 g U / kappa_vuv multiplies the pump envelope eta(t)
    to give the instantaneous collective drive D(t); gamma_eff is the
    per-nucleus Purcell-enhanced decay.  bad_cavity_ratio records
    kappa_vuv / (g sqrt(N)) for the configuration the model was built from.
    """

    drive_coupling: float
    gamma_eff: float
    pump: DriveProfile = DriveProfile()
    bad_cavity_ratio: float | None = None


def build_effective_model(p: ModelParams) -> EffectiveModel:
    """Eliminate the VUV cavity from p, with the pump off.  Warns when the
    bad-cavity condition kappa_vuv >= 10 g sqrt(N) does not hold (the
    reduction is then dubious)."""
    if p.kappa_vuv <= 0:
        raise ValueError("adiabatic elimination needs kappa_vuv > 0")
    gamma_eff = p.gamma_minus + 4.0 * p.g**2 / p.kappa_vuv
    drive = 2.0 * p.g * p.fwm_u / p.kappa_vuv
    omega_c = p.g * math.sqrt(p.n_nuclei)
    ratio = p.kappa_vuv / omega_c if omega_c > 0 else math.inf
    if ratio < 10.0:
        warnings.warn(
            f"kappa_vuv / (g sqrt(N)) = {ratio:.2f} < 10: the eliminated-cavity "
            "model is outside its validity range",
            stacklevel=2,
        )
    return EffectiveModel(drive_coupling=drive, gamma_eff=gamma_eff,
                          bad_cavity_ratio=ratio)


def pumped_effective_model(p: ModelParams, *, sigma: float,
                           fraction: float = 0.1) -> EffectiveModel:
    """Eliminated-cavity model with a pump calibrated to excitation fraction."""
    base = build_effective_model(p)
    pump = calibrate_pump(base.drive_coupling, sigma=sigma, fraction=fraction)
    return replace(base, pump=pump)


def calibrate_pump(drive_coupling: float, *, sigma: float,
                   fraction: float = 0.1) -> DriveProfile:
    """Gaussian pump of width sigma, centred at 5 sigma, that tips the Bloch
    vector to excitation fraction f.

    A resonant drive D(t)(J+ + J-) rotates a coherent state at angle rate
    2 D(t); the full-pulse rotation is theta = 2 * drive_coupling * eta0 *
    sqrt(2 pi) sigma.  Solving theta = arccos(1 - 2 f) for eta0 makes the
    post-pump excitation <Jz> + N/2 = f N independent of N, provided the pulse
    is fast against the collective decay.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if drive_coupling <= 0:
        raise ValueError("drive_coupling must be > 0 to pump")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    theta = math.acos(1.0 - 2.0 * fraction)
    eta0 = theta / (2.0 * drive_coupling * math.sqrt(2.0 * math.pi) * sigma)
    return DriveProfile(amplitude=eta0, center=5.0 * sigma, width=sigma)


def pump_off_time(pump: DriveProfile) -> float:
    """Conventional switch-off instant: center + 4 width (envelope at e^-8)."""
    if pump.amplitude == 0:
        return 0.0
    return pump.center + 4.0 * pump.width


def pump_fraction(model: EffectiveModel) -> float:
    """Largest excitation fraction the pump reaches: sin^2(theta / 2) for the
    full-pulse area theta = 2 |drive_coupling * amplitude| sqrt(2 pi) width,
    and 1 once theta passes pi (the Bloch vector then crosses the pole)."""
    pump = model.pump
    theta = 2.0 * abs(model.drive_coupling * pump.amplitude) * math.sqrt(2.0 * math.pi) * pump.width
    return math.sin(0.5 * min(theta, math.pi)) ** 2


def _log_binomials(n: int) -> np.ndarray:
    """log C(N, k) for k = 0..N, with log k! from math.lgamma."""
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])   # log k!
    return log_fact[n] - log_fact - log_fact[::-1]


def _log_binomial_pmf(log_binom: np.ndarray, log_p: float, log_q: float) -> np.ndarray:
    """log C(N, k) + k log_p + (N - k) log_q for k = 0..N, given log_binom =
    _log_binomials(N).  A term whose factor k or N - k is 0 is 0, also where
    its log is -inf."""
    n = log_binom.size - 1
    k = np.arange(n + 1)
    with np.errstate(invalid="ignore"):   # 0 * -inf, discarded by np.where
        return (log_binom + np.where(k > 0, k * log_p, 0.0)
                + np.where(k < n, (n - k) * log_q, 0.0))


def ladder_cut(n_nuclei: int, fraction: float) -> int:
    """Highest Dicke level k a run tipped to at most `fraction` keeps.

    A resonant pump turns |0> into a coherent state whose populations are
    binomial(N, f) (Arecchi et al. 1972), and decay only lowers them, so levels
    above the smallest K with P(X > K) < 1e-18, plus a margin of 10, stay
    empty to roundoff.  Capped at N.

    The tail is summed from the top: P(X = j) = exp(log C(N, j) + j log f +
    (N - j) log(1 - f)) (_log_binomial_pmf), and P(X > k) is the reversed
    cumulative sum over j > k.  The (N - j) log(1 - f) term is 0 at j = N,
    also at f = 1 where log(1 - f) = -inf.
    """
    n = n_nuclei
    with np.errstate(divide="ignore"):   # log 0 at f = 0 or 1
        log_pmf = _log_binomial_pmf(_log_binomials(n), np.log(fraction),
                                    np.log1p(-fraction))[1:]
    tails = np.append(np.cumsum(np.exp(log_pmf[::-1]))[::-1], 0.0)   # P(X > k), k = 0..N
    return min(int(np.argmax(tails < _TAIL_TOL)) + _CUT_MARGIN, n)


def _pump_angle(model: EffectiveModel, t0: float):
    """phi(t), the angle the drive D(t) = drive_coupling |eta(t)| has turned
    the state by since t0: its integral from t0, in closed form,

        phi(t) = drive_coupling |amplitude| width sqrt(pi / 2) (erf(x) - erf(x0)),

    x = (t - center) / (sqrt(2) width).  erf(x) - erf(x0) is taken as
    erfc(-x) - erfc(-x0), which keeps its digits in the pulse's rising tail."""
    pump = model.pump
    scale = model.drive_coupling * abs(pump.amplitude) * pump.width * math.sqrt(0.5 * math.pi)
    u = 1.0 / (math.sqrt(2.0) * pump.width)
    start = math.erfc((pump.center - t0) * u)
    return lambda t: scale * (math.erfc((pump.center - t) * u) - start)


def _rotation(space: DickeSpace, m: int):
    """columns(phi): the columns 0..m of O = expm(phi X), X = J+ - J-, on the
    full ladder.

    O is a rotation about y, so column 0, O|0>, is the coherent state
    sqrt(C(N, k)) sin^k(phi) cos^(N-k)(phi) (Arecchi et al. 1972), and
    O J+ O^T = cos^2(phi) J+ - sin^2(phi) J- + sin(2 phi) Jz gives column j + 1
    as that tridiagonal matrix times column j, over c[j + 1].  A QR pass, with
    the signs of the columns kept, makes them orthonormal to roundoff.
    """
    n = space.n_nuclei
    cdn = space.lowering_amplitudes()[1:]
    m_values = space.m_values()
    log_binom = _log_binomials(n)
    k = np.arange(n + 1)

    def columns(phi):
        s, c = math.sin(phi), math.cos(phi)
        with np.errstate(divide="ignore"):   # log 0 at phi = 0
            log_amp = 0.5 * _log_binomial_pmf(log_binom, 2.0 * np.log(abs(s)),
                                              2.0 * np.log(abs(c)))
        o = np.empty((n + 1, m + 1))
        o[:, 0] = np.sign(s) ** k * np.sign(c) ** (n - k) * np.exp(log_amp)
        diag = math.sin(2.0 * phi) * m_values
        for j in range(m):
            v, w = o[:, j], o[:, j + 1]
            np.multiply(diag, v, out=w)
            w[1:] += c * c * cdn * v[:-1]
            w[:-1] -= s * s * cdn * v[1:]
            w /= cdn[j]
        q, r = np.linalg.qr(o)
        return q * np.sign(r.diagonal())

    return columns


def _rotated_rhs(model: EffectiveModel, space: DickeSpace, m: int, angle):
    """The pumped master equation in the frame the drive rotates, on the
    levels 0..m.

    R' = D(t) [X, R] + gamma_eff D[J-] R for rho = i^(l-k) R[k, l], X = J+ - J-.
    With R = O R~ O^T, O = expm(phi X) and phi = angle(t), the drive drops out:

        R~' = gamma_eff (L R~ L^T - {L^T L, R~} / 2),
        L = O^T J- O = cos(2 phi) Jx - sin(2 phi) Jz - X / 2,  Jx = (J+ + J-) / 2,

    with L cut to the levels 0..m, which keeps the trace.  rhs_pumped returns
    Q + Q^T with Q = (L R~ L^T - L^T L R~) gamma_eff / 2, so a symmetric R~
    gives a symmetric R~' bit for bit."""
    dim = m + 1
    c = space.lowering_amplitudes()[1:dim]
    scale = math.sqrt(0.5 * model.gamma_eff)
    jx = 0.5 * scale * (np.diag(c, 1) + np.diag(c, -1))
    jz = scale * np.diag(space.m_values()[:dim])
    xh = 0.5 * scale * (np.diag(c, -1) - np.diag(c, 1))

    def rhs_pumped(t, y):
        r = y.reshape(dim, dim)
        two_phi = 2.0 * angle(t)
        lt = math.cos(two_phi) * jx - math.sin(two_phi) * jz - xh
        lr = lt @ r
        q = lr @ lt.T
        q -= lt.T @ lr
        return (q + q.T).ravel()

    return rhs_pumped


def _decay_generators(cdn: np.ndarray, gamma: float):
    """Constant generators of the populations R[k, k] and the coherences
    R[k+1, k] under gamma D[J-]: both upper bidiagonal, since decay maps
    each diagonal of rho (and of R) to itself (Gross & Haroche 1982)."""
    g2 = cdn**2
    a_pop = gamma * (np.diag(g2[1:], 1) - np.diag(g2))
    a_coh = gamma * (np.diag(cdn[1:-1] * cdn[2:], 1) - np.diag(0.5 * (g2[1:] + g2[:-1])))
    return a_pop, a_coh


def simulate_superradiance(
    model: EffectiveModel,
    space: DickeSpace,
    t_span: tuple[float, float] | None = None,
    *,
    n_samples: int = 1200,
    rtol: float = 1e-7,
    atol: float = 1e-9,
) -> TimeSeries:
    """Evolve from the fully de-excited state; record intensity, g1, <Jz>.

    intensity I(t) = gamma_eff <J+ J->, g1(t) = |<J->| / sqrt(<J+ J->)
    (coherence fraction, set to 0 where <J+J-> <= 1e-12).  The pump runs on
    DOP853 (rtol, atol) in the frame the drive rotates (_rotated_rhs), over
    the levels 0..m of the rotated state, m = min(N, 8), doubled and the pump
    rerun while level m ends above 1e-14.  It is truncated at pump_off_time
    (relative envelope e^-8), inside the pump's window (DriveProfile.window),
    so every step is capped at half the width.  The state goes back to the
    lab frame on the levels 0..K of ladder_cut, or on the full ladder if level
    K holds more than 1e-14 there.  The free decay steps the populations and
    the first off-diagonal of R exactly on the sample grid, which needs
    n_samples >= 2.  meta records ladder_cut (K), rotated_cut (m),
    top_population (level K's population at the end of the pump), the health
    of R at that point, pump_trace_drift = |Tr R - 1| and pump_min_eigenvalue
    (the smallest eigenvalue of R, which rho shares), and solver, the
    solve_sampled stats of each pump run (empty without a pump).

    Only the pump carries a tolerance error.  On figS1 (N = 50..500, f = 0.1)
    at the defaults, intensity is within 1.2e-12 of its peak and g1 within
    2.3e-10 of a run at rtol 1e-13, atol 1e-18, the far tail (I < 1e-3 of
    the peak) included; g1 stays below 1 + 1.8e-10 and the smallest
    eigenvalue above -3e-16.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    n = space.n_nuclei
    gamma = model.gamma_eff
    t_off = pump_off_time(model.pump)
    if t_span is None:
        tail = 12.0 / (n * gamma) if gamma > 0 else 1.0
        t_span = (0.0, t_off + tail)

    t0, t1 = t_span
    samples = np.linspace(t0, t1, int(n_samples))
    pumping = model.pump.amplitude != 0 and t_off > t0
    t_free = min(t_off, t1) if pumping else t0   # where the exact decay starts
    angle = _pump_angle(model, t0)

    solver = []   # stats of each pump run, a rerun on more levels included

    def pump(m):
        # R~ at the samples up to t_free (one flattened row each) and at t_free
        r0 = np.zeros((m + 1, m + 1))
        r0[0, 0] = 1.0
        if not pumping:
            return np.empty((0, r0.size)), r0
        head, y_end, stats = solve_sampled(_rotated_rhs(model, space, m, angle), (t0, t_free),
                                           r0.ravel(), samples[samples <= t_free],
                                           rtol=rtol, atol=atol, pulse=model.pump.window)
        solver.extend(stats)
        return head, y_end.reshape(m + 1, m + 1)

    m = min(n, _ROTATED_LEVELS)
    head, r_rot = pump(m)
    while r_rot[m, m] > _TOP_POPULATION_TOL and m < n:
        m = min(2 * m, n)
        head, r_rot = pump(m)

    k_cut = ladder_cut(n, pump_fraction(model) if pumping else 0.0)
    columns = _rotation(space, m)
    o = columns(angle(t_free))
    if o[k_cut] @ r_rot @ o[k_cut] > _TOP_POPULATION_TOL:
        k_cut = n

    def lab(o, r):
        # R = O R~ O^T on the levels 0..K
        o = o[:k_cut + 1]
        return o @ r @ o.T

    r_free = lab(o, r_rot)
    top = float(r_free[k_cut, k_cut])
    # rho = S R S* with S = diag(i^k) is unitarily similar to R: same trace, same spectrum
    trace_drift = float(abs(np.trace(r_free) - 1.0))
    min_eigenvalue = float(np.linalg.eigvalsh(r_free)[0])

    inside = [lab(columns(angle(t)), y.reshape(m + 1, m + 1)) for t, y in zip(samples, head)]
    cdn = space.lowering_amplitudes()[:k_cut + 1]
    a_pop, a_coh = _decay_generators(cdn, gamma)
    tail = samples[samples > t_free] if pumping else samples
    pops = np.concatenate([np.reshape([r.diagonal() for r in inside], (-1, k_cut + 1)),
                           propagate_sampled(a_pop, r_free.diagonal(), t_free, tail)])
    cohs = np.concatenate([np.reshape([r.diagonal(-1) for r in inside], (-1, k_cut)),
                           propagate_sampled(a_coh, r_free.diagonal(-1), t_free, tail)])

    jpjm = pops @ cdn**2
    jm = np.abs(cohs @ cdn[1:])
    g1 = np.where(jpjm > 1e-12, jm / np.sqrt(np.maximum(jpjm, 1e-12)), 0.0)
    values = np.column_stack([gamma * jpjm, g1, pops @ space.m_values()[:k_cut + 1]])
    return TimeSeries(
        times=samples,
        values=values,
        columns=SUPERRADIANCE_COLUMNS,
        meta={"n_nuclei": n, "gamma_eff": gamma, "t_off": t_off,
              "model": model, "rtol": rtol, "atol": atol,
              "ladder_cut": k_cut, "rotated_cut": m, "top_population": top,
              "pump_trace_drift": trace_drift, "pump_min_eigenvalue": min_eigenvalue,
              "solver": solver},
    )


def burst_diagnostics(ts: TimeSeries) -> dict:
    """Ladder truncation, bad-cavity and density-matrix health and pump work
    of a simulate_superradiance run: pump_steps and pump_nfev sum over its
    pump segments, a rerun on more rotated levels included (0 without a
    pump)."""
    solver = ts.meta["solver"]
    return {"n_nuclei": ts.meta["n_nuclei"], "ladder_cut": ts.meta["ladder_cut"],
            "rotated_cut": ts.meta["rotated_cut"],
            "top_population": ts.meta["top_population"],
            "pump_trace_drift": ts.meta["pump_trace_drift"],
            "pump_min_eigenvalue": ts.meta["pump_min_eigenvalue"],
            "bad_cavity_ratio": ts.meta["model"].bad_cavity_ratio,
            "pump_steps": sum(s["steps"] for s in solver),
            "pump_nfev": sum(s["nfev"] for s in solver)}


def post_pump_segment(ts: TimeSeries):
    """(times, intensity) restricted to t >= the run's pump switch-off."""
    t_off = ts.meta.get("t_off", 0.0)
    mask = ts.times >= t_off
    if mask.sum() < 4:
        raise PulseResolutionError(f"{mask.sum()} samples after the pump switch-off, "
                                   "need 4; increase n_samples")
    return ts.times[mask], ts.column("intensity")[mask]


def pulse_width_fwhm(times: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings.

    When the segment starts at (or above) half maximum the left crossing is
    clamped to the segment start, so for a monotone decay this reduces to the
    half-decay width.  Fewer than 4 sample intervals across the width, or a
    window that never falls to half maximum, raises PulseResolutionError.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or len(t) < 4:
        raise ValueError("need matching 1-d arrays of at least 4 samples")
    k = int(np.argmax(y))
    peak = y[k]
    if peak <= 0:
        raise PulseResolutionError("no emission in the window")
    half = 0.5 * peak

    t_left = t[0]
    for i in range(k, 0, -1):
        if y[i - 1] < half <= y[i]:
            frac = (half - y[i - 1]) / (y[i] - y[i - 1])
            t_left = t[i - 1] + frac * (t[i] - t[i - 1])
            break

    t_right = None
    for i in range(k, len(t) - 1):
        if y[i] >= half > y[i + 1]:
            frac = (y[i] - half) / (y[i] - y[i + 1])
            t_right = t[i] + frac * (t[i + 1] - t[i])
            break
    if t_right is None:
        raise PulseResolutionError(
            "intensity never decays to half maximum inside the window; extend t_span")

    width = t_right - t_left
    dt = np.diff(t).mean()
    if width < 4 * dt:
        raise PulseResolutionError(
            f"only {width / dt:.1f} sample intervals across the width; "
            "increase n_samples")
    return float(width)


@dataclass(frozen=True)
class PeakFit:
    """Log-log fit of post-pump peak intensity against N."""

    exponent: float
    prefactor: float
    r_squared: float
    points: tuple  # (n, i_max) pairs


def peak_scaling_fit(runs) -> PeakFit:
    """Fit max post-pump intensity vs N on log-log axes.

    runs: simulate_superradiance outputs (any order).  Requires >= 5 distinct N
    spanning at least a factor 4.
    """
    points = []
    for ts in runs:
        n = ts.meta["n_nuclei"]
        _, intensity = post_pump_segment(ts)
        i_max = float(intensity.max())
        if i_max <= 0:
            raise ValueError(f"run with N={n} has no post-pump emission")
        points.append((n, i_max))
    points.sort()
    ns = [n for n, _ in points]
    if len(set(ns)) < 5:
        raise ValueError(f"need >= 5 distinct N, got {sorted(set(ns))}")
    if max(ns) < 4 * min(ns):
        raise ValueError(f"N range {min(ns)}..{max(ns)} spans less than a factor 4")

    fit = fit_loglog([float(n) for n in ns], [i for _, i in points])
    return PeakFit(exponent=fit.slope, prefactor=float(math.exp(fit.intercept)),
                   r_squared=fit.r_squared, points=tuple(points))


@dataclass(frozen=True)
class LifetimeScan:
    """Emission-pulse width vs cavity linewidth, with its linear fit."""

    points: tuple  # (kappa, tau_eff) pairs
    slope: float
    intercept: float
    r_squared: float
    diagnostics: tuple  # burst_diagnostics per point, with kappa_vuv


def _lifetime_scan_point(kappa, p, pump_sigma, fraction, n_samples):
    pk = replace(p, kappa_vuv=kappa)
    model = pumped_effective_model(pk, sigma=pump_sigma, fraction=fraction)
    ts = simulate_superradiance(model, DickeSpace(p.n_nuclei), n_samples=n_samples)
    seg_t, seg_i = post_pump_segment(ts)
    return (kappa, pulse_width_fwhm(seg_t, seg_i)), {"kappa_vuv": kappa,
                                                     **burst_diagnostics(ts)}


def lifetime_vs_kappa(
    p: ModelParams,
    kappa_values,
    *,
    pump_sigma: float,
    fraction: float = 0.1,
    n_samples: int = 1600,
    map_fn=map,
) -> LifetimeScan:
    """Pulse width tau_eff(kappa) at fixed (N, g), with a linear fit.

    The pump is re-calibrated per kappa so every run starts its free decay from
    the same tipped state; the post-pump dynamics then depend on time only
    through gamma_eff * t, making tau_eff proportional to 1/gamma_eff ~ kappa
    up to the small gamma_minus offset.  Each run is a simulate_superradiance
    at its default pump tolerances.  map_fn may be an executor's map.
    """
    kappas = sorted(float(k) for k in kappa_values)
    if len(set(kappas)) < 3:
        raise ValueError(f"need >= 3 distinct kappa values, got {kappas}")

    work = partial(_lifetime_scan_point, p=p, pump_sigma=pump_sigma,
                   fraction=fraction, n_samples=n_samples)
    points, diagnostics = zip(*map_fn(work, kappas))

    fit = fit_line([k for k, _ in points], [tau for _, tau in points])
    return LifetimeScan(points=points, slope=fit.slope, intercept=fit.intercept,
                        r_squared=fit.r_squared, diagnostics=diagnostics)
