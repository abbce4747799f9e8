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
9 x 9 state for DOP853.  The runs of a scan (a burst scan over N, a lifetime
scan over kappa_vuv) share the pump's window, so simulate_bursts steps all
their pumps as one DOP853 solve of the stacked states; the steps, capped at
half the pump's width, are those of each run alone.  Decay only lowers the
populations, so in the lab frame the levels above those the pumped state
holds stay empty: each run's ladder is cut at the level K above which its
state at the end of the pump holds at most 1e-14 (K = 105 at N = 500,
f = 0.1).  After the pump the observables
need only the populations R[k, k] and the first off-diagonal R[k+1, k] =
i rho[k+1, k]: each evolves under a constant bidiagonal generator, stepped
exactly on the sample grid (propagate_sampled).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

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
    "simulate_superradiance",
    "simulate_bursts",
    "burst_diagnostics",
    "post_pump_segment",
    "pulse_width_fwhm",
    "PeakFit",
    "peak_scaling_fit",
    "LifetimeScan",
    "lifetime_vs_kappa",
]

SUPERRADIANCE_COLUMNS = ("intensity", "g1", "jz")

# the pumped state in the drive's frame starts on the levels 0..8; a top level
# that ends above _TOP_POPULATION_TOL doubles them (rerun).  In the lab frame the
# ladder keeps the levels up to the one above which that state holds at most
# _TOP_POPULATION_TOL
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


def _pump_angle(models, t0: float):
    """phi(t), the angles by which the drives D_b(t) = drive_coupling_b
    |eta_b(t)| of models that share one pulse window have turned their states
    since t0, as a vector: each is its drive's integral from t0, in closed form,

        phi_b(t) = drive_coupling_b |amplitude_b| width sqrt(pi / 2) (erf(x) - erf(x0)),

    x = (t - center) / (sqrt(2) width), common to all models.  erf(x) - erf(x0)
    is taken as erfc(-x) - erfc(-x0), which keeps its digits in the pulse's
    rising tail."""
    pump = models[0].pump
    scale = np.array([m.drive_coupling * abs(m.pump.amplitude) * m.pump.width
                      * math.sqrt(0.5 * math.pi) for m in models])
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
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])   # log k!
    log_binom = log_fact[n] - log_fact - log_fact[::-1]                  # log C(N, k)
    k = np.arange(n + 1)

    def columns(phi):
        s, c = math.sin(phi), math.cos(phi)
        # log C(N, k) + k log s^2 + (N - k) log c^2, halved; a term whose factor
        # k or N - k is 0 is 0, also where its log is -inf (phi = 0, pi/2, pi)
        with np.errstate(divide="ignore", invalid="ignore"):   # log 0, 0 * -inf
            log_s2, log_c2 = 2.0 * np.log(abs(s)), 2.0 * np.log(abs(c))
            log_amp = 0.5 * (log_binom + np.where(k > 0, k * log_s2, 0.0)
                             + np.where(k < n, (n - k) * log_c2, 0.0))
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


def _rotated_rhs(runs, m: int, angle):
    """The pumped master equations of runs, (model, space) pairs, in the frames
    their drives rotate, stacked on the levels 0..m: the state is (B, m+1, m+1).

    R' = D(t) [X, R] + gamma_eff D[J-] R for rho = i^(l-k) R[k, l], X = J+ - J-.
    With R = O R~ O^T, O = expm(phi X) and phi = angle(t)[b], the drive drops
    out:

        R~' = gamma_eff (L R~ L^T - {L^T L, R~} / 2),
        L = O^T J- O = cos(2 phi) Jx - sin(2 phi) Jz - X / 2,  Jx = (J+ + J-) / 2,

    with L cut to the levels 0..m, which keeps the trace.  A run with N < m
    has L = 0 above level N, so those levels stay empty.  rhs_pumped returns
    Q + Q^T with Q = (L R~ L^T - L^T L R~) gamma_eff / 2, so a symmetric R~
    gives a symmetric R~' bit for bit."""
    jx, jz, xh = np.zeros((3, len(runs), m + 1, m + 1))
    for b, (model, space) in enumerate(runs):
        k = min(space.n_nuclei, m) + 1
        scale = math.sqrt(0.5 * model.gamma_eff)
        jm = scale * np.diag(space.lowering_amplitudes()[1:k], 1)   # J- on the levels 0..k-1
        jx[b, :k, :k] = 0.5 * (jm + jm.T)
        jz[b, :k, :k] = scale * np.diag(space.m_values()[:k])
        xh[b, :k, :k] = 0.5 * (jm.T - jm)

    def rhs_pumped(t, y):
        r = y.reshape(jx.shape)
        # math's cos and sin of the B angles: numpy's vector kernels would page
        # in code that nothing else in a run touches
        cos, sin = np.array([(math.cos(x), math.sin(x))
                             for x in (2.0 * angle(t)).tolist()]).T[:, :, None, None]
        lt = cos * jx - sin * jz - xh
        ltt = lt.transpose(0, 2, 1)
        lr = lt @ r
        q = lr @ ltt
        q -= ltt @ lr
        return (q + q.transpose(0, 2, 1)).ravel()

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
    """One run of simulate_bursts: evolve from the fully de-excited state and
    record intensity, g1, <Jz>."""
    return next(simulate_bursts([(model, space)], t_span, n_samples=n_samples,
                                rtol=rtol, atol=atol))


def simulate_bursts(
    runs,
    t_span: tuple[float, float] | None = None,
    *,
    n_samples: int = 1200,
    rtol: float = 1e-7,
    atol: float = 1e-9,
) -> Iterator[TimeSeries]:
    """Evolve each (model, space) pair of runs from the fully de-excited state;
    return an iterator of one TimeSeries per run, in order, of intensity, g1
    and <Jz>.  The shared pump solve runs at the call, and each run's free
    decay when the iterator reaches it.

    intensity I(t) = gamma_eff <J+ J->, g1(t) = |<J->| / sqrt(<J+ J->)
    (coherence fraction, set to 0 where <J+J-> <= 1e-12).  Each run samples
    n_samples points of t_span, by default (0, t_off + 12 / (N gamma_eff)).
    The runs must share their pump's window (center and width; a run without
    a pump shares only with runs without one), so they share the pump's end
    t_off and the drive's angle up to a factor per run (_pump_angle).  Their
    pumps run as one DOP853 solve (rtol, atol) of the stacked states in the
    frames the drives rotate (_rotated_rhs), over the levels 0..m of the
    rotated states, m = min(largest N, 8), doubled and the stack rerun while
    level m of any run with N > m ends above 1e-14.  The solve is truncated
    at pump_off_time (relative envelope e^-8), inside the pump's window
    (DriveProfile.window), so every step is capped at half the width; it
    samples the union of the runs' sample times up to there.  Each run then
    goes on alone: its state goes back to the lab frame on the levels 0..K,
    K the smallest level (at least 1) above which its populations at the end
    of the pump hold at most 1e-14; decay only lowers them.  The free decay
    steps the populations and the first off-diagonal of R exactly on the
    run's sample grid, which needs n_samples >= 2.  meta records
    ladder_cut (K), rotated_cut (the run's levels of the rotated state),
    top_population (level K's population at the end of the pump), the health
    of R at that point, pump_trace_drift = |Tr R - 1| and pump_min_eigenvalue
    (the smallest eigenvalue of R, which rho shares), and solver, the
    solve_sampled stats of the shared pump solve, a rerun on more levels
    included (empty without a pump).

    Only the pump carries a tolerance error.  On figS1 (N = 50..500, f = 0.1)
    at the defaults, intensity is within 1.2e-12 of its peak and g1 within
    2.3e-10 of a run at rtol 1e-13, atol 1e-18, the far tail (I < 1e-3 of
    the peak) included; g1 stays below 1 + 1.8e-10 and the smallest
    eigenvalue above -3e-16.
    """
    runs = list(runs)
    models = [model for model, _ in runs]
    if len({(m.pump.center, m.pump.width) if m.pump.window else None for m in models}) != 1:
        raise ValueError("simulate_bursts needs runs that share one pump window")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    pump = models[0].pump
    t_off = pump_off_time(pump)
    t0 = 0.0 if t_span is None else t_span[0]
    ends = [t_off + (12.0 / (space.n_nuclei * model.gamma_eff) if model.gamma_eff > 0 else 1.0)
            if t_span is None else t_span[1] for model, space in runs]
    pumping = pump.amplitude != 0 and t_off > t0
    t_free = min(t_off, *ends) if pumping else t0   # where the exact decay starts
    angle = _pump_angle(models, t0)
    # the pump samples the union of the runs' samples up to t_free (a set:
    # np.unique would page in 1.6 MB of numpy for a few numbers)
    heads = [t[t <= t_free] if pumping else t[:0]
             for t in (np.linspace(t0, t1, int(n_samples)) for t1 in ends)]
    head_times = np.array(sorted(set(np.concatenate(heads).tolist())))
    ns = np.array([space.n_nuclei for _, space in runs])
    m, solver = min(int(ns.max()), _ROTATED_LEVELS), []
    while True:   # the level guard reruns the whole stack on twice the levels
        shape = (len(runs), m + 1, m + 1)
        r_end = np.zeros(shape)
        r_end[:, 0, 0] = 1.0
        head = np.empty((0, *shape))
        if pumping:
            head, r_end, stats = solve_sampled(_rotated_rhs(runs, m, angle), (t0, t_free),
                                               r_end.ravel(), head_times, rtol=rtol,
                                               atol=atol, pulse=pump.window)
            solver.extend(stats)
            head, r_end = head.reshape(-1, *shape), r_end.reshape(shape)
        if m == ns.max() or not (r_end[ns > m, m, m] > _TOP_POPULATION_TOL).any():
            break
        m = min(2 * m, int(ns.max()))

    def run(b, model, space, t1, times):
        # the lab frame, the K cut and the exact decay of run b alone
        n, gamma = space.n_nuclei, model.gamma_eff
        samples = np.linspace(t0, t1, int(n_samples))
        m = min(r_end.shape[1] - 1, n)   # the run's own levels; those above are empty
        columns = _rotation(space, m)
        o = columns(angle(t_free)[b])
        r_rot = r_end[b, :m + 1, :m + 1]
        # K is the smallest level above which the lab populations (O R~ O^T)_kk
        # hold at most _TOP_POPULATION_TOL; K >= 1 keeps a coherence R[1, 0] to step
        pops = ((o @ r_rot) * o).sum(axis=1)
        above = np.append(np.cumsum(pops[::-1])[-2::-1], 0.0)   # sum over j > k, k = 0..N
        k_cut = max(int(np.argmax(above <= _TOP_POPULATION_TOL)), 1)

        def lab(o, r):
            # R = O R~ O^T on the levels 0..K
            o = o[:k_cut + 1]
            return o @ r @ o.T

        r_free = lab(o, r_rot)
        inside = [lab(columns(angle(t)[b]), r[b, :m + 1, :m + 1])
                  for t, r in zip(times, head[np.searchsorted(head_times, times)])]
        cdn = space.lowering_amplitudes()[:k_cut + 1]
        a_pop, a_coh = _decay_generators(cdn, gamma)
        tail = samples[len(times):]
        # the populations go to their columns before the coherences are stepped,
        # so one (samples, K + 1) array and its copy are held at a time
        pops = np.concatenate([np.reshape([r.diagonal() for r in inside], (-1, k_cut + 1)),
                               propagate_sampled(a_pop, r_free.diagonal(), t_free, tail)])
        jpjm, jz = pops @ cdn**2, pops @ space.m_values()[:k_cut + 1]
        del pops
        cohs = np.concatenate([np.reshape([r.diagonal(-1) for r in inside], (-1, k_cut)),
                               propagate_sampled(a_coh, r_free.diagonal(-1), t_free, tail)])
        jm = np.abs(cohs @ cdn[1:])
        g1 = np.where(jpjm > 1e-12, jm / np.sqrt(np.maximum(jpjm, 1e-12)), 0.0)
        # rho = S R S* with S = diag(i^k) is unitarily similar to R: same trace, same spectrum
        return TimeSeries(
            times=samples,
            values=np.column_stack([gamma * jpjm, g1, jz]),
            columns=SUPERRADIANCE_COLUMNS,
            meta={"n_nuclei": n, "gamma_eff": gamma, "t_off": t_off, "model": model,
                  "rtol": rtol, "atol": atol, "ladder_cut": k_cut, "rotated_cut": m,
                  "top_population": float(r_free[k_cut, k_cut]),
                  "pump_trace_drift": float(abs(np.trace(r_free) - 1.0)),
                  "pump_min_eigenvalue": float(np.linalg.eigvalsh(r_free)[0]),
                  "solver": solver},
        )

    # lazily, so a caller that reduces each run in turn holds one run's series
    return (run(b, model, space, t1, times)
            for b, ((model, space), t1, times) in enumerate(zip(runs, ends, heads)))


def burst_diagnostics(ts: TimeSeries) -> dict:
    """Ladder truncation, bad-cavity and density-matrix health and pump work
    of a simulate_bursts run: ladder_cut is the lab-frame cut K read from the
    pumped state, rotated_cut the levels of the drive-frame state; pump_steps
    and pump_nfev are those of the pump solve the run shared with the others
    of its call, summed over its segments and a rerun on more rotated levels
    (0 without a pump)."""
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


def lifetime_vs_kappa(
    p: ModelParams,
    kappa_values,
    *,
    pump_sigma: float,
    fraction: float = 0.1,
    n_samples: int = 1600,
) -> LifetimeScan:
    """Pulse width tau_eff(kappa) at fixed (N, g), with a linear fit.

    The pump is re-calibrated per kappa so every run starts its free decay from
    the same tipped state; the post-pump dynamics then depend on time only
    through gamma_eff * t, making tau_eff proportional to 1/gamma_eff ~ kappa
    up to the small gamma_minus offset.  The runs share their pump window, so
    they are one simulate_bursts call at its default pump tolerances.
    """
    kappas = sorted(float(k) for k in kappa_values)
    if len(set(kappas)) < 3:
        raise ValueError(f"need >= 3 distinct kappa values, got {kappas}")

    space = DickeSpace(p.n_nuclei)
    runs = simulate_bursts(
        [(pumped_effective_model(replace(p, kappa_vuv=kappa), sigma=pump_sigma,
                                 fraction=fraction), space) for kappa in kappas],
        n_samples=n_samples)
    points, diagnostics = zip(*(((kappa, pulse_width_fwhm(*post_pump_segment(ts))),
                                 {"kappa_vuv": kappa, **burst_diagnostics(ts)})
                                for kappa, ts in zip(kappas, runs)))

    fit = fit_line([k for k, _ in points], [tau for _, tau in points])
    return LifetimeScan(points=points, slope=fit.slope, intercept=fit.intercept,
                        r_squared=fit.r_squared, diagnostics=diagnostics)
