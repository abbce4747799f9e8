"""Integration layer shared by the dynamics modules.

solve_sampled steps DOP853, the one adaptive stepper of the package (the
embedded Runge-Kutta pair of order 8(5,3); Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.5), adding sampling through the dense output and an optional
observable callback so that large states (density matrices) never need to be
stored per sample.  A Runge-Kutta interpolant is a polynomial over its whole
step, so the samples inside one accepted step come from one dense-output
evaluation (ibid., sec. II.6); the per-segment statistics come back with the
values.  Every driven run is a Gaussian pulse, then free evolution, and
solve_sampled owns that split (DriveProfile.window).  propagate_sampled steps
a constant linear generator exactly on a uniform grid.

The package imports no scipy.  DOP853 is stepped by _dop853: its tableau is
the one scipy 1.17 ships (scipy/integrate/_ivp/dop853_coefficients.py,
BSD-3-Clause; the license is kept in that module), and each step repeats the
arithmetic of scipy's DOP853 class, so steps, RHS calls and samples are
scipy's to the bit.  propagate_sampled's exponential is _expm, the scaling
and squaring algorithm of scipy.linalg.expm (Al-Mohy & Higham 2009) in numpy;
it agrees with scipy's to roundoff, not to the bit.  The tests hold both to
scipy as the oracle.  The reason is the import: scipy.linalg alone takes a
fresh process from 28 to 55 MB resident and costs it 0.19-0.27 s, and it
brings a second OpenBLAS whose thread pool competes with numpy's (2 cores,
scipy 1.17.1).  _dop853 and _expm are compiled on the first call that needs
them, so `import thcavity.cli` loads neither.
"""

from __future__ import annotations

import math
import warnings
from time import perf_counter

import numpy as np

__all__ = ["IntegrationFailure", "propagate_sampled", "solve_sampled"]

_EPS = np.finfo(float).eps


class IntegrationFailure(RuntimeError):
    """An integration gave up or left the finite numbers: the adaptive stepper
    on step size underflow, a solver error or a non-finite state, and the exact
    propagate_sampled on a non-finite state.  Carries the time reached.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


def solve_sampled(
    rhs,
    t_span: tuple[float, float],
    y0: np.ndarray,
    sample_times: np.ndarray,
    *,
    observe=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    pulse: tuple[float, float] | None = None,
):
    """Integrate y' = rhs(t, y) with DOP853; return (values at sample_times,
    y_end, stats).

    sample_times must be non-decreasing (repeats allowed) and lie inside
    t_span.  After each accepted step the samples it covers are read from its
    interpolant in one evaluation.  If observe is None values holds the full
    state at each sample as an array (n_samples, dim); otherwise observe(t, y)
    is called per sample and its outputs are stacked, keeping memory
    independent of the state dimension.  y_end is the dense output at
    t_span[1], the state a following run starts from.

    pulse, a drive's window (end, cap) (DriveProfile.window), caps the step at
    cap up to end, so a narrow pulse cannot be stepped over; a fresh uncapped
    segment then starts from the dense-output state at end.  stats lists one
    dict per segment: its accepted `steps`, its RHS call count `nfev` (the
    probe of the first step size and the three extra stages of each
    interpolant included) and `wall_s`.

    y0 must be a finite non-empty 1-d array; a complex y0 integrates in
    complex arithmetic, and each RHS value is cast to the state's dtype.  The
    pulse cap must be > 0 and atol >= 0; an rtol below 100 machine epsilons is
    raised to that, with a warning.  A non-finite derivative at the start of a
    segment, a step size below 10 float spacings, or a step that leaves a
    non-finite time or state raises IntegrationFailure.
    """
    from . import _dop853 as rk   # compiled on the first call, not with the package

    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    samples = np.asarray(sample_times, dtype=float)
    if not (np.diff(samples) >= 0).all():
        # a sample behind the current step would be extrapolated from it
        raise ValueError("sample_times must be non-decreasing")
    if samples.size and not (samples[0] >= t0 - 1e-12 * abs(t0)
                             and samples[-1] <= t1 + 1e-12 * abs(t1)):
        raise ValueError("sample_times must lie within t_span")
    y0 = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y0) else float
    y0 = y0.astype(dtype, copy=False)
    if y0.ndim != 1 or not y0.size:
        raise ValueError(f"y0 must be a non-empty 1-d array, got shape {y0.shape}")
    if not np.isfinite(y0).all():
        raise ValueError("y0 must be finite")
    legs = [(t1, np.inf)]   # (end, max_step) of each segment
    if pulse is not None:
        end, cap = pulse
        if not cap > 0 or math.isnan(end):
            raise ValueError(f"pulse cap must be > 0 and its end a number, got {pulse}")
        if end >= t1:
            legs = [(t1, cap)]
        elif end > t0:
            legs = [(float(end), cap), (t1, np.inf)]
    if not atol >= 0:
        raise ValueError(f"atol must be >= 0, got {atol}")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol={rtol} is below 100 machine epsilons; using {100 * _EPS}",
                      stacklevel=2)
        rtol = np.maximum(rtol, 100 * _EPS)

    nfev = 0

    def fun(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(t, y), dtype=dtype)

    K = np.empty((rk.N_STAGES_EXTENDED, y0.size), dtype=dtype)
    out = []

    def take(times, states):
        # states holds one row per sample; observe sees each row as it arrives
        if observe is None:
            out.append(states)
        else:
            out.extend(observe(t, y) for t, y in zip(times, states))

    # samples exactly at t0, before stepping
    i = int(np.searchsorted(samples, t0, side="right"))
    if i:
        take(np.full(i, t0), np.repeat(y0[None], i, axis=0))

    t, y_end = t0, y0
    stats = []
    for t_end, max_step in legs:
        start, nfev_start = perf_counter(), nfev
        y = y_end
        f = fun(t, y)
        if not np.isfinite(f).all():
            # the step size would be nan, and no step would ever be accepted
            raise IntegrationFailure(f"non-finite derivative at t={t:.6g}", t=t)
        h_abs = rk.initial_step(fun, t, y, f, t_end, max_step, rtol, atol)
        steps = 0
        while t < t_end:
            accepted = rk.step(fun, t, y, f, h_abs, t_end, max_step, rtol, atol, K)
            if accepted is None:
                raise IntegrationFailure(
                    f"integration failed at t={t:.6g}: Required step size is less than "
                    "spacing between numbers.; try a shorter t_span or looser tolerances",
                    t=t,
                )
            t_old, y_old = t, y
            t, y, f, h_abs = accepted
            if not (math.isfinite(t) and np.isfinite(y).all()):
                raise IntegrationFailure(f"non-finite state at t={t:.6g}", t=t)
            steps += 1
            dense = None
            j = int(np.searchsorted(samples, t, side="right"))
            if j > i:
                # every sample of the step from one evaluation of its interpolant
                dense = rk.dense_output(fun, K, t_old, y_old, t, y, f)
                take(samples[i:j], dense(samples[i:j]))
                i = j
        # the last step's interpolant, reused if a sample already built it
        y_end = (dense or rk.dense_output(fun, K, t_old, y_old, t, y, f))(np.array([t_end]))[0]
        stats.append({"steps": steps, "nfev": nfev - nfev_start,
                      "wall_s": perf_counter() - start})

    # samples at exactly t1 can be left over through float comparison slop
    if i < samples.size:
        take(samples[i:], np.repeat(y[None], samples.size - i, axis=0))

    if observe is None:
        values = np.concatenate(out) if out else np.empty(0)
    elif out and isinstance(out[0], tuple):
        # observable callback returned tuples: split into one array per component
        values = [np.asarray(comp) for comp in zip(*out)]
    else:
        values = np.asarray(out)
    return values, y_end, stats


def propagate_sampled(generator: np.ndarray, x0: np.ndarray, t0: float,
                      sample_times: np.ndarray) -> np.ndarray:
    """x(t) for x' = generator @ x, x(t0) = x0 (a vector), at uniformly spaced
    sample_times.

    Exact up to roundoff, with no step control: expm(generator * gap) reaches
    the first sample from t0 and S = expm(generator * dt) is computed once.
    The first B = ceil(sqrt(n)) of the n samples are stepped one product at a
    time; every further block of B samples is the block before it times S^B,
    one matrix-matrix product, so the later samples cost about sqrt(n) BLAS
    calls in place of one matrix-vector product each.  Returns an array
    (n_samples, x0.size); a non-finite sample raises IntegrationFailure, as
    does a generator whose powers overflow (its exponential is NaN).
    """
    from ._expm import expm   # compiled on the first call, not with the package

    samples = np.asarray(sample_times, dtype=float)
    n = samples.size
    x = np.asarray(x0)
    out = np.empty((n, x.size), dtype=np.result_type(generator, x))
    if not n:
        return out
    if samples[0] < t0:
        raise ValueError("sample_times must not precede t0")
    x = out[0] = expm(generator * (samples[0] - t0)) @ x
    if n > 1:
        dt = (samples[-1] - samples[0]) / (n - 1)
        if not np.allclose(np.diff(samples), dt, rtol=1e-6, atol=0.0):
            raise ValueError("sample_times must be uniformly spaced")
        step = expm(generator * dt)
        block = math.isqrt(n - 1) + 1          # ceil(sqrt(n))
        for i in range(1, block):
            x = out[i] = step @ x
        # one row per sample, so a block times S^B is the rows times (S^B)^T
        power_t = np.linalg.matrix_power(step, block).T
        for i in range(block, n, block):
            m = min(block, n - i)
            out[i:i + m] = out[i - block:i - block + m] @ power_t
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        t = float(samples[np.argmin(finite)])
        raise IntegrationFailure(f"non-finite state at t={t:.6g}", t=t)
    return out
