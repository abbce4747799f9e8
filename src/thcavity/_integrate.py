"""Thin integration layer shared by the dynamics modules.

solve_sampled wraps scipy's DOP853, the one adaptive stepper of the package
(the embedded Runge-Kutta pair of order 8(5,3); Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.5), adding sampling through the dense output and an
optional observable callback so that large states (density matrices) never
need to be stored per sample.  A Runge-Kutta interpolant is a polynomial over
its whole step, so the samples inside one accepted step come from one
dense-output evaluation (ibid., sec. II.6); the per-step statistics come back
with the values.  propagate_sampled steps a constant linear generator
exactly on a uniform grid.

scipy is imported by the first call of each function, not with the module.
scipy.integrate also loads scipy.special, scipy.optimize and scipy.sparse;
with scipy.linalg that was about 0.48 s of the 0.68 s a fresh
`import thcavity.cli` took (2 cores, scipy 1.17.1).  So only a run that
steps a solver (DOP853) or a propagator (expm) pays for them, and the
closed-form experiments (coupling, spectrum, phase-diagram, sweep) load no
scipy at all.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

__all__ = ["IntegrationFailure", "propagate_sampled", "solve_sampled"]


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
    max_step: float = np.inf,
):
    """Integrate y' = rhs(t, y); return (values at sample_times, y_end, stats).

    sample_times must be non-decreasing (repeats allowed) and lie inside
    t_span.  After each accepted step the samples it covers are read from its
    interpolant in one evaluation.  If observe is None values holds the full
    state at each sample as an array (n_samples, dim); otherwise observe(t, y)
    is called per sample and its outputs are stacked, keeping memory
    independent of the state dimension.  y_end is the dense output at
    t_span[1], the state a following segment starts from.  stats is a dict of
    this segment's accepted `steps`, scipy's RHS call count `nfev` and
    `wall_s`; scipy's OdeSolver does not expose rejected steps, so they are
    not counted.  A non-finite derivative at t_span[0], or a step that leaves
    a non-finite time or state, raises IntegrationFailure.
    """
    from scipy.integrate import DOP853

    start = perf_counter()
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
    solver = DOP853(rhs, t0, y0, t1, rtol=rtol, atol=atol, max_step=max_step)
    if not np.isfinite(solver.f).all():
        # a non-finite derivative makes scipy's step size nan, and step() never returns
        raise IntegrationFailure(f"non-finite derivative at t={t0:.6g}", t=t0)

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

    steps = 0
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise IntegrationFailure(
                f"integration failed at t={solver.t:.6g}: {msg or 'step size underflow'}; "
                "try a shorter t_span or looser tolerances",
                t=solver.t,
            )
        if not (math.isfinite(solver.t) and np.isfinite(solver.y).all()):
            raise IntegrationFailure(f"non-finite state at t={solver.t:.6g}", t=solver.t)
        steps += 1
        dense = None
        j = int(np.searchsorted(samples, solver.t, side="right"))
        if j > i:
            # every sample of the step from one evaluation of its interpolant
            dense = solver.dense_output()
            take(samples[i:j], np.ascontiguousarray(dense(samples[i:j]).T))
            i = j
    # the last step's interpolant, reused if a sample already built it
    y_end = (dense or solver.dense_output())(t1)

    # samples at exactly t1 can be left over through float comparison slop
    if i < samples.size:
        take(samples[i:], np.repeat(solver.y[None], samples.size - i, axis=0))

    if observe is None:
        values = np.concatenate(out) if out else np.empty(0)
    elif out and isinstance(out[0], tuple):
        # observable callback returned tuples: split into one array per component
        values = [np.asarray(comp) for comp in zip(*out)]
    else:
        values = np.asarray(out)
    stats = {"steps": steps, "nfev": solver.nfev, "wall_s": perf_counter() - start}
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
    (n_samples, x0.size); a non-finite sample raises IntegrationFailure.
    """
    from scipy.linalg import expm

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
