"""Truncated 11-state model of two-color four-wave mixing into a nuclear line,
plus its Lindblad master equation, written once as a superoperator.

States are labeled (n1, n2, n_vuv, n_nuc): pump-cavity photons in modes 1 and 2,
VUV cavity photons, and the nuclear excitation.  The 11-state set is the FWM
pathway reachable from two pump photons: |2000> converts through |0110> to
|0101>, with pump-dressed and single-excitation companions.

Two independent Hamiltonian constructions are provided (hand-written matrix
entries vs bosonic operators on the truncated product space, projected); they
must agree element-by-element and the test suite enforces that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._integrate import propagate_sampled, solve_sampled
from .params import DriveProfile, ModelParams, TimeSeries

__all__ = [
    "BasisState",
    "BASIS",
    "basis_index",
    "DensityMatrix",
    "MasterEquationAccuracyError",
    "PositivityViolationError",
    "build_hamiltonian_explicit",
    "build_hamiltonian_operators",
    "mode_operators",
    "project_to_basis",
    "standard_collapse_ops",
    "liouvillian",
    "integrate_master",
    "population_series",
]


class BasisState(NamedTuple):
    n1: int
    n2: int
    n_vuv: int
    n_nuc: int


# Fixed model basis; the order is part of every matrix contract in this module.
BASIS: tuple[BasisState, ...] = (
    BasisState(2, 0, 0, 0),
    BasisState(0, 1, 1, 0),
    BasisState(0, 1, 0, 1),
    BasisState(1, 0, 0, 0),
    BasisState(1, 1, 1, 0),
    BasisState(0, 0, 1, 0),
    BasisState(0, 0, 0, 1),
    BasisState(1, 0, 1, 0),
    BasisState(0, 1, 0, 0),
    BasisState(1, 0, 0, 1),
    BasisState(1, 1, 0, 1),
)

DIM = len(BASIS)

# truncated product space: n1 <= 2, n2 <= 1, n_vuv <= 1, n_nuc <= 1
_SHAPE = (3, 2, 2, 2)
_FULL_DIM = 24


def basis_index(state) -> int:
    """Index of a state tuple in the model basis."""
    s = BasisState(*state)
    try:
        return BASIS.index(s)
    except ValueError:
        raise ValueError(f"{s} is not one of the {DIM} model basis states") from None


def _product_index(s: BasisState) -> int:
    return ((s.n1 * 2 + s.n2) * 2 + s.n_vuv) * 2 + s.n_nuc


_BASIS_IN_PRODUCT = np.array([_product_index(s) for s in BASIS])


def _frozen(op: np.ndarray) -> np.ndarray:
    op.flags.writeable = False
    return op


def _embed(op: np.ndarray, slot: int) -> np.ndarray:
    mats = [np.eye(d) for d in _SHAPE]
    mats[slot] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return _frozen(out)


def _plus_hc(op: np.ndarray) -> np.ndarray:
    return _frozen(op + op.T)


# Bare annihilation operators on the truncated product space and the fixed
# Hamiltonian terms built from them, all real (dagger is the transpose) and
# read-only: a Hamiltonian is a weighted sum of these terms.
_A_QUBIT = np.diag([1.0], 1)
_MODES = {
    "a1": _embed(np.diag(np.sqrt(np.arange(1.0, 3.0)), 1), 0),  # n1 <= 2
    "a2": _embed(_A_QUBIT, 1),
    "a_vuv": _embed(_A_QUBIT, 2),
    "sigma_minus": _embed(_A_QUBIT, 3),
}
_A1, _A2, _AV, _SM = _MODES.values()
_NUMBERS = tuple(_frozen(a.T @ a) for a in _MODES.values())
_EXCHANGE = _plus_hc(_AV.T @ _SM)
_FWM = _plus_hc(_AV.T @ _A2.T @ _A1 @ _A1)
_PUMP = _plus_hc(_A1)

_SQRT2 = math.sqrt(2.0)


class MasterEquationAccuracyError(RuntimeError):
    """Tr rho left 1 by more than 1e-6 at some sample."""


class PositivityViolationError(RuntimeError):
    """A stored density matrix has an eigenvalue below the physical floor."""


@dataclass
class DensityMatrix:
    """Density matrix with its physicality checks kept at hand."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        self.matrix = m

    @classmethod
    def pure(cls, dim: int, index: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def trace_defect(self) -> float:
        return abs(complex(np.trace(self.matrix)) - 1.0)

    def min_eigenvalue(self) -> float:
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h).min())

    def validate(self, *, trace_tol=1e-9, herm_tol=1e-12, eig_floor=-1e-8):
        if self.hermiticity_defect() > herm_tol:
            raise ValueError(
                f"hermiticity defect {self.hermiticity_defect():.3e} > {herm_tol:g}")
        if self.trace_defect() > trace_tol:
            raise ValueError(f"trace defect {self.trace_defect():.3e} > {trace_tol:g}")
        if self.min_eigenvalue() < eig_floor:
            raise ValueError(
                f"eigenvalue {self.min_eigenvalue():.3e} below floor {eig_floor:g}")
        return self


def build_hamiltonian_explicit(p: ModelParams, t: float = 0.0,
                               *, collective_coupling: bool = False) -> np.ndarray:
    """The 11x11 Hamiltonian with every entry written out.

    Diagonal: total mode energy of each basis state.  Off-diagonal blocks:
    sqrt(2)*U four-wave mixing, the VUV-nuclear exchange g, and the pump
    Omega_p(t) ladder on mode 1.  Upper entries are assigned and mirrored, so
    the result is Hermitian by construction.

    collective_coupling replaces g by g*sqrt(N) (symmetric-ensemble model);
    default is the bare single-nucleus matrix.
    """
    w1, w2, wv, e = p.omega1, p.omega2, p.omega_vuv, p.e_nuc
    u = p.fwm_u
    gc = p.g * math.sqrt(p.n_nuclei) if collective_coupling else p.g
    op = p.pump.envelope(t)

    h = np.zeros((DIM, DIM))
    diag = (2.0 * w1, w2 + wv, w2 + e, w1, w1 + w2 + wv, wv, e,
            w1 + wv, w2, w1 + e, w1 + w2 + e)
    for i, d in enumerate(diag):
        h[i, i] = d

    upper = (
        (0, 1, _SQRT2 * u),    # |2000> <-> |0110>  two pump photons convert
        (1, 2, gc),            # |0110> <-> |0101>  VUV photon <-> nuclear
        (0, 3, _SQRT2 * op),   # pump ladder, n1 = 2 <-> 1
        (1, 4, op),
        (2, 10, op),
        (4, 10, gc),
        (5, 6, gc),
        (5, 7, op),
        (6, 9, op),
        (7, 9, gc),
    )
    for i, j, v in upper:
        h[i, j] = v
        h[j, i] = v
    return h


def mode_operators() -> dict:
    """Bare annihilation operators on the truncated product space.

    Keys: a1, a2, a_vuv, sigma_minus.  Collective sqrt(N) enhancement is
    applied where the operators are used, never baked in here, so number
    operators built from these stay correct.  Each call returns fresh copies.
    """
    return {name: op.copy() for name, op in _MODES.items()}


def project_to_basis(op: np.ndarray) -> np.ndarray:
    """Restrict a 24-dim product-space operator to the 11-state model basis."""
    if op.shape != (_FULL_DIM, _FULL_DIM):
        raise ValueError(f"expected shape {(_FULL_DIM, _FULL_DIM)}, got {op.shape}")
    return op[np.ix_(_BASIS_IN_PRODUCT, _BASIS_IN_PRODUCT)]


def build_hamiltonian_operators(p: ModelParams, t: float = 0.0,
                                *, collective_coupling: bool = False,
                                project: bool = True) -> np.ndarray:
    """Same Hamiltonian assembled from bosonic operators, then projected.

    The VUV-nuclear coupling keeps only the excitation-conserving terms;
    project=False returns the 24-dim product-space operator.
    """
    n1, n2, nv, nn = _NUMBERS
    h = p.omega1 * n1 + p.omega2 * n2 + p.omega_vuv * nv + p.e_nuc * nn
    gc = p.g * math.sqrt(p.n_nuclei) if collective_coupling else p.g
    h = h + gc * _EXCHANGE
    h = h + p.fwm_u * _FWM
    h = h + p.pump.envelope(t) * _PUMP
    if project:
        return project_to_basis(h)
    return h


def standard_collapse_ops(p: ModelParams, *, collective_coupling: bool = False,
                          project: bool = True) -> list[np.ndarray]:
    """The four loss channels, each scaled by sqrt(rate).

    Channels with zero rate are omitted.  Projection onto the model basis keeps
    the Lindblad structure (trace exactly preserved) but drops decay channels
    whose target lies outside the 11-state set; run with project=False on the
    full truncated product space when those channels matter.
    """
    gm = p.gamma_minus * p.n_nuclei if collective_coupling else p.gamma_minus
    pairs = (
        (p.kappa1, _A1), (p.kappa2, _A2), (p.kappa_vuv, _AV), (gm, _SM))
    out = []
    for rate, op in pairs:
        if rate > 0:
            scaled = math.sqrt(rate) * op
            out.append(project_to_basis(scaled) if project else scaled)
    return out


def liouvillian(h: np.ndarray, collapse_ops: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Superoperator L of rho' = -i[H, rho] + sum_j D[L_j] rho, for row-major vec.

    vec(rho') = L @ vec(rho) with vec(rho) = rho.ravel(), so a product A rho B
    becomes kron(A, B.T): the commutator is -i (H x I - I x H^T), and each
    D[L] rho = L rho L^dag - (G rho + rho G) / 2, G = L^dag L, becomes
    L x conj(L) - (G x I + I x G^T) / 2.  collapse_ops carry their sqrt(rate).
    """
    h = np.asarray(h)
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in map(np.asarray, collapse_ops):
        g = l.conj().T @ l
        out += np.kron(l, l.conj()) - 0.5 * (np.kron(g, eye) + np.kron(eye, g.T))
    return out


def _real_basis(dim: int):
    """Row-major vec positions (diagonal, upper, lower) that span the real
    Hermitian basis: the units E_ii, then (E_ij + E_ji)/sqrt(2) and
    i(E_ji - E_ij)/sqrt(2) for each i < j, in the order of np.triu_indices.
    The basis is orthonormal under Tr(A^dag B)."""
    i, j = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), i * dim + j, j * dim + i


def _coordinates(v: np.ndarray) -> np.ndarray:
    """x_a = Tr(E_a rho) along axis 0 of v = vec(rho) (row-major), for every
    column of v; real for a Hermitian rho, complex otherwise."""
    diag, up, lo = _real_basis(math.isqrt(v.shape[0]))
    return np.concatenate([v[diag], (v[up] + v[lo]) / _SQRT2, 1j * (v[up] - v[lo]) / _SQRT2])


def _to_real(lv: np.ndarray) -> np.ndarray:
    """The superoperator lv in the real Hermitian basis, T lv T^dag with T the
    unitary vec(rho) -> x; real to roundoff whenever lv maps Hermitian rho to
    Hermitian rho, as every Liouvillian does (returned complex)."""
    return _coordinates(_coordinates(lv).conj().T).conj().T


def _from_real(x: np.ndarray, dim: int) -> np.ndarray:
    """Density matrices (n, dim, dim) from real coordinates x (n, dim**2); each
    is Hermitian to the last bit."""
    diag, up, lo = _real_basis(dim)
    k = up.size
    sym, anti = x[:, dim:dim + k] / _SQRT2, x[:, dim + k:] / _SQRT2
    flat = np.empty(x.shape, dtype=complex)
    flat[:, diag] = x[:, :dim]
    flat[:, up] = sym - 1j * anti
    flat[:, lo] = sym + 1j * anti
    return flat.reshape(len(x), dim, dim)


def integrate_master(
    hamiltonian,
    rho0,
    collapse_ops: Sequence[np.ndarray] = (),
    t_span: tuple[float, float] = (0.0, 1.0),
    *,
    n_samples: int = 400,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> TimeSeries:
    """Integrate the master equation; values are the sampled density matrices.

    hamiltonian is a (d,d) array, propagated exactly with no tolerance, or a
    triple (h0, h1, pump) for H(t) = h0 + pump.envelope(t) * h1, pump a
    DriveProfile of real amplitude, run on DOP853 (rtol, atol) with the step
    capped through the pump's window (DriveProfile.window) and uncapped after
    it; collapse_ops must already carry their sqrt(rate) scale.  Both runs
    step the real coordinates x_a = Tr(E_a rho) in an orthonormal Hermitian
    basis (E_ii, then (E_ij + E_ji)/sqrt(2) and i(E_ji - E_ij)/sqrt(2) for
    i < j), where the Liouvillian is a real d^2 x d^2 matrix, so no complex
    arithmetic is stepped; the density matrices are rebuilt from all samples
    at once, each Hermitian to the last bit.  meta holds trace_drift (largest
    |Tr rho - 1|), min_eigenvalue (over all samples) and solver, the
    solve_sampled stats of each DOP853 segment (empty for the exact static
    run).  A trace drift beyond 1e-6 raises MasterEquationAccuracyError,
    before anything is propagated if rho0 is off already, and an eigenvalue
    below -1e-6 raises PositivityViolationError.
    """
    driven = isinstance(hamiltonian, tuple)
    # a static h1 is h0 again: it only passes through the shape check below
    h0, h1, pump = hamiltonian if driven else (hamiltonian, hamiltonian, DriveProfile())
    if callable(hamiltonian) or not isinstance(pump, DriveProfile):
        raise TypeError("hamiltonian must be a (d, d) array or a triple (h0, h1, pump), "
                        "pump a DriveProfile")
    if np.iscomplexobj(pump.amplitude):
        # the real coordinates would keep only the real part of the drive
        raise ValueError(f"pump amplitude must be real, got {pump.amplitude!r}")
    if isinstance(rho0, DensityMatrix):
        rho0 = rho0.matrix
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"rho0 must be square, got shape {rho0.shape}")
    dim = rho0.shape[0]
    for op in (h0, h1, *collapse_ops):
        if np.shape(op) != (dim, dim):
            raise ValueError(f"hamiltonian or collapse operator shape {np.shape(op)} "
                             f"does not match rho {rho0.shape}")
    if not t_span[1] > t_span[0]:
        raise ValueError(f"t_span must be increasing, got {t_span}")

    # the real part of the coordinates is those of rho0's Hermitian part
    x0 = _coordinates(rho0.ravel()).real
    drift = abs(x0[:dim].sum() - 1.0)
    if drift > 1e-6:
        raise MasterEquationAccuracyError(f"|Tr rho - 1| reached {drift:.3e} (> 1e-6)")
    gen = _to_real(liouvillian(h0, collapse_ops)).real.copy()   # contiguous for BLAS
    samples = np.linspace(t_span[0], t_span[1], int(n_samples))
    if driven:
        drive = _to_real(liouvillian(h1)).real.copy()
        xs, _, solver = solve_sampled(lambda t, y: gen @ y + pump.envelope(t) * (drive @ y),
                                      t_span, x0, samples, rtol=rtol, atol=atol,
                                      pulse=pump.window)
    else:
        xs, solver = propagate_sampled(gen, x0, t_span[0], samples), []
    rhos = _from_real(xs, dim)

    drift = float(np.abs(xs[:, :dim].sum(axis=1) - 1.0).max())
    eigs = np.linalg.eigvalsh(rhos).min(axis=1)   # reads the lower triangle only
    k = int(np.argmin(eigs))
    if drift > 1e-6:
        raise MasterEquationAccuracyError(f"|Tr rho - 1| reached {drift:.3e} (> 1e-6)")
    if eigs[k] < -1e-6:
        raise PositivityViolationError(
            f"eigenvalue {eigs[k]:.3e} < -1e-6 at t={samples[k]:.6g}")
    return TimeSeries(times=samples, values=rhos,
                      meta={"trace_drift": drift, "min_eigenvalue": float(eigs[k]),
                            "solver": solver})


def population_series(ts: TimeSeries, index: int) -> np.ndarray:
    """Diagonal occupation of one basis state along the trajectory."""
    return ts.values[:, index, index].real
