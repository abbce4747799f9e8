"""Truncated-basis Hamiltonian builders and the Lindblad master equation."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from thcavity import lindblad
from thcavity._integrate import solve_sampled
from thcavity.cli import run_config
from thcavity.lindblad import (
    BASIS,
    DIM,
    DensityMatrix,
    MasterEquationAccuracyError,
    PositivityViolationError,
    _coordinates,
    _from_real,
    _to_real,
    basis_index,
    build_hamiltonian_explicit,
    build_hamiltonian_operators,
    integrate_master,
    liouvillian,
    mode_operators,
    population_series,
    project_to_basis,
    standard_collapse_ops,
)
from thcavity.params import DriveProfile, ModelParams

SQRT2 = math.sqrt(2.0)


def params(**kw):
    base = dict(g=1.3, kappa_vuv=0.7, gamma_minus=0.05, n_nuclei=9)
    base.update(kw)
    return ModelParams(**base)


def random_params(rng):
    return ModelParams(
        g=rng.uniform(0.0, 3.0),
        kappa_vuv=rng.uniform(0.0, 2.0),
        gamma_minus=rng.uniform(0.0, 1.0),
        n_nuclei=int(rng.integers(1, 50)),
        omega1=rng.uniform(-2.0, 2.0),
        omega2=rng.uniform(-2.0, 2.0),
        omega_vuv=rng.uniform(-2.0, 2.0),
        e_nuc=rng.uniform(-2.0, 2.0),
        fwm_u=rng.uniform(0.0, 3.0),
        pump_amp=rng.uniform(0.0, 2.0),
        pump_center=rng.uniform(-1.0, 1.0),
        pump_width=rng.uniform(0.5, 2.0),
    )


def test_basis_round_trip():
    for i, s in enumerate(BASIS):
        assert basis_index(s) == i
        assert basis_index(tuple(s)) == i
    assert DIM == 11


def test_basis_index_rejects_outsiders():
    with pytest.raises(ValueError, match="basis states"):
        basis_index((0, 0, 0, 0))


def test_explicit_entries():
    p = params(omega1=2.0, omega2=0.5, omega_vuv=1.5, e_nuc=1.4, fwm_u=0.8,
               pump_amp=0.6, pump_center=0.0, pump_width=1.0)
    h = build_hamiltonian_explicit(p, 0.0)
    assert h[0, 0] == pytest.approx(2 * 2.0)                      # two pump photons
    assert h[1, 1] == pytest.approx(0.5 + 1.5)
    assert h[0, 1] == pytest.approx(SQRT2 * 0.8)                  # conversion vertex
    assert h[1, 2] == pytest.approx(p.g)
    assert h[0, 3] == pytest.approx(SQRT2 * p.pump.envelope(0.0))
    assert h[5, 6] == pytest.approx(p.g)
    np.testing.assert_allclose(h, h.T)


def test_explicit_collective_enhancement():
    p = params(n_nuclei=16)
    bare = build_hamiltonian_explicit(p, 0.0)
    coll = build_hamiltonian_explicit(p, 0.0, collective_coupling=True)
    assert coll[1, 2] == pytest.approx(4.0 * bare[1, 2])
    # the pump and conversion vertices are untouched
    assert coll[0, 1] == bare[0, 1]


def test_builders_agree_over_random_draws():
    """Hand-written entries against the operator construction, 20 draws."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        p = random_params(rng)
        t = rng.uniform(-1.0, 1.0)
        collective = bool(trial % 2)
        a = build_hamiltonian_explicit(p, t, collective_coupling=collective)
        b = build_hamiltonian_operators(p, t, collective_coupling=collective)
        np.testing.assert_allclose(a, b, atol=1e-12)


def _kron_hamiltonian(p, t, collective_coupling, project):
    """Oracle: the per-call construction the module's precomputed terms
    replaced.  Each mode is embedded by Kronecker products and every product
    is formed anew, in the same order of additions."""
    def embed(op, slot):
        mats = [np.eye(d) for d in (3, 2, 2, 2)]
        mats[slot] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    qubit = np.diag([1.0], 1)
    a1 = embed(np.diag(np.sqrt(np.arange(1.0, 3.0)), 1), 0)
    a2q, av, sm = (embed(qubit, slot) for slot in (1, 2, 3))
    n1 = a1.conj().T @ a1
    n2 = a2q.conj().T @ a2q
    nv = av.conj().T @ av
    nn = sm.conj().T @ sm
    h = p.omega1 * n1 + p.omega2 * n2 + p.omega_vuv * nv + p.e_nuc * nn
    gc = p.g * math.sqrt(p.n_nuclei) if collective_coupling else p.g
    coupling = av.conj().T @ sm
    h = h + gc * (coupling + coupling.conj().T)
    fwm = av.conj().T @ a2q.conj().T @ a1 @ a1
    h = h + p.fwm_u * (fwm + fwm.conj().T)
    h = h + p.pump.envelope(t) * (a1 + a1.conj().T)
    return project_to_basis(h) if project else h


_energy = st.floats(-1e3, 1e3, allow_nan=False)
_rate = st.floats(0.0, 1e3, allow_nan=False)


@given(
    p=st.builds(ModelParams, g=_rate, kappa_vuv=_rate, gamma_minus=_rate,
                n_nuclei=st.integers(1, 10**6), omega1=_energy, omega2=_energy,
                omega_vuv=_energy, e_nuc=_energy, fwm_u=_rate, pump_amp=_rate,
                pump_center=_energy, pump_width=st.floats(1e-3, 1e3)),
    t=st.floats(-1e3, 1e3, allow_nan=False),
    collective=st.booleans(), project=st.booleans(),
)
def test_operator_builder_matches_the_kronecker_oracle(p, t, collective, project):
    """The weighted sum of precomputed terms is bit for bit the per-call build."""
    h = build_hamiltonian_operators(p, t, collective_coupling=collective,
                                    project=project)
    ref = _kron_hamiltonian(p, t, collective, project)
    assert h.dtype == ref.dtype and h.shape == ref.shape
    assert h.tobytes() == ref.tobytes()


def test_returned_operators_do_not_alias_the_precomputed_terms():
    p = params(omega1=0.3, omega2=-0.2, omega_vuv=0.4, e_nuc=0.5, fwm_u=0.9,
               pump_amp=0.6, kappa1=0.2, kappa2=0.1)
    before = build_hamiltonian_operators(p, 0.1, project=False)
    for op in mode_operators().values():
        op += 1.0
    for op in standard_collapse_ops(p, project=False):
        op += 1.0
    build_hamiltonian_operators(p, 0.1, project=False)[:] = 1.0
    assert build_hamiltonian_operators(p, 0.1, project=False).tobytes() == before.tobytes()
    assert mode_operators()["a2"].max() == 1.0
    fresh = standard_collapse_ops(p, project=False)
    assert [op.max() for op in fresh] == pytest.approx(
        [math.sqrt(2 * 0.2), math.sqrt(0.1), math.sqrt(0.7), math.sqrt(0.05)])


def test_mode_operator_matrix_elements():
    ops = mode_operators()
    a1 = ops["a1"]
    n1 = a1.conj().T @ a1
    # number operator eigenvalues on the product space: 0, 1, 2 for mode 1
    evals = np.sort(np.linalg.eigvalsh(n1))
    assert set(np.round(evals).astype(int)) == {0, 1, 2}
    sm = ops["sigma_minus"]
    np.testing.assert_allclose(sm @ sm, 0.0, atol=1e-15)        # two-level
    assert ops["a2"].shape == (24, 24)


def test_project_shape_guard():
    with pytest.raises(ValueError, match="shape"):
        project_to_basis(np.zeros((11, 11)))


def test_collapse_ops_scaling_and_omission():
    p = params(kappa_vuv=4.0, gamma_minus=0.0, kappa1=0.0, kappa2=0.0)
    ops = standard_collapse_ops(p)
    assert len(ops) == 1          # only the VUV channel is active
    # sqrt(rate) scale: squared norm of the nonzero entries is rate * (counts)
    ref = standard_collapse_ops(params(kappa_vuv=1.0, gamma_minus=0.0))[0]
    np.testing.assert_allclose(ops[0], 2.0 * ref, atol=1e-15)


def test_collapse_collective_decay_scale():
    p = params(gamma_minus=0.25, kappa_vuv=0.0, n_nuclei=4)
    bare = standard_collapse_ops(p)[0]
    coll = standard_collapse_ops(p, collective_coupling=True)[0]
    np.testing.assert_allclose(coll, 2.0 * bare, atol=1e-15)


def test_density_matrix_constructors():
    rho = DensityMatrix.pure(4, 2)
    assert rho.matrix[2, 2] == 1.0
    assert np.count_nonzero(rho.matrix) == 1
    assert rho.trace_defect() == 0.0
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.zeros((2, 3)))


def test_density_matrix_validate_paths():
    good = DensityMatrix.pure(3, 0)
    assert good.validate() is good
    bad_herm = DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="hermiticity"):
        bad_herm.validate()
    bad_trace = DensityMatrix(0.9 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        bad_trace.validate()
    bad_eig = DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        bad_eig.validate()


def test_free_photon_decays_at_kappa():
    """Bare VUV photon on the full product space: population exp(-kappa t)."""
    kappa = 3.0
    ops = mode_operators()
    rho0 = np.zeros((24, 24), dtype=complex)
    idx = ((0 * 2 + 0) * 2 + 1) * 2 + 0   # (0, 0, 1, 0)
    rho0[idx, idx] = 1.0
    ts = integrate_master(np.zeros((24, 24)), rho0,
                          [math.sqrt(kappa) * ops["a_vuv"]], (0.0, 2.0),
                          n_samples=100, rtol=1e-11, atol=1e-13)
    pop = ts.values[:, idx, idx].real
    np.testing.assert_allclose(pop, np.exp(-kappa * ts.times), rtol=1e-7)


def test_projected_run_stays_physical():
    p = params(g=50.0, kappa_vuv=10.0, gamma_minus=0.1, fwm_u=20.0, n_nuclei=10)
    h = build_hamiltonian_operators(p, collective_coupling=True)
    rho0 = DensityMatrix.pure(DIM, basis_index((0, 0, 1, 0)))
    ts = integrate_master(h, rho0, standard_collapse_ops(p, collective_coupling=True),
                          (0.0, 0.5), n_samples=120)
    for k in range(len(ts)):
        m = DensityMatrix(ts.values[k])
        assert m.trace_defect() <= 1e-9
        assert m.hermiticity_defect() <= 1e-10
        assert m.min_eigenvalue() >= -1e-8
        assert np.trace(m.matrix @ m.matrix).real <= 1.0 + 1e-9


def test_master_equation_is_linear():
    p = params(g=4.0, kappa_vuv=1.0, fwm_u=2.0)
    h = build_hamiltonian_operators(p)
    collapse = standard_collapse_ops(p)
    r1 = DensityMatrix.pure(DIM, 0).matrix
    r2 = DensityMatrix.pure(DIM, 5).matrix
    kw = dict(t_span=(0.0, 1.0), n_samples=40, rtol=1e-11, atol=1e-13)
    a = integrate_master(h, r1, collapse, **kw).values
    b = integrate_master(h, r2, collapse, **kw).values
    mix = integrate_master(h, 0.5 * (r1 + r2), collapse, **kw).values
    np.testing.assert_allclose(mix, 0.5 * (a + b), atol=1e-9)


@pytest.mark.parametrize("driven", [False, True], ids=["static", "pumped"])
def test_a_trace_off_one_is_reported_as_a_drift(driven, spy_solves, monkeypatch):
    """An initial trace of 2 is reported as |Tr rho - 1|, with no advice about
    tolerances, before anything is propagated; the same run from trace 1 is
    propagated once."""
    p = params(g=4.0, kappa_vuv=1.0, fwm_u=2.0, pump_amp=2.0, pump_center=0.2,
               pump_width=0.05)
    h0 = build_hamiltonian_operators(replace(p, pump_amp=0.0))
    a1 = mode_operators()["a1"]
    h = (h0, project_to_basis(a1 + a1.T), p.pump) if driven else h0
    rho0 = 2.0 * DensityMatrix.pure(DIM, basis_index((0, 0, 1, 0))).matrix
    kw = dict(t_span=(0.0, 0.5), n_samples=20)
    solves = spy_solves(lindblad)
    propagations = []
    exact = lindblad.propagate_sampled
    monkeypatch.setattr(lindblad, "propagate_sampled",
                        lambda *a: propagations.append(a) or exact(*a))
    with pytest.raises(MasterEquationAccuracyError,
                       match=r"^\|Tr rho - 1\| reached 1\.000e\+00 \(> 1e-6\)$"):
        integrate_master(h, rho0, standard_collapse_ops(p), **kw)
    assert solves == [] and propagations == []
    integrate_master(h, 0.5 * rho0, standard_collapse_ops(p), **kw)
    assert (len(solves), len(propagations)) == ((1, 0) if driven else (0, 1))


@pytest.mark.parametrize("driven", [False, True], ids=["static", "pumped"])
def test_a_negative_eigenvalue_is_reported(driven):
    """A state of trace 1 with an eigenvalue of -0.5 passes the trace check
    and is propagated; the eigenvalue check then rejects the run."""
    p = params(g=4.0, kappa_vuv=1.0, fwm_u=2.0, pump_amp=2.0, pump_center=0.2,
               pump_width=0.05)
    h0 = build_hamiltonian_operators(replace(p, pump_amp=0.0))
    a1 = mode_operators()["a1"]
    h = (h0, project_to_basis(a1 + a1.T), p.pump) if driven else h0
    rho0 = np.diag([1.5, -0.5] + [0.0] * (DIM - 2))
    with pytest.raises(PositivityViolationError, match=r"^eigenvalue -\S+ < -1e-6 at t="):
        integrate_master(h, rho0, standard_collapse_ops(p), t_span=(0.0, 0.5), n_samples=20)


def test_time_dependent_pump_moves_population():
    p = params(pump_amp=2.0, pump_center=0.5, pump_width=0.15,
               g=0.0, kappa_vuv=0.0, gamma_minus=0.0)
    a1 = mode_operators()["a1"]
    h = (build_hamiltonian_explicit(replace(p, pump_amp=0.0)),
         project_to_basis(a1 + a1.T), p.pump)
    rho0 = DensityMatrix.pure(DIM, basis_index((1, 0, 0, 0)))
    ts = integrate_master(h, rho0, [], (0.0, 1.0), n_samples=80)
    start = population_series(ts, basis_index((1, 0, 0, 0)))
    fed = population_series(ts, basis_index((2, 0, 0, 0)))
    assert start[-1] < 0.999
    assert fed[-1] > 1e-4
    assert ts.meta["trace_drift"] < 1e-9
    (stats,) = ts.meta["solver"]
    # the window ends past t_end: one segment, capped at width / 2 = 0.075
    assert stats["steps"] >= 1.0 / 0.075 and stats["nfev"] > stats["steps"]


def test_expectation_series_and_population_series_agree():
    """A population is the expectation Tr(P rho(t)) of its projector P."""
    p = params(g=3.0, fwm_u=1.0)
    h = build_hamiltonian_operators(p)
    rho0 = DensityMatrix.pure(DIM, basis_index((0, 0, 1, 0)))
    ts = integrate_master(h, rho0, standard_collapse_ops(p), (0.0, 0.8),
                          n_samples=50)
    proj = np.zeros((DIM, DIM))
    i = basis_index((0, 0, 0, 1))
    proj[i, i] = 1.0
    np.testing.assert_allclose(np.einsum("ij,tji->t", proj, ts.values).real,
                               population_series(ts, i), atol=1e-14)


def test_integrate_master_input_validation():
    with pytest.raises(ValueError, match="square"):
        integrate_master(np.eye(3), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="match"):
        integrate_master(np.eye(3), np.eye(4) / 4.0)
    with pytest.raises(ValueError, match="collapse"):
        integrate_master(np.eye(3), np.eye(3) / 3.0, [np.eye(2)])
    for span in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="increasing"):
            integrate_master(np.eye(3), np.eye(3) / 3.0, [], span)
    with pytest.raises(ValueError, match="match"):
        integrate_master((np.eye(3), np.eye(4), DriveProfile(1.0)), np.eye(3) / 3.0)
    for h in (lambda t: np.eye(3), (np.eye(3), np.eye(3), math.cos)):
        with pytest.raises(TypeError, match=r"\(h0, h1, pump\), pump a DriveProfile"):
            integrate_master(h, np.eye(3) / 3.0)


def test_a_complex_pump_amplitude_is_rejected(spy_solves):
    """The real coordinates hold only a real drive: a complex amplitude would
    lose its imaginary part, so it is an error before any solve."""
    calls = spy_solves(lindblad)
    pump = DriveProfile(amplitude=1.0 + 0.5j, center=0.2, width=0.05)
    with pytest.raises(ValueError, match=r"pump amplitude must be real, got \(1\+0\.5j\)"):
        integrate_master((np.eye(3), np.eye(3), pump), np.eye(3) / 3.0)
    assert calls == []


def test_unitary_evolution_preserves_purity():
    p = params(g=5.0, kappa_vuv=0.0, gamma_minus=0.0, fwm_u=3.0)
    h = build_hamiltonian_operators(p)
    rho0 = DensityMatrix.pure(DIM, 0)
    ts = integrate_master(h, rho0, [], (0.0, 1.0), n_samples=60,
                          rtol=1e-12, atol=1e-14)
    purity = np.einsum("tij,tji->t", ts.values, ts.values).real
    np.testing.assert_allclose(purity, 1.0, atol=1e-9)


def master_rhs(hamiltonian, collapse_ops, dim):
    """Oracle: rho' = -i[H,rho] + sum_j D[L_j]rho, flattened, from dense
    products per call, as integrate_master stated it before the Liouvillian.
    hamiltonian is a (d,d) array or a callable t -> (d,d) array.  Hermiticity
    of rho is kept to the last bit: the commutator enters as C - C^dag, the
    sandwich term is symmetrized, and the anticommutator is G rho + (G rho)^dag."""
    static_h = None if callable(hamiltonian) else np.asarray(hamiltonian, dtype=complex)
    ops = [np.asarray(l, dtype=complex) for l in collapse_ops]
    grams = [l.conj().T @ l for l in ops]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = hamiltonian(t) if static_h is None else static_h
        c = h @ rho
        drho = -1j * (c - c.conj().T)
        for l, g in zip(ops, grams):
            s = l @ rho @ l.conj().T
            gr = g @ rho
            drho = drho + 0.5 * (s + s.conj().T) - 0.5 * (gr + gr.conj().T)
        return drho.ravel()

    return rhs


def oracle_run(hamiltonian, rho0, collapse_ops, t_span, n_samples, **kw):
    """Density matrices of the oracle RHS on DOP853 at the sample grid."""
    dim = rho0.shape[0]
    samples = np.linspace(t_span[0], t_span[1], n_samples)
    flat, _, _ = solve_sampled(master_rhs(hamiltonian, collapse_ops, dim), t_span,
                               rho0.ravel(), samples, **kw)
    return flat.reshape(n_samples, dim, dim)


def _random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@given(dim=st.integers(1, 8), n_ops=st.integers(0, 3), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_liouvillian_is_the_master_equation_and_keeps_the_trace(dim, n_ops, scale, seed):
    rng = np.random.default_rng(seed)
    h = scale * _random_matrix(rng, dim)
    h = h + h.conj().T
    ops = [scale * _random_matrix(rng, dim) for _ in range(n_ops)]
    rho = _random_matrix(rng, dim)
    rho = rho + rho.conj().T
    lv = liouvillian(h, ops)
    assert lv.shape == (dim * dim, dim * dim)
    # roundoff scale of the entries: |H| and |L|^2 summed over dim terms
    tol = 1e-14 * dim * (np.abs(h).max() + sum(np.abs(l).max() ** 2 for l in ops))
    # vec(I)^T L = 0: the trace of L vec(rho) vanishes for every rho
    np.testing.assert_allclose(np.eye(dim).ravel() @ lv, 0.0, atol=tol)
    np.testing.assert_allclose(lv @ rho.ravel(), master_rhs(h, ops, dim)(0.0, rho.ravel()),
                               rtol=0, atol=dim * tol * np.abs(rho).max())


def hermitian_basis(dim):
    """Oracle: the basis matrices E_a written out, in the order of _coordinates."""
    units = [np.zeros((dim, dim), dtype=complex) for _ in range(dim * dim)]
    i, j = np.triu_indices(dim, 1)
    for k in range(dim):
        units[k][k, k] = 1.0
    for k, (a, b) in enumerate(zip(i, j)):
        sym, anti = units[dim + k], units[dim + i.size + k]
        sym[a, b] = sym[b, a] = 1.0 / SQRT2
        anti[b, a], anti[a, b] = 1j / SQRT2, -1j / SQRT2
    return units


@given(dim=st.integers(1, 8), n_ops=st.integers(0, 3), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_real_basis_is_an_isometry_and_keeps_the_liouvillian_real(dim, n_ops, scale, seed):
    rng = np.random.default_rng(seed)
    h = scale * _random_matrix(rng, dim)
    h = h + h.conj().T
    ops = [scale * _random_matrix(rng, dim) for _ in range(n_ops)]
    rho = _random_matrix(rng, dim)
    rho = rho + rho.conj().T
    basis = hermitian_basis(dim)
    # the coordinates are Tr(E_a rho), E_a Hermitian and orthonormal
    gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
    np.testing.assert_allclose(gram, np.eye(dim * dim), rtol=0, atol=1e-15)
    x = _coordinates(rho.ravel())
    np.testing.assert_allclose(x, [np.trace(e @ rho) for e in basis], rtol=0,
                               atol=1e-15 * dim * np.abs(rho).max())
    # rho <-> x keeps the Frobenius norm, and a Hermitian rho has real x
    assert np.abs(x.imag).max() <= 1e-15 * np.abs(rho).max()
    np.testing.assert_allclose(np.linalg.norm(x.real), np.linalg.norm(rho), rtol=1e-14)
    back = _from_real(x.real[None], dim)[0]
    assert np.array_equal(back, back.conj().T)
    np.testing.assert_allclose(back, rho, rtol=0, atol=1e-15 * np.abs(rho).max())
    # the Liouvillian is real in this basis, and its trace row vanishes
    lv = liouvillian(h, ops)
    real = _to_real(lv)
    # the entries' scale: |H| and |L|^2 summed over dim terms, as in the test above
    norm = dim * (np.abs(h).max() + sum(np.abs(l).max() ** 2 for l in ops))
    assert np.abs(real.imag).max() <= 1e-12 * norm
    np.testing.assert_allclose(real.sum(axis=0, where=np.arange(dim * dim)[:, None] < dim),
                               0.0, atol=1e-12 * norm)
    np.testing.assert_allclose(real.real @ x.real, _coordinates(lv @ rho.ravel()).real,
                               rtol=0, atol=1e-12 * norm * np.abs(rho).max())


FIG2AB = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "fig2ab_lindblad11.yaml"


def _fig2ab_problem():
    cfg = yaml.safe_load(FIG2AB.read_text())
    p = ModelParams(**cfg["model"])
    h = build_hamiltonian_operators(p, collective_coupling=True)
    rho0 = DensityMatrix.pure(DIM, basis_index(cfg["initial_state"])).matrix
    return h, rho0, standard_collapse_ops(p, collective_coupling=True), cfg["time"]


def test_static_run_is_exact_against_the_tight_oracle():
    """fig2ab propagated exactly lands within 1e-11 of the per-call RHS on
    DOP853 at rtol 1e-13, atol 1e-15."""
    h, rho0, ops, time = _fig2ab_problem()
    span = (0.0, time["t_end"])
    ts = integrate_master(h, rho0, ops, span, n_samples=time["n_samples"])
    ref = oracle_run(h, rho0, ops, span, time["n_samples"], rtol=1e-13, atol=1e-15)
    assert np.abs(ts.values - ref).max() < 1e-11
    assert ts.meta["trace_drift"] < 1e-13


def test_static_run_never_calls_the_stepper(spy_solves):
    calls = spy_solves(lindblad)
    h, rho0, ops, _ = _fig2ab_problem()
    ts = integrate_master(h, rho0, ops, (0.0, 1e-3), n_samples=20)
    assert calls == [] and ts.meta["solver"] == []


PUMPED_YAML = """\
experiment: lindblad11
unit: rad/s
model:
  g: 672.9114808246269
  kappa_vuv: 1000.0
  gamma_minus: 5.747126436781609e-4
  n_nuclei: 100
  fwm_u: 2000.0
  pump_amp: 3000.0
  pump_center: 1.0e-3
  pump_width: 4.0e-4
initial_state: [1, 0, 0, 0]
time:
  t_end: 4.0e-3
  n_samples: 200
options:
  collective_coupling: true
output:
  prefix: pumped
"""


def test_pumped_config_matches_the_callable_hamiltonian_oracle(tmp_path):
    """The CLI's h0 + eta(t) h1 run, stepped in the real basis at rtol 1e-10,
    lands within 1e-10 of the per-call complex H(t) run at rtol 1e-13."""
    path = tmp_path / "pumped.yaml"
    path.write_text(PUMPED_YAML)
    run_config(path, out_dir=tmp_path / "out", jobs=1)
    rows = np.loadtxt(tmp_path / "out" / "pumped.csv", delimiter=",", skiprows=1)

    cfg = yaml.safe_load(PUMPED_YAML)
    p = ModelParams(**cfg["model"])
    rho0 = DensityMatrix.pure(DIM, basis_index(cfg["initial_state"])).matrix
    ref = oracle_run(lambda t: build_hamiltonian_operators(p, t, collective_coupling=True),
                     rho0, standard_collapse_ops(p, collective_coupling=True),
                     (0.0, cfg["time"]["t_end"]), cfg["time"]["n_samples"],
                     rtol=1e-13, atol=1e-15, pulse=p.pump.window)
    pops = np.einsum("tii->ti", ref).real
    purity = np.einsum("tij,tji->t", ref, ref).real
    assert np.abs(rows[:, 1:-1] - pops).max() < 1e-10
    # purity is quadratic in rho: an error d in rho moves it by up to 2|d|
    assert np.abs(rows[:, -1] - purity).max() < 2e-10
    assert pops[-1, basis_index((1, 0, 0, 0))] < 0.99   # the pump did act
