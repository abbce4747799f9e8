"""The package's matrix exponential (Al-Mohy & Higham 2009) against
scipy.linalg.expm as the oracle on the generators the package exponentiates
and on random matrices of each Pade degree; against closed forms; and on
non-finite input, which must give a non-finite result, not an exception."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from thcavity import lindblad
from thcavity._expm import _degree, expm
from thcavity.cli import run_config
from thcavity.superradiance import DickeSpace, _decay_generators

FIG2AB = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "fig2ab_lindblad11.yaml"


def rel_1norm(x, ref):
    """||x - ref||_1 / ||ref||_1."""
    return np.abs(x - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()


def assert_is_scipys(a):
    x = expm(a)
    assert x.dtype == a.dtype and x.shape == a.shape
    assert rel_1norm(x, scipy_expm(a)) <= 1e-12


# gamma t = 1e-4 needs no squaring at any size; 0.1 and 1 need 1 to 11, so the
# upper bidiagonal generators take Code Fragment 2.1
@pytest.mark.parametrize("gamma_t, squared", [(1e-4, False), (0.1, True), (1.0, True)])
@pytest.mark.parametrize("levels", [13, 59, 128])
def test_dicke_decay_generators_are_scipys(levels, gamma_t, squared):
    cdn = DickeSpace(levels - 1).lowering_amplitudes()
    for a in _decay_generators(cdn, gamma_t):
        assert np.array_equal(a, np.triu(np.tril(a, 1)))   # upper bidiagonal
        assert (_degree(a)[1] > 0) == squared
        assert_is_scipys(a)
        # the transpose is lower bidiagonal and takes the mirrored path
        assert_is_scipys(a.T.copy())


def test_fig2ab_liouvillian_is_scipys(monkeypatch, tmp_path):
    """The real 121 x 121 generator of the static 11-state run, over one
    sample step (no squaring) and over the whole run (squared)."""
    calls = []

    def recording(gen, x0, t0, samples):
        calls.append((gen, samples))
        return propagate(gen, x0, t0, samples)

    propagate = lindblad.propagate_sampled
    monkeypatch.setattr(lindblad, "propagate_sampled", recording)
    manifest = run_config(FIG2AB, out_dir=tmp_path, jobs=1)
    assert manifest["diagnostics"]["trace_drift"] <= 1e-13
    (gen, samples), = calls
    assert gen.shape == (121, 121) and gen.dtype == np.float64
    step, span = samples[1] - samples[0], samples[-1] - samples[0]
    assert _degree(gen * step)[1] == 0 and _degree(gen * span)[1] > 0
    for t in (step, span):
        assert_is_scipys(gen * t)


# theta_m as published (Al-Mohy & Higham 2009)
THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
         9: 2.097847961257068, 13: 4.25}


@pytest.mark.parametrize("eta, below, above", [
    (THETA[3], (3, 0), (5, 0)), (THETA[5], (5, 0), (7, 0)), (THETA[7], (7, 0), (9, 0)),
    (THETA[9], (9, 0), (13, 0)), (THETA[13], (13, 0), (13, 1)), (8 * THETA[13], (13, 3), (13, 4))])
def test_the_degree_changes_at_theta(eta, below, above):
    # a rotation generator w (J - J^T) has ||a^k||_1 = w^k, so eta = w exactly
    def rotation(w):
        return np.array([[0.0, -w], [w, 0.0]])
    assert _degree(rotation(eta * (1 - 1e-9)))[:2] == below
    assert _degree(rotation(eta * (1 + 1e-9)))[:2] == above


def test_a_nilpotent_block_needs_no_scaling():
    # ||a||_1 = 1 > theta_7, but a^6 = 0: eta = 0 at degree 7, which is exact
    a = np.diag(np.ones(5), 1)
    assert _degree(a)[:2] == (7, 0)
    expect = sum(np.linalg.matrix_power(a, k) / math.factorial(k) for k in range(6))
    np.testing.assert_allclose(expm(a), expect, rtol=0, atol=1e-15)


# a fixed 12 x 12 matrix of 1-norm 1, scaled to hit each degree
@pytest.mark.parametrize("scale, degree, squarings", [
    (0.01, 3, 0), (0.1, 5, 0), (0.5, 7, 0), (1.5, 9, 0), (10.0, 13, 1), (50.0, 13, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_random_matrices_of_each_degree_are_scipys(dtype, scale, degree, squarings):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12))
    if dtype is complex:
        a = a + 1j * rng.normal(size=(12, 12))
    a = a / np.abs(a).sum(axis=0).max() * scale
    assert _degree(a)[:2] == (degree, squarings)
    assert_is_scipys(a)
    for triangle in (np.triu(a), np.tril(a)):
        assert_is_scipys(triangle)


@pytest.mark.parametrize("seed", range(3))
def test_a_lower_triangle_is_the_transposed_upper_one(seed):
    # eigenvalues far apart (||a||_1 ~ 600, six squarings): solving the lower
    # triangular Pade system as it stands would pivot and lose 1e-11
    a = np.tril(np.random.default_rng(seed).normal(size=(30, 30))) * 50
    assert _degree(a)[1] > 0
    assert rel_1norm(expm(a), expm(a.T).T) <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_exp_of_minus_a_is_the_inverse(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(10, 10)) * 0.8
    for m in (a, np.triu(a), np.tril(a)):
        np.testing.assert_allclose(expm(m) @ expm(-m), np.eye(10), rtol=0, atol=1e-13)


@pytest.mark.parametrize("t", [1e-3, 0.4, 7.0, 60.0])
def test_damped_rotation_is_the_closed_form(t):
    gamma, omega = 0.3, 2.5
    a = t * np.array([[-gamma, -omega], [omega, -gamma]])
    c, s = np.cos(omega * t), np.sin(omega * t)
    expect = np.exp(-gamma * t) * np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(expm(a), expect, rtol=0, atol=1e-14)


def test_one_by_one_diagonal_and_zero():
    assert expm(np.array([[-2.5]]))[0, 0] == np.exp(-2.5)
    d = np.array([-1.0, 0.0, 3.0, -700.0])
    assert np.array_equal(expm(np.diag(d)), np.diag(np.exp(d)))
    assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))
    for a in (np.array([[-2.5]]), np.diag(d), np.zeros((5, 5)), np.diag(1j * d)):
        assert_is_scipys(a)


def test_a_nilpotent_block_is_exact():
    # eta = 0 for a nilpotent a: no squaring, and exp(a) = I + a
    a = np.array([[0.0, 1e10], [0.0, 0.0]])
    assert _degree(a)[:2] == (3, 0)
    assert np.array_equal(expm(a), np.eye(2) + a)


def test_close_and_far_diagonal_entries_keep_the_off_diagonal_exact():
    # Fragment 2.1's off-diagonal: equal, nearly equal and far apart eigenvalues
    lam = np.array([-3.0, -3.0, -3.0 + 1e-9, -900.0, 5.0])
    a = np.diag(lam) + np.diag(np.full(4, 2.0), 1)
    x = expm(a)
    assert _degree(a)[1] > 0
    lo, hi = lam[:-1], lam[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = 2.0 * np.where(lo == hi, np.exp(lo), (np.exp(hi) - np.exp(lo)) / (hi - lo))
    exact[1] = 2.0 * np.exp(-3.0) * np.expm1(1e-9) / 1e-9   # no cancellation
    np.testing.assert_allclose(np.diag(x, 1), exact, rtol=1e-15)
    np.testing.assert_array_equal(np.diag(x), np.exp(lam))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)])
def test_a_non_finite_entry_gives_a_non_finite_result(bad, where):
    a = np.array([[-1.0, 0.5, 0.0], [0.2, -2.0, 0.3], [0.0, 0.1, -0.5]])
    a[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = expm(a)
    assert x.shape == (3, 3) and not np.isfinite(x).all()


def test_overflowing_powers_give_nan_not_an_exception():
    # ||a||_1 is finite but a^2 overflows: the degree choice sees inf norms
    a_pop, _ = _decay_generators(DickeSpace(4).lowering_amplitudes(), 1e306)
    for a in (a_pop, a_pop.T.copy(), np.array([[1e200, 1e200], [-1e200, 1e200]])):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _degree(a)[1] is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(expm(a)).all()


def test_ell_carries_the_power_of_abs_a_without_overflow():
    # a @ a == 0 exactly, so eta = 0, but ||abs(a)^27||_1 = 2^2727: ell_13 is
    # ceil((2727 - 101 - log2(1/|c_27|) + 53) / 26) = 99, from the carry
    a = 2.0**100 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _degree(a)[:2] == (13, 99)


def test_a_huge_off_diagonal_is_scaled_not_overflowed():
    # eta = ||a^8||^(1/8) is about 1e25: 82 squarings, after each of which
    # Fragment 2.1 sets the diagonal and the superdiagonal exactly
    a = np.array([[1.0, 1e200], [0.0, 1.0]])
    assert _degree(a)[:2] == (13, 82)
    np.testing.assert_allclose(expm(a), np.e * np.array([[1.0, 1e200], [0.0, 1.0]]),
                               rtol=1e-14)
