import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thcavity.phase_diagram import classify_rates, grid_scan

G_REF = 672.9114808246269
GAMMA_REF = 1.0 / 1740.0


def test_margin_formulas():
    pt = classify_rates(2.0, 25, 10.0, 0.5)
    loss = 10.5
    assert pt.margin_strong == pytest.approx((4 * 2.0 * 5.0 - loss) / loss)
    assert pt.margin_cooperativity == pytest.approx(25 * 4.0 / 5.0 - 1.0)
    assert pt.sqrt_n == 5.0


def test_reference_working_point_is_strong():
    pt = classify_rates(G_REF, 100, 1000.0, GAMMA_REF)
    assert pt.regime == "strong"
    assert pt.margin_strong > 0


def test_boundary_points_fall_to_the_lower_regime():
    # exactly on the splitting boundary: 4 g sqrt(N) = kappa + gamma
    pt = classify_rates(1.0, 4, 7.5, 0.5)
    assert pt.margin_strong == 0.0
    assert pt.regime == "collective"       # cooperativity 16/15 still exceeds 1
    # exactly on the cooperativity boundary, well below strong coupling
    pt2 = classify_rates(1.0, 1, 10.0, 0.1)
    assert pt2.margin_cooperativity == 0.0
    assert pt2.regime == "weak"


def test_weak_collective_strong_examples():
    assert classify_rates(0.01, 1, 100.0, 1.0).regime == "weak"
    assert classify_rates(1.0, 100, 50.0, 0.01).regime in ("strong", "collective")
    assert classify_rates(10.0, 100, 1.0, 0.1).regime == "strong"


@pytest.mark.parametrize("kw", [
    dict(g=-1.0, n_nuclei=1, kappa_vuv=1.0, gamma_minus=1.0),
    dict(g=1.0, n_nuclei=-1, kappa_vuv=1.0, gamma_minus=1.0),
    dict(g=1.0, n_nuclei=1, kappa_vuv=0.0, gamma_minus=1.0),
    dict(g=1.0, n_nuclei=1, kappa_vuv=1.0, gamma_minus=0.0),
    dict(g=1.0, n_nuclei=1, kappa_vuv=1.0, gamma_minus=1e-320),   # overflows
])
def test_classify_validation(kw):
    with pytest.raises(ValueError):
        classify_rates(**kw)


@given(st.floats(0.1, 100.0), st.integers(1, 10000),
       st.floats(0.01, 1e4), st.floats(1e-4, 10.0))
def test_margins_fall_with_kappa(g, n, kappa, gamma):
    a = classify_rates(g, n, kappa, gamma)
    b = classify_rates(g, n, 2.0 * kappa, gamma)
    assert b.margin_strong < a.margin_strong
    assert b.margin_cooperativity < a.margin_cooperativity


@given(st.floats(0.1, 100.0), st.integers(1, 5000),
       st.floats(0.01, 1e4), st.floats(1e-4, 10.0))
def test_margins_rise_with_ensemble_size(g, n, kappa, gamma):
    a = classify_rates(g, n, kappa, gamma)
    b = classify_rates(g, 4 * n, kappa, gamma)
    assert b.margin_strong > a.margin_strong
    assert b.margin_cooperativity > a.margin_cooperativity


def test_regime_never_upgrades_as_kappa_grows():
    order = {"strong": 2, "collective": 1, "weak": 0}
    last = 2
    for kappa in np.geomspace(1.0, 1e9, 200):
        r = order[classify_rates(5.0, 400, float(kappa), 0.02).regime]
        assert r <= last
        last = r


def test_grid_scan_layout():
    scan = grid_scan(1.0, 0.1, (1.0, 100.0, 5), (1.0, 4.0, 4))
    columns = (scan.kappa_vuv, scan.sqrt_n, scan.regime, scan.margin_strong,
               scan.margin_cooperativity)
    assert [c.shape for c in columns] == [(20,)] * 5
    # row-major: sqrt_n outer, kappa inner
    assert scan.kappa_vuv[0] == pytest.approx(1.0)
    assert scan.kappa_vuv[4] == pytest.approx(100.0)
    assert scan.sqrt_n[5] == pytest.approx(2.0)


@pytest.mark.parametrize("g, gamma, kappa_range, sqrt_n_range", [
    (1.0, 0.1, (1.0, 100.0, 5), (1.0, 4.0, 4)),
    (G_REF, GAMMA_REF, (1.0e2, 1.0e12, 101), (1.0, 40.0, 40)),
    # kappa = 7.5 sits on the strong boundary at sqrt_n = 2 (4 g sqrt(N) = 8)
    (1.0, 0.5, (7.5, 30.0, 3), (0.0, 2.0, 3)),
])
def test_grid_scan_is_classify_rates_at_every_point(g, gamma, kappa_range, sqrt_n_range):
    """Oracle for the array classification: each point, bit for bit, as
    classify_rates gives it for (sqrt_n^2, kappa)."""
    scan = grid_scan(g, gamma, kappa_range, sqrt_n_range)
    kappas = np.geomspace(*kappa_range)
    points = [classify_rates(g, s * s, k, gamma)
              for s in np.linspace(*sqrt_n_range).tolist() for k in kappas.tolist()]
    assert scan.kappa_vuv.tolist() == [pt.kappa_vuv for pt in points]
    assert scan.sqrt_n.tolist() == [pt.sqrt_n for pt in points]
    assert scan.regime.tolist() == [pt.regime for pt in points]
    assert scan.margin_strong.tolist() == [pt.margin_strong for pt in points]
    assert scan.margin_cooperativity.tolist() == [pt.margin_cooperativity for pt in points]


def test_grid_scan_overflow_is_classify_rates_error_at_the_first_point():
    # rows past sqrt_n = 1e154 overflow N = sqrt_n^2; the first is row 1, kappa 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as grid_err:
            grid_scan(1.0, 0.1, (1.0, 10.0, 3), (1.0, 2.0e200, 3))
    with pytest.raises(ValueError) as point_err:
        classify_rates(1.0, 1.0e200 * 1.0e200, 1.0, 0.1)
    assert str(grid_err.value) == str(point_err.value)


def test_boundary_crossings_match_closed_forms():
    g, gamma = 3.0, 0.05
    scan = grid_scan(g, gamma, (1.0, 1e6, 400), (2.0, 10.0, 5))
    # log-spacing of the grid bounds the crossing error
    step = math.log(1e6 / 1.0) / 399
    for s, k_cross in scan.boundary_strong:
        exact = 4.0 * g * s - gamma
        assert abs(math.log(k_cross / exact)) <= step
    for s, k_cross in scan.boundary_cooperativity:
        exact = s * s * g * g / gamma
        assert abs(math.log(k_cross / exact)) <= step


def test_grid_validation():
    with pytest.raises(ValueError, match="kappa_range"):
        grid_scan(1.0, 0.1, (0.0, 10.0, 5), (1.0, 2.0, 2))
    with pytest.raises(ValueError, match="kappa_range"):
        grid_scan(1.0, 0.1, (1.0, 10.0, 1), (1.0, 2.0, 2))
    with pytest.raises(ValueError, match="sqrt_n_range"):
        grid_scan(1.0, 0.1, (1.0, 10.0, 5), (2.0, 1.0, 2))
