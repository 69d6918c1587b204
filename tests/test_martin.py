"""Growth-estimator tests on sector lifts (strips on the torus), where
the exact minimal harmonic function is e^{rho x} cos(rho y) and every
estimator must return the half-width law rho = pi/(2*half)."""

import numpy as np
import pytest

from logtorus.errors import NotSeparating
from logtorus.martin import (
    beta_functional, consistency_table, martin_function, rho_estimates,
    rho_from_extremal, rho_from_growth, rho_from_hm_decay, rho_from_modulus,
)
from logtorus.operators import LogWindow
from logtorus.torus import Band, Grid, ShapeUnion, Strip, TorusSpec, build_domain

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)


def sector_mask(rho_hat, n=128):
    return build_domain(SPEC, n, n, Strip(-np.pi / (2 * rho_hat),
                                          np.pi / (2 * rho_hat)))


def test_martin_function_matches_sector_formula():
    rho_hat = 2.0
    mask = sector_mask(rho_hat)
    H = martin_function(mask, 0, z0=(0.3, 0.0), n=6)
    assert H.converged
    win = H.window
    X, Y = win.meshgrid()
    j0, i0 = H.z0
    exact = np.exp(rho_hat * (X - X[j0, i0])) * np.cos(rho_hat * Y) \
        / np.cos(rho_hat * Y[j0, i0])
    ncols = win.shape[1]
    mid = np.zeros(win.shape, dtype=bool)
    mid[:, ncols // 3:2 * ncols // 3] = True
    mid &= win.inside
    rel = np.abs(H.values - exact)[mid] / exact[mid]
    assert np.max(rel) < 0.05
    # positivity and normalization
    assert H.values[j0, i0] == pytest.approx(1.0)
    assert np.all(H.values[win.inside] > 0)


def test_martin_multiplicative_periodicity():
    rho_hat = 1.0
    mask = sector_mask(rho_hat)
    H = martin_function(mask, 0, z0=(0.3, 0.0), n=6)
    win = H.window
    nx = win.grid.nx
    ncols = win.shape[1]
    mid = np.zeros((win.shape[0], ncols - nx), dtype=bool)
    mid[:, ncols // 3:2 * ncols // 3] = True
    mid &= win.inside[:, nx:] & win.inside[:, :-nx]
    ratio = H.values[:, nx:][mid] / H.values[:, :-nx][mid]
    T_rho = np.exp(rho_hat * LOG2)
    assert np.max(np.abs(ratio - T_rho)) / T_rho < 0.03


@pytest.mark.parametrize("rho_hat", [1.0, 2.0])
def test_growth_and_decay_slopes(rho_hat):
    mask = sector_mask(rho_hat)
    H = martin_function(mask, 0, z0=(0.3, 0.0), n=6)
    g = rho_from_growth(H)
    assert g.value == pytest.approx(rho_hat, rel=0.05)
    d = rho_from_hm_decay(mask, 0, z0=(0.3, 0.0), n_min=3, n_max=8)
    assert d.value == pytest.approx(rho_hat, rel=0.05)
    assert d.meta["band_ratio"] <= 10.0


@pytest.mark.parametrize("rho_hat", [1.0, 2.0])
def test_modulus_and_extremal(rho_hat):
    mask = sector_mask(rho_hat)
    m = rho_from_modulus(mask, 0)
    assert m.value == pytest.approx(rho_hat, rel=0.05)
    e = rho_from_extremal(mask, 0, n_list=(2, 3, 4))
    assert e.value == pytest.approx(rho_hat, rel=0.05)
    # the two conformal routes agree more tightly with each other
    assert abs(m.value - e.value) / m.value < 0.02


def test_modulus_unit_square_convention():
    # aligned rectangle window: energy method must give exactly P/W
    grid = Grid(SPEC, 32, 32)
    inside = np.zeros((32, 64), dtype=bool)
    inside[8:24, :] = True            # W = 16*hy
    win = LogWindow(grid, 0, 2, 0, 1, inside)
    from logtorus.martin import _quad_modulus
    mod = _quad_modulus(win, 0, 32)
    W = 16 * grid.hy
    assert mod == pytest.approx(LOG2 / W, rel=1e-9)


def test_modulus_rejects_two_arcs():
    # two strips joined by a short band: connected, but the lift meets
    # the x=0 slice in two arcs, so no separating circle exists there
    shape = ShapeUnion(ShapeUnion(Strip(-1.2, -0.4), Strip(0.4, 1.2)),
                       Band(0.2, 0.45))
    joined = build_domain(SPEC, 64, 64, shape)
    assert joined.n_components == 1
    with pytest.raises(NotSeparating):
        rho_from_modulus(joined, 0)


def test_five_estimator_consistency_sector():
    rho_hat = 2.0
    mask = sector_mask(rho_hat)
    ests = rho_estimates(mask, 0, z0=(0.3, 0.0), n_martin=6,
                         extremal_ns=(2, 3, 4))
    assert len(ests) == 5
    table = consistency_table(ests)
    assert table["max_rel_disagreement"] < 0.05, table
    for e in ests:
        assert e.value == pytest.approx(rho_hat, rel=0.05)


def test_beta_functional_bounded_vs_diverging():
    rho_hat = 2.0
    mask = sector_mask(rho_hat)
    H = martin_function(mask, 0, z0=(0.3, 0.0), n=8)
    win = H.window
    rep = beta_functional(win, H.values, (0.3, 0.0), range(3, 8))
    assert not rep["diverging"]          # the minimal function is balanced
    X, _ = win.meshgrid()
    fast = np.where(win.inside, np.exp(2.0 * rho_hat * X), 0.0)
    rep2 = beta_functional(win, fast, (0.3, 0.0), range(3, 8))
    assert rep2["diverging"]             # grows twice as fast as measure decays
    zero = beta_functional(win, np.zeros(win.shape), (0.3, 0.0), range(3, 6))
    assert zero["beta"] == 0.0 and not zero["diverging"]


def test_estimates_without_base_point():
    # z0=None picks the inside cell nearest the window center
    mask = build_domain(SPEC, 48, 48, Strip(-1.0, 1.0))
    H = martin_function(mask, 0, n=4)
    j0, i0 = H.z0
    assert H.window.inside[j0, i0]
    assert H.values[j0, i0] == pytest.approx(1.0)
    ests = rho_estimates(mask, 0, n_martin=4, n_decay=(3, 5),
                         extremal_ns=(2, 3))
    assert len(ests) == 5
    for e in ests:
        assert np.isfinite(e.value) and e.value > 0
    assert consistency_table(ests)["max_rel_disagreement"] < 0.05
