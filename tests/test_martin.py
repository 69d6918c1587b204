"""Growth-estimator tests on sector lifts (strips on the torus), where
the exact minimal harmonic function is e^{rho x} cos(rho y) and every
estimator must return the half-width law rho = pi/(2*half)."""

import numpy as np
import pytest
from scipy import ndimage

from logtorus.errors import NotSeparating, NotSimplyConnected
from logtorus.martin import (
    OBLIQUE, _quad_modulus, beta_functional, consistency_table, martin_function,
    rho_estimates, rho_from_extremal, rho_from_growth, rho_from_hm_decay,
    rho_from_modulus,
)
from logtorus.operators import (LinearSystem, LogWindow, assemble,
                                harmonic_measure_field, lift_window)
from logtorus.torus import (Band, Disc, Grid, ShapeDifference, ShapeUnion,
                            Strip, TorusSpec, Tube, build_domain)

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
    mod = _quad_modulus(win, 0, 32)
    W = 16 * grid.hy
    assert mod == pytest.approx(LOG2 / W, rel=1e-9)


@pytest.mark.parametrize("island,link", [((1, 3), (1, 8)), ((28, 30), (24, 30))],
                         ids=["above", "below"])
def test_quad_modulus_keeps_the_largest_piece(island, link):
    # the main strip (rows 8-23) and a 2-row island over columns 0-39 that
    # joins it only through columns 40-45, past the quadrilateral's far
    # crosscut at column 32: cut there, the island is a separate piece,
    # and mirror images must get the same verdict
    grid = Grid(SPEC, 32, 32)
    inside = np.zeros((32, 64), dtype=bool)
    inside[8:24, :] = True
    inside[island[0]:island[1], :40] = True
    inside[link[0]:link[1], 40:46] = True
    win = LogWindow(grid, 0, 2, 0, 1, inside)
    assert _quad_modulus(win, 0, 32) == pytest.approx(LOG2 / (16 * grid.hy),
                                                      rel=1e-9)


def test_quad_modulus_rejects_pieces_below_half():
    grid = Grid(SPEC, 32, 32)
    inside = np.zeros((32, 64), dtype=bool)
    for lo in (2, 12, 22):
        inside[lo:lo + 6, :] = True
    with pytest.raises(NotSimplyConnected):
        _quad_modulus(LogWindow(grid, 0, 2, 0, 1, inside), 0, 32)


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


# -- direct reference ----------------------------------------------------
# Each estimator must equal a plain solve on each of its windows: lift
# the component, cut the window to its first columns, and solve there.
# The references below are built from the public operators only.

def lifted(mask, px_lo, px_hi, m_periods, z0):
    py_lo = -(m_periods // 2)
    return lift_window(mask, 0, px_lo, px_hi, py_lo, py_lo + m_periods,
                       anchor=z0)


def base_cell(win, z0, column):
    if z0 is not None:
        return win.cell_of(*z0)
    cells = np.argwhere(win.inside)
    d2 = (cells[:, 0] - win.shape[0] / 2.0) ** 2 + (cells[:, 1] - column) ** 2
    return tuple(cells[np.argmin(d2)])


def crosscut_omega(win, ncols):
    """Harmonic measure of the middle two-thirds of every arc of column
    ncols - 1, on the window cut after that column."""
    inside = win.inside[:, :ncols].copy()
    cut = LogWindow(win.grid, win.px_lo, win.px_lo + ncols // win.grid.nx,
                    win.py_lo, win.py_hi, inside)
    target = np.zeros(inside.shape, dtype=bool)
    rows = np.flatnonzero(inside[:, -1])
    for arc in np.split(rows, np.flatnonzero(np.diff(rows) > 1) + 1):
        k = len(arc)
        target[arc[k // 6:k - k // 6] if k > 2 else arc, -1] = True
    return harmonic_measure_field(cut, target).values


def quad_distance(win, col1):
    """Modulus of the quadrilateral between columns 0 and col1: potential
    0 and 1 on them, insulated elsewhere, 1 / Dirichlet energy."""
    inside = win.inside.copy()
    inside[:, col1 + 1:] = False
    labels, _ = ndimage.label(inside)
    inside = labels == 1 + np.argmax(np.bincount(labels.ravel())[1:])
    quad = LogWindow(win.grid, win.px_lo, win.px_hi, win.py_lo, win.py_hi,
                     inside)
    clamp = np.zeros(inside.shape, dtype=bool)
    clamp[:, [0, col1]] = inside[:, [0, col1]]
    data = np.zeros(inside.shape)
    data[:, col1] = 1.0
    op = assemble(quad, "laplacian", bc="neumann", clamp=clamp)
    u = op.embed(LinearSystem(op).solve(op.boundary_rhs(None, clamp_data=data)))
    u[clamp & (data > 0)] = 1.0
    hx, hy = win.hx, win.hy
    dx = (u[:, 1:] - u[:, :-1])[inside[:, 1:] & inside[:, :-1]]
    dy = (u[1:, :] - u[:-1, :])[inside[1:, :] & inside[:-1, :]]
    return 1.0 / float((dx ** 2).sum() * hy / hx + (dy ** 2).sum() * hx / hy)


REFERENCE_DOMAINS = {
    "strip": (48, Strip(-0.8, 0.8), 1, None),
    "strip_minus_disc": (48, ShapeDifference(Strip(-1.0, 1.0),
                                             Disc(0.35, 0.5, 0.25)), 1, (0.3, 0.0)),
    "tube_k4": (48, Tube(4, 0, 0.2), 4, (0.3, 0.68)),
}


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", list(REFERENCE_DOMAINS))
def test_estimators_equal_the_direct_window_solves(name):
    n, shape, m_periods, z0 = REFERENCE_DOMAINS[name]
    mask = build_domain(SPEC, n, n, shape)
    nx = mask.grid.nx
    P = mask.grid.spec.P

    H = martin_function(mask, 0, z0=z0, n=4, m_periods=m_periods)
    win = lifted(mask, -4, 4, m_periods, z0)
    cell = base_cell(win, z0, win.shape[1] / 2.0)
    omega = crosscut_omega(win, win.shape[1])
    assert np.array_equal(H.window.inside, win.inside)
    assert H.z0 == cell
    assert_close(H.values, np.where(win.inside, omega / omega[cell], 0.0))
    assert_close(H.meta["omega_at_z0"], omega[cell])

    # beta over the Martin window, from the centre of the base cell
    X, Y = win.meshgrid()
    ns = range(1, 5)
    rep = beta_functional(H.window, H.values, (X[cell], Y[cell]), ns)
    seq = []
    for k in ns:
        col = (k + 4) * nx - 1
        seq.append(H.values[:, col][win.inside[:, col]].max()
                   * crosscut_omega(win, col + 1)[cell])
    assert_close(rep["sequence"], seq)

    d = rho_from_hm_decay(mask, 0, z0=z0, n_min=3, n_max=6,
                          m_periods=m_periods)
    win = lifted(mask, -4, 6, m_periods, z0)
    cell = base_cell(win, z0, 4 * nx - nx // 2)
    assert_close(d.meta["omegas"], [crosscut_omega(win, (k + 4) * nx)[cell]
                                    for k in range(3, 7)])

    m = rho_from_modulus(mask, 0, m_periods=m_periods, z0=z0)
    mod = quad_distance(lifted(mask, 0, 2, m_periods, z0), nx)
    assert_close(m.meta["modulus"], mod)
    assert_close(m.value, np.pi / P * mod)

    e = rho_from_extremal(mask, 0, n_list=(2, 3, 4), m_periods=m_periods,
                          z0=z0)
    win = lifted(mask, 0, 5, m_periods, z0)
    assert_close(e.meta["distances"], [quad_distance(win, k * nx) for k in (2, 3, 4)])


@pytest.mark.parametrize("name,oblique", [("strip", False),
                                          ("strip_minus_disc", False),
                                          ("tube_k4", True)])
def test_modulus_flags_oblique_crosscuts(name, oblique):
    # the piece of the k=4 tube meets x=P on rows other than at x=0, so
    # the one-period quad has oblique ends: the value is kept, and flagged
    n, shape, m_periods, z0 = REFERENCE_DOMAINS[name]
    mask = build_domain(SPEC, n, n, shape)
    m = rho_from_modulus(mask, 0, m_periods=m_periods, z0=z0)
    win = lifted(mask, 0, 2, m_periods, z0)
    assert np.array_equal(win.inside[:, 0], win.inside[:, n]) != oblique
    assert m.meta.get("reason") == (OBLIQUE if oblique else None)
    assert_close(m.meta["modulus"], quad_distance(win, n))


def test_one_factorization_per_estimator_call(monkeypatch):
    # every estimator factors one period block of a strip once: 4 LUs
    # for the four estimators, 1 for beta over 4 crosscuts
    mask = build_domain(SPEC, 64, 64, Strip(-0.8, 0.8))
    dofs = []
    init = LinearSystem.__init__

    def counted(self, op):
        dofs.append(op.ndof)
        init(self, op)

    monkeypatch.setattr(LinearSystem, "__init__", counted)
    ests = rho_estimates(mask, 0, z0=(0.3, 0.0), extremal_ns=(2, 3, 4),
                         include_pencil=False)
    assert len(ests) == 4
    assert len(dofs) <= 4
    assert max(dofs) <= mask.inside.sum()
    dofs.clear()
    H = ests[0].meta["martin"]
    beta_functional(H.window, H.values, (0.3, 0.0), range(1, 5))
    assert len(dofs) == 1
