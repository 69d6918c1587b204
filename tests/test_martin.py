"""Growth-estimator tests on sector lifts (strips on the torus), where
the exact minimal harmonic function is e^{rho x} cos(rho y) and every
estimator must return the half-width law rho = pi/(2*half)."""

import numpy as np
import pytest
from scipy import ndimage

from logtorus.errors import ConfigError, NotSeparating, NotSimplyConnected
from logtorus.martin import (
    OBLIQUE, _lift, _quad_modulus, beta_functional, consistency_table, martin_function,
    rho_estimates, rho_from_extremal, rho_from_growth, rho_from_hm_decay,
    rho_from_modulus,
)
from logtorus.operators import (LinearSystem, LogWindow, PeriodChain, assemble,
                                harmonic_measure_field, lift_window)
from logtorus.torus import (Band, Disc, Grid, Rect, ShapeDifference,
                            ShapeUnion, Strip, TorusSpec, Tube, build_domain)

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
    mod = _quad_modulus(win, 0, 32, PeriodChain("neumann"))
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
    mod = _quad_modulus(win, 0, 32, PeriodChain("neumann"))
    assert mod == pytest.approx(LOG2 / (16 * grid.hy), rel=1e-9)


def test_quad_modulus_rejects_pieces_below_half():
    grid = Grid(SPEC, 32, 32)
    inside = np.zeros((32, 64), dtype=bool)
    for lo in (2, 12, 22):
        inside[lo:lo + 6, :] = True
    with pytest.raises(NotSimplyConnected):
        _quad_modulus(LogWindow(grid, 0, 2, 0, 1, inside), 0, 32,
                      PeriodChain("neumann"))


def test_modulus_rejects_two_arcs():
    # two strips joined by a short band: connected, but the lift meets
    # the x=0 slice in two arcs, so no separating circle exists there
    shape = ShapeUnion(ShapeUnion(Strip(-1.2, -0.4), Strip(0.4, 1.2)),
                       Band(0.2, 0.45))
    joined = build_domain(SPEC, 64, 64, shape)
    assert joined.n_components == 1
    with pytest.raises(NotSeparating):
        rho_from_modulus(joined, 0)


def test_modulus_rejects_two_arcs_of_a_bounded_lift():
    # the same two strips joined by a short rectangle: the lift is bounded
    # in y, so the refusal comes from the two arcs on the x=0 slice
    shape = ShapeUnion(ShapeUnion(Strip(-1.2, -0.4), Strip(0.4, 1.2)),
                       Rect(0.2, 0.45, -0.6, 0.6))
    joined = build_domain(SPEC, 64, 64, shape)
    assert joined.n_components == 1
    with pytest.raises(NotSeparating, match="2 arcs on the x=0 slice"):
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


def test_martin_base_point_must_lie_in_the_convergence_window():
    # z0 in the outermost period is in the [-3, 3] window but not in the
    # [-2, 2] one cut out of it
    mask = build_domain(SPEC, 48, 48, Strip(-1.0, 1.0))
    with pytest.raises(ConfigError):
        martin_function(mask, 0, z0=(-2.5 * LOG2, 0.0), n=3)


# -- direct reference ----------------------------------------------------
# Each estimator must equal a plain solve on each of its windows: lift
# the component, cut the window to its first columns, and solve there.
# The references below are built from the public operators only.

def y_periods(mask, px_lo, px_hi):
    """The y-periods a window over x-periods [px_lo, px_hi] takes: those
    a strand of the component's winding class (k, l) crosses, plus one."""
    spiral = mask.spiral_of(0)
    s = spiral.y_winding / spiral.k if spiral.connected else 0.0
    ys = (px_lo * s, px_hi * s)
    return int(np.floor(min(ys))), int(np.ceil(max(ys))) + 1


def lifted(mask, px_lo, px_hi, height, z0):
    """The lift on the tall y-periods [-height, height), through z0."""
    return lift_window(mask, 0, px_lo, px_hi, -height, height, anchor=z0)


def base_point(mask, px_lo, px_hi, z0, column):
    """z0, or else the centre of the inside cell nearest the middle row
    at `column` of the window the y-extent rule gives."""
    if z0 is not None:
        return z0
    win = lift_window(mask, 0, px_lo, px_hi, *y_periods(mask, px_lo, px_hi))
    cells = np.argwhere(win.inside)
    d2 = (cells[:, 0] - win.shape[0] / 2.0) ** 2 + (cells[:, 1] - column) ** 2
    X, Y = win.meshgrid()
    j, i = cells[np.argmin(d2)]
    return X[j, i], Y[j, i]


def off_y_edges(win):
    """The piece stays off the window's first and last rows, which are
    artificial Dirichlet edges."""
    return not (win.inside[0].any() or win.inside[-1].any())


def same_piece(win, ref):
    """The windows hold the same piece once rows are aligned by py_lo."""
    shift = (win.py_lo - ref.py_lo) * win.grid.ny
    return np.array_equal(np.argwhere(win.inside) + [shift, 0],
                          np.argwhere(ref.inside))


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
    op = assemble(quad, bc="neumann").restrict(clamp)
    u = op.embed(LinearSystem(op).solve(op.boundary_rhs(data)))
    u[clamp & (data > 0)] = 1.0
    hx, hy = win.hx, win.hy
    dx = (u[:, 1:] - u[:, :-1])[inside[:, 1:] & inside[:, :-1]]
    dy = (u[1:, :] - u[:-1, :])[inside[1:, :] & inside[:-1, :]]
    return 1.0 / float((dx ** 2).sum() * hy / hx + (dy ** 2).sum() * hx / hy)


# name: (n, shape, height of the reference windows' half, z0)
REFERENCE_DOMAINS = {
    "strip": (48, Strip(-0.8, 0.8), 1, None),
    "strip_minus_disc": (48, ShapeDifference(Strip(-1.0, 1.0),
                                             Disc(0.35, 0.5, 0.25)), 1, (0.3, 0.0)),
    "tube_k4": (48, Tube(4, 0, 0.2), 4, (0.3, 0.68)),
    # a base point near the bottom of its period: the rule's windows would
    # cut the strand at their first row, so they gain a period below
    "tube_k4_low": (48, Tube(4, 0, 0.2), 4, (0.513, -3.076)),
    "tube_k4_none": (48, Tube(4, 0, 0.2), 4, None),
    # [-4, 4] takes more y-periods than [-3, 3]: guards the row alignment
    # of martin_function's two windows
    "tube_k3": (48, Tube(3, 1, 0.25), 4, None),
}


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", list(REFERENCE_DOMAINS))
def test_estimators_equal_the_direct_window_solves(name):
    n, shape, height, z0 = REFERENCE_DOMAINS[name]
    mask = build_domain(SPEC, n, n, shape)
    nx = mask.grid.nx
    P = mask.grid.spec.P

    H = martin_function(mask, 0, z0=z0, n=4)
    z = base_point(mask, -4, 4, z0, 4 * nx)
    win = lifted(mask, -4, 4, height, z)
    cell = win.cell_of(*z)
    omega = crosscut_omega(win, win.shape[1])
    lo, hi = y_periods(mask, -4, 4)
    assert H.window.py_lo <= lo and H.window.py_hi >= hi
    assert off_y_edges(H.window) and off_y_edges(win)
    assert same_piece(H.window, win)
    assert H.window.cell_of(*z) == H.z0
    assert_close(H.values[H.window.inside], omega[win.inside] / omega[cell])
    assert_close(H.meta["omega_at_z0"], omega[cell])
    # the convergence check against the [-3, 3] lift through z, on the
    # middle third of its columns; on the tubes the change is at round-off
    small = lifted(mask, -3, 3, height, z)
    omega_s = crosscut_omega(small, small.shape[1])
    mid = small.inside.copy()
    mid[:, :small.shape[1] // 3] = mid[:, 2 * small.shape[1] // 3:] = False
    Hs = omega_s[mid] / omega_s[small.cell_of(*z)]
    Hb = (omega / omega[cell])[:, nx:-nx][mid]
    np.testing.assert_allclose(H.meta["max_rel_change"],
                               np.max(np.abs(Hb - Hs) / Hs), rtol=1e-10, atol=1e-12)

    # beta over the Martin window, from the centre of the base cell
    ns = range(1, 5)
    rep = beta_functional(H.window, H.values, z, ns)
    seq = []
    for k in ns:
        col = (k + 4) * nx - 1
        seq.append(omega[:, col][win.inside[:, col]].max() / omega[cell]
                   * crosscut_omega(win, col + 1)[cell])
    assert_close(rep["sequence"], seq)

    d = rho_from_hm_decay(mask, 0, z0=z0, n_min=3, n_max=8)
    z = base_point(mask, -4, 8, z0, 4 * nx - nx // 2)
    win = lifted(mask, -4, 8, height, z)
    assert off_y_edges(win)
    cell = win.cell_of(*z)
    assert_close(d.meta["omegas"], [crosscut_omega(win, (k + 4) * nx)[cell]
                                    for k in range(3, 9)])

    m = rho_from_modulus(mask, 0, z0=z0)
    win = lifted(mask, 0, 2, height, base_point(mask, 0, 2, z0, nx))
    assert off_y_edges(win)
    mod = quad_distance(win, nx)
    assert_close(m.meta["modulus"], mod)
    assert_close(m.value, np.pi / P * mod)

    e = rho_from_extremal(mask, 0, n_list=(2, 3, 4), z0=z0)
    win = lifted(mask, 0, 5, height, base_point(mask, 0, 5, z0, 2.5 * nx))
    assert off_y_edges(win)
    assert_close(e.meta["distances"], [quad_distance(win, k * nx) for k in (2, 3, 4)])


def test_strip_lifts_span_one_period_in_y():
    # a strip's class is (1, 0): every window keeps today's single period
    mask = build_domain(SPEC, 48, 48, Strip(-0.8, 0.8))
    for px_lo, px_hi in ((-4, 4), (-4, 8), (0, 2), (0, 6)):
        win, _ = _lift(mask, 0, px_lo, px_hi, None)
        assert (win.py_lo, win.py_hi) == (0, 1)


def test_lifts_gain_periods_until_the_piece_is_off_the_y_edges():
    # z0 near y = -pi puts the strand at the bottom of period 0, so the
    # rule's [0, 2) window for x-periods [0, 2] would cut it at row 0
    mask = build_domain(SPEC, 48, 48, Tube(4, 0, 0.2))
    z0 = (0.513, -3.076)
    win, cell = _lift(mask, 0, 0, 2, z0)
    assert y_periods(mask, 0, 2) == (0, 2)
    assert (win.py_lo, win.py_hi) == (-1, 2)
    assert off_y_edges(win) and cell == win.cell_of(*z0)


def test_lift_unbounded_in_y_is_refused():
    # a vertical band winds in y only: its lift reaches every window's
    # y-edges, so no estimator window holds it
    mask = build_domain(SPEC, 32, 32, Band(0.2, 0.5))
    with pytest.raises(NotSeparating, match="not bounded in y"):
        rho_from_modulus(mask, 0)


@pytest.mark.parametrize("name,oblique", [("strip", False),
                                          ("strip_minus_disc", False),
                                          ("tube_k4", True),
                                          ("tube_k3", True)])
def test_modulus_flags_oblique_crosscuts(name, oblique):
    # the piece of a winding tube meets x=P on rows other than at x=0, so
    # the one-period quad has oblique ends: the value is kept, and flagged
    n, shape, height, z0 = REFERENCE_DOMAINS[name]
    mask = build_domain(SPEC, n, n, shape)
    m = rho_from_modulus(mask, 0, z0=z0)
    win = lifted(mask, 0, 2, height, base_point(mask, 0, 2, z0, n))
    assert np.array_equal(win.inside[:, 0], win.inside[:, n]) != oblique
    assert m.meta.get("reason") == (OBLIQUE if oblique else None)
    assert_close(m.meta["modulus"], quad_distance(win, n))


def test_one_factorization_per_estimator_call(monkeypatch):
    # a strip has one period-block pattern: rho_estimates factors it
    # once per boundary rule ('face' and 'neumann'), beta once for its
    # 4 crosscuts
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
    assert len(dofs) == 2
    assert max(dofs) <= mask.inside.sum()
    dofs.clear()
    H = ests[0].meta["martin"]
    beta_functional(H.window, H.values, (0.3, 0.0), range(1, 5))
    assert len(dofs) == 1


@pytest.mark.parametrize("name", list(REFERENCE_DOMAINS))
def test_rho_estimates_equal_the_estimators_called_one_by_one(name):
    # rho_estimates shares one chain per boundary rule between the
    # estimators; on the tubes their windows take different y-periods, so
    # a chain holds several block patterns.  Sharing changes no bit.
    n, shape, _, z0 = REFERENCE_DOMAINS[name]
    mask = build_domain(SPEC, n, n, shape)
    shared = rho_estimates(mask, 0, z0=z0, n_martin=4, n_decay=(3, 8),
                           extremal_ns=(2, 3, 4), include_pencil=False)
    H = martin_function(mask, 0, z0=z0, n=4)
    alone = [rho_from_growth(H),
             rho_from_hm_decay(mask, 0, z0=z0, n_min=3, n_max=8),
             rho_from_modulus(mask, 0, z0=z0),
             rho_from_extremal(mask, 0, n_list=(2, 3, 4), z0=z0)]
    assert [e.method for e in shared] == [e.method for e in alone]
    for a, b in zip(shared, alone):
        assert (a.value, a.ci, a.n_range) == (b.value, b.ci, b.n_range)
        for key in ("omegas", "distances", "modulus", "reason"):
            assert a.meta.get(key) == b.meta.get(key)
    np.testing.assert_array_equal(shared[0].meta["martin"].values, H.values)
