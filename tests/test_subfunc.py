"""Subfunction-calculus tests: certificates, mollification, Green
functions, the Dirichlet problem, Riesz decomposition, sweeping, and the
trigonometric 1-D specialization."""

import numpy as np
import pytest

from logtorus import operators, subfunc
from logtorus.errors import (ArcTooWide, EpsTooSmall, RhoAboveCritical,
                             RhoInSpectrum, SolverFailure)
from logtorus.fundsol import GridMeasure, discrete_kernel, potential
from logtorus.operators import LinearSystem, assemble
from logtorus.oracles import strip_green_series, strip_majorant_profile
from logtorus.pencil import rho_min
from logtorus.subfunc import (
    TrigIndicator, dirichlet_lrho, dirichlet_lrho_monotone,
    fundamental_relation_residual, green_lrho, is_subfunction, lift_check,
    mollify, riesz_decompose, sweep, tc_majorant,
)
from logtorus.torus import (Disc, Grid, GridField, Strip, TorusSpec, Tube,
                            build_domain)

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)
GRID = Grid(SPEC, 48, 48)


def bump_subfunction(grid, rho, scale=1.0):
    """Certified smooth subfunction: potential of a positive density."""
    X, Y = grid.meshgrid()
    dens = scale * (1.0 + np.cos(Y)) * (1.5 + np.sin(2 * np.pi * X / LOG2))
    nu = GridMeasure(grid, dens * grid.cell_area)
    return potential(nu, discrete_kernel(rho, grid))


# ---------------------------------------------------------------- certificates

def test_constant_is_subfunction_with_exact_mass():
    c, rho = 3.25, 1.7
    v = GridField(GRID, np.full(GRID.shape, c))
    cert = is_subfunction(v, rho)
    assert cert.verdict == "subfunction"
    expect = rho * rho * c * GRID.cell_area
    assert np.allclose(cert.residual.masses, expect, rtol=1e-9)


def test_pure_wave_is_lrho_function_at_integer_rho():
    p = 1
    X, Y = GRID.meshgrid()
    v = GridField(GRID, np.real((0.8 - 0.4j) * np.exp(1j * p * Y)))
    assert is_subfunction(v, float(p)).verdict == "subfunction"
    w = GridField(GRID, -v.values)
    assert is_subfunction(w, float(p)).verdict == "subfunction"


def test_sharp_negative_peak_is_not_subfunction():
    X, Y = GRID.meshgrid()
    dx = np.minimum(np.abs(X - 0.3), LOG2 - np.abs(X - 0.3))
    dy = np.minimum(np.abs(Y), 2 * np.pi - np.abs(Y))
    v = GridField(GRID, -np.hypot(dx, dy))
    assert is_subfunction(v, 1.0).verdict == "not"


def test_cone_closure_max_and_positive_combinations():
    rho = 1.3
    v1 = bump_subfunction(GRID, rho, 1.0)
    v2 = bump_subfunction(GRID, rho, 0.5)
    v2 = GridField(GRID, v2.values[::-1, ::-1].copy())  # reflected copy
    vmax = GridField(GRID, np.maximum(v1.values, v2.values))
    combo = GridField(GRID, 2.0 * v1.values + 0.7 * v2.values)
    for w in (vmax, combo):
        assert is_subfunction(w, rho).verdict == "subfunction"
    rolled = GridField(GRID, np.roll(v1.values, (5, 7), axis=(0, 1)))
    c1 = is_subfunction(v1, rho)
    c2 = is_subfunction(rolled, rho)
    assert c2.min_mass == pytest.approx(c1.min_mass, rel=1e-12)


# ---------------------------------------------------------------- lift

def test_lift_of_constant_and_periodicity():
    rho = 1.5
    v = GridField(GRID, np.ones(GRID.shape))
    rep = lift_check(v, rho)
    assert rep["periodicity_error"] < 1e-10
    assert rep["lift_subharmonic"] is True     # Delta e^{rho x} = rho^2 e^{rho x}
    assert rep["interior_max_principle"] is True


def test_lift_of_pencil_eigenfunction_is_positive_harmonic():
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    r = rho_min(mask, full_result=True)
    q = r.eigenfunction
    rep = lift_check(q, r.value)
    assert rep["certificate"].is_subfunction
    assert rep["interior_max_principle"] is True
    # harmonic inside the lifted strip: Delta(q e^{rho x}) ~ 0 there;
    # build the lift on a 3-period tile (rolling the torus array would
    # cross the e^{rho P} jump at the period seam)
    grid = q.grid
    nx = grid.nx
    xs = np.concatenate([(np.arange(nx) + 0.5) * grid.hx + k * LOG2
                         for k in range(3)])
    V = np.tile(q.values, (1, 3)) * np.exp(r.value * xs)[None, :]
    lap = ((np.roll(V, 1, 1) + np.roll(V, -1, 1) - 2 * V) / grid.hx ** 2
           + (np.roll(V, 1, 0) + np.roll(V, -1, 0) - 2 * V) / grid.hy ** 2)
    from logtorus.pencil import erode_periodic
    core = np.tile(erode_periodic(mask.inside, 2), (1, 3))
    core[:, :nx] = False
    core[:, -nx:] = False
    w = np.exp(r.value * xs)[None, :]
    assert np.max(np.abs(lap / w)[core]) < 0.02 * np.max(np.abs(q.values))


# ---------------------------------------------------------------- mollify

def test_mollify_smooth_field_second_order_in_eps():
    # needs the kernel well resolved: eps/h >= 6 at both radii
    rho = 1.2
    grid = Grid(SPEC, 96, 96)
    X, Y = grid.meshgrid()
    v = GridField(grid, np.cos(Y) + 0.3 * np.sin(2 * np.pi * X / LOG2))
    errs = []
    for eps in (0.4, 0.2):
        m = mollify(v, rho, eps)
        errs.append(np.max(np.abs(m.values - v.values)))
    assert errs[1] < 0.4 * errs[0]
    assert errs[1] < 0.1
    with pytest.raises(EpsTooSmall):
        mollify(v, rho, 0.5 * max(grid.hx, grid.hy))


def test_mollify_preserves_certificates_and_is_monotone_in_eps():
    rho = 1.3
    v = bump_subfunction(GRID, rho)
    assert is_subfunction(v, rho).is_subfunction
    m1 = mollify(v, rho, 0.3)
    m2 = mollify(v, rho, 0.6)
    assert is_subfunction(m1, rho).is_subfunction
    assert is_subfunction(m2, rho).is_subfunction
    tol = 1e-8 * (1 + np.max(np.abs(v.values)))
    assert np.all(m1.values <= m2.values + 0.02 * np.max(np.abs(v.values)))
    # decreasing limit toward v as eps shrinks
    assert np.max(np.abs(m1.values - v.values)) <= np.max(np.abs(m2.values - v.values)) + tol


# ---------------------------------------------------------------- green

def test_green_columns_nonpositive_below_critical():
    # sign property across a grid of rho values below rho(D) = 1
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    for rho in (0.2, 0.5, 0.8, 0.95):
        g = green_lrho(mask, rho, [(0.35, 0.2)])
        col = g.columns[0]
        assert g.sign_ok and col.values.max() <= 1e-12
        assert np.all(col.values[~mask.inside] == 0.0)


def test_green_above_critical_raises_sign_error():
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    with pytest.raises(RhoAboveCritical):
        green_lrho(mask, 1.5, [(0.35, 0.2)])
    g = green_lrho(mask, 1.5, [(0.35, 0.2)], allow_sign_violation=True)
    assert not g.sign_ok


def test_green_rho_zero_is_symmetric_laplace_green():
    mask = build_domain(SPEC, 32, 32, Disc(0.35, 0.0, 0.3), classify=False)
    cells = [tuple(np.argwhere(mask.inside)[3]), tuple(np.argwhere(mask.inside)[40])]
    g = green_lrho(mask, 0.0, [tuple(map(int, c)) for c in cells])
    a, b = cells
    v_ab = g.columns[0].values[a[0], a[1]]
    assert g.columns[0].values[b[0], b[1]] == pytest.approx(
        g.columns[1].values[a[0], a[1]], rel=1e-9)


def test_green_matches_sector_shift_series_on_strip():
    alpha, beta = -np.pi / 2, np.pi / 2
    rho = 0.5
    errs = []
    for n in (96, 192):
        mask = build_domain(SPEC, n, n, Strip(alpha, beta))
        zeta = complex(0.35, 0.25)
        jz, iz = mask.grid.cell_of(zeta.real, zeta.imag)
        zeta = complex(mask.grid.x_centers()[iz], mask.grid.y_centers()[jz])
        g = green_lrho(mask, rho, [(zeta.real, zeta.imag)])
        X, Y = mask.grid.meshgrid()
        Z = X + 1j * Y
        # exclude a physical-distance ball around the source (the torus is
        # short in x, so cell-count boxes are misleadingly thin there)
        dx = np.minimum(np.abs(X - zeta.real), LOG2 - np.abs(X - zeta.real))
        dy = np.minimum(np.abs(Y - zeta.imag), 2 * np.pi - np.abs(Y - zeta.imag))
        far = mask.inside & (np.hypot(dx, dy) > 0.35)
        oracle = strip_green_series(Z[far], zeta, rho, alpha, beta, LOG2)
        errs.append(np.max(np.abs(g.columns[0].values[far] - oracle)))
    assert errs[0] < 2e-3  # O(h^2) away from the source at 96^2
    # the reference is exact to rounding, so the gap is discretization
    # error alone and falls by about 4 when h halves
    assert errs[1] <= 0.3 * errs[0]


# ---------------------------------------------------------------- dirichlet

def test_dirichlet_strip_constant_data_cosine_profile():
    alpha, beta = -np.pi / 2, np.pi / 2
    rho = 0.6
    errs = []
    for n in (48, 96):
        mask = build_domain(SPEC, n, n, Strip(alpha, beta))
        q = dirichlet_lrho(mask, rho, np.ones(mask.grid.shape))
        X, Y = mask.grid.meshgrid()
        expect = np.cos(rho * Y) / np.cos(rho * (beta - alpha) / 2)
        errs.append(np.max(np.abs(q.values - expect)[mask.inside]))
    assert errs[1] < 0.35 * errs[0]          # O(h^2)
    assert errs[1] < 5e-4


def test_dirichlet_zero_data_zero_solution_and_positivity():
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    q0 = dirichlet_lrho(mask, 0.7, np.zeros(mask.grid.shape))
    assert np.max(np.abs(q0.values)) < 1e-12
    rng = np.random.default_rng(5)
    data = np.abs(rng.standard_normal(mask.grid.shape))
    q = dirichlet_lrho(mask, 0.95, data)   # just below rho(D) = 1
    assert q.values[mask.inside].min() > -1e-9


def test_dirichlet_monotone_levels():
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    base = np.ones(mask.grid.shape)
    levels = [base + 2.0 ** (-k) for k in range(3)]
    q = dirichlet_lrho_monotone(mask, 0.5, levels)
    assert q.meta["levels"] == 3
    assert all(d > 0 for d in np.abs(q.meta["level_diffs"]))


def test_dirichlet_monotone_levels_share_one_factorization(monkeypatch):
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    X, Y = mask.grid.meshgrid()
    levels = [1.0 + 0.5 ** k * np.cos(Y) for k in range(3)]
    direct = [dirichlet_lrho(mask, 0.5, f).values for f in levels]
    diffs = [np.max(np.abs(b - a)) for a, b in zip(direct, direct[1:])]
    factored = []
    init = LinearSystem.__init__

    def counted(self, op):
        factored.append(op.ndof)
        init(self, op)

    monkeypatch.setattr(LinearSystem, "__init__", counted)
    q = dirichlet_lrho_monotone(mask, 0.5, levels)
    assert len(factored) == 1
    np.testing.assert_allclose(q.values, direct[-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(q.meta["level_diffs"], diffs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- riesz/sweep

def test_riesz_reconstruction_and_majorant():
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    v = bump_subfunction(GRID, rho)
    q, pi = riesz_decompose(v, mask, rho)
    recon = q.values + pi.values
    recon[~mask.inside] = v.values[~mask.inside] + pi.values[~mask.inside]
    err = np.max(np.abs(v.values - (q.values + pi.values))[mask.inside])
    assert err < 1e-9
    assert np.all(q.values[mask.inside] >= v.values[mask.inside] - 1e-9)
    assert np.all(pi.values[mask.inside] <= 1e-12)   # potential of nu >= 0


def test_riesz_of_harmonic_field_has_no_potential_part():
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    v0 = bump_subfunction(GRID, rho)
    w = sweep(v0, mask, rho)
    q, pi = riesz_decompose(w, mask, rho)
    assert np.max(np.abs(pi.values)) < 1e-9
    assert np.max(np.abs(q.values - w.values)[mask.inside]) < 1e-9


def outside_green_column(mask, rho, z):
    """The Green column of the cell of z under bc='outside', the rule of
    riesz_decompose."""
    op = assemble(mask, rho=rho, bc="outside")
    rhs = np.zeros(op.ndof)
    rhs[op.dof_index[mask.grid.cell_of(*z)]] = 1.0 / mask.grid.cell_area
    return GridField(mask.grid, op.embed(LinearSystem(op).solve(rhs)))


def test_riesz_of_green_column_is_pure_potential():
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    v = outside_green_column(mask, rho, (0.35, 0.3))
    q, pi = riesz_decompose(v, mask, rho)
    assert np.max(np.abs(q.values[mask.inside])) < 1e-9
    assert np.max(np.abs(pi.values - v.values)[mask.inside]) < 1e-9


@pytest.mark.parametrize("fails", ["factor", "solve"])
@pytest.mark.parametrize("call", ["green_lrho", "dirichlet_lrho", "riesz_decompose"])
def test_a_failed_lrho_system_raises_rho_in_spectrum(monkeypatch, call, fails):
    # a singular factorization or a failed solve means rho is (numerically)
    # a pencil eigenvalue of the mask
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    v = bump_subfunction(GRID, rho)
    run = {"green_lrho": lambda: green_lrho(mask, rho, [(0.35, 0.3)]),
           "dirichlet_lrho": lambda: dirichlet_lrho(mask, rho, v),
           "riesz_decompose": lambda: riesz_decompose(v, mask, rho)}[call]
    if fails == "factor":
        def splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(operators, "splu", splu)
    else:
        def solve(self, rhs, rel_tol=1e-10):
            raise SolverFailure("solution is not finite")
        monkeypatch.setattr(LinearSystem, "solve", solve)
    with pytest.raises(RhoInSpectrum, match=f"rho={rho}"):
        run()


def test_sweep_identity_idempotence_monotonicity_certificate():
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, Disc(0.35, 1.2, 0.3), classify=False)
    v1 = bump_subfunction(GRID, rho, 1.0)
    v2 = GridField(GRID, v1.values + 0.5)    # v2 >= v1, both certified
    s1 = sweep(v1, mask, rho)
    s2 = sweep(v2, mask, rho)
    assert np.all(s1.values >= v1.values - 1e-10)          # majorant
    assert np.all(s2.values >= s1.values - 1e-10)          # monotone in data
    again = sweep(s1, mask, rho)
    assert np.max(np.abs(again.values - s1.values)) < 1e-10  # idempotent
    assert is_subfunction(s1, rho).is_subfunction
    assert sweep(v1, None, rho).values is not v1.values
    assert np.array_equal(sweep(v1, None, rho).values, v1.values)


def test_sweep_on_strip_matches_tc_majorant_profile():
    # y-only data swept over a strip reduces to the 1-D majorant formula
    alpha, beta = -1.0, 1.0
    rho = 1.2                       # < pi/(beta-alpha) = 1.5708
    n = 96
    grid = Grid(SPEC, n, n)
    mask = build_domain(SPEC, n, n, Strip(alpha, beta))
    X, Y = grid.meshgrid()
    prof = 0.3 * np.cos(3.0 * Y)    # dips inside the strip
    v = GridField(grid, prof)
    s = sweep(v, mask, rho)
    # data attaches at outside cell centers: effective walls half a cell out
    a_eff, b_eff = alpha - grid.hy / 2, beta + grid.hy / 2
    ya = grid.y_centers()[grid.cell_of(0.0, a_eff)[0]]
    yb = grid.y_centers()[grid.cell_of(0.0, b_eff)[0]]
    expect = strip_majorant_profile(Y, 0.3 * np.cos(3.0 * ya),
                                    0.3 * np.cos(3.0 * yb), rho, ya, yb)
    err = np.max(np.abs(s.values - expect)[mask.inside])
    assert err < 3.0 * grid.hy ** 2 * 10   # O(h^2) with a modest constant


RIESZ_MASKS = {
    "strip": Strip(-np.pi / 2, np.pi / 2),
    "strip_minus_disc": Strip(-1.0, 1.0) - Disc(0.3, 0.0, 0.4),
    "tube": Tube(3, 0, 0.3),
}


@pytest.mark.parametrize("name", RIESZ_MASKS)
def test_sweep_is_the_riesz_majorant(name):
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, RIESZ_MASKS[name], classify=False)
    v = bump_subfunction(GRID, rho)
    np.testing.assert_array_equal(sweep(v, mask, rho).values,
                                  riesz_decompose(v, mask, rho)[0].values)


def test_riesz_and_sweep_assemble_over_the_mask(monkeypatch):
    # both take the mask's outside-rule operator, never the whole torus
    rho = 0.5
    mask = build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2))
    v = bump_subfunction(GRID, rho)
    domains = []
    real = subfunc.assemble

    def recorded(domain, *args, **kwargs):
        domains.append(domain)
        return real(domain, *args, **kwargs)

    monkeypatch.setattr(subfunc, "assemble", recorded)
    riesz_decompose(v, mask, rho)
    sweep(v, mask, rho)
    assert len(domains) == 2
    assert not any(isinstance(d, Grid) for d in domains)


# ---------------------------------------------------------------- 1-D theory

def test_tc_majorant_fixes_cosine_and_constant_cases():
    rho = 2.0
    n = 720
    th = -np.pi + (np.arange(n) + 0.5) * 2 * np.pi / n
    h = TrigIndicator(np.cos(rho * th), rho)
    # arc endpoints on sample nodes make the endpoint values exact, so
    # the majorant formula reproduces the cosine identically
    out = tc_majorant(h, float(th[310]), float(th[415]))
    assert np.max(np.abs(out.values - h.values)) < 1e-9   # equality case
    hc = TrigIndicator(np.ones(n), rho)
    alpha, beta = float(th[245]), float(th[383])   # node-aligned arc
    out = tc_majorant(hc, alpha, beta)
    mid, half = (alpha + beta) / 2, (beta - alpha) / 2
    on = (th > alpha) & (th < beta)
    expect = np.cos(rho * (th[on] - mid)) / np.cos(rho * half)
    assert np.max(np.abs(out.values[on] - expect)) < 1e-9
    assert out.is_tc()
    with pytest.raises(ArcTooWide):
        tc_majorant(hc, 0.0, np.pi / rho + 0.01)


def test_fundamental_relation_nonpositive_for_tc_outputs():
    rho = 2.0
    n = 1440
    th = -np.pi + (np.arange(n) + 0.5) * 2 * np.pi / n
    # max of cos(rho*theta) and a *positive* constant is trig convex
    # (negative constants are not: h'' + rho^2 h = rho^2 c < 0)
    h = TrigIndicator(np.maximum(np.cos(rho * th), 0.2), rho)
    out = tc_majorant(h, -0.3, 0.6)
    assert out.is_tc()
    res = fundamental_relation_residual(out, n_triples=1000, seed=1)
    assert res <= 1e-8


def test_convexity_margin_detects_violation():
    rho = 1.5
    n = 360
    th = -np.pi + (np.arange(n) + 0.5) * 2 * np.pi / n
    good = TrigIndicator(np.cos(rho * th) * 0 + 1.0, rho)
    assert good.is_tc()
    bad = TrigIndicator(-np.abs(np.sin(th)) * 3.0, rho)
    assert not bad.is_tc()
