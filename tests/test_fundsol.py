"""Fundamental-solution tests.

The Fourier and Weierstrass evaluations are independent routes to the
same kernel; their agreement off the singular offset is the main check.
Further oracles: the raw coefficient at (0,0), parity in y, the exact
x-average reduction to the one-dimensional cosine kernel, and the
discrete residual identities of the generalized and grid-exact kernels.
"""

import numpy as np
import pytest

from logtorus import fundsol
from logtorus.errors import ConfigError, MassSymmetryViolated, NearIntegerRho
from logtorus.fundsol import (
    GridMeasure, discrete_kernel, fourier_coefficient, fundsol_fourier,
    fundsol_generalized, fundsol_weierstrass, mass_symmetry_integrals,
    potential, representation_check, _regular_part_at_origin, _weier_term,
)
from logtorus.operators import assemble
from logtorus.torus import Grid, GridField, TorusSpec

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)
GRID = Grid(SPEC, 48, 48)


def offset_distance(grid):
    xs = np.arange(grid.nx) * grid.hx
    ys = np.arange(grid.ny) * grid.hy
    dx = np.minimum(xs, grid.spec.P - xs)
    dy = np.minimum(ys, 2 * np.pi - ys)
    return np.hypot(dx[None, :], dy[:, None])


def cell_box(grid, half=4):
    box = np.zeros(grid.shape, dtype=bool)
    for j in range(-half, half + 1):
        for i in range(-half, half + 1):
            box[j % grid.ny, i % grid.nx] = True
    return box


def test_a00_is_inverse_rho_squared():
    for rho in (0.5, 1.5, 2.5, 3.3):
        assert fourier_coefficient(rho, LOG2, 0, 0) == pytest.approx(1.0 / rho ** 2)
    # symbol factorization (rho + i*kap)^2 - l^2 at a sample mode
    a = fourier_coefficient(1.5, LOG2, 2, 3)
    w = 1.5 + 1j * 2 * np.pi * 2 / LOG2
    assert a == pytest.approx(1.0 / (w * w - 9.0))


@pytest.mark.parametrize("rho", [0.5, 1.5, 2.5])
def test_fourier_weierstrass_agree_off_singularity(rho):
    F = fundsol_fourier(rho, GRID, tol=1e-10)
    W = fundsol_weierstrass(rho, GRID, tol=1e-10)
    off = ~cell_box(GRID, 4)
    assert np.max(np.abs(F.values - W.values)[off]) < 1e-6
    assert F.meta["singular_cell"] == (0, 0)


@pytest.mark.parametrize("shape", [(48, 80), (81, 40)])
def test_non_square_grids(shape):
    # rows are y and columns x on every grid; a transposed synthesis
    # cannot pass on these shapes
    nx, ny = shape
    grid = Grid(TorusSpec(0.9), nx, ny)
    off = ~cell_box(grid, 4)
    for rho in (0.5, 1.5):
        F = fundsol_fourier(rho, grid, tol=1e-10)
        W = fundsol_weierstrass(rho, grid, tol=1e-10)
        assert F.values.shape == (ny, nx)
        assert np.max(np.abs(F.values - W.values)[off]) < 1e-9
    ys = (np.arange(ny) * grid.hy)[:, None] * np.ones((1, nx))
    far = offset_distance(grid) > 1.2
    for p in (0, 1, 2):
        E = fundsol_generalized(p, grid, tol=1e-12)
        op = assemble(grid, "l_rho", rho=float(p))
        res = (op.matrix @ E.values.ravel()).reshape(grid.shape)
        if p == 0:
            expect = -np.ones(grid.shape) / (2 * np.pi * 0.9)
        else:
            expect = -np.cos(p * ys) / (np.pi * 0.9)
        assert np.max(np.abs(res - expect)[far]) < 0.02


def test_kernel_even_in_y():
    F = fundsol_fourier(1.5, GRID, tol=1e-10)
    assert np.allclose(F.values[1:, :], F.values[:0:-1, :], atol=1e-10)


def test_negative_rho_reflects():
    F = fundsol_fourier(-1.5, GRID, tol=1e-10)
    G = fundsol_fourier(1.5, GRID, tol=1e-10)
    # E_{-rho}(x, y) = E_rho(-x, -y) on the offset lattice
    flipped = np.roll(G.values[::-1, ::-1], (1, 1), axis=(0, 1))
    flipped[0, 0] = G.values[0, 0]
    assert np.allclose(F.values, flipped, atol=1e-12)


def test_near_integer_rho_rejected():
    with pytest.raises(NearIntegerRho):
        fundsol_fourier(2.0004, GRID)
    with pytest.raises(NearIntegerRho):
        fundsol_weierstrass(0.99999, GRID)


def test_weierstrass_rejects_a_tolerance_it_cannot_reach():
    # every far-tail series stops at its first term below tol/10
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ConfigError):
            fundsol_weierstrass(1.5, GRID, tol=tol)


@pytest.mark.parametrize("kernel", [lambda tol: fundsol_fourier(1.5, GRID, tol=tol),
                                    lambda tol: fundsol_generalized(1, GRID, tol=tol)],
                         ids=["fourier", "generalized"])
@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_synthesis_rejects_a_nonpositive_tolerance(kernel, tol):
    # the l-sum's length is log(1/tol)/hx: 0 overflows, -1 is NaN
    with pytest.raises(ConfigError, match="tol must be positive"):
        kernel(tol)


def test_single_weierstrass_factor_value():
    # H(u, 0) at u = -1 is log 2
    assert float(_weier_term(0.0, np.pi, 0, 0.0)) == pytest.approx(np.log(2.0))


@pytest.mark.parametrize("p", [1, 2])
def test_genus_factor_bound_on_half_circle(p):
    # |H(u,p)| <= C |u|^{p+1} for |u| = 1/2; the constant is modest
    th = np.linspace(0, 2 * np.pi, 721)
    X = np.full_like(th, np.log(0.5))
    vals = np.abs(_weier_term(X, th, p, 0.0))
    assert np.max(vals) <= 4.0 * 0.5 ** (p + 1)


def _tail_series_60(X, Y, p, rho):
    """The 60-term direct series -sum_{m>p} e^{(m-rho)X} cos(mY)/m."""
    acc = np.zeros(np.broadcast(X, Y).shape)
    for m in range(p + 1, p + 61):
        acc -= np.exp((m - rho) * X) * np.cos(m * Y) / m
    return acc


def test_horner_tail_matches_direct_series():
    Y = np.random.default_rng(5).uniform(0.0, 2 * np.pi, 400)
    xs = (-0.5 - 1e-9, -0.7, -2.0, -10.0, -300.0)
    X, YY = np.repeat(xs, Y.size), np.tile(Y, len(xs))
    for p in range(5):
        for rho in (0.0, p + 0.3, p + 0.7):
            # one call per X, so each gets its own number of Horner
            # terms, and one call over all of them
            per_x = np.concatenate(
                [_weier_term(np.full(Y.shape, x), Y, p, rho) for x in xs])
            for out in (per_x, _weier_term(X, YY, p, rho)):
                ref = _tail_series_60(X, YY, p, rho)
                assert np.all(np.abs(out - ref) <= 1e-15 + 1e-14 * np.abs(ref))


def _shift_sum_at_origin(rho, P, K=200_000):
    """H_p + sum_{k=1..K} of the shift terms at (+-kP, 0), p = floor(rho):
    right terms in closed form per shift, left terms summed over m."""
    p = int(np.floor(rho))
    x = np.arange(1.0, K + 1.0) * P
    right = np.exp(-rho * x) * (x + np.log1p(-np.exp(-x)))
    for m in range(1, p + 1):
        right += np.exp((m - rho) * x) / m
    total = sum(1.0 / m for m in range(1, p + 1)) + np.sum(right)
    m = p + 1
    while True:
        left = np.sum(np.exp(-(m - rho) * x)) / m
        total -= left
        if left < 1e-18:
            return total
        m += 1


@pytest.mark.parametrize("rho", [0.05, 1.01, 1.05, 2.95, 0.325, 5.5])
def test_regular_part_matches_converged_shift_sum(rho):
    # a truncated shift loop misses this near integer rho (by 8.99 at 1.01)
    for P in (LOG2, 0.9):
        ref = _shift_sum_at_origin(rho, P)
        got = _regular_part_at_origin(rho, P, int(np.floor(rho)))
        assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_regular_part_gauged_at_integer_rho(p):
    # the regular part minus the resonant k = 0 modes is even and smooth
    # in rho - p; Richardson on the two-sided mean leaves O(eps^4)
    def gauged(eps):
        vals = []
        for rho in (p + eps, p - eps):
            resonant = (1.0 / (LOG2 * rho * rho) if p == 0
                        else 2.0 / (LOG2 * (rho * rho - p * p)))
            vals.append(_shift_sum_at_origin(abs(rho), LOG2) - resonant)
        return 0.5 * (vals[0] + vals[1])
    ref = (4.0 * gauged(0.01) - gauged(0.02)) / 3.0
    got = _regular_part_at_origin(float(p), LOG2, p)
    assert abs(got - ref) < 2e-6


# shifts_used of the 64x64, P = log 2 kernel: K = max(1, ceil(0.5/P))
# near shifts per side are evaluated term by term, the rest in closed form
WEIERSTRASS_SHIFTS_64 = {0.325: 1, 1.675: 1, 3.325: 1, -1.5: 1}


def test_weierstrass_call_contract(monkeypatch):
    # one array term for the base lattice point and two per near shift;
    # the far tails, the placeholder and the Fourier route evaluate no
    # term at all
    calls = []
    inner = fundsol._weier_term

    def counting(X, *args):
        calls.append(isinstance(X, np.ndarray))
        return inner(X, *args)

    monkeypatch.setattr(fundsol, "_weier_term", counting)
    grid = Grid(SPEC, 64, 64)
    for rho, shifts in WEIERSTRASS_SHIFTS_64.items():
        calls.clear()
        W = fundsol_weierstrass(rho, grid)
        assert W.meta["shifts_used"] == shifts
        assert calls == [True] * (1 + 2 * shifts)
    for rho in (0.325, -1.5):
        calls.clear()
        fundsol_fourier(rho, grid)
        assert calls == []
    for p in (0, 1, 2):
        calls.clear()
        fundsol_generalized(p, grid)
        assert calls == []


def test_weierstrass_shares_no_code_with_the_fourier_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Weierstrass route called a Fourier helper")

    for name in ("_synthesis", "_periodized_exp", "_periodized_exp_mid",
                 "_r0_col"):
        monkeypatch.setattr(fundsol, name, forbidden)
    for rho in (0.325, 2.01, -1.5):
        W = fundsol_weierstrass(rho, GRID)
        assert np.isfinite(W.values).all()


def _weierstrass_loop(rho, grid, tol, max_shifts=20_000):
    """The term-by-term shift loop: two full-grid terms per shift until
    both fall below tol/10."""
    if rho < 0:
        inner = GridField(grid, _weierstrass_loop(-rho, grid, tol, max_shifts))
        return fundsol._reflect(inner, rho).values
    P = grid.spec.P
    p = int(np.floor(rho))
    X, Y = np.meshgrid(np.arange(grid.nx) * grid.hx, np.arange(grid.ny) * grid.hy)
    vals = _weier_term(X, Y, p, rho)
    for k in range(1, max_shifts + 1):
        tr = _weier_term(X + k * P, Y, p, rho)
        tl = _weier_term(X - k * P, Y, p, rho)
        vals += tr + tl
        if max(np.max(np.abs(tr)), np.max(np.abs(tl))) < tol / 10.0:
            break
    else:
        raise AssertionError("reference shift loop did not converge")
    vals /= 2 * np.pi
    vals[0, 0] = fundsol._placeholder(rho, P, p, float(np.sqrt(grid.hx * grid.hy)))
    return vals


@pytest.mark.parametrize("rho", [0.325, 1.675, 3.325, -1.5])
def test_closed_form_tails_match_the_shift_loop(rho):
    W = fundsol_weierstrass(rho, GRID, tol=1e-12)
    ref = _weierstrass_loop(rho, GRID, tol=1e-12)
    assert np.max(np.abs(W.values - ref)) <= 1e-11


@pytest.mark.parametrize("rho", [2.01, 3.0015, 0.0012])
def test_weierstrass_near_integer_rho_matches_fourier(rho):
    # the far tails converge like e^{-dist(rho, Z) k P}; summed in closed
    # form they cost no more near an integer than away from one
    W = fundsol_weierstrass(rho, GRID)
    F = fundsol_fourier(rho, GRID)
    off = ~cell_box(GRID, 4)
    scale = np.max(np.abs(F.values))
    assert np.max(np.abs(F.values - W.values)[off]) <= 1e-9 * scale


def test_short_period_uses_more_near_shifts():
    # K = ceil(0.5/P) = 3 near shifts per side at P = 0.2
    grid = Grid(TorusSpec(0.2), 32, 48)
    off = ~cell_box(grid, 4)
    for rho in (0.55, 1.675):
        W = fundsol_weierstrass(rho, grid)
        F = fundsol_fourier(rho, grid)
        assert W.meta["shifts_used"] == 3
        scale = np.max(np.abs(F.values))
        assert np.max(np.abs(F.values - W.values)[off]) <= 1e-9 * scale


def test_discrete_residual_of_continuum_kernel_decays_like_h2():
    errs = []
    for n in (48, 96):
        grid = Grid(SPEC, n, n)
        E = fundsol_fourier(1.5, grid, tol=1e-12)
        op = assemble(grid, "l_rho", rho=1.5)
        res = np.abs((op.matrix @ E.values.ravel()).reshape(grid.shape))
        far = offset_distance(grid) > 1.2
        errs.append(res[far].max())
    assert errs[1] < 0.5 * errs[0]


def test_x_average_reduces_to_cosine_kernel():
    # averaging over x keeps only k=0 modes:
    # (1/(2 P rho sin(pi rho))) * cos(rho(pi - |y|))
    rho = 1.5
    F = fundsol_fourier(rho, GRID, tol=1e-12)
    avg = F.values[:, 1:].mean(axis=1) * 0  # placeholder replaced below
    # trapezoid average including the singular column's finite samples,
    # excluding the placeholder cell row 0 entry
    vals = F.values.copy()
    avg = vals.mean(axis=1)
    ys = np.arange(GRID.ny) * GRID.hy
    expect = np.cos(rho * (np.pi - np.abs(np.pi - np.abs(ys - np.pi)) - 0))
    # careful: offsets ys in [0, 2pi); |y| on the torus is min(y, 2pi-y)
    ay = np.minimum(ys, 2 * np.pi - ys)
    expect = np.cos(rho * (np.pi - ay)) / (2 * LOG2 * rho * np.sin(np.pi * rho))
    # the placeholder at (0,0) perturbs the row-0 average; skip that row
    assert np.max(np.abs(avg[1:] - expect[1:])) < 5e-3
    assert np.median(np.abs(avg[1:] - expect[1:])) < 1e-3


@pytest.mark.parametrize("p", [0, 1, 2])
def test_generalized_kernel_residual_identity(p):
    grid = GRID
    E = fundsol_generalized(p, grid, tol=1e-12)
    op = assemble(grid, "l_rho", rho=float(p))
    res = (op.matrix @ E.values.ravel()).reshape(grid.shape)
    ys = (np.arange(grid.ny) * grid.hy)[:, None] * np.ones((1, grid.nx))
    if p == 0:
        expect = -np.ones(grid.shape) / (2 * np.pi * LOG2)
    else:
        expect = -np.cos(p * ys) / (np.pi * LOG2)
    far = offset_distance(grid) > 1.2
    assert np.max(np.abs(res - expect)[far]) < 0.02


def test_generalized_matches_near_integer_limit():
    p, eps = 1, 0.01
    Eg = fundsol_generalized(p, GRID, tol=1e-12)
    Ea = fundsol_fourier(p + eps, GRID, tol=1e-12)
    yy = (np.arange(GRID.ny) * GRID.hy)[:, None] * np.ones((1, GRID.nx))
    resonant = 2 * np.cos(p * yy) / (((p + eps) ** 2 - p ** 2) * 2 * np.pi * LOG2)
    d = np.abs(Ea.values - resonant - Eg.values)
    d[0, 0] = 0.0
    assert d.max() < 10 * eps


def test_discrete_kernel_inverts_assembled_operator():
    for rho, gen in ((1.7, False), (1.0, True), (0.0, True)):
        K = discrete_kernel(rho, GRID, generalized=gen)
        op = assemble(GRID, "l_rho", rho=rho)
        res = (op.matrix @ K.values.ravel()).reshape(GRID.shape)
        delta = np.zeros(GRID.shape)
        delta[0, 0] = 1.0 / GRID.cell_area
        if gen:
            p = int(round(rho))
            ys = (np.arange(GRID.ny) * GRID.hy)[:, None] * np.ones((1, GRID.nx))
            if p == 0:
                delta -= 1.0 / SPEC.area
            else:
                # discrete resonant projection of the unit Dirac
                delta -= 2.0 * np.cos(p * ys) / SPEC.area
        assert np.max(np.abs(res - delta)) < 1e-9


def test_discrete_generalized_kernel_resonant_modes_zero():
    K = discrete_kernel(1.0, GRID, generalized=True)
    F = np.fft.fft2(K.values)
    assert abs(F[1, 0]) < 1e-9 and abs(F[-1, 0]) < 1e-9


def test_potential_delta_translates_kernel():
    E = fundsol_fourier(1.5, GRID, tol=1e-10)
    mu = GridMeasure.delta(GRID, 7, 11, mass=1.0)
    Pi = potential(mu, E)
    assert np.allclose(Pi.values, np.roll(E.values, (7, 11), axis=(0, 1)),
                       atol=1e-12)


def test_potential_linear_and_uniform_mass_gives_a00():
    rho = 1.5
    E = fundsol_fourier(rho, GRID, tol=1e-10)
    rng = np.random.default_rng(3)
    m1 = GridMeasure(GRID, rng.standard_normal(GRID.shape))
    m2 = GridMeasure(GRID, rng.standard_normal(GRID.shape))
    lin = potential(GridMeasure(GRID, m1.masses + m2.masses), E).values
    assert np.allclose(lin, potential(m1, E).values + potential(m2, E).values,
                       atol=1e-10)
    uniform = GridMeasure(GRID, np.full(GRID.shape, GRID.cell_area))
    Pi = potential(uniform, E)
    assert np.max(np.abs(Pi.values - 1.0 / rho ** 2)) < 5e-3


def test_representation_noninteger_self_consistency():
    rho = 1.5
    X, Y = GRID.meshgrid()
    bump = np.exp(np.cos(Y) + 0.5 * np.cos(2 * np.pi * X / LOG2))
    nu = GridMeasure(GRID, bump * GRID.cell_area)
    v = potential(nu, discrete_kernel(rho, GRID))
    rep = representation_check(v, rho, tol=1e-6)
    assert rep.passed and rep.max_deviation < 1e-9


def test_representation_continuum_kernel_recovers_measure_to_h2():
    # L_h applied to the continuum-kernel potential of a smooth measure
    # returns the density to O(h^2)
    rho = 1.5
    errs = []
    for n in (48, 96):
        grid = Grid(SPEC, n, n)
        X, Y = grid.meshgrid()
        dens = np.exp(np.cos(Y)) * (1.5 + np.sin(2 * np.pi * X / LOG2))
        nu = GridMeasure(grid, dens * grid.cell_area)
        v = potential(nu, fundsol_fourier(rho, grid, tol=1e-12))
        op = assemble(grid, "l_rho", rho=rho)
        rec = (op.matrix @ v.values.ravel()).reshape(grid.shape)
        errs.append(np.max(np.abs(rec - dens)) / np.max(np.abs(dens)))
    assert errs[1] < 0.5 * errs[0] + 1e-12


def test_representation_integer_pure_wave_recovers_C():
    p = 1
    X, Y = GRID.meshgrid()
    C = 0.375 - 1.25j
    v = GridField(GRID, np.real(C * np.exp(1j * p * Y)))
    rep = representation_check(v, float(p), tol=1e-6)
    assert rep.passed
    assert abs(rep.fitted_C - C) < 1e-8
    assert max(abs(m) for m in rep.mass_integrals) <= rep.mass_tolerance


def test_representation_integer_with_symmetric_measure():
    p = 2
    ny = GRID.ny
    masses = np.zeros(GRID.shape)
    # two bumps half a resonance period apart cancel e^{ipy} mass exactly
    masses[5, 3] = 1.0
    masses[5 + ny // (2 * p), 3] = 1.0
    nu = GridMeasure(GRID, masses)
    mp, mm = mass_symmetry_integrals(nu, p)
    assert abs(mp) < 1e-12 and abs(mm) < 1e-12
    X, Y = GRID.meshgrid()
    v0 = potential(nu, discrete_kernel(float(p), GRID, generalized=True))
    v = GridField(GRID, v0.values + np.real(0.7 * np.exp(1j * p * Y)))
    rep = representation_check(v, float(p), measure=nu, tol=1e-6)
    assert rep.passed and rep.max_deviation < 1e-9
    assert abs(rep.fitted_C - 0.7) < 1e-8


def test_representation_at_rho_zero_fits_the_constant_and_checks_the_mass():
    # at rho = 0 the resonant wave is a constant and the resonant mass is
    # the total mass
    masses = np.zeros(GRID.shape)
    masses[5, 3], masses[30, 20] = 0.8, -0.8
    nu = GridMeasure(GRID, masses)
    E = discrete_kernel(0.0, GRID, generalized=True)
    v = GridField(GRID, potential(nu, E).values + 0.37)
    rep = representation_check(v, 0.0, measure=nu, tol=1e-6)
    assert rep.passed and rep.max_deviation < 1e-9
    assert abs(rep.fitted_C - 0.37) < 1e-10
    assert max(abs(m) for m in rep.mass_integrals) <= rep.mass_tolerance
    one = GridMeasure.delta(GRID, 5, 3, mass=0.8)
    with pytest.raises(MassSymmetryViolated):
        representation_check(GridField(GRID, potential(one, E).values), 0.0,
                             measure=one)


def test_representation_asymmetric_measure_violates():
    p = 1
    nu = GridMeasure.delta(GRID, 9, 4, mass=1.0)
    X, Y = GRID.meshgrid()
    v = GridField(GRID, np.zeros(GRID.shape))
    with pytest.raises(MassSymmetryViolated):
        representation_check(v, float(p), measure=nu)
