"""Subminorant solver, lambda characteristic, existence and minimality."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from logtorus import operators, subminorant
from logtorus.errors import IterationLimit
from logtorus.fundsol import GridMeasure, discrete_kernel, potential
from logtorus.operators import assemble
from logtorus.subfunc import green_lrho, is_subfunction
from logtorus.subminorant import (
    existence_test, integral_condition, lambda_value, maximal_subminorant,
    minimality_test,
)
from logtorus.torus import (
    Band, Grid, GridField, ShapeUnion, Strip, TorusSpec, build_domain,
)

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)
GRID = Grid(SPEC, 64, 64)


def strip_bump(grid, half=np.pi / 4, amp=1.0):
    """Smooth nonnegative obstacle supported inside |y| < half."""
    X, Y = grid.meshgrid()
    prof = np.cos(np.pi * Y / (2 * half)) ** 2
    bump = amp * np.where(np.abs(Y) < half, prof, 0.0)
    return GridField(grid, bump * (1.0 + 0.2 * np.cos(2 * np.pi * X / LOG2)))


# ---------------------------------------------------------------- solver

def test_constant_obstacle_is_its_own_minorant():
    m = GridField(GRID, np.full(GRID.shape, 2.5))
    res = maximal_subminorant(m, rho=1.3)
    assert res.status == "nonzero"
    assert np.allclose(res.minorant.values, 2.5, atol=1e-10)
    assert res.contact.all()
    assert res.complementarity_residual <= 1e-8


def test_zero_obstacle_gives_zero():
    m = GridField(GRID, np.zeros(GRID.shape))
    res = maximal_subminorant(m, rho=2.0)
    assert res.status == "identically_zero"
    assert np.max(np.abs(res.minorant.values)) < 1e-12
    assert res.complementarity_residual <= 1e-8


def test_strip_bump_above_critical_has_nonzero_minorant():
    # rho(strip |y|<pi/4) = 2 < rho = 3: a nonzero subminorant exists
    m = strip_bump(GRID, half=np.pi / 4, amp=1.0)
    res = maximal_subminorant(m, rho=3.0)
    assert res.status == "nonzero"
    assert res.complementarity_residual <= 1e-8
    v = res.minorant
    cert = is_subfunction(v, 3.0)
    assert cert.verdict in ("subfunction", "borderline")
    assert cert.min_mass >= -10 * cert.threshold
    assert np.all(v.values <= m.values + 1e-9)
    assert np.max(v.values) > 0.05      # genuinely nonzero
    assert res.contact.any() and not res.contact.all()


def test_band_supported_obstacle_gives_zero():
    # positivity set not connected on spirals: only v = 0 fits below
    X, Y = GRID.meshgrid()
    bump = np.where((X > LOG2 / 4) & (X < 3 * LOG2 / 4),
                    np.sin(np.pi * (X - LOG2 / 4) / (LOG2 / 2)) ** 2, 0.0)
    m = GridField(GRID, bump)
    res = maximal_subminorant(m, rho=2.0)
    assert res.status == "identically_zero"
    assert res.complementarity_residual <= 1e-8
    rep = existence_test(m, 2.0)
    assert rep.verdict == "excluded"


def test_obstacle_monotonicity():
    m1 = strip_bump(GRID, amp=0.7)
    m2 = GridField(GRID, m1.values + 0.3)
    r1 = maximal_subminorant(m1, rho=3.0)
    r2 = maximal_subminorant(m2, rho=3.0)
    assert np.all(r1.minorant.values <= r2.minorant.values + 1e-8)


def test_maximality_against_witness_subfunctions():
    rho = 3.0
    m = strip_bump(GRID, half=np.pi / 4, amp=1.0)
    res = maximal_subminorant(m, rho=rho)
    # witness: scaled eigenfunction of a narrower strip, extended by zero;
    # grid-aligned half-width so the rasterized rho is the exact width law
    half = 6 * GRID.hy          # rho = pi/(12*hy) ~ 2.67 < 3
    inner = build_domain(SPEC, 64, 64, Strip(-half, half))
    from logtorus.pencil import rho_min
    r = rho_min(inner, full_result=True)
    assert r.value < rho
    q = np.maximum(r.eigenfunction.values, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 1e-6, m.values / q, np.inf)
    c = 0.9 * float(np.min(ratio))
    w = c * q
    assert np.all(w <= m.values + 1e-12)
    assert np.all(w <= res.minorant.values + 1e-6)


def test_continuity_of_minorant_tracks_obstacle():
    # discrete modulus of continuity of v bounded by that of m plus O(h)
    for n in (48, 96):
        grid = Grid(SPEC, n, n)
        m = strip_bump(grid, half=np.pi / 3, amp=1.0)
        res = maximal_subminorant(m, rho=4.0)
        v = res.minorant.values
        dmax_v = max(np.abs(np.diff(v, axis=0)).max(),
                     np.abs(np.diff(v, axis=1)).max())
        dmax_m = max(np.abs(np.diff(m.values, axis=0)).max(),
                     np.abs(np.diff(m.values, axis=1)).max())
        assert dmax_v <= dmax_m + 5.0 * max(grid.hx, grid.hy)


# ---------------------------------------------------------------- lambda

def test_lambda_of_strips_and_band():
    strip = build_domain(SPEC, 64, 64, Strip(-np.pi / 4, np.pi / 4))
    lam = lambda_value(strip)
    assert lam.value == pytest.approx(0.5, rel=0.02)
    assert lam.inner <= lam.value <= lam.outer
    band = build_domain(SPEC, 64, 64, Band(LOG2 / 4, 3 * LOG2 / 4))
    assert lambda_value(band, bounds=False).value == 0.0


def test_lambda_union_takes_max_over_components():
    hy = 2 * np.pi / 64
    # two strips: |y| < pi/4 (rho=2) and a thin one (rho = pi/width)
    thin_lo, thin_hi = np.pi / 3, np.pi / 3 + 8 * hy
    shape = ShapeUnion(Strip(-np.pi / 4, np.pi / 4), Strip(thin_lo, thin_hi))
    mask = build_domain(SPEC, 64, 64, shape)
    assert mask.n_components == 2
    lam = lambda_value(mask, bounds=False)
    lams = sorted(p["lambda"] for p in lam.per_component)
    assert lam.value == pytest.approx(0.5, rel=0.02)
    assert lams[0] == pytest.approx((thin_hi - thin_lo) / np.pi, rel=0.05)


# ---------------------------------------------------------------- existence

def test_existence_guaranteed_excluded_borderline():
    m = strip_bump(GRID, half=np.pi / 4, amp=1.0)
    assert existence_test(m, 3.0).verdict == "guaranteed"   # rho(D)=2 < 3
    assert existence_test(m, 2.0).verdict == "borderline"   # rho(D)=2 = rho
    assert existence_test(m, 1.0).verdict == "excluded"     # outer lambda < 1
    mneg = GridField(GRID, -np.ones(GRID.shape))
    assert existence_test(mneg, 2.0).verdict == "excluded"
    mpos = GridField(GRID, np.ones(GRID.shape))
    assert existence_test(mpos, 0.5).verdict == "guaranteed"


def test_existence_inconclusive_for_sign_changing():
    X, Y = GRID.meshgrid()
    m = GridField(GRID, np.where(np.abs(Y) < np.pi / 4, 1.0, -0.2))
    rep = existence_test(m, 3.0)
    assert rep.verdict == "inconclusive"
    assert not rep.nonnegative


# ---------------------------------------------------------------- integrals

def test_slice_integrals():
    ones = GridField(GRID, np.ones(GRID.shape))
    rep = integral_condition(ones)
    assert np.allclose(rep.integrals, 2 * np.pi) and not rep.refuted
    X, Y = GRID.meshgrid()
    cosy = GridField(GRID, np.cos(Y))
    rep = integral_condition(cosy)
    assert np.max(np.abs(rep.integrals)) < 1e-12 and not rep.refuted
    neg = GridField(GRID, -np.ones(GRID.shape))
    rep = integral_condition(neg)
    assert rep.refuted and np.allclose(rep.integrals, -2 * np.pi)


# ---------------------------------------------------------------- minimality

def test_zero_field_is_minimal_via_strip_witness():
    v = GridField(GRID, np.zeros(GRID.shape))
    rep = minimality_test(v, rho=3.0)
    assert rep.verdict == "minimal"
    assert rep.details["witness"]["rho"] < 3.0


def test_positive_constant_is_nonminimal():
    v = GridField(GRID, np.ones(GRID.shape))
    rep = minimality_test(v, rho=2.0)
    assert rep.verdict == "nonminimal"


def test_positive_residual_everywhere_is_nonminimal():
    # potential of a strictly positive density has L_rho v = dens > 0;
    # the deep log well of a point mass keeps min(v) < 0, so only the
    # residual clause can fire
    rho = 1.3
    masses = np.full(GRID.shape, 0.3 * GRID.cell_area)
    masses[11, 7] += 5.0
    nu = GridMeasure(GRID, masses)
    v = potential(nu, discrete_kernel(rho, GRID))
    assert v.values.min() < 0
    rep = minimality_test(v, rho)
    assert rep.verdict == "nonminimal"
    assert "L_rho" in rep.details["reason"]


def test_green_like_field_is_undetermined_or_minimal_with_evidence():
    # a subfunction with localized mass: harmonicity set is most of the
    # torus minus the source; verdict must carry usable evidence
    rho = 3.0
    mask = build_domain(SPEC, 64, 64, Strip(-np.pi / 2, np.pi / 2))
    g = green_lrho(mask, 0.5, [(0.35, 0.0)], bc="outside")
    v = GridField(GRID, g.columns[0].values)   # <= 0, masses on boundary+source
    rep = minimality_test(v, rho)
    assert rep.verdict in ("minimal", "undetermined")
    if rep.verdict == "minimal":
        assert rep.details["witness"]["rho"] < rho


# ---------------------------------------------------------------- reference

def cold_reference(m, rho, tol=1e-9, max_iter=200):
    """Cold active-set iteration from all-active, one spsolve per step,
    with the solver's tolerances: (minorant, status, contact)."""
    grid = m.grid
    A = assemble(grid, "l_rho", rho=rho).matrix.tocsr()
    mv = np.asarray(m.values, dtype=float).ravel()
    scale = 1.0 + np.max(np.abs(mv))
    opscale = 4.0 / grid.hx ** 2 + 4.0 / grid.hy ** 2 + rho * rho
    lam_tol, feas_tol = tol * opscale * scale, tol * scale
    active = np.ones(mv.size, dtype=bool)
    for _ in range(max_iter):
        v = mv.copy()
        free = ~active
        if free.any():
            rows = A[free]
            v[free] = spsolve(rows[:, free].tocsc(), -(rows[:, active] @ mv[active]))
        if np.max(np.abs(v)) > 1e6 * scale:
            status = "diverged"
            break
        lam = A @ v
        drop = active & (lam < -lam_tol)
        add = free & (v > mv)
        if not drop.any() and not add.any():
            status = ("identically_zero" if np.max(np.abs(v)) <= 10 * feas_tol * scale
                      else "nonzero")
            break
        active = (active & ~drop) | add
    else:
        raise AssertionError("reference active-set iteration did not converge")
    contact = np.abs(v - mv) <= feas_tol
    return v.reshape(grid.shape), status, contact.reshape(grid.shape)


def band_bump(grid):
    X, _ = grid.meshgrid()
    return GridField(grid, np.where((X > LOG2 / 4) & (X < 3 * LOG2 / 4),
                                    np.sin(np.pi * (X - LOG2 / 4) / (LOG2 / 2)) ** 2,
                                    0.0))


def random_obstacle(grid, seed):
    """Positive part of a few random low Fourier modes plus an offset:
    Lipschitz, with flat zero regions where contact is degenerate."""
    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    f = np.full(grid.shape, rng.uniform(0.0, 0.6))
    for _ in range(4):
        kx, ky = rng.integers(0, 3), rng.integers(1, 3)
        f += rng.normal() * np.cos(2 * np.pi * kx * X / LOG2 + ky * Y
                                   + rng.uniform(0, 2 * np.pi))
    return GridField(grid, np.maximum(f, 0.0))


REFERENCE_CASES = ([("strip", 3.0), ("band", 2.0), ("constant", 1.3)]
                   + [(f"random{s}", 3.0 + 0.4 * s) for s in range(6)])


@pytest.mark.parametrize("n", [96, 128])
@pytest.mark.parametrize("case,rho", REFERENCE_CASES)
def test_matches_independent_cold_reference(case, rho, n):
    grid = Grid(SPEC, n, n)
    if case == "strip":
        m = strip_bump(grid)
    elif case == "band":
        m = band_bump(grid)
    elif case == "constant":
        m = GridField(grid, np.full(grid.shape, 2.5))
    else:
        m = random_obstacle(grid, int(case[len("random"):]))
    v, status, contact = cold_reference(m, rho)
    res = maximal_subminorant(m, rho)
    assert res.status == status
    assert np.max(np.abs(res.minorant.values - v)) <= 1e-10
    assert np.array_equal(res.contact, contact)


# ---------------------------------------------------------------- work record

@pytest.mark.parametrize("n", [96, 192])
def test_factorizations_are_iterations_minus_one(n, monkeypatch):
    factors, entries = [], []
    init = operators.LinearSystem.__init__

    def counted_init(self, op):
        factors.append(op.ndof)
        init(self, op)

    entry = subminorant.maximal_subminorant

    def counted_entry(*args, **kwargs):
        entries.append(1)
        return entry(*args, **kwargs)

    monkeypatch.setattr(operators.LinearSystem, "__init__", counted_init)
    monkeypatch.setattr(subminorant, "maximal_subminorant", counted_entry)
    res = subminorant.maximal_subminorant(strip_bump(Grid(SPEC, n, n)), rho=3.0)
    assert res.status == "nonzero" and res.meta["pgs_rescues"] == 0
    assert len(factors) == res.iterations - 1
    assert len(entries) == 1


def test_levels_and_stop_are_recorded():
    max_iter = 120
    res = maximal_subminorant(strip_bump(Grid(SPEC, 128, 128)), rho=3.0,
                              max_iter=max_iter)
    levels = res.meta["levels"]
    assert res.meta["stop"] == "converged"
    # 128 -> 64 -> 32: the half of 32 would have fewer than 32 cells
    assert [lv["grid"] for lv in levels] == [(32, 32), (64, 64), (128, 128)]
    assert [lv["start"] for lv in levels] == ["cold", "warm", "warm"]
    assert all(lv["stop"] == "converged" for lv in levels)
    assert all(1 <= lv["steps"] <= max_iter for lv in levels)
    assert sum(lv["steps"] for lv in levels) == res.iterations
    assert sum(lv["factorizations"] for lv in levels) == res.iterations - 1
    # the warm start leaves a mesh-independent number of fine steps
    assert levels[-1]["steps"] <= 15

    # L_h m >= 0 everywhere: m itself after one step, no recursion
    res = maximal_subminorant(GridField(GRID, np.full(GRID.shape, 2.5)), rho=1.3)
    assert res.iterations == 1 and res.meta["stop"] == "converged"
    assert res.meta["levels"] == [{"grid": (64, 64), "start": "cold", "steps": 1,
                                   "factorizations": 0, "stop": "converged"}]


def test_sign_changing_obstacle_raises_iteration_limit(monkeypatch):
    X, Y = GRID.meshgrid()
    m = GridField(GRID, np.where(np.abs(Y) < np.pi / 4,
                                 np.cos(2 * Y) ** 2, 0.0) - 0.1)
    factors = []
    init = operators.LinearSystem.__init__

    def counted_init(self, op):
        factors.append(op.ndof)
        init(self, op)

    monkeypatch.setattr(operators.LinearSystem, "__init__", counted_init)
    # both levels stop at the first step that repeats a contact set
    with pytest.raises(IterationLimit, match=r"step \d+ repeats an earlier contact set"):
        maximal_subminorant(m, rho=3.0)
    assert len(factors) <= 8
