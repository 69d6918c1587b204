"""Acceptance suite: every top-level claim of the package, runnable as a
batch (CLI command `verify`) or through pytest.

Each criterion is a standalone function returning a CriterionResult with
its pinned tolerance; the runner prints one PASS/FAIL line per
criterion.  Grid sizes are fixed here so the suite is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fundsol import (GridMeasure, discrete_kernel, fourier_coefficient,
                      fundsol_fourier, fundsol_weierstrass,
                      mass_symmetry_integrals, potential, representation_check)
from .martin import consistency_table, rho_estimates
from .oracles import strip_eigenvalue_lattice, strip_green_series
from .pencil import check_spectrum_symmetries, matsaev_probe, rho_min, spectrum
from .subfunc import (TrigIndicator, fundamental_relation_residual, green_lrho,
                      is_subfunction, riesz_decompose, sweep, tc_majorant)
from .subminorant import (existence_test, integral_condition,
                          maximal_subminorant, minimality_test)
from .torus import (Band, Disc, Grid, GridField, Strip, TorusSpec,
                    build_domain, mask_from_inside)

__all__ = ["CriterionResult", "CRITERIA", "run", "run_all"]

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime: float
    details: str


def _result(cid, name, checks, t0, notes=""):
    passed = all(ok for ok, _ in checks)
    lines = "; ".join(msg for ok, msg in checks if msg)
    if notes:
        lines = f"{lines}; {notes}" if lines else notes
    return CriterionResult(cid, name, passed, time.monotonic() - t0, lines)


def _num(x, spec: str = ".4f") -> str:
    """x formatted by spec, or 'None' for a missing value."""
    return "None" if x is None else format(x, spec)


def criterion_01_strip_critical_value() -> CriterionResult:
    """rho of the quarter-pi strip: 2.000 within 2% at 128^2 and within
    0.5% at 512^2, each under 60 s."""
    t0 = time.monotonic()
    checks = []
    for n, rtol in ((128, 0.02), (512, 0.005)):
        t1 = time.monotonic()
        mask = build_domain(SPEC, n, n, Strip(-np.pi / 4, np.pi / 4))
        r = rho_min(mask)
        dt = time.monotonic() - t1
        err = abs(r - 2.0) / 2.0 if r else np.inf
        checks.append((r is not None and err <= rtol and dt < 60.0,
                       f"{n}^2: rho={_num(r, '.6f')} err={err:.2e} ({dt:.1f}s)"))
    return _result(1, "strip critical value", checks, t0)


def criterion_02_strip_spectrum_lattice() -> CriterionResult:
    """Eigenvalues match the lattice n*pi/(beta-alpha) - 2*pi*m*i/P for
    |n| <= 2, |m| <= 1, within 3%."""
    t0 = time.monotonic()
    mask = build_domain(SPEC, 128, 128, Strip(-np.pi / 4, np.pi / 4))
    box = (-4.5, 4.5, -10.0, 10.0)
    res = spectrum(mask, box)
    lattice = strip_eigenvalue_lattice(np.pi / 2, LOG2, 2, 1)
    lattice = np.concatenate([lattice, -lattice])
    lattice = lattice[(np.abs(lattice.real) <= 4.5) & (np.abs(lattice.imag) <= 10)]
    checks = []
    worst = 0.0
    for target in lattice:
        if len(res.eigenvalues) == 0:
            checks.append((False, "no certified eigenvalues"))
            break
        err = float(np.min(np.abs(res.eigenvalues - target)) / abs(target))
        worst = max(worst, err)
        if err > 0.03:
            checks.append((False, f"lattice point {target:.3f} missed ({err:.3f})"))
    checks.append((True, f"{len(lattice)} lattice points matched, worst "
                         f"rel err {worst:.2e}, {len(res)} certified"))
    return _result(2, "strip spectrum lattice", checks, t0)


def criterion_03_non_spiral_exclusion() -> CriterionResult:
    """Vertical band: no certified eigenvalue with Re in [0.1, 10], and
    the classifier reports not-connected-on-spirals."""
    t0 = time.monotonic()
    P = LOG2
    mask = build_domain(SPEC, 96, 96, Band(P / 4, 3 * P / 4))
    sc = mask.spiral_of(0)
    res = spectrum(mask, (0.1, 10.0, -np.pi / P, np.pi / P))
    checks = [
        (not sc.connected and sc.conclusive,
         f"classifier: {sc.kind} (conclusive={sc.conclusive})"),
        (len(res) == 0, f"{len(res)} certified eigenvalues in the box"),
        (rho_min(mask) is None, "rho_min is None"),
    ]
    return _result(3, "non-spiral exclusion", checks, t0)


def criterion_04_strict_monotonicity() -> CriterionResult:
    """Nested strips give rho 2 > 1 strictly, and the strict ordering
    survives one-cell perturbations of either mask."""
    t0 = time.monotonic()
    n = 96
    inner = build_domain(SPEC, n, n, Strip(-np.pi / 4, np.pi / 4))
    outer = build_domain(SPEC, n, n, Strip(-np.pi / 2, np.pi / 2))
    r1, r2 = rho_min(inner), rho_min(outer)
    checks = [(None not in (r1, r2) and abs(r1 - 2) < 0.04
               and abs(r2 - 1) < 0.02 and r1 > r2,
               f"rho(inner)={_num(r1)} > rho(outer)={_num(r2)}")]
    rng = np.random.default_rng(0)
    diff_cells = np.argwhere(outer.inside & ~inner.inside)
    for k in range(2):
        cell = diff_cells[rng.integers(len(diff_cells))]
        bumped = outer.inside.copy()
        bumped[cell[0], cell[1]] = False
        outer2 = mask_from_inside(outer.grid, bumped, classify=False)
        r2b = rho_min(outer2)
        inner_cells = np.argwhere(inner.inside)
        cell2 = inner_cells[rng.integers(len(inner_cells))]
        shrunk = inner.inside.copy()
        shrunk[cell2[0], cell2[1]] = False
        inner2 = mask_from_inside(inner.grid, shrunk, classify=False)
        r1b = rho_min(inner2)
        checks.append((None not in (r1, r2, r1b, r2b) and r1b > r2b
                       and r1b >= r1 - 1e-9 and r2b >= r2 - 1e-9,
                       f"perturbation {k}: {_num(r1b)} > {_num(r2b)}"))
    return _result(4, "strict monotonicity", checks, t0)


def criterion_05_fundsol_cross_check() -> CriterionResult:
    """Fourier vs Weierstrass kernels agree to 1e-6 off a 4-cell
    neighborhood of the singular offset, for rho in {0.5, 1.5, 2.5};
    the raw coefficient a00 equals 1/rho^2."""
    t0 = time.monotonic()
    grid = Grid(SPEC, 96, 96)
    box = np.zeros(grid.shape, dtype=bool)
    for j in range(-4, 5):
        for i in range(-4, 5):
            box[j % grid.ny, i % grid.nx] = True
    checks = []
    for rho in (0.5, 1.5, 2.5):
        F = fundsol_fourier(rho, grid, tol=1e-10)
        W = fundsol_weierstrass(rho, grid, tol=1e-10)
        diff = float(np.max(np.abs(F.values - W.values)[~box]))
        a00 = fourier_coefficient(rho, LOG2, 0, 0)
        a_ok = abs(a00 - 1.0 / rho ** 2) <= 1e-14 / rho ** 2
        checks.append((diff <= 1e-6 and a_ok,
                       f"rho={rho}: |F-W|={diff:.2e}, a00-1/rho^2 ok"))
    return _result(5, "fundamental-solution cross-check", checks, t0)


def criterion_06_five_estimator_consistency() -> CriterionResult:
    """Pencil, growth, measure-decay, modulus, extremal-distance agree
    pairwise within 5% on sector lifts, total runtime under 5 min."""
    t0 = time.monotonic()
    checks = []
    for rho_hat in (1.0, 2.0, 3.0):
        mask = build_domain(SPEC, 256, 256,
                            Strip(-np.pi / (2 * rho_hat), np.pi / (2 * rho_hat)))
        ests = rho_estimates(mask, 0, z0=(0.3, 0.0), n_martin=6,
                             extremal_ns=(2, 3, 4))
        tab = consistency_table(ests)
        ok = tab["max_rel_disagreement"] <= 0.05 and len(ests) == 5
        vals = ", ".join(f"{e.method}={e.value:.4f}" for e in ests)
        checks.append((ok, f"rho_hat={rho_hat}: {vals} "
                           f"(max pairwise {tab['max_rel_disagreement']:.2%})"))
    dt = time.monotonic() - t0
    checks.append((dt < 300.0, f"runtime {dt:.0f}s < 300s"))
    return _result(6, "five-estimator consistency", checks, t0)


def criterion_07_green_sign_and_series() -> CriterionResult:
    """Green columns nonpositive and boundary-vanishing at rho = rho(D)/2
    on strip and disc; the sector shift-series matches the direct solve
    to 1e-4 on the strip (outside a 0.35-radius ball at the source)."""
    t0 = time.monotonic()
    checks = []
    alpha, beta = -np.pi / 2, np.pi / 2
    n = 512
    mask = build_domain(SPEC, n, n, Strip(alpha, beta))
    rho = 0.5              # rho(D) = 1
    jz, iz = mask.grid.cell_of(0.35, 0.25)
    zeta = complex(mask.grid.x_centers()[iz], mask.grid.y_centers()[jz])
    g = green_lrho(mask, rho, [(zeta.real, zeta.imag)])
    col = g.columns[0]
    checks.append((g.sign_ok and float(col.values.max()) <= 1e-10,
                   f"strip column max = {col.values.max():.2e} <= 0"))
    checks.append((float(np.max(np.abs(col.values[~mask.inside]))) == 0.0,
                   "boundary cells vanish"))
    X, Y = mask.grid.meshgrid()
    dx = np.minimum(np.abs(X - zeta.real), LOG2 - np.abs(X - zeta.real))
    dy = np.minimum(np.abs(Y - zeta.imag), 2 * np.pi - np.abs(Y - zeta.imag))
    far = mask.inside & (np.hypot(dx, dy) > 0.35)
    oracle = strip_green_series((X + 1j * Y)[far], zeta, rho, alpha, beta, LOG2)
    err = float(np.max(np.abs(col.values[far] - oracle)))
    checks.append((err <= 1e-4, f"series match {err:.2e} <= 1e-4 at {n}^2"))
    disc = build_domain(SPEC, 96, 96, Disc(0.35, 0.5, 0.25), classify=False)
    rdisc = rho_min(disc)    # None: disc is not connected on spirals
    gd = green_lrho(disc, 1.0, [(0.35, 0.5)], allow_sign_violation=True)
    checks.append((gd.sign_ok, f"disc column max = {gd.max_value:.2e} <= 0"))
    return _result(7, "green sign, boundary, series", checks, t0,
                   notes=f"disc rho_min={rdisc}")


def criterion_08_riesz_sweep_relation() -> CriterionResult:
    """Riesz reconstruction at 10x solver residual; sweeping idempotent;
    the three-point trigonometric relation residual <= 1e-8 on 10^3
    sampled triples of majorant outputs."""
    t0 = time.monotonic()
    checks = []
    grid = Grid(SPEC, 96, 96)
    rho = 0.5
    mask = build_domain(SPEC, 96, 96, Strip(-np.pi / 2, np.pi / 2))
    X, Y = grid.meshgrid()
    dens = (1.0 + np.cos(Y)) * (1.5 + np.sin(2 * np.pi * X / LOG2))
    v = potential(GridMeasure(grid, dens * grid.cell_area),
                  discrete_kernel(rho, grid))
    q, pi = riesz_decompose(v, mask, rho)
    scale = float(np.max(np.abs(v.values)))
    err = float(np.max(np.abs(v.values - (q.values + pi.values))[mask.inside]))
    checks.append((err <= 10 * 1e-10 * scale,   # 10x the solve's rel_tol
                   f"riesz reconstruction {err:.2e} <= 10x solver residual"))
    disc = build_domain(SPEC, 96, 96, Disc(0.35, 1.0, 0.3), classify=False)
    s1 = sweep(v, disc, rho)
    s2 = sweep(s1, disc, rho)
    ierr = float(np.max(np.abs(s2.values - s1.values)))
    checks.append((ierr <= 1e-9 * scale, f"sweep idempotence {ierr:.2e}"))
    nth = 1440
    th = -np.pi + (np.arange(nth) + 0.5) * 2 * np.pi / nth
    h = TrigIndicator(np.maximum(np.cos(2.0 * th), 0.1), 2.0)
    out = tc_majorant(h, -0.4, 0.55)
    res = fundamental_relation_residual(out, n_triples=1000, seed=0)
    checks.append((res <= 1e-8, f"three-point relation residual {res:.2e}"))
    return _result(8, "riesz + sweeping + relation", checks, t0)


def criterion_09_integer_representation() -> CriterionResult:
    """For rho = p in {1, 2}: resonant-mass integrals vanish to the
    quadrature tolerance for certified fields, and the gauge-fixed
    representation reconstructs test fields to 1e-6 after fitting C."""
    t0 = time.monotonic()
    grid = Grid(SPEC, 96, 96)
    checks = []
    for p in (1, 2):
        ny = grid.ny
        masses = np.zeros(grid.shape)
        masses[5, 3] = 0.8
        masses[5 + ny // (2 * p), 3] = 0.8   # exact resonant cancellation
        nu = GridMeasure(grid, masses)
        mp, mm = mass_symmetry_integrals(nu, p)
        X, Y = grid.meshgrid()
        base = potential(nu, discrete_kernel(float(p), grid, generalized=True))
        C = 0.6 - 0.3j
        v = GridField(grid, base.values + np.real(C * np.exp(1j * p * Y)))
        rep = representation_check(v, float(p), measure=nu, tol=1e-6)
        ok = (rep.passed and abs(rep.fitted_C - C) < 1e-6
              and max(abs(m) for m in rep.mass_integrals) <= rep.mass_tolerance
              and max(abs(mp), abs(mm)) < 1e-12)
        checks.append((ok, f"p={p}: deviation {rep.max_deviation:.2e}, "
                           f"C recovered, masses "
                           f"{max(abs(m) for m in rep.mass_integrals):.2e} "
                           f"<= {rep.mass_tolerance:.2e}"))
    return _result(9, "integer-rho representation", checks, t0)


def criterion_10_subminorant_suite() -> CriterionResult:
    """Constant and zero obstacles reproduce themselves; a positive bump
    over a rho(D)=2 strip at rho=3 yields a certified nonzero minorant
    with complementarity residual <= 1e-8; a band-supported obstacle
    yields zero with existence verdict 'excluded'; m = -1 is refuted by
    the slice integrals."""
    t0 = time.monotonic()
    grid = Grid(SPEC, 96, 96)
    checks = []
    mc = GridField(grid, np.full(grid.shape, 1.5))
    rc = maximal_subminorant(mc, rho=2.0)
    checks.append((rc.status == "nonzero"
                   and np.allclose(rc.minorant.values, 1.5, atol=1e-9)
                   and rc.complementarity_residual <= 1e-8,
                   f"m=c: v=c (resid {rc.complementarity_residual:.1e})"))
    m0 = GridField(grid, np.zeros(grid.shape))
    r0 = maximal_subminorant(m0, rho=2.0)
    checks.append((r0.status == "identically_zero"
                   and r0.complementarity_residual <= 1e-8, "m=0: v=0"))
    X, Y = grid.meshgrid()
    prof = np.where(np.abs(Y) < np.pi / 4, np.cos(2 * Y) ** 2, 0.0)
    mb = GridField(grid, prof * (1.0 + 0.2 * np.cos(2 * np.pi * X / LOG2)))
    rb = maximal_subminorant(mb, rho=3.0)
    cert = is_subfunction(rb.minorant, 3.0)
    checks.append((rb.status == "nonzero"
                   and rb.complementarity_residual <= 1e-8
                   and cert.verdict != "not"
                   and float(rb.minorant.values.max()) > 0.01,
                   f"strip bump rho=3: status={rb.status}, resid "
                   f"{rb.complementarity_residual:.1e}, cert={cert.verdict}"))
    band = np.where((X > LOG2 / 4) & (X < 3 * LOG2 / 4),
                    np.sin(np.pi * (X - LOG2 / 4) / (LOG2 / 2)) ** 2, 0.0)
    mband = GridField(grid, band)
    rb2 = maximal_subminorant(mband, rho=2.0)
    ex = existence_test(mband, 2.0)
    checks.append((rb2.status == "identically_zero" and ex.verdict == "excluded",
                   f"band obstacle: {rb2.status}, existence {ex.verdict}"))
    mneg = GridField(grid, -np.ones(grid.shape))
    rep = integral_condition(mneg)
    checks.append((rep.refuted and abs(rep.min_integral + 2 * np.pi) < 1e-9,
                   f"m=-1 refuted by slice integrals ({rep.min_integral:.4f})"))
    return _result(10, "subminorant suite", checks, t0)


def criterion_11_minimality() -> CriterionResult:
    """v = 0 is minimal at rho = 3 via a witness component with
    rho(M) = 2 < 3; v = 1 is nonminimal."""
    t0 = time.monotonic()
    grid = Grid(SPEC, 96, 96)
    zero = GridField(grid, np.zeros(grid.shape))
    rep = minimality_test(zero, rho=3.0,
                          witnesses=[Strip(-np.pi / 4, np.pi / 4)])
    wrho = rep.details.get("witness", {}).get("rho")
    checks = [(rep.verdict == "minimal" and wrho is not None
               and abs(wrho - 2.0) < 0.04,
               f"v=0: {rep.verdict} via witness rho(M)={_num(wrho)} < 3")]
    one = GridField(grid, np.ones(grid.shape))
    rep2 = minimality_test(one, rho=2.0)
    checks.append((rep2.verdict == "nonminimal", f"v=1: {rep2.verdict}"))
    return _result(11, "minimality criteria", checks, t0)


def criterion_12_symmetry_probe() -> CriterionResult:
    """Spectrum symmetries hold to solver tolerance; the most negative
    real point equals -rho(D) within 2%; the reflection probe emits data
    without asserting the open set equality."""
    t0 = time.monotonic()
    mask = build_domain(SPEC, 96, 96, Strip(-np.pi / 4, np.pi / 4))
    res = spectrum(mask, (0.5, 4.5, -10.0, 10.0))
    rep = check_spectrum_symmetries(res)
    checks = [(rep.passed, "conjugation/shift/reflection/translation hold")]
    probe = matsaev_probe(mask, box=(-4.5, 4.5, -10.0, 10.0))
    checks.append((probe.details["neg_identity_within_2pct"] is True,
                   f"max negative = -rho(D) within 2% "
                   f"(rho={_num(probe.details['rho_min'])})"))
    bump = build_domain(
        SPEC, 96, 96,
        Strip(-np.pi / 4, np.pi / 4) | Disc(0.25, 1.0, 0.22))
    probe2 = matsaev_probe(bump, box=(-4.5, 4.5, -10.0, 10.0))
    checks.append((np.isfinite(probe2.details["hausdorff"]),
                   f"asymmetric probe: hausdorff={probe2.details['hausdorff']:.2e} "
                   f"(reported, not asserted)"))
    return _result(12, "symmetries and reflection probe", checks, t0)


CRITERIA: Sequence = (
    criterion_01_strip_critical_value,
    criterion_02_strip_spectrum_lattice,
    criterion_03_non_spiral_exclusion,
    criterion_04_strict_monotonicity,
    criterion_05_fundsol_cross_check,
    criterion_06_five_estimator_consistency,
    criterion_07_green_sign_and_series,
    criterion_08_riesz_sweep_relation,
    criterion_09_integer_representation,
    criterion_10_subminorant_suite,
    criterion_11_minimality,
    criterion_12_symmetry_probe,
)


def run(selected: Optional[Sequence[int]] = None,
        emit: Callable[[str], None] = print) -> list:
    """Run (a subset of) the acceptance criteria, one PASS/FAIL line each."""
    results = []
    for fn in CRITERIA:
        cid = int(fn.__name__.split("_")[1])
        if selected and cid not in selected:
            continue
        r = fn()
        results.append(r)
        emit(f"C{r.cid:02d} {'PASS' if r.passed else 'FAIL'} "
             f"({r.runtime:6.1f}s) {r.name}: {r.details}")
    return results


def run_all(emit: Callable[[str], None] = print) -> bool:
    results = run(emit=emit)
    ok = all(r.passed for r in results)
    emit(f"{'ALL CRITERIA PASS' if ok else 'FAILURES PRESENT'} "
         f"({sum(r.passed for r in results)}/{len(results)})")
    return ok
