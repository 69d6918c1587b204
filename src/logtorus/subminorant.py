"""Maximal subminorants of an obstacle, the lambda set-characteristic,
and existence / minimality criteria.

The maximal L_rho-subminorant of an obstacle m solves the discrete
complementarity problem

    v <= m,    L_h v >= 0,    L_h v = 0 wherever v < m,

posed on the whole torus.  The solver is a primal-dual active-set
iteration (Hintermueller-Ito-Kunisch), i.e. Howard's policy iteration
for the obstacle problem: given a contact set, solve L_h v = 0 on its
complement with v = m on the contact cells, then move cells whose
multiplier L_h v is below -lam_tol out of contact and cells with v > m
into it.  L_h is assembled once per grid; each step restricts it to the
free cells by slicing and factors that block once.

The iteration is nested.  Before the fine grid it solves on the half
grid, for the 2x2 cell average of m, recursively while nx and ny are
even and the half grid keeps at least 32 cells per side, and starts from
the half grid's contact set repeated 2x2, minus the cells where
L_h m < -lam_tol.  The coarsest grid starts cold: its first step is the
all-active one (v = m), the only step without a factorization.  A
half grid that diverges, cycles or fails leaves the fine grid the cold
start.  The result's `iterations` counts the steps of every level.  Each
level is capped at MAX_STEPS steps and remembers the contact sets it has
visited: the first step that repeats one stops the level as 'cycling'.
Unbounded iterates are reported as 'diverged' rather than masked (they
signal an obstacle with no subminorant at this rho, cross-checked by the
existence test).

lambda(D) = 1/rho(D) per component, zero for components that are not
connected on spirals; outer/inner values come from one-cell dilation
and erosion of the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyInterior, IterationLimit, SolverFailure
from .operators import LinearSystem, assemble
from .pencil import erode_periodic, rho_min
from .torus import (DomainMask, Grid, GridField, Strip, build_domain,
                    mask_from_inside)

__all__ = [
    "SubminorantResult", "maximal_subminorant", "LambdaValue", "lambda_value",
    "existence_test", "integral_condition", "minimality_test",
]


@dataclass
class SubminorantResult:
    obstacle: GridField
    rho: float
    minorant: GridField
    contact: np.ndarray
    complementarity_residual: float
    status: str                    # 'nonzero' | 'identically_zero' | 'diverged'
    iterations: int
    meta: dict = field(default_factory=dict)


# the half grid of a warm start keeps at least this many cells per side
_MIN_COARSE = 32
# active-set steps per grid level
MAX_STEPS = 120
# relative band of lambda*rho around 1 that existence_test calls borderline
EXISTENCE_MARGIN = 0.02
# relative tolerance of the complementarity conditions, per obstacle scale
OBSTACLE_TOL = 1e-9
# relative tolerance of integral_condition's slice integrals
SLICE_TOL = 1e-9
# certificate tolerance of minimality_test
MINIMALITY_TOL = 1e-6


def _tolerances(grid: Grid, mv: np.ndarray, rho: float) -> tuple:
    """(operator scale, multiplier tolerance, feasibility tolerance)."""
    scale = 1.0 + np.max(np.abs(mv))
    opscale = 4.0 / grid.hx ** 2 + 4.0 / grid.hy ** 2 + rho * rho
    return opscale, OBSTACLE_TOL * opscale * scale, OBSTACLE_TOL * scale


def _active_set(grid: Grid, mv: np.ndarray, rho: float, levels: list) -> tuple:
    """Active-set iteration for the obstacle mv on one grid level.

    Warm-starts from the contact set of the half grid's solve while the
    half grid keeps _MIN_COARSE cells per side; the coarsest level
    starts cold from the all-active step.  Appends one record per level
    to levels, coarsest first, and returns (v, active, stop, L_h) with
    stop 'converged', 'diverged', 'max_iter', 'cycling' or
    'solve_failed'; the last three carry a 'reason' in the record.  A
    step whose new contact set is one the level has already visited
    stops it as 'cycling'.
    """
    op_full = assemble(grid, "l_rho", rho=rho)
    A = op_full.matrix
    _, lam_tol, _ = _tolerances(grid, mv, rho)
    bound = 1e6 * (1.0 + np.max(np.abs(mv)))
    # the all-active step: v = m, drop the cells with negative multiplier
    cold = (A @ mv.ravel()).reshape(grid.shape) >= -lam_tol
    nx, ny = grid.nx, grid.ny
    rec = {"grid": (nx, ny), "start": "cold", "steps": 0, "factorizations": 0}
    if cold.all():
        rec.update(steps=1, stop="converged")
        levels.append(rec)
        return mv.copy(), cold, "converged", A
    if nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) // 2 >= _MIN_COARSE:
        half = Grid(grid.spec, nx // 2, ny // 2)
        mc = mv.reshape(ny // 2, 2, nx // 2, 2).mean(axis=(1, 3))
        _, coarse, cstop, _ = _active_set(half, mc, rho, levels)
        if cstop == "converged":
            active = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1) & cold
            rec["start"] = "warm"
        else:
            active = cold
            rec["start"] = f"cold_after_{cstop}"
    else:
        rec["steps"] = 1
        active = cold

    seen = {active.tobytes()}
    v = mv.copy()
    while rec["steps"] < MAX_STEPS:
        rec["steps"] += 1
        if active.all():
            v = mv.copy()
        else:
            try:
                op = op_full.restrict(active)
                rec["factorizations"] += 1
                u = LinearSystem(op).solve(op.boundary_rhs(mv), rel_tol=1e-8)
            except (SolverFailure, EmptyInterior) as exc:
                stop = "solve_failed"
                rec["reason"] = (f"active-set solve failed at iteration "
                                 f"{rec['steps']}: {exc}")
                break
            v = op.embed(u)
            v[active] = mv[active]
        if np.max(np.abs(v)) > bound:
            stop = "diverged"
            break
        lam = (A @ v.ravel()).reshape(grid.shape)
        drop = active & (lam < -lam_tol)
        add = ~active & (v > mv)
        if not drop.any() and not add.any():
            stop = "converged"
            break
        new_active = (active & ~drop) | add
        key = new_active.tobytes()
        if key in seen:
            stop = "cycling"
            rec["reason"] = (f"active-set step {rec['steps']} repeats an "
                             f"earlier contact set")
            break
        seen.add(key)
        active = new_active
    else:
        stop = "max_iter"
        rec["reason"] = f"no convergence in {MAX_STEPS} active-set steps"
    rec["stop"] = stop
    levels.append(rec)
    return v, active, stop, A


def maximal_subminorant(m: GridField, rho: float) -> SubminorantResult:
    """Maximal subminorant of the obstacle m on the whole torus.

    Returns status 'identically_zero' when the zero field is maximal,
    'diverged' when iterates blow up (no subminorant exists for this
    rho on some component of the positivity set).

    The iteration is nested (see the module docstring): the half grids
    of m are solved first, coarsest first, and each hands its contact
    set to the next finer grid as the starting set.  `iterations` counts
    the steps of all levels.  Only the coarsest level's all-active step
    needs no factorization, so a call factors `iterations - 1` times;
    when L_h m >= -lam_tol everywhere, m is returned after 1 step,
    without a half grid or a factorization.  A free cell joins the
    contact set at any excess v > m, so a converged minorant never
    exceeds m, from a cold or a warm start.  Each level is capped at
    MAX_STEPS steps and stops at the first step that repeats one of its
    contact sets; when the finest grid cycles, passes the cap or fails a
    solve, IterationLimit is raised with the level's reason (a half grid
    that fails only costs the fine grid its warm start).  The
    complementarity conditions hold to OBSTACLE_TOL per obstacle scale.

    meta: 'stop' ('converged' or 'diverged'); 'levels', one record per
    grid, coarsest first, with 'grid' (nx, ny), 'start' ('cold', 'warm'
    or 'cold_after_<stop of the half grid>'), 'steps', 'factorizations'
    and 'stop'; 'lam_tol'; 'pgs_rescues', always 0.
    """
    if rho <= 0:
        raise ConfigError("maximal_subminorant needs rho > 0")
    grid = m.grid
    mv = np.asarray(m.values, dtype=float)
    levels: list = []
    v, _, stop, A = _active_set(grid, mv, rho, levels)
    if stop not in ("converged", "diverged"):
        raise IterationLimit(levels[-1]["reason"])
    it = sum(rec["steps"] for rec in levels)

    opscale, lam_tol, feas_tol = _tolerances(grid, mv, rho)
    lam = (A @ v.ravel()).reshape(grid.shape)
    contact = np.abs(v - mv) <= feas_tol
    comp = np.minimum(mv - v, lam / opscale)
    residual = float(max(np.max(np.maximum(v - mv, 0.0)),
                         np.max(np.maximum(-comp, 0.0))))
    if stop == "diverged":
        status = "diverged"
    else:
        scale = 1.0 + np.max(np.abs(mv))
        status = "identically_zero" if np.max(np.abs(v)) <= 10 * feas_tol * scale \
            else "nonzero"
    out = GridField(grid, v, {"kind": "maximal_subminorant", "rho": rho})
    # pgs_rescues is always 0; it stays because the benchmark's tracer
    # reads it from every result
    meta = {"pgs_rescues": 0, "lam_tol": lam_tol, "levels": levels, "stop": stop}
    return SubminorantResult(m, rho, out, contact, residual, status, it, meta)


# ----------------------------------------------------------------------
# lambda and the existence / minimality criteria
# ----------------------------------------------------------------------

@dataclass
class LambdaValue:
    value: float
    inner: Optional[float]
    outer: Optional[float]
    per_component: list
    meta: dict = field(default_factory=dict)


def _dilate(inside):
    """One-cell periodic dilation."""
    return (inside | np.roll(inside, 1, 0) | np.roll(inside, -1, 0)
            | np.roll(inside, 1, 1) | np.roll(inside, -1, 1))


def _lambda_of_mask(mask: DomainMask) -> tuple:
    """(max over components of 1/rho, per-component list)."""
    per = [{"component": c, "lambda": 1.0 / r if r else 0.0, "rho": r,
            "spiral": mask.spiral_of(c).kind}
           for c, r in enumerate(rho_min(mask, full_result=True).per_component)]
    value = max((p["lambda"] for p in per), default=0.0)
    return value, per


def lambda_value(set_or_mask, grid: Optional[Grid] = None,
                 bounds: bool = True) -> LambdaValue:
    """lambda of a rasterized set: per-component 1/rho, maximized over
    components; components not connected on spirals contribute 0.

    With bounds=True the outer value uses a one-cell dilation (open
    cover surrogate) and the inner value a one-cell erosion (compact
    subset surrogate); always inner <= value <= outer up to the grid.
    A set whose dilation fills the torus gets outer = inf.
    """
    if isinstance(set_or_mask, DomainMask):
        mask = set_or_mask
        inside = mask.inside
        grid = mask.grid
    else:
        inside = np.asarray(set_or_mask, dtype=bool)
        if grid is None:
            raise ConfigError("boolean sets need an explicit grid")
        if not inside.any():
            return LambdaValue(0.0, 0.0, 0.0, [], {"empty": True})
        if inside.all():
            return LambdaValue(np.inf, np.inf, np.inf, [], {"full": True})
        mask = mask_from_inside(grid, inside)
    value, per = _lambda_of_mask(mask)
    inner = outer = None
    if bounds:
        ero = erode_periodic(inside)
        inner = 0.0
        if ero.any():
            inner = _lambda_of_mask(mask_from_inside(grid, ero))[0]
        dil = _dilate(inside)
        outer = np.inf if dil.all() else \
            _lambda_of_mask(mask_from_inside(grid, dil))[0]
    return LambdaValue(value, inner, outer, per, {})


@dataclass
class ExistenceReport:
    verdict: str          # 'guaranteed' | 'excluded' | 'borderline' | 'inconclusive'
    rho: float
    lam: Optional[LambdaValue]
    nonnegative: bool
    details: dict = field(default_factory=dict)


def existence_test(m: GridField, rho: float) -> ExistenceReport:
    """Classify existence of a nonzero subminorant for the obstacle m.

    guaranteed: m >= 0 everywhere and the positivity set has a component
    with rho(D) < rho (strict, beyond EXISTENCE_MARGIN).  excluded: even the
    one-cell dilation of the positivity set has lambda < 1/rho.
    borderline: lambda * rho sits inside the margin band (the critical
    case, sensitive to the boundary behavior of m).  Everything else is
    inconclusive (e.g. sign-changing obstacles, where only the necessary
    conditions apply)."""
    grid = m.grid
    pos = m.values > 0.0
    nonneg = bool(np.min(m.values) >= -1e-14 * (1.0 + np.max(np.abs(m.values))))
    if not pos.any():
        return ExistenceReport("excluded", rho, None, nonneg,
                               {"reason": "positivity set empty"})
    if pos.all():
        return ExistenceReport("guaranteed", rho, None, nonneg,
                               {"reason": "m strictly positive; constants work"})
    lam = lambda_value(pos, grid=grid, bounds=True)
    t = lam.value * rho
    t_outer = (lam.outer if lam.outer is not None else lam.value) * rho
    if t_outer < 1.0 - EXISTENCE_MARGIN:
        verdict = "excluded"
    elif nonneg and t > 1.0 + EXISTENCE_MARGIN:
        verdict = "guaranteed"
    elif abs(t - 1.0) <= EXISTENCE_MARGIN:
        verdict = "borderline"
    else:
        verdict = "inconclusive"
    return ExistenceReport(verdict, rho, lam, nonneg,
                           {"lambda_times_rho": t, "outer_times_rho": t_outer})


@dataclass
class SliceIntegralReport:
    integrals: np.ndarray
    min_integral: float
    refuted: bool


def integral_condition(m: GridField) -> SliceIntegralReport:
    """Necessary condition per x-slice: the y-integral of the obstacle
    must be nonnegative on every slice (to SLICE_TOL per obstacle
    scale), else no subminorant exists."""
    grid = m.grid
    integrals = m.values.sum(axis=0) * grid.hy
    mn = float(integrals.min())
    scale = 1.0 + float(np.max(np.abs(m.values)))
    return SliceIntegralReport(integrals, mn, bool(mn < -SLICE_TOL * scale))


@dataclass
class MinimalityReport:
    verdict: str          # 'minimal' | 'nonminimal' | 'undetermined'
    rho: float
    certified: bool
    details: dict = field(default_factory=dict)


def _default_witnesses(grid: Grid):
    return [Strip(-np.pi / 8, np.pi / 8), Strip(-np.pi / 4, np.pi / 4),
            Strip(-np.pi / 2 * 0.9, np.pi / 2 * 0.9)]


def minimality_test(v: GridField, rho: float,
                    witnesses: Optional[Sequence] = None) -> MinimalityReport:
    """Minimality classification of a certified subfunction.

    nonminimal when v >= c > 0 everywhere or L_h v >= c > 0 everywhere
    (a constant slides underneath).  minimal when the harmonicity set
    (cells where the residual vanishes at the certificate tolerance
    MINIMALITY_TOL)
    contains a domain M with rho(M) < rho; when the harmonicity set is
    the whole torus the witness subdomains stand in for M, which is
    legitimate since enlarging a domain only lowers rho.  Otherwise
    undetermined (no complete classification is available).

    details['candidates'] lists the witnesses tried, or every component
    of the harmonicity set with its rho (None where it is not connected
    on spirals or has no root); details['witness'] is the first below
    rho."""
    from .subfunc import is_subfunction

    grid = v.grid
    cert = is_subfunction(v, rho, tol=MINIMALITY_TOL)
    details: dict = {"certificate_verdict": cert.verdict,
                     "min_mass": cert.min_mass}
    if cert.verdict == "not":
        return MinimalityReport("undetermined", rho, False, details)

    scale = 1.0 + float(np.max(np.abs(v.values)))
    vmin = float(v.values.min())
    dens = cert.residual.masses / grid.cell_area
    dens_min = float(dens.min())
    if vmin > MINIMALITY_TOL * scale:
        details["reason"] = f"v >= {vmin:.3g} > 0 everywhere"
        return MinimalityReport("nonminimal", rho, True, details)
    if dens_min > MINIMALITY_TOL * scale:
        details["reason"] = f"L_rho v >= {dens_min:.3g} > 0 everywhere"
        return MinimalityReport("nonminimal", rho, True, details)

    harm = np.abs(cert.residual.masses) <= cert.threshold
    details["harmonicity_fraction"] = float(harm.mean())

    def below(r):
        return r is not None and r < rho * (1.0 - 1e-3)

    candidates = []
    if harm.all():
        shapes = witnesses if witnesses is not None else _default_witnesses(grid)
        for shape in shapes:
            r = rho_min(build_domain(grid.spec, grid.nx, grid.ny, shape))
            candidates.append({"witness": repr(shape), "rho": r})
            if below(r):
                break
    elif harm.any():
        per = rho_min(mask_from_inside(grid, harm), full_result=True).per_component
        candidates = [{"component": c, "rho": r} for c, r in enumerate(per)]
    details["candidates"] = candidates
    for cand in candidates:
        if below(cand["rho"]):
            details["witness"] = cand
            return MinimalityReport("minimal", rho, True, details)
    return MinimalityReport("undetermined", rho, True, details)
