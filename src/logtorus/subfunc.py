"""Subfunction calculus for L_rho: certificates, lifting, mollification,
the Green function on subdomains, the Dirichlet problem, Riesz
decomposition, sweeping, and the 1-D trigonometric specialization.

A field v is a subfunction when its residual measure L_rho v is
nonnegative.  Discretely the residual is the assembled operator applied
to the samples, and the nonnegativity threshold absorbs the O(h^2)
consistency defect of smooth inputs; outputs of the solvers here are
certified at solver precision.

Sign conventions follow the unit-Dirac normalization of the kernels:
the Green function of a mask solves  L_rho g(.,zeta) = delta_zeta  with
zero boundary values and is nonpositive for 0 < rho < rho(D).

Each Dirichlet operator has one boundary rule (see operators): the
Green function and the Dirichlet problem use bc='face'; the Riesz
decomposition and sweeping use bc='outside', through one system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (ArcTooWide, ConfigError, EpsTooSmall, RhoAboveCritical,
                     RhoInSpectrum, SolverFailure)
from .fundsol import GridMeasure
from .operators import LinearSystem, assemble, cell_of
from .torus import TWO_PI, DomainMask, Grid, GridField

__all__ = [
    "SubfunctionCertificate", "is_subfunction", "lift_check", "mollify",
    "GreenLrho", "green_lrho", "dirichlet_lrho", "dirichlet_lrho_monotone",
    "riesz_decompose", "sweep", "TrigIndicator", "tc_majorant",
    "fundamental_relation_residual",
]

LIFT_PERIODS = 3         # x-periods of the covering window in lift_check
LIFT_TOL = 1e-6          # certificate and flatness tolerance of lift_check
TC_TOL = 1e-6            # convexity tolerance of TrigIndicator.is_tc
GREEN_SIGN_TOL = 1e-10   # largest Green value, per unit of the largest |value|


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

@dataclass
class SubfunctionCertificate:
    field: GridField
    rho: float
    residual: GridMeasure
    min_mass: float
    threshold: float
    verdict: str                      # 'subfunction' | 'borderline' | 'not'

    @property
    def is_subfunction(self) -> bool:
        return self.verdict == "subfunction"


def _mass_threshold(grid: Grid, rho: float, vmax: float, tol: float) -> float:
    h2 = max(grid.hx, grid.hy) ** 2
    density = (tol + h2 * (1.0 + rho * rho / 3.0)) * (1.0 + vmax)
    return density * grid.cell_area


def is_subfunction(v: GridField, rho: float, tol: float = 1e-6) -> SubfunctionCertificate:
    """Certificate for L_rho v >= 0 on the whole torus.

    min_mass is the most negative cell mass of the residual; verdicts
    within twice the threshold of zero are 'borderline', never rounded
    to a pass.
    """
    grid = v.grid
    op = assemble(grid, "l_rho", rho=rho)
    dens = (op.matrix @ v.values.ravel()).reshape(grid.shape)
    nu = GridMeasure(grid, dens * grid.cell_area)
    min_mass = float(nu.masses.min())
    thr = _mass_threshold(grid, rho, float(np.max(np.abs(v.values))), tol)
    if min_mass >= -thr:
        verdict = "subfunction"
    elif min_mass >= -2.0 * thr:
        verdict = "borderline"
    else:
        verdict = "not"
    return SubfunctionCertificate(v, rho, nu, min_mass, thr, verdict)


def lift_check(v: GridField, rho: float) -> dict:
    """Lift v to V = v * e^{rho x} on an x-covering window of LIFT_PERIODS
    periods and verify the two structural properties of the lift:
    multiplicative periodicity V(x+P, y) = e^{rho P} V(x, y) (exact by
    construction; reported as a round-off check) and discrete
    subharmonicity of V wherever v is certified.  Also reports the
    interior-maximum principle: a certified nonconstant subfunction has
    a positive global maximum.
    """
    grid = v.grid
    P = grid.spec.P
    nx, ny = grid.nx, grid.ny
    xs = np.concatenate([(np.arange(nx) + 0.5) * grid.hx + k * P
                         for k in range(LIFT_PERIODS)])
    V = np.tile(v.values, (1, LIFT_PERIODS)) * np.exp(rho * xs)[None, :]
    ratio = V[:, nx:] / np.where(V[:, :-nx] == 0.0, np.nan, V[:, :-nx])
    with np.errstate(invalid="ignore"):
        per_err = np.nanmax(np.abs(ratio - np.exp(rho * P)))
    hx, hy = grid.hx, grid.hy
    lap = ((np.roll(V, 1, 1) + np.roll(V, -1, 1) - 2 * V) / hx ** 2
           + (np.roll(V, 1, 0) + np.roll(V, -1, 0) - 2 * V) / hy ** 2)
    interior = np.zeros_like(V, dtype=bool)
    interior[:, 1:-1] = True
    cert = is_subfunction(v, rho, LIFT_TOL)
    weight = np.exp(rho * xs)[None, :]
    h2 = max(hx, hy) ** 2
    thr = (LIFT_TOL + h2 * (1.0 + rho ** 2) ** 2) * (1.0 + np.max(np.abs(v.values)))
    sub_ok = bool(np.min((lap / weight)[interior]) >= -thr) if cert.is_subfunction else None
    vmax = float(v.values.max())
    constant = bool(np.ptp(v.values) <= LIFT_TOL * (1.0 + abs(vmax)))
    max_principle_ok = (vmax > 0.0) or constant if cert.is_subfunction else None
    return {"periodicity_error": float(0.0 if np.isnan(per_err) else per_err),
            "lift_subharmonic": sub_ok,
            "certificate": cert,
            "interior_max_principle": max_principle_ok,
            "threshold": thr}


def mollify(v: GridField, rho: float, eps: float) -> GridField:
    """Multiplicative-group mollification.

    Averages translates of v with the positive weights
    alpha((e^w - 1)/eps) * e^{(rho+2) Re w} of the dilation-rotation
    kernel, normalized to total weight 1.  Being a positive combination
    of translates, it maps certified subfunctions to certified
    subfunctions exactly; for smooth v the error is O(eps^2).
    """
    grid = v.grid
    hx, hy = grid.hx, grid.hy
    if eps < 2.0 * max(hx, hy):
        raise EpsTooSmall(f"eps={eps} below twice the cell size")
    na = int(np.ceil(1.2 * eps / hx)) + 1
    nb = int(np.ceil(1.2 * eps / hy)) + 1
    a = np.arange(-na, na + 1) * hx
    b = np.arange(-nb, nb + 1) * hy
    S, T = np.meshgrid(a, b)
    u = np.exp(S + 1j * T)
    r = np.abs(u - 1.0) / eps
    w = np.where(r < 1.0, np.exp(-1.0 / np.maximum(1.0 - r * r, 1e-12)), 0.0)
    w = w * np.exp((rho + 2.0) * S)
    w /= w.sum()
    kern = np.zeros(grid.shape)
    for jj in range(S.shape[0]):
        for ii in range(S.shape[1]):
            if w[jj, ii]:
                kern[(jj - nb) % grid.ny, (ii - na) % grid.nx] += w[jj, ii]
    out = np.real(np.fft.ifft2(np.fft.fft2(v.values) * np.fft.fft2(kern)))
    return GridField(grid, out, {"kind": "mollified", "eps": eps, "rho": rho})


# ----------------------------------------------------------------------
# Green function and Dirichlet problem on masks
# ----------------------------------------------------------------------

@dataclass
class GreenLrho:
    mask: DomainMask
    rho: float
    sources: list
    columns: list
    max_value: float
    sign_ok: bool


def _lrho_solves(op, rho: float, rhss) -> list:
    """Solutions of the L_rho system op for each right-hand side, one
    LinearSystem.solve each on one factorization.  A failed
    factorization or solve means rho is (numerically) a pencil
    eigenvalue of the region, and raises RhoInSpectrum."""
    try:
        system = LinearSystem(op)
        return [system.solve(rhs) for rhs in rhss]
    except SolverFailure as exc:
        raise RhoInSpectrum(f"L_rho system singular at rho={rho}: {exc}") from exc


def green_lrho(mask: DomainMask, rho: float, sources: Sequence,
               allow_sign_violation: bool = False) -> GreenLrho:
    """Green columns g(., zeta) of L_rho on a mask under bc='face': unit
    Dirac mass at each source, zero boundary values.

    For 0 < rho < rho(D) every column is nonpositive; a positive value
    beyond GREEN_SIGN_TOL raises RhoAboveCritical unless explicitly allowed.
    """
    if rho <= 0 and rho != 0.0:
        raise ConfigError("green_lrho expects rho >= 0")
    op = assemble(mask, "l_rho", rho=rho)
    grid = mask.grid
    cells = []
    for src in sources:
        j, i = src if isinstance(src, tuple) and isinstance(src[0], (int, np.integer)) \
            else cell_of(mask, *src)
        if not mask.inside[j, i]:
            raise ConfigError(f"source cell {(j, i)} is outside the domain")
        cells.append((j, i))

    def unit_mass(cell):
        rhs = np.zeros(op.ndof)
        rhs[op.dof_index[cell]] = 1.0 / grid.cell_area
        return rhs

    cols = []
    vmax = -np.inf
    for (j, i), u in zip(cells, _lrho_solves(op, rho, map(unit_mass, cells))):
        vals = op.embed(np.real(u) if np.iscomplexobj(u) else u)
        vmax = max(vmax, float(vals.max()))
        cols.append(GridField(grid, vals, {"kind": "green_lrho", "rho": rho,
                                           "source": (j, i), "bc": "face"}))
    scale = max(abs(c.values).max() for c in cols)
    sign_ok = vmax <= GREEN_SIGN_TOL * (1.0 + scale)
    if not sign_ok and not allow_sign_violation:
        raise RhoAboveCritical(
            f"green column positive (max {vmax:.3e}); rho={rho} is at or "
            "above the critical value of the domain")
    return GreenLrho(mask, rho, cells, cols, float(vmax), bool(sign_ok))


def _dirichlet_levels(mask: DomainMask, rho: float, f_levels: Sequence) -> list:
    """Solve L_rho q = 0 for each boundary data in f_levels on one
    factorization of the mask's bc='face' system."""
    op = assemble(mask, "l_rho", rho=rho)
    levels = [f.values if isinstance(f, GridField) else np.asarray(f, dtype=float)
              for f in f_levels]
    us = _lrho_solves(op, rho, [op.boundary_rhs(data) for data in levels])
    sols = []
    for data, u in zip(levels, us):
        vals = op.embed(np.real(u) if not np.iscomplexobj(data) else u)
        sols.append(GridField(mask.grid, vals, {"kind": "dirichlet_lrho",
                                                "rho": rho, "bc": "face"}))
    return sols


def dirichlet_lrho(mask: DomainMask, rho: float, f) -> GridField:
    """Solve L_rho q = 0 in the mask under bc='face' with boundary data f
    (face traces, read at the outside cells).  Unique whenever rho is
    not a pencil eigenvalue; singularity surfaces as RhoInSpectrum."""
    return _dirichlet_levels(mask, rho, [f])[0]


def dirichlet_lrho_monotone(mask: DomainMask, rho: float,
                            f_levels: Sequence) -> GridField:
    """Generalized solution for semicontinuous data via a monotone
    sequence of continuous levels (3 levels by default upstream), all
    solved under bc='face' on one factorization; the level solutions and
    their successive sups are reported in meta."""
    sols = _dirichlet_levels(mask, rho, f_levels)
    diffs = [float(np.max(np.abs(b.values - a.values)))
             for a, b in zip(sols, sols[1:])]
    out = sols[-1].copy()
    out.meta.update({"kind": "dirichlet_lrho_wiener", "levels": len(sols),
                     "level_diffs": diffs})
    return out


# ----------------------------------------------------------------------
# Riesz decomposition and sweeping
# ----------------------------------------------------------------------

def _outside_system(v: GridField, mask: DomainMask, rho: float) -> tuple:
    """The mask's bc='outside' L_rho operator, whose data coupling is the
    torus operator's links to the outside cells, and v's boundary data
    moved to the right-hand side."""
    op = assemble(mask, "l_rho", rho=rho, bc="outside")
    return op, op.boundary_rhs(v.values)


def riesz_decompose(v: GridField, mask: DomainMask, rho: float):
    """Split v = q + Pi on the mask: Pi the Green potential of the
    residual masses inside, q the L_rho-harmonic extension of v's
    boundary values (its least majorant).

    Both solve the mask's bc='outside' system on one factorization.
    Its data coupling is the whole-torus operator's links to the outside
    cells, so the density of L_rho v inside is the mask operator applied
    to v there, minus the data, and q + Pi = v holds exactly.
    """
    grid = v.grid
    inside = mask.inside
    op, data = _outside_system(v, mask, rho)
    dens = op.matrix @ v.values[inside] - data
    pi_dof, q_dof = _lrho_solves(op, rho, [dens, data])
    pi_vals = op.embed(pi_dof)
    q_vals = op.embed(q_dof)
    q_vals[~inside] = v.values[~inside]
    nu = GridMeasure(grid, op.embed(dens) * grid.cell_area)
    q = GridField(grid, q_vals, {"kind": "riesz_majorant", "rho": rho})
    pi = GridField(grid, pi_vals, {"kind": "riesz_potential", "rho": rho,
                                   "measure_tv": nu.total_variation})
    return q, pi


def sweep(v: GridField, mask: Optional[DomainMask], rho: float) -> GridField:
    """Sweeping: replace v inside the mask by its least L_rho-majorant
    (the Dirichlet solution with v's boundary values, the q of
    riesz_decompose), keep v outside.  An empty sweep region (mask=None)
    returns v unchanged.

    With the outside-center convention the glued field's residual at
    every cell is the old residual plus a nonnegative boundary
    correction, so certified subfunctions stay certified and the
    operation is idempotent to solver precision.
    """
    if mask is None:
        return v.copy()
    op, data = _outside_system(v, mask, rho)
    q, = _lrho_solves(op, rho, [data])
    out = v.values.copy()
    out[mask.inside] = q
    return GridField(v.grid, out, {"kind": "sweep", "rho": rho})


# ----------------------------------------------------------------------
# the one-dimensional specialization: trigonometric convexity
# ----------------------------------------------------------------------

@dataclass
class TrigIndicator:
    """2*pi-periodic sampled indicator h(theta) with convexity parameter
    rho; samples sit at theta_j = -pi + (j+1/2) * 2*pi/n."""

    values: np.ndarray
    rho: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 8:
            raise ConfigError("indicator needs >= 8 samples")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h_theta(self) -> float:
        return TWO_PI / self.n

    def thetas(self) -> np.ndarray:
        return -np.pi + (np.arange(self.n) + 0.5) * self.h_theta

    def __call__(self, phi) -> np.ndarray:
        """Periodic linear interpolation."""
        t = (np.asarray(phi) + np.pi) / self.h_theta - 0.5
        j0 = np.floor(t).astype(int)
        w = t - j0
        return ((1.0 - w) * self.values[j0 % self.n]
                + w * self.values[(j0 + 1) % self.n])

    def convexity_margin(self) -> float:
        """min of the discrete h'' + rho^2 h (density units)."""
        h = self.values
        second = (np.roll(h, -1) - 2 * h + np.roll(h, 1)) / self.h_theta ** 2
        return float(np.min(second + self.rho ** 2 * h))

    def is_tc(self) -> bool:
        scale = 1.0 + float(np.max(np.abs(self.values)))
        thr = (TC_TOL + self.h_theta ** 2 * (1.0 + self.rho ** 4 / 12.0)) * scale
        return self.convexity_margin() >= -thr


def tc_majorant(h: TrigIndicator, alpha: float, beta: float) -> TrigIndicator:
    """Least trigonometric majorant on the arc (alpha, beta):

        H(phi) = [h(alpha) sin(rho(beta-phi)) + h(beta) sin(rho(phi-alpha))]
                 / sin(rho(beta-alpha)),

    requiring beta - alpha < pi/rho.  Outside the arc h is unchanged.
    The endpoints snap to the nearest sample nodes so the junction uses
    exact sample values; interpolated endpoints would leave an O(htheta^2)
    value mismatch that shows up as an O(1) spike in the convexity
    density at the junction."""
    rho = h.rho
    if not (beta > alpha):
        raise ConfigError("need beta > alpha")
    ht = h.h_theta
    alpha = -np.pi + round((alpha + np.pi) / ht - 0.5) * ht + 0.5 * ht
    beta = -np.pi + round((beta + np.pi) / ht - 0.5) * ht + 0.5 * ht
    if beta - alpha >= np.pi / rho:
        raise ArcTooWide(f"arc width {beta - alpha} >= pi/rho = {np.pi / rho}")
    th = h.thetas()
    values = h.values.copy()
    ha, hb = float(h(alpha)), float(h(beta))
    s = np.sin(rho * (beta - alpha))
    # wrap sample angles into [alpha, alpha + 2*pi)
    phi = alpha + (th - alpha) % TWO_PI
    on_arc = (phi > alpha) & (phi < beta)
    values[on_arc] = (ha * np.sin(rho * (beta - phi[on_arc]))
                      + hb * np.sin(rho * (phi[on_arc] - alpha))) / s
    return TrigIndicator(values, rho)


def fundamental_relation_residual(h: TrigIndicator, n_triples: int = 1000,
                                  seed: int = 0) -> float:
    """Max over sampled triples phi1 < phi2 < phi3 (inside a window of
    width pi/rho less ten samples) of

      h(p1) sin(rho(p2-p3)) + h(p2) sin(rho(p3-p1)) + h(p3) sin(rho(p1-p2)),

    which is <= 0 for trigonometrically convex h; the returned value is
    the largest (worst) left side.  Triples are drawn on sample nodes,
    where the indicator values are exact (off-node interpolation would
    contaminate the residual at O(htheta^2))."""
    rho = h.rho
    rng = np.random.default_rng(seed)
    width = np.pi / rho - 10.0 * h.h_theta
    w_cells = int(width / h.h_theta)
    if w_cells < 3:
        raise ConfigError("window too narrow for triples")
    base = rng.integers(0, h.n, size=n_triples)
    offs = np.sort(rng.integers(0, w_cells + 1, size=(n_triples, 3)), axis=1)
    th = h.thetas()
    idx = (base[:, None] + offs) % h.n
    p1, p2, p3 = (th[base] + offs[:, 0] * h.h_theta,
                  th[base] + offs[:, 1] * h.h_theta,
                  th[base] + offs[:, 2] * h.h_theta)
    v1, v2, v3 = (h.values[idx[:, 0]], h.values[idx[:, 1]], h.values[idx[:, 2]])
    lhs = (v1 * np.sin(rho * (p2 - p3))
           + v2 * np.sin(rho * (p3 - p1))
           + v3 * np.sin(rho * (p1 - p2)))
    return float(np.max(lhs))
