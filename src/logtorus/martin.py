"""Growth-rate machinery on the lifted plane domain.

The positive harmonic function of minimal growth on the lift is built as
a ratio of harmonic measures of far crosscuts,

    h_n(z) = omega(z, E_n) / omega(z0, E_n),

with E_n the interior two-thirds of the component's arc at the rightmost
window slice.  Its growth exponent is then estimated four independent
ways and cross-checked against the pencil's least eigenvalue:

  growth     slope of log max H over period slices,
  hm_decay   slope of -log omega(z0, crosscut at n periods),
  modulus    (pi/P) * conformal modulus of the one-period quadrilateral
             (Dirichlet-energy method; modulus = 1/energy, pinned so the
             P x W rectangle gives P/W),
  extremal   limit slope of (pi/P) * extremal distance to the n-period
             crosscut,
  pencil     least positive real pencil eigenvalue of the torus mask.

All five agree on sector lifts; their mutual consistency at 5 percent is
the headline acceptance property of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, FitUnstable, NotSeparating,
                     NotSimplyConnected, TargetEmpty)
from .operators import (LogWindow, assemble, harmonic_measure_field,
                        lift_window, LinearSystem)
from .torus import DomainMask

__all__ = [
    "MartinApprox", "RhoEstimate", "martin_function", "rho_from_growth",
    "rho_from_hm_decay", "rho_from_modulus", "rho_from_extremal",
    "beta_functional", "rho_estimates", "consistency_table",
]


@dataclass
class MartinApprox:
    window: LogWindow
    values: np.ndarray
    z0: tuple
    n_used: int
    converged: bool
    meta: dict = field(default_factory=dict)


@dataclass
class RhoEstimate:
    method: str
    value: float
    ci: float
    n_range: tuple
    meta: dict = field(default_factory=dict)


def _slope_fit(xs, ys):
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(xs) - 2, 1)
    sigma2 = ss_res / dof
    sx = float(np.sum((xs - xs.mean()) ** 2))
    ci = 2.0 * np.sqrt(sigma2 / sx) if sx > 0 else np.inf
    return float(coef[0]), float(coef[1]), r2, ci


def _arc_runs(col_inside: np.ndarray):
    """Runs of consecutive inside cells in one window column."""
    idx = np.flatnonzero(col_inside)
    if idx.size == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) > 1)
    return np.split(idx, splits + 1)


def _far_target(window: LogWindow, col: int) -> np.ndarray:
    """Interior two-thirds of each arc of the component at a column."""
    target = np.zeros(window.shape, dtype=bool)
    for run in _arc_runs(window.inside[:, col]):
        k = len(run)
        cut = max(k // 6, 0)
        sel = run[cut:k - cut] if k > 2 else run
        target[sel, col] = True
    if not target.any():
        raise TargetEmpty("component does not reach the target slice")
    return target


def _sub_window(window: LogWindow, px_hi: int) -> LogWindow:
    ncols = (px_hi - window.px_lo) * window.grid.nx
    return LogWindow(window.grid, window.px_lo, px_hi, window.py_lo,
                     window.py_hi, window.inside[:, :ncols].copy())


def _measure_ratio_field(window: LogWindow, z0_cell: tuple, bc: str):
    target = _far_target(window, window.shape[1] - 1)
    om = harmonic_measure_field(window, target, bc=bc)
    j0, i0 = z0_cell
    w0 = om.values[j0, i0]
    if w0 <= 0:
        raise ConfigError("base point has vanishing harmonic measure")
    return om.values / w0, om.values


def martin_function(mask: DomainMask, component: int = 0,
                    z0: Optional[tuple] = None, n: int = 6,
                    m_periods: int = 1, bc: str = "face") -> MartinApprox:
    """Ratio-of-harmonic-measures approximation of the minimal positive
    harmonic function of the lift, normalized to 1 at z0 (by default the
    inside cell nearest the window center).

    The window spans [-n, n] periods; convergence is checked against the
    [-n+1, n-1] window on the middle third and flagged (never coerced)
    when the relative change exceeds 2 percent.
    """
    if n < 3:
        raise ConfigError("need n >= 3 periods")
    py_lo = -(m_periods // 2)
    py_hi = py_lo + m_periods
    win = lift_window(mask, component, -n, n, py_lo, py_hi, anchor=z0)
    if z0 is not None:
        z0_cell = win.cell_of(*z0)
    else:
        cand = np.argwhere(win.inside)
        jc, ic = win.shape[0] / 2.0, win.shape[1] / 2.0
        z0_cell = tuple(cand[np.argmin(((cand - [jc, ic]) ** 2).sum(axis=1))])
    H, om = _measure_ratio_field(win, z0_cell, bc)

    small = lift_window(mask, component, -(n - 1), n - 1, py_lo, py_hi,
                        anchor=z0)
    off = win.grid.nx
    z0s = (z0_cell[0], z0_cell[1] - off)
    Hs, _ = _measure_ratio_field(small, z0s, bc)
    ncols_s = small.shape[1]
    mid = np.zeros(small.shape, dtype=bool)
    mid[:, ncols_s // 3: 2 * ncols_s // 3] = True
    mid &= small.inside
    big_slice = H[:, off:-off]
    rel = np.abs(big_slice[mid] - Hs[mid]) / np.maximum(np.abs(Hs[mid]), 1e-300)
    converged = bool(np.max(rel) <= 0.02)

    vals = np.where(win.inside, H, 0.0)
    return MartinApprox(win, vals, z0_cell, n, converged,
                        {"bc": bc, "max_rel_change": float(np.max(rel)),
                         "omega_at_z0": float(om[z0_cell[0], z0_cell[1]])})


def rho_from_growth(H: MartinApprox, r2_min: float = 0.99) -> RhoEstimate:
    """Least-squares slope of log max(H) over period slices, fitted on
    the middle half of the window."""
    win = H.window
    nx = win.grid.nx
    P = win.grid.spec.P
    n = H.n_used
    js = [j for j in range(-n, n + 1)]
    xs, ys = [], []
    for j in js:
        col = (j + n) * nx
        if col >= H.values.shape[1]:
            col = H.values.shape[1] - 1
        colmask = win.inside[:, col]
        if not colmask.any():
            continue
        m = H.values[:, col][colmask].max()
        if m > 0:
            xs.append(j * P)
            ys.append(np.log(m))
    k = len(xs)
    xs, ys = np.array(xs), np.array(ys)
    lo, hi = k // 4, k - k // 4
    slope, _, r2, ci = _slope_fit(xs[lo:hi], ys[lo:hi])
    if r2 < r2_min:
        raise FitUnstable(f"growth fit R^2 = {r2:.4f} < {r2_min}")
    return RhoEstimate("growth", slope, ci, (int(xs[lo] / P), int(xs[hi - 1] / P)),
                       {"r2": r2, "converged_window": H.converged})


def rho_from_hm_decay(mask: DomainMask, component: int = 0,
                      z0: Optional[tuple] = None, n_min: int = 3,
                      n_max: int = 8, left: int = 4, bc: str = "face",
                      m_periods: int = 1, r2_min: float = 0.99) -> RhoEstimate:
    """Slope of -log omega(z0, crosscut at n periods) against n*P, with
    the two-sided band check omega * e^{rho n P} confined to a fixed
    ratio band."""
    py_lo = -(m_periods // 2)
    py_hi = py_lo + m_periods
    win_full = lift_window(mask, component, -left, n_max, py_lo, py_hi,
                           anchor=z0)
    if z0 is not None:
        z0_cell = win_full.cell_of(*z0)
    else:
        cand = np.argwhere(win_full.inside[:, :win_full.grid.nx * left])
        jc = win_full.shape[0] / 2.0
        ic = left * win_full.grid.nx - win_full.grid.nx // 2
        z0_cell = tuple(cand[np.argmin(((cand - [jc, ic]) ** 2).sum(axis=1))])
    P = mask.grid.spec.P
    ns, omegas = [], []
    for nn in range(n_min, n_max + 1):
        sub = _sub_window(win_full, nn)
        target = _far_target(sub, sub.shape[1] - 1)
        om = harmonic_measure_field(sub, target, bc=bc)
        w = float(om.values[z0_cell[0], z0_cell[1]])
        if w < 1e-300:
            break
        ns.append(nn)
        omegas.append(w)
    if len(ns) < 3:
        raise ConfigError("not enough usable crosscuts for the decay fit")
    xs = np.array(ns, float) * P
    ys = -np.log(np.array(omegas))
    k = len(xs)
    lo, hi = k // 4, k - k // 4
    slope, _, r2, ci = _slope_fit(xs[lo:hi], ys[lo:hi])
    if r2 < r2_min:
        raise FitUnstable(f"decay fit R^2 = {r2:.4f} < {r2_min}")
    band = np.array(omegas) * np.exp(slope * xs)
    band_ratio = float(band.max() / band.min())
    return RhoEstimate("hm_decay", slope, ci, (ns[lo], ns[hi - 1]),
                       {"r2": r2, "band_ratio": band_ratio,
                        "omegas": omegas, "truncated": len(ns) < n_max - n_min + 1})


def _quad_modulus(window: LogWindow, col0: int, col1: int) -> float:
    """Conformal modulus of the quadrilateral between two crosscut
    columns by the Dirichlet-energy method: potential 0 / 1 on the
    crosscuts, insulated sides; modulus = 1/energy.  The P x W rectangle
    yields exactly P/W under this convention."""
    inside = window.inside.copy()
    inside[:, :col0] = False
    inside[:, col1 + 1:] = False
    if not inside.any():
        raise NotSimplyConnected("empty quadrilateral")
    from scipy import ndimage
    lab, ncomp = ndimage.label(inside)
    if ncomp != 1:
        keep = lab == lab[np.argwhere(inside)[0][0], np.argwhere(inside)[0][1]]
        if keep.sum() < 0.5 * inside.sum():
            raise NotSimplyConnected("quadrilateral splits into pieces")
        inside = keep
    quad = LogWindow(window.grid, window.px_lo, window.px_hi,
                     window.py_lo, window.py_hi, inside)
    clamp = np.zeros(inside.shape, dtype=bool)
    clamp[:, col0] = inside[:, col0]
    clamp[:, col1] = inside[:, col1]
    data = np.zeros(inside.shape)
    data[:, col1] = 1.0
    op = assemble(quad, "laplacian", bc="neumann", clamp=clamp)
    rhs = op.boundary_rhs(None, clamp_data=data)
    u = LinearSystem(op).solve(rhs)
    vals = op.embed(u)
    vals[clamp & (data > 0)] = 1.0
    hx, hy = window.hx, window.hy
    counted = inside
    dx = vals[:, 1:] - vals[:, :-1]
    mx = counted[:, 1:] & counted[:, :-1]
    dy = vals[1:, :] - vals[:-1, :]
    my = counted[1:, :] & counted[:-1, :]
    energy = float((dx[mx] ** 2).sum() * hy / hx + (dy[my] ** 2).sum() * hx / hy)
    if energy <= 0:
        raise NotSimplyConnected("degenerate quadrilateral energy")
    return 1.0 / energy


def rho_from_modulus(mask: DomainMask, component: int = 0,
                     m_periods: int = 1, anchor: Optional[tuple] = None) -> RhoEstimate:
    """(pi/P) times the conformal modulus of the one-period quadrilateral
    between the crosscut at x=0 and its translate at x=P.

    Requires the lift to meet the x=0 slice in a single arc (separating
    circle); more arcs raise NotSeparating."""
    py_lo = -(m_periods // 2)
    py_hi = py_lo + m_periods
    win = lift_window(mask, component, 0, 2, py_lo, py_hi, anchor=anchor)
    nx = mask.grid.nx
    runs0 = _arc_runs(win.inside[:, 0])
    if len(runs0) != 1:
        raise NotSeparating(f"{len(runs0)} arcs on the x=0 slice")
    mod = _quad_modulus(win, 0, nx)
    P = mask.grid.spec.P
    return RhoEstimate("modulus", float(np.pi / P * mod), 0.0, (0, 1),
                       {"modulus": mod})


def rho_from_extremal(mask: DomainMask, component: int = 0,
                      n_list: Sequence[int] = (2, 3, 4, 5),
                      m_periods: int = 1, anchor: Optional[tuple] = None,
                      r2_min: float = 0.99) -> RhoEstimate:
    """Extremal distance route: d(I_0, I_n) is the modulus of the
    n-period quadrilateral; rho = (pi/P) * lim d/n, from a slope fit."""
    py_lo = -(m_periods // 2)
    py_hi = py_lo + m_periods
    top = max(n_list)
    win = lift_window(mask, component, 0, top + 1, py_lo, py_hi, anchor=anchor)
    nx = mask.grid.nx
    ds = []
    for nn in n_list:
        ds.append(_quad_modulus(win, 0, nn * nx))
    slope, _, r2, ci = _slope_fit(np.array(n_list, float), np.array(ds))
    if r2 < r2_min:
        raise FitUnstable(f"extremal fit R^2 = {r2:.4f} < {r2_min}")
    P = mask.grid.spec.P
    return RhoEstimate("extremal", float(np.pi / P * slope),
                       float(np.pi / P * ci), (min(n_list), max(n_list)),
                       {"r2": r2, "distances": ds})


def beta_functional(window: LogWindow, values: np.ndarray, z0: tuple,
                    n_range: Sequence[int], bc: str = "face") -> dict:
    """Growth-against-measure functional: for each n in range,
    (max of the field on the n-period crosscut) * omega(z0, crosscut);
    flagged diverging when it climbs by more than 10x across the range.
    Bounded sequences indicate minimal growth; channel-limit functions
    diverge."""
    nx = window.grid.nx
    z0_cell = window.cell_of(*z0)
    seq = []
    for nn in n_range:
        sub = _sub_window(window, nn)
        col = sub.shape[1] - 1
        target = _far_target(sub, col)
        om = harmonic_measure_field(sub, target, bc=bc)
        w = float(om.values[z0_cell[0], z0_cell[1]])
        m = float(values[:, col][sub.inside[:, col]].max())
        seq.append(m * w)
    seq = np.array(seq)
    diverging = bool(seq[-1] > 10.0 * max(seq[0], 1e-300))
    return {"beta": float(seq.max()), "sequence": seq,
            "diverging": diverging, "n_range": tuple(n_range)}


def rho_estimates(mask: DomainMask, component: int = 0,
                  z0: Optional[tuple] = None, n_martin: int = 6,
                  n_decay: tuple = (3, 8), extremal_ns: Sequence[int] = (2, 3, 4, 5),
                  bc: str = "face", m_periods: int = 1,
                  include_pencil: bool = True) -> list:
    """All growth estimators for one component, plus the pencil value."""
    out = []
    H = martin_function(mask, component, z0=z0, n=n_martin,
                        m_periods=m_periods, bc=bc)
    out.append(rho_from_growth(H))
    out.append(rho_from_hm_decay(mask, component, z0=z0, n_min=n_decay[0],
                                 n_max=n_decay[1], bc=bc, m_periods=m_periods))
    out.append(rho_from_modulus(mask, component, m_periods=m_periods, anchor=z0))
    out.append(rho_from_extremal(mask, component, n_list=extremal_ns,
                                 m_periods=m_periods, anchor=z0))
    if include_pencil:
        from .pencil import rho_min
        r = rho_min(mask, bc=bc)
        if r is not None:
            out.append(RhoEstimate("pencil", r, 0.0, (0, 0), {}))
    return out


def consistency_table(estimates: Sequence[RhoEstimate]) -> dict:
    """Pairwise relative disagreements between estimators."""
    pairs = {}
    worst = 0.0
    for i, a in enumerate(estimates):
        for b in estimates[i + 1:]:
            rel = abs(a.value - b.value) / max(abs(a.value), abs(b.value))
            pairs[f"{a.method}/{b.method}"] = rel
            worst = max(worst, rel)
    return {"pairs": pairs, "max_rel_disagreement": worst}
