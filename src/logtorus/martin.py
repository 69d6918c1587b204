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

Three private routines do all window work: _lift makes every window and
its base cell, _crosscut_measure is the one harmonic-measure solve (Martin
windows, hm_decay prefixes, beta_functional) and _quad_modulus the one
quad solve (modulus, extremal).  _lift reads each window's y-periods off
the component's winding class (k, l): a strand climbs s = l/k y-periods
per x-period, so x-periods [px_lo, px_hi] take the y-periods
[floor(min(px_lo*s, px_hi*s)), ceil(max(px_lo*s, px_hi*s)) + 1), with
s = 0 (the single period [0, 1)) for l = 0 or a component not connected
on spirals; a side then gains a period at a time while the piece
through the base cell reaches its first or last row.  martin_function
lifts once: its [-n+1, n-1] convergence window is the base cell's piece
of the [-n, n] window's inner columns, on the same rows.  Both solves
run on operators.PeriodChain.  rho_estimates hands one 'face' chain
to the private cores of martin_function and hm_decay, drops it, and
hands one 'neumann' chain to those of modulus and extremal, so each
period-block pattern is factored once per boundary rule and call, and
no chain outlives the call.  A public estimator called on its own
builds its own chain.  hm_decay and beta_functional read every crosscut
from one sweep of their window, and martin_function's two windows share
one chain; a quad's energy is the DtN quadratic form of its 0/1
crosscut data on a 'neumann' chain, so no quad needs a field.
hm_decay windows start LEFT_PERIODS periods left of x = 0; every slope
fit must reach R^2 >= R2_MIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .errors import (ConfigError, FitUnstable, NotSeparating,
                     NotSimplyConnected, TargetEmpty)
from .operators import ChainSweep, LogWindow, PeriodChain, lift_window
from .torus import DomainMask

__all__ = [
    "MartinApprox", "RhoEstimate", "martin_function", "rho_from_growth",
    "rho_from_hm_decay", "rho_from_modulus", "rho_from_extremal",
    "beta_functional", "rho_estimates", "consistency_table",
]

LEFT_PERIODS = 4
Y_WIDEN = 4
R2_MIN = 0.99
OBLIQUE = "oblique crosscuts: one-period quad is not a fundamental domain"


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


def _slope_fit(xs, ys, what: str):
    """Least-squares slope, R^2 and a 2-sigma interval; raises
    FitUnstable below R2_MIN."""
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
    if r2 < R2_MIN:
        raise FitUnstable(f"{what} fit R^2 = {r2:.4f} < {R2_MIN}")
    return float(coef[0]), r2, ci


def _arc_runs(col_inside: np.ndarray):
    """Runs of consecutive inside cells in one window column."""
    idx = np.flatnonzero(col_inside)
    if idx.size == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) > 1)
    return np.split(idx, splits + 1)


def _far_rows(col_inside: np.ndarray) -> np.ndarray:
    """Row mask of the interior two-thirds of each arc of one column."""
    target = np.zeros(col_inside.shape, dtype=bool)
    for run in _arc_runs(col_inside):
        k = len(run)
        cut = max(k // 6, 0)
        target[run[cut:k - cut] if k > 2 else run] = True
    if not target.any():
        raise TargetEmpty("component does not reach the target slice")
    return target


def _lift(mask: DomainMask, component: int, px_lo: int, px_hi: int,
          z0: Optional[tuple], column: Optional[int] = None):
    """Lift a component to the window of periods [px_lo, px_hi] in x, and
    find its base cell: the cell of z0, or else the inside cell nearest
    the middle row at `column` (by default the middle column, which gives
    lift_window's own anchor).

    The y-extent comes from the winding class (k, l): on the lift a strand
    climbs s = l/k y-periods per x-period (s = 0 when the component is not
    connected on spirals), so the window first takes the y-periods
    [floor(min(px_lo*s, px_hi*s)), ceil(max(px_lo*s, px_hi*s)) + 1).
    The rule does not see where the base cell sits in its period or how
    wide the strand is, so while the piece through the base cell reaches
    the window's first (last) row, an artificial Dirichlet edge, that side
    gains one period and the lift is redone through the same base cell.
    A piece that still reaches an edge after Y_WIDEN periods on a side is
    taken as unbounded in y (a component with a pure y-loop, whose
    x-slices are never one arc) and raises NotSeparating rather than
    being solved cut.  Every l = 0 component whose lift stays off the
    y-edges, a strip among them, gets [0, 1)."""
    spiral = mask.spiral_of(component)
    k, l = (spiral.k, spiral.y_winding) if spiral.connected else (1, 0)
    ends = (px_lo * l, px_hi * l)
    py_lo, py_hi = min(ends) // k, -(-max(ends) // k) + 1
    anchor = z0
    for _ in range(Y_WIDEN + 1):
        win = lift_window(mask, component, px_lo, px_hi, py_lo, py_hi,
                          anchor=anchor)
        if anchor is None:
            centre = [win.shape[0] / 2.0,
                      win.shape[1] / 2.0 if column is None else column]
            cand = np.argwhere(win.inside)
            j, i = cand[np.argmin(((cand - centre) ** 2).sum(axis=1))]
            anchor = (win.x_centers()[i], win.y_centers()[j])
        low, high = int(win.inside[0].any()), int(win.inside[-1].any())
        if not (low or high):
            return win, win.cell_of(*anchor)
        py_lo, py_hi = py_lo - low, py_hi + high
    raise NotSeparating(f"the lift's piece still reaches a y-edge of the "
                        f"window after {Y_WIDEN} added periods: it is not "
                        f"bounded in y, so no x-slice is one arc")


def _crosscut_measure(sweep: ChainSweep, nblocks: int) -> list:
    """Harmonic measure of the far crosscut (the target at the last
    column) on the sweep's window cut to its first nblocks periods, as the
    end-column values of its blocks (ChainSweep.solve)."""
    col = sweep.window.inside[:, nblocks * sweep.nx - 1]
    return sweep.solve(nblocks, _far_rows(col))


def martin_function(mask: DomainMask, component: int = 0,
                    z0: Optional[tuple] = None, n: int = 6) -> MartinApprox:
    """Ratio-of-harmonic-measures approximation of the minimal positive
    harmonic function of the lift, normalized to 1 at z0 (by default the
    inside cell nearest the window center).

    The window spans [-n, n] periods; convergence is checked against the
    [-n+1, n-1] window on the middle third and flagged (never coerced)
    when the relative change exceeds 2 percent.  That window is cut out
    of the first: the piece through z0 of its columns [nx:-nx], on the
    same rows, so the two fields stay row-aligned.
    """
    return _martin(PeriodChain("face"), mask, component, z0, n)


def _martin(chain: PeriodChain, mask: DomainMask, component: int,
            z0: Optional[tuple], n: int) -> MartinApprox:
    """martin_function on a 'face' chain the caller owns."""
    if n < 3:
        raise ConfigError("need n >= 3 periods")
    win, z0_cell = _lift(mask, component, -n, n, z0)
    off = win.grid.nx
    z0s = (z0_cell[0], z0_cell[1] - off)
    cut = win.inside[:, off:-off]
    if not 0 <= z0s[1] < cut.shape[1]:
        raise ConfigError("base point outside the convergence window")
    labels, _ = ndimage.label(cut)
    small = LogWindow(win.grid, -(n - 1), n - 1, win.py_lo, win.py_hi,
                      labels == labels[z0s])
    om, om_s = (sweep.field(_crosscut_measure(sweep, len(sweep.blocks)))
                for sweep in (chain.sweep(win), chain.sweep(small)))
    if om[z0_cell] <= 0 or om_s[z0s] <= 0:
        raise ConfigError("base point has vanishing harmonic measure")
    H = om / om[z0_cell]
    Hs = om_s / om_s[z0s]

    ncols_s = small.shape[1]
    mid = np.zeros(small.shape, dtype=bool)
    mid[:, ncols_s // 3: 2 * ncols_s // 3] = True
    mid &= small.inside
    big_slice = H[:, off:-off]
    rel = np.abs(big_slice[mid] - Hs[mid]) / np.maximum(np.abs(Hs[mid]), 1e-300)
    converged = bool(np.max(rel) <= 0.02)

    vals = np.where(win.inside, H, 0.0)
    return MartinApprox(win, vals, z0_cell, n, converged,
                        {"bc": "face", "max_rel_change": float(np.max(rel)),
                         "omega_at_z0": float(om[z0_cell])})


def rho_from_growth(H: MartinApprox) -> RhoEstimate:
    """Least-squares slope of log max(H) over period slices, fitted on
    the middle half of the window.  meta['martin'] is H itself."""
    win = H.window
    nx = win.grid.nx
    P = win.grid.spec.P
    n = H.n_used
    xs, ys = [], []
    for j in range(-n, n + 1):
        col = min((j + n) * nx, H.values.shape[1] - 1)
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
    slope, r2, ci = _slope_fit(xs[lo:hi], ys[lo:hi], "growth")
    return RhoEstimate("growth", slope, ci, (int(xs[lo] / P), int(xs[hi - 1] / P)),
                       {"r2": r2, "converged_window": H.converged, "martin": H})


def rho_from_hm_decay(mask: DomainMask, component: int = 0,
                      z0: Optional[tuple] = None, n_min: int = 3,
                      n_max: int = 8) -> RhoEstimate:
    """Slope of -log omega(z0, crosscut at n periods) against n*P, with
    the two-sided band check omega * e^{rho n P} confined to a fixed
    ratio band.  The crosscut windows span [-LEFT_PERIODS, n] periods;
    the default z0 is the middle of period [-1, 0]."""
    return _hm_decay(PeriodChain("face"), mask, component, z0, n_min, n_max)


def _hm_decay(chain: PeriodChain, mask: DomainMask, component: int,
              z0: Optional[tuple], n_min: int, n_max: int) -> RhoEstimate:
    """rho_from_hm_decay on a 'face' chain the caller owns."""
    nx = mask.grid.nx
    win, z0_cell = _lift(mask, component, -LEFT_PERIODS, n_max, z0,
                         column=LEFT_PERIODS * nx - nx // 2)
    P = mask.grid.spec.P
    sweep = chain.sweep(win)
    ns, omegas = [], []
    for nn in range(n_min, n_max + 1):
        w = sweep.value(_crosscut_measure(sweep, nn + LEFT_PERIODS), z0_cell)
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
    slope, r2, ci = _slope_fit(xs[lo:hi], ys[lo:hi], "decay")
    band = np.array(omegas) * np.exp(slope * xs)
    band_ratio = float(band.max() / band.min())
    return RhoEstimate("hm_decay", slope, ci, (ns[lo], ns[hi - 1]),
                       {"r2": r2, "band_ratio": band_ratio,
                        "omegas": omegas, "truncated": len(ns) < n_max - n_min + 1})


def _quad_modulus(window: LogWindow, col0: int, col1: int,
                  chain: PeriodChain) -> float:
    """Conformal modulus of the quadrilateral between two crosscut
    columns, a whole number of periods apart, by the Dirichlet-energy
    method: potential 0 / 1 on the crosscuts, insulated sides; modulus =
    1/energy, the energy being the DtN quadratic form of the 0/1 data on
    the 'neumann' chain.  The P x W rectangle yields exactly P/W under
    this convention.  When the columns cut the window into pieces, the
    largest piece is the quadrilateral, provided it holds at least half
    of the cells."""
    nblocks, rest = divmod(col1 - col0, window.grid.nx)
    if nblocks < 1 or rest:
        raise ConfigError("crosscuts must be a whole number of periods apart")
    inside = window.inside.copy()
    inside[:, :col0] = False
    inside[:, col1 + 1:] = False
    if not inside.any():
        raise NotSimplyConnected("empty quadrilateral")
    lab, ncomp = ndimage.label(inside)
    if ncomp != 1:
        sizes = np.bincount(lab.ravel())[1:]
        if sizes.max() < 0.5 * sizes.sum():
            raise NotSimplyConnected("quadrilateral splits into pieces")
        inside = lab == 1 + np.argmax(sizes)
    if not (inside[:, col0].any() and inside[:, col1].any()):
        raise NotSimplyConnected("degenerate quadrilateral energy")
    blocks = LogWindow(window.grid, window.px_lo, window.px_lo + nblocks,
                       window.py_lo, window.py_hi, inside[:, col0:col1])
    return 1.0 / chain.sweep(blocks, clamp_left=True).energy(nblocks, inside[:, col1])


def rho_from_modulus(mask: DomainMask, component: int = 0,
                     z0: Optional[tuple] = None) -> RhoEstimate:
    """(pi/P) times the conformal modulus of the one-period quadrilateral
    between the crosscut at x=0 and its translate at x=P, on the piece of
    the lift through z0.

    Requires the lift to meet the x=0 slice in a single arc (separating
    circle); more arcs raise NotSeparating.  When the piece's arc at x=P
    lies on other rows than its arc at x=0 (a winding tube), the quad is
    not a fundamental domain of the lift: the value is kept and
    meta['reason'] says so."""
    return _modulus(PeriodChain("neumann"), mask, component, z0)


def _modulus(chain: PeriodChain, mask: DomainMask, component: int,
             z0: Optional[tuple]) -> RhoEstimate:
    """rho_from_modulus on a 'neumann' chain the caller owns."""
    nx = mask.grid.nx
    win, _ = _lift(mask, component, 0, 2, z0)
    runs0 = _arc_runs(win.inside[:, 0])
    if len(runs0) != 1:
        raise NotSeparating(f"{len(runs0)} arcs on the x=0 slice")
    mod = _quad_modulus(win, 0, nx, chain)
    meta = {"modulus": mod}
    if not np.array_equal(win.inside[:, 0], win.inside[:, nx]):
        meta["reason"] = OBLIQUE
    P = mask.grid.spec.P
    return RhoEstimate("modulus", float(np.pi / P * mod), 0.0, (0, 1), meta)


def rho_from_extremal(mask: DomainMask, component: int = 0,
                      n_list: Sequence[int] = (2, 3, 4, 5),
                      z0: Optional[tuple] = None) -> RhoEstimate:
    """Extremal distance route: d(I_0, I_n) is the modulus of the
    n-period quadrilateral; rho = (pi/P) * lim d/n, from a slope fit."""
    return _extremal(PeriodChain("neumann"), mask, component, n_list, z0)


def _extremal(chain: PeriodChain, mask: DomainMask, component: int,
              n_list: Sequence[int], z0: Optional[tuple]) -> RhoEstimate:
    """rho_from_extremal on a 'neumann' chain the caller owns."""
    win, _ = _lift(mask, component, 0, max(n_list) + 1, z0)
    ds = [_quad_modulus(win, 0, nn * mask.grid.nx, chain) for nn in n_list]
    slope, r2, ci = _slope_fit(np.array(n_list, float), np.array(ds),
                               "extremal")
    P = mask.grid.spec.P
    return RhoEstimate("extremal", float(np.pi / P * slope),
                       float(np.pi / P * ci), (min(n_list), max(n_list)),
                       {"r2": r2, "distances": ds})


def beta_functional(window: LogWindow, values: np.ndarray, z0: tuple,
                    n_range: Sequence[int]) -> dict:
    """Growth-against-measure functional: for each n in range,
    (max of the field on the n-period crosscut) * omega(z0, crosscut);
    flagged diverging when it climbs by more than 10x across the range.
    Bounded sequences indicate minimal growth; channel-limit functions
    diverge."""
    z0_cell = window.cell_of(*z0)
    nblocks = [nn - window.px_lo for nn in n_range]
    sweep = PeriodChain("face").sweep(window, max(nblocks))
    seq = []
    for k in nblocks:
        w = sweep.value(_crosscut_measure(sweep, k), z0_cell)
        col = k * window.grid.nx - 1
        m = float(values[:, col][window.inside[:, col]].max())
        seq.append(m * w)
    seq = np.array(seq)
    diverging = bool(seq[-1] > 10.0 * max(seq[0], 1e-300))
    return {"beta": float(seq.max()), "sequence": seq,
            "diverging": diverging, "n_range": tuple(n_range)}


def rho_estimates(mask: DomainMask, component: int = 0,
                  z0: Optional[tuple] = None, n_martin: int = 6,
                  n_decay: tuple = (3, 8), extremal_ns: Sequence[int] = (2, 3, 4, 5),
                  include_pencil: bool = True) -> list:
    """All growth estimators for one component, plus the pencil value.
    The growth estimate comes first and carries the Martin function in
    meta['martin'].  The estimators share one 'face' chain (Martin
    function, hm_decay), then one 'neumann' chain (modulus, extremal), so
    each period-block pattern is factored once per boundary rule."""
    face = PeriodChain("face")
    H = _martin(face, mask, component, z0, n_martin)
    out = [rho_from_growth(H),
           _hm_decay(face, mask, component, z0, n_decay[0], n_decay[1])]
    del face        # free its blocks before the quads factor theirs
    neumann = PeriodChain("neumann")
    out += [_modulus(neumann, mask, component, z0),
            _extremal(neumann, mask, component, extremal_ns, z0)]
    if include_pencil:
        from .pencil import rho_min
        r = rho_min(mask)
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
