"""Quadratic eigenvalue problem for the pencil K + 2*rho*B + rho^2*I.

K is the masked Dirichlet Laplacian, B the centered d/dx; eigenvalues
rho with a nontrivial kernel make up the discrete spectrum of the
homogeneous boundary problem  L_rho q = 0, q = 0 on the boundary.

spectrum() finds the eigenpairs in a complex box from the companion
linearization

        A (q, rho*q) = rho (q, rho*q),    A = [[0, I], [-K, -2B]],

solved densely for small interiors and by multi-shift shift-invert
Arnoldi otherwise.  One application of (A - sigma)^(-1) costs a single
sparse solve with Q(sigma) = K + 2*sigma*B + sigma^2*I.  It returns
eigenpairs only; the critical value comes from rho_min().

rho_min() finds the critical value rho(D) without the companion.  While
rho*hx < 1 the off-diagonal entries 1/hx^2 +- rho/hx and 1/hy^2 of
A(rho) = K + 2*rho*B + rho^2*I are positive, so on one 4-connected
component A(rho) is an irreducible Metzler matrix.  By Perron-Frobenius
its rightmost eigenvalue mu(rho) is real and simple, and its eigenvector
is the only one of a single sign.  rho(D) is therefore the least
positive root of mu, with mu(0) = -lambda_1(-K) < 0.  Each evaluation of
mu is one real n x n shift-invert Arnoldi solve at the shift rho^2,
which lies above mu because every row sum of A(rho) is at most rho^2;
an evaluation counts only if its eigenvector has a single sign, which
certifies it as the Perron pair.  A safeguarded secant in rho^2 brackets
and refines the root; mu is not monotone, and the search stops without
a value below rho*hx = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from .errors import SolverFailure
from .operators import assemble
from .torus import TWO_PI, DomainMask, GridField, components, reflect_mask

__all__ = [
    "PencilSystem", "SpectrumResult", "spectrum", "rho_min",
    "check_spectrum_symmetries", "check_monotonicity",
    "check_shrinking_limit", "matsaev_probe",
]

DENSE_CUTOFF = 1200
K_PER_SHIFT = 16        # companion eigenpairs requested per Arnoldi shift
TOL_RES = 1e-8          # relative residual bound of a certified eigenpair
SHIFT_RTOL = 0.03       # the 2*pi*i/P shift is an O(h^2) symmetry of the pencil
MATCH_RTOL = 1e-6       # conjugation, reflection and translation are exact

# rho_min: Perron evaluations stop below rho*hx = RHO_HX_MAX, where the
# x-couplings 1/hx^2 - rho/hx of A(rho) are still positive
RHO_HX_MAX = 0.999
MAX_EVALS = 40
TOL_X = 1e-12           # relative root tolerance
GROW_MAX = 4.0          # largest upward step factor in rho^2 before a sign change
SIGN_TOL = 1e-10        # most negative entry of a peak-normalized Perron vector


def erode_periodic(inside: np.ndarray, steps: int = 1) -> np.ndarray:
    out = inside.copy()
    for _ in range(steps):
        out = (out
               & np.roll(out, 1, 0) & np.roll(out, -1, 0)
               & np.roll(out, 1, 1) & np.roll(out, -1, 1))
    return out


@dataclass
class SpectrumResult:
    """Certified pencil eigenvalues with eigenfunctions and residuals in a
    search box; the critical value rho(D) is rho_min(), not a field."""

    eigenvalues: np.ndarray
    eigenfunctions: list
    residuals: np.ndarray
    domain: DomainMask
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.eigenvalues)


class PencilSystem:
    """Matrices and solvers for the pencil of one mask."""

    def __init__(self, mask: DomainMask, bc: str = "face"):
        self.mask = mask
        self.bc = bc
        self.opK = assemble(mask, "laplacian", bc=bc)
        self.opB = assemble(mask, "d_dx", bc=bc)
        self.K = self.opK.matrix.tocsc()
        self.B = self.opB.matrix.tocsc()
        self.n = self.K.shape[0]
        hx, hy = mask.grid.hx, mask.grid.hy
        self._kscale = 4.0 / hx ** 2 + 4.0 / hy ** 2
        self._bscale = 1.0 / hx

    # -- residual and certification -----------------------------------
    def residual(self, rho: complex, q: np.ndarray) -> float:
        r = self.K @ q + 2.0 * rho * (self.B @ q) + rho * rho * q
        scale = (self._kscale + 2.0 * abs(rho) * self._bscale + abs(rho) ** 2)
        return float(np.linalg.norm(r) / (np.linalg.norm(q) * scale))

    def normalize(self, q: np.ndarray) -> np.ndarray:
        peak = q[np.argmax(np.abs(q))]
        return q / peak

    def embed_field(self, q: np.ndarray, real: bool = False) -> GridField:
        if real:
            q = np.real(self.normalize(q))
        vals = self.opK.embed(q)
        return GridField(self.mask.grid, vals, {"bc": self.bc})

    # -- eigenvalue engines --------------------------------------------
    def perron(self, rho: float):
        """Perron pair (mu, q) of the real matrix A(rho), rho*hx < 1.

        Every row sum of A(rho) is at most rho^2, so mu < rho^2 and
        rho^2 I - A(rho) = -K - 2*rho*B is a nonsingular M-matrix with a
        positive inverse, whose dominant eigenpair is the Perron pair.
        q is peak-normalized; it is positive iff the pair is the Perron
        pair, which the caller checks.
        """
        n = self.n
        try:
            lu = splu((-self.K - 2.0 * rho * self.B).tocsc())
            op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
            theta, v = eigs(op, k=1, which="LM", v0=np.ones(n))
        except (RuntimeError, ArpackNoConvergence) as exc:
            raise SolverFailure(f"Perron solve failed at rho={rho:.6g}: {exc}") from exc
        q = self.normalize(v[:, 0])
        return rho * rho - 1.0 / float(theta[0].real), q.real

    def dense_eigs(self):
        Kd = self.K.toarray()
        Bd = self.B.toarray()
        n = self.n
        A = np.zeros((2 * n, 2 * n))
        A[:n, n:] = np.eye(n)
        A[n:, :n] = -Kd
        A[n:, n:] = -2.0 * Bd
        from scipy.linalg import eig
        vals, vecs = eig(A)
        return vals, vecs[:n, :]

    def eigs_near(self, sigma: complex):
        """K_PER_SHIFT eigenpairs of the companion nearest sigma via
        shift-invert, from a fixed start vector."""
        n = self.n
        k = min(K_PER_SHIFT, 2 * n - 2)
        Q = (self.K + 2.0 * sigma * self.B
             + sigma * sigma * sparse.identity(n, format="csc"))
        try:
            lu = splu(Q.astype(np.complex128))
        except RuntimeError:
            sigma = sigma + 1e-3 + 1e-3j
            Q = (self.K + 2.0 * sigma * self.B
                 + sigma * sigma * sparse.identity(n, format="csc"))
            lu = splu(Q.astype(np.complex128))

        B = self.B

        def opinv(w):
            f, g = w[:n], w[n:]
            u = -lu.solve(g + 2.0 * (B @ f) + sigma * f)
            return np.concatenate([u, f + sigma * u])

        def amat(w):
            f, g = w[:n], w[n:]
            return np.concatenate([g, -(self.K @ f) - 2.0 * (B @ g)])

        A_op = LinearOperator((2 * n, 2 * n), matvec=amat, dtype=np.complex128)
        OPinv = LinearOperator((2 * n, 2 * n), matvec=opinv, dtype=np.complex128)
        v0 = np.random.default_rng(0).standard_normal(2 * n) + 0j
        try:
            vals, vecs = eigs(A_op, k=k, sigma=sigma, OPinv=OPinv, v0=v0,
                              maxiter=3000)
        except ArpackNoConvergence as exc:
            vals, vecs = exc.eigenvalues, exc.eigenvectors
            if vals.size == 0:
                raise SolverFailure(f"ARPACK failed near sigma={sigma}") from exc
        return vals, vecs[:n, :]


def _collect(system: PencilSystem, raw_vals, raw_vecs, accepted: dict):
    """Residual-certify and deduplicate eigenpairs into `accepted`."""
    for idx in range(len(raw_vals)):
        rho = complex(raw_vals[idx])
        q = raw_vecs[:, idx]
        res = system.residual(rho, q)
        if res > TOL_RES:
            continue
        key = None
        for existing in accepted:
            if abs(rho - existing) <= 1e-6 * (1.0 + abs(existing)):
                key = existing
                break
        if key is None:
            accepted[rho] = (res, q)
        elif res < accepted[key][0]:
            accepted[key] = (res, q)


def _default_shifts(box, P: float) -> list:
    re0, re1, im0, im1 = box
    nre = int(np.clip(np.ceil((re1 - re0) / 2.0), 2, 6))
    res = np.linspace(re0 + 0.1 * (re1 - re0), re1 - 0.1 * (re1 - re0), nre)
    ims = {0.0} if im0 <= 0.0 <= im1 else set()
    step = TWO_PI / P
    m = 1
    while -m * step >= im0 or m * step <= im1:
        for s in (-m * step, m * step):
            if im0 <= s <= im1:
                ims.add(s)
        m += 1
        if m > 8:
            break
    shifts = [complex(r, i) for r in res for i in sorted(ims)]
    return shifts


def spectrum(mask: DomainMask, search_box, max_count: int = 200,
             bc: str = "face") -> SpectrumResult:
    """All certified pencil eigenvalues in a box (re0, re1, im0, im1).

    Every reported pair satisfies the relative residual bound TOL_RES;
    if more than max_count survive, the list is truncated by |rho| and
    flagged in meta['truncated'].
    """
    re0, re1, im0, im1 = search_box
    system = PencilSystem(mask, bc=bc)
    accepted: dict = {}
    if system.n <= DENSE_CUTOFF:
        vals, vecs = system.dense_eigs()
        keep = np.isfinite(vals)
        _collect(system, vals[keep], vecs[:, keep], accepted)
        mode = "dense"
    else:
        for sigma in _default_shifts(search_box, mask.grid.spec.P):
            try:
                vals, vecs = system.eigs_near(sigma)
            except SolverFailure:
                continue
            _collect(system, vals, vecs, accepted)
        mode = "shift-invert"

    inbox = [(r, v) for r, v in accepted.items()
             if re0 <= r.real <= re1 and im0 <= r.imag <= im1]
    inbox.sort(key=lambda t: abs(t[0]))
    truncated = len(inbox) > max_count
    inbox = inbox[:max_count]

    eigenvalues = np.array([r for r, _ in inbox])
    residuals = np.array([v[0] for _, v in inbox])
    fields = [system.embed_field(system.normalize(v[1])) for _, v in inbox]
    meta = {"mode": mode, "tol_res": TOL_RES, "box": tuple(search_box),
            "truncated": truncated, "bc": bc}
    return SpectrumResult(eigenvalues, fields, residuals, mask, meta)


def _tol_real(mask: DomainMask, tol_res: float) -> float:
    h = max(mask.grid.hx, mask.grid.hy)
    return 10.0 * tol_res + 5.0 * h * h


@dataclass
class RhoMinResult:
    value: Optional[float]
    eigenfunction: Optional[GridField]
    residual: Optional[float]
    meta: dict


def _component_rho_min(mask: DomainMask, bc: str) -> RhoMinResult:
    """Least positive root of mu on one component by a safeguarded
    secant in t = rho^2, in which mu is close to linear: an upward
    search for a sign change, then secant steps that fall back to
    bisection when they leave the bracket.  mu need not be monotone, so
    no step assumes it; every loop is capped by MAX_EVALS."""
    system = PencilSystem(mask, bc=bc)
    t_cap = (RHO_HX_MAX / mask.grid.hx) ** 2
    meta: dict = {"bc": bc, "mode": "perron", "evaluations": 0}
    pts: list = []                          # (t, mu) in evaluation order

    def evaluate(t):
        mu, q = system.perron(np.sqrt(t))
        pts.append((t, mu))
        meta["evaluations"] = len(pts)
        meta["sign_margin"] = float(q.min())
        if q.min() < -SIGN_TOL:
            raise SolverFailure(f"Perron vector changes sign at rho={np.sqrt(t):.6g} "
                                f"(rho*hx={np.sqrt(t) * mask.grid.hx:.3g})")
        return mu, q

    try:
        mu, q = evaluate(0.0)               # mu(0) = -lambda_1(-K) < 0
        lo, hi = 0.0, None
        t = min(-mu, t_cap)                 # rho^2 = lambda_1 if B were skew
        while True:
            if len(pts) >= MAX_EVALS:
                raise SolverFailure(f"no convergence in {MAX_EVALS} evaluations")
            mu, q = evaluate(t)
            slope = (mu - pts[-2][1]) / (t - pts[-2][0])
            if mu < 0.0:
                lo = t
            else:
                hi = t
            meta["bracket"] = (float(np.sqrt(lo)),
                               None if hi is None else float(np.sqrt(hi)))
            if (abs(mu) <= TOL_X * t * abs(slope)
                    or (hi is not None and hi - lo <= TOL_X * hi)):
                break
            step = -mu / slope if slope != 0.0 else np.inf
            if hi is None:
                if t >= t_cap:
                    raise SolverFailure(
                        f"no Perron root below rho*hx={RHO_HX_MAX} "
                        f"(mu({np.sqrt(t):.6g}) = {mu:.3g})")
                t = min(t + step if slope > 0.0 else np.inf, GROW_MAX * t, t_cap)
            else:
                t = t + step
                if not lo < t < hi:
                    t = 0.5 * (lo + hi)
    except SolverFailure as exc:
        meta["note"] = str(exc)
        return RhoMinResult(None, None, None, meta)
    rho = float(np.sqrt(t))
    res = system.residual(rho, q)
    if res > TOL_RES:
        meta["note"] = f"residual {res:.2e} > {TOL_RES:.0e} at rho={rho:.6g}"
        return RhoMinResult(None, None, None, meta)
    return RhoMinResult(rho, system.embed_field(q, real=True), res, meta)


def rho_min(mask: DomainMask, bc: str = "face", full_result: bool = False):
    """Critical value rho(D): the least positive root of the Perron
    eigenvalue mu(rho) of A(rho) = K + 2*rho*B + rho^2*I, searched below
    rho*hx = RHO_HX_MAX; None when no component is connected on spirals
    or no root is found (the reason is in meta['note']).

    For multi-component masks the minimum over components is returned
    (the widest component governs).  With full_result the RhoMinResult
    carries the peak-normalized positive eigenfunction, its relative
    residual, and meta: mode 'perron', evaluations (Perron eigen-solves
    over all components), the final bracket (lo, hi) of the returned
    component (hi is None when the root was reached from below) and the
    sign margin (least entry of the peak-normalized eigenvector).  The
    solve is deterministic: the Perron iteration starts from ones.
    """
    if mask.n_components == 1:
        parts = [mask]
    else:
        parts = components(mask)
    results = []
    for part in parts:
        if part.spiral_of(0).connected:
            results.append(_component_rho_min(part, bc))
    valued = [r for r in results if r.value is not None]
    if valued:
        best = min(valued, key=lambda r: r.value)
    elif results:
        best = results[0]
    else:
        best = RhoMinResult(None, None, None, {
            "mode": "perron", "note": "no component connected on spirals"})
    best.meta["evaluations"] = sum(r.meta["evaluations"] for r in results)
    h = max(mask.grid.hx, mask.grid.hy)
    if best.value is not None and best.value * h > 1.0:
        best.meta["grid_limited"] = True
    # a near-empty complement means the boundary barely has capacity at
    # this resolution; such values only compare across grids
    n_out = int((~mask.inside).sum())
    if n_out <= max(4, mask.grid.ncells // 500):
        best.meta["resolution_limited"] = True
    return best if full_result else best.value


# ----------------------------------------------------------------------
# verification-style checks
# ----------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict


def check_spectrum_symmetries(result: SpectrumResult) -> CheckReport:
    """Verify the structural symmetries of the computed spectrum.

    (1) no eigenvalue on the imaginary axis, (2) closure under
    conjugation (to MATCH_RTOL) and under the vertical shift 2*pi*i/P
    (to SHIFT_RTOL), (3) Spec(-D) = -Spec(D) by recomputation on the
    reflected mask, (4) invariance under whole-cell translation.  The
    recomputations use the boundary condition of the result.
    """
    mask = result.domain
    P = mask.grid.spec.P
    vals = result.eigenvalues
    bc = result.meta["bc"]
    details: dict = {}
    tol_re = _tol_real(mask, result.meta["tol_res"])
    details["imaginary_axis_violations"] = [
        complex(r) for r in vals if abs(r.real) <= tol_re]

    def match(target, pool):
        if len(pool) == 0:
            return np.inf
        return float(np.min(np.abs(pool - target)) / (1.0 + abs(target)))

    re0, re1, im0, im1 = result.meta["box"]

    def in_box(z, margin=0.0):
        return (re0 + margin <= z.real <= re1 - margin
                and im0 + margin <= z.imag <= im1 - margin)

    conj_miss = [complex(r) for r in vals
                 if in_box(np.conj(r)) and match(np.conj(r), vals) > MATCH_RTOL]
    details["conjugation_misses"] = conj_miss

    shift = 2j * np.pi / P
    shift_miss = []
    margin = 0.05 * (im1 - im0)
    for r in vals:
        for s in (shift, -shift):
            t = r + s
            if in_box(t, margin) and match(t, vals) > SHIFT_RTOL:
                shift_miss.append((complex(r), complex(t)))
    details["shift_misses"] = shift_miss

    neg_box = (-re1, -re0, -im1, -im0)
    reflected = spectrum(reflect_mask(mask), neg_box, bc=bc)
    refl_miss = []
    for r in vals:
        t = -r
        # -Spec(D) should appear in Spec(D_-); exact discrete symmetry
        if match(t, reflected.eigenvalues) > MATCH_RTOL:
            refl_miss.append(complex(r))
    details["reflection_misses"] = refl_miss

    from .torus import translate_mask
    shifted_mask = translate_mask(mask, 3, 5)
    translated = spectrum(shifted_mask, result.meta["box"], bc=bc)
    trans_miss = [complex(r) for r in vals
                  if match(r, translated.eigenvalues) > MATCH_RTOL]
    details["translation_misses"] = trans_miss

    passed = (not details["imaginary_axis_violations"] and not conj_miss
              and not shift_miss and not refl_miss and not trans_miss)
    return CheckReport("spectrum_symmetries", passed, details)


def check_monotonicity(mask1: DomainMask, mask2: DomainMask,
                       bc: str = "face") -> CheckReport:
    """Strict monotonicity rho(D1) > rho(D2) for D1 strictly inside D2."""
    if not np.all(~mask1.inside | mask2.inside):
        raise ValueError("mask1 must be contained in mask2")
    diff = int((mask2.inside & ~mask1.inside).sum())
    if diff == 0:
        raise ValueError("containment must be strict")
    r1 = rho_min(mask1, bc=bc)
    r2 = rho_min(mask2, bc=bc)
    h = max(mask1.grid.hx, mask1.grid.hy)
    margin = 1e-8
    ok = (r1 is not None and r2 is not None and r1 > r2 + margin)
    return CheckReport("strict_monotonicity", bool(ok),
                       {"rho1": r1, "rho2": r2, "cells_removed": diff,
                        "margin": margin, "h": h})


def check_shrinking_limit(masks: Sequence[DomainMask], mask_limit: DomainMask,
                          compact: Optional[np.ndarray] = None,
                          bc: str = "face", rtol: float = 0.05) -> CheckReport:
    """rho(D_n) decreases along an increasing exhaustion D_n up to D and
    approaches rho(D); normalized eigenfunctions converge on a fixed
    compact sub-mask."""
    values, fields = [], []
    for m in masks:
        r = rho_min(m, bc=bc, full_result=True)
        values.append(r.value)
        fields.append(r.eigenfunction)
    r_lim = rho_min(mask_limit, bc=bc)
    eps = 1e-10
    decreasing = all(values[i] + eps >= values[i + 1]
                     for i in range(len(values) - 1))
    approaches = (values[-1] is not None and r_lim is not None
                  and abs(values[-1] - r_lim) <= rtol * abs(r_lim))
    sup_diffs = []
    if compact is None:
        compact = erode_periodic(masks[0].inside, 2)
    for a, b in zip(fields[:-1], fields[1:]):
        if a is None or b is None:
            continue
        va = np.abs(a.values.real)
        vb = np.abs(b.values.real)
        va = va / va[compact].max()
        vb = vb / vb[compact].max()
        sup_diffs.append(float(np.max(np.abs(va - vb)[compact])))
    converging = all(d2 <= d1 + 0.02 for d1, d2 in zip(sup_diffs, sup_diffs[1:]))
    return CheckReport(
        "shrinking_limit",
        bool(decreasing and approaches and converging),
        {"rho_sequence": values, "rho_limit": r_lim, "sup_diffs": sup_diffs})


def matsaev_probe(mask: DomainMask, box=None, bc: str = "face") -> CheckReport:
    """Exploratory comparison of Spec(D) and Spec(-D) plus the identity
    'largest negative spectrum point = -rho(D)'.

    The set equality Spec(D) = Spec(-D) is an open question; the probe
    reports the Hausdorff distance without asserting it.  A mask that is
    its own reflection reuses its spectrum and rho_min for -D.
    """
    P = mask.grid.spec.P
    rmin = rho_min(mask, bc=bc)
    if box is None:
        hi = 3.0 * (rmin or 3.0)
        box = (-hi, hi, -1.2 * TWO_PI / P, 1.2 * TWO_PI / P)
    reflected = reflect_mask(mask)
    symmetric = np.array_equal(reflected.inside, mask.inside)
    spec_d = spectrum(mask, box, bc=bc)
    spec_r = spec_d if symmetric else spectrum(reflected, box, bc=bc)

    a, b = spec_d.eigenvalues, spec_r.eigenvalues
    if len(a) and len(b):
        d_ab = max(np.min(np.abs(b[None, :] - a[:, None]), axis=1).max(),
                   np.min(np.abs(a[None, :] - b[:, None]), axis=1).max())
    else:
        d_ab = np.inf if len(a) != len(b) else 0.0

    # Prop-6.7-style identity via the exact reflection symmetry:
    # largest negative point of Spec(D) equals -rho_min(reflect(D))
    rmin_r = rmin if symmetric else rho_min(reflected, bc=bc)
    neg = [r.real for r in spec_d.eigenvalues
           if r.real < 0 and abs(r.imag) <= _tol_real(mask, TOL_RES)]
    max_negative = max(neg) if neg else None
    identity_ok = None
    if max_negative is not None and rmin is not None:
        identity_ok = bool(abs(max_negative + rmin) <= 0.02 * rmin)
    return CheckReport("matsaev_probe", True, {
        "hausdorff": float(d_ab),
        "n_spec": len(a), "n_spec_reflected": len(b),
        "rho_min": rmin, "rho_min_reflected": rmin_r,
        "max_negative_real": max_negative,
        "neg_identity_within_2pct": identity_ok,
    })
