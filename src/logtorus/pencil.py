"""Quadratic eigenvalue problem for the pencil K + 2*rho*B + rho^2*I.

K is the masked Dirichlet Laplacian, B the centered d/dx; eigenvalues
rho with a nontrivial kernel make up the discrete spectrum of the
homogeneous boundary problem  L_rho q = 0, q = 0 on the boundary.

spectrum() finds the eigenpairs in a complex box by one contour filter
(Beyn's integral method, W.-J. Beyn, Linear Algebra Appl. 436, 2012, in
the Rayleigh-Ritz form of Sakurai and Sugiura) on T(z) = K + 2zB + z^2 I.
NODES trapezoid nodes z_j on an ellipse through the corners of the box
and of its conjugate give the moments S_k = sum_j w_j z_j^k T(z_j)^(-1)
T'(z_j) V, k = 0, 1, of deterministic +-1 probes V.  K and B are real, so
only the upper-half nodes take a complex LU, one at a time.  tr(V^T S_0)/L
estimates the eigenvalue count in the contour (the argument principle);
K and B projected onto the orthonormalized [S_0 S_1] give a small
quadratic problem solved by its dense companion, and every returned
pair passes the residual bound TOL_RES.  A filtered block without a
singular value below SAT_TOL per unit probe norm is saturated and is
grown once; one still saturated is reported in meta['reason'].

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

Every LU here, the real Perron ones and the complex contour ones, is
built by operators.LinearSystem, one at a time.  ARPACK and the contour
solves call its SuperLU factor directly, without LinearSystem's
residual check: each returned pair is certified by TOL_RES instead, and
a Perron pair also by its sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eig
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .errors import SolverFailure
from .operators import LinearSystem, assemble
from .torus import TWO_PI, DomainMask, GridField, components, reflect_mask

__all__ = [
    "PencilSystem", "SpectrumResult", "spectrum", "rho_min",
    "check_spectrum_symmetries", "check_monotonicity",
    "check_shrinking_limit", "matsaev_probe",
]

TOL_RES = 1e-8          # relative residual bound of a certified eigenpair
SHIFT_C = 0.04          # 2*pi*i/P shift mismatch bound per (h*|lambda|)^2
MATCH_RTOL = 1e-6       # conjugation, reflection and translation are exact

# spectrum: contour filter
NODES = 32              # trapezoid nodes on the ellipse; NODES // 2 complex LUs
PROBES = 16             # columns of the first +-1 probe block
PROBES_MAX = 64         # bound of the block grown once from the count estimate
SAT_TOL = 1e-9          # filtered singular value, per unit probe norm, that is resolved
PROBE_SEED = 2012       # the probes are the same on every call

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
        # ARPACK calls the factor directly: the sign check certifies the pair
        lu = LinearSystem(replace(self.opK, matrix=-self.K - 2.0 * rho * self.B)).lu
        op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
        try:
            theta, v = eigs(op, k=1, which="LM", v0=np.ones(n))
        except ArpackNoConvergence as exc:
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
        vals, vecs = eig(A)
        return vals, vecs[:n, :]

    def eigs_near(self, contour):
        """(values, vectors, info) of the Ritz pairs inside the ellipse
        `contour` = (center, a, b), not yet residual-checked.

        A saturated block of PROBES probes is grown once: by the count
        estimate plus three standard errors, and at least by PROBES, up
        to PROBES_MAX columns; only the new columns are filtered.
        info['reason'] says when the grown block is saturated too.
        """
        V = _probes(self.n, PROBES)
        S = self._filter(contour, V)
        Q, saturated = _filtered_basis(S, PROBES)
        count, err = _count_estimate(V, S[0])
        passes = 1
        if saturated:
            L = min(PROBES_MAX, PROBES + max(PROBES, int(np.ceil(count + 3.0 * err))))
            V = _probes(self.n, L)
            S = np.concatenate([S, self._filter(contour, V[:, PROBES:])], axis=2)
            Q, saturated = _filtered_basis(S, L)
            count, err = _count_estimate(V, S[0])
            passes = 2
        L = V.shape[1]
        info = {"count_estimate": count, "count_error": err, "probes": L,
                "nodes": NODES, "factorizations": passes * (NODES // 2)}
        if saturated:
            info["reason"] = (f"filtered block saturated at {L} probes: no singular "
                              f"value below {SAT_TOL:.0e} per unit probe norm, so "
                              f"eigenvalues in the contour may be missing")
        values, vectors = self._ritz(Q)
        center, a, b = contour
        inside = ((values.real - center) / a) ** 2 + (values.imag / b) ** 2 <= 1.0
        return values[inside], vectors[:, inside], info

    def _filter(self, contour, V: np.ndarray) -> np.ndarray:
        """Moments S_0, S_1 of the trapezoid rule for
        (1/2 pi i) ∮ z'^k T(z)^(-1) T'(z) V dz, z' = (z - center)/radius,
        as one real (2, n, L) array; one complex LU at a time."""
        center, a, b = contour
        radius = max(a, b)
        eye = sparse.identity(self.n, format="csc")
        BV = self.B @ V
        S = np.zeros((2,) + V.shape)
        for t in np.pi * (np.arange(NODES // 2) + 0.5) / (NODES // 2):
            z = center + a * np.cos(t) + 1j * b * np.sin(t)
            w = (-a * np.sin(t) + 1j * b * np.cos(t)) / (1j * NODES)
            T = self.K + 2.0 * z * self.B + z * z * eye
            lu = LinearSystem(replace(self.opK, matrix=T)).lu
            # one column at a time: SuperLU solves a block through BLAS-3
            # calls that multi-threaded OpenBLAS splits, and the spinning
            # worker then slows the single-threaded work that follows
            R = 2.0 * BV + 2.0 * z * V
            Y = w * np.column_stack([lu.solve(R[:, k]) for k in range(R.shape[1])])
            del lu      # one LU at a time
            # the conjugate node contributes the conjugate term
            S[0] += 2.0 * Y.real
            S[1] += 2.0 * (Y * ((z - center) / radius)).real
        return S

    def _ritz(self, Q: np.ndarray):
        """Eigenpairs of the pencil projected onto the columns of Q."""
        r = Q.shape[1]
        A = np.zeros((2 * r, 2 * r))
        A[:r, r:] = np.eye(r)
        A[r:, :r] = -(Q.T @ (self.K @ Q))
        A[r:, r:] = -2.0 * (Q.T @ (self.B @ Q))
        vals, vecs = eig(A)
        return vals, Q @ vecs[:r, :]


def _ellipse(box):
    """(center, a, b) of the ellipse center + a cos t + i b sin t through
    the corners of the box and of its conjugate, axes along their hull."""
    re0, re1, im0, im1 = box
    if not (re0 < re1 and im0 <= im1):
        raise ValueError(f"empty search box {box}")
    half = 0.5 * (re1 - re0)
    height = max(abs(im0), abs(im1)) or half
    return re0 + half, np.sqrt(2.0) * half, np.sqrt(2.0) * height


def _probes(n: int, L: int) -> np.ndarray:
    """n x L deterministic +-1 probes; a wider block extends a narrower."""
    signs = np.random.default_rng(PROBE_SEED).integers(0, 2, size=(L, n))
    return (2.0 * signs - 1.0).T


def _count_estimate(V: np.ndarray, S0: np.ndarray):
    """tr(V^T S_0)/L, the Hutchinson estimate of the number of
    eigenvalues in the contour, and its standard error."""
    per_probe = np.einsum("ij,ij->j", V, S0)
    L = len(per_probe)
    return float(per_probe.mean()), float(per_probe.std(ddof=1) / np.sqrt(L))


def _filtered_basis(S: np.ndarray, L: int):
    """Orthonormal basis of the directions of [S_0 S_1] above SAT_TOL per
    unit probe norm, and whether no direction fell below it.  An
    eigenvalue inside the contour gives a direction of order sqrt(L), one
    outside it that times its filter value."""
    M = np.hstack([S[0], S[1]])
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    keep = sv > SAT_TOL * np.sqrt(L)
    # with fewer unknowns than columns the basis spans the whole space
    return U[:, keep], bool(keep.all()) and len(sv) == M.shape[1]


def spectrum(mask: DomainMask, search_box, max_count: int = 200,
             bc: str = "face") -> SpectrumResult:
    """All certified pencil eigenvalues in a box (re0, re1, im0, im1).

    Every reported pair satisfies the relative residual bound TOL_RES;
    if more than max_count survive, the list is truncated by |rho| and
    flagged in meta['truncated'].  meta carries the filter's work and
    its eigenvalue count: count_estimate (and its count_error) against
    certified_in_contour, probes, nodes and factorizations; meta['reason']
    is set when the filtered block stayed saturated, so that eigenvalues
    may be missing.
    """
    re0, re1, im0, im1 = search_box
    system = PencilSystem(mask, bc=bc)
    values, vectors, info = system.eigs_near(_ellipse(search_box))
    certified = []
    for rho, q in zip(values, vectors.T):
        res = system.residual(rho, q)
        if res <= TOL_RES:
            certified.append((complex(rho), res, q))
    inbox = [t for t in certified
             if re0 <= t[0].real <= re1 and im0 <= t[0].imag <= im1]
    inbox.sort(key=lambda t: abs(t[0]))
    truncated = len(inbox) > max_count
    inbox = inbox[:max_count]

    eigenvalues = np.array([t[0] for t in inbox])
    residuals = np.array([t[1] for t in inbox])
    fields = [system.embed_field(system.normalize(t[2])) for t in inbox]
    meta = {"mode": "contour", "tol_res": TOL_RES, "box": tuple(search_box),
            "truncated": truncated, "bc": bc,
            "certified_in_contour": len(certified), **info}
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
    conjugation (to MATCH_RTOL) and under the vertical shift 2*pi*i/P,
    (3) Spec(-D) = -Spec(D) by recomputation on the reflected mask, (4)
    invariance under whole-cell translation.  The recomputations use the
    boundary condition of the result.

    The shift is exact for the continuous pencil but only O(h^2) for the
    discrete one, and its error grows with the eigenvalue: a pair (r, t)
    matches to SHIFT_C * (h * max(|r|, |t|))^2 relative, h = max(hx, hy)
    of the mask's grid; details['shift_coef'] is SHIFT_C * h^2.  The worst
    measured mismatch is 0.033 (h * max|.|)^2: Strip(-pi/3, pi/3) in the
    box (0.5, 4.5, -10, 10) at 64^2 to 128^2.  Over the strips of width
    1.6, pi/2, 2*pi/3 and pi, Strip(-0.8, 0.8) - Disc(0.3, 0, 0.3) and the
    torus less one cell, in the boxes (0.5, 4.5, -10, 10), (0.5, 8, -20,
    20) and (4, 8, -10, 10) under both bc, it is 0.003 to 0.033, while
    per plain h^2 it ranges from 0.3 to 6.7.
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
    coef = SHIFT_C * max(mask.grid.hx, mask.grid.hy) ** 2
    details["shift_coef"] = coef
    shift_miss = []
    margin = 0.05 * (im1 - im0)
    for r in vals:
        for s in (shift, -shift):
            t = r + s
            if (in_box(t, margin)
                    and match(t, vals) > coef * max(abs(r), abs(t)) ** 2):
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


def check_monotonicity(mask1: DomainMask, mask2: DomainMask) -> CheckReport:
    """Strict monotonicity rho(D1) > rho(D2) for D1 strictly inside D2,
    under bc='face'."""
    if not np.all(~mask1.inside | mask2.inside):
        raise ValueError("mask1 must be contained in mask2")
    diff = int((mask2.inside & ~mask1.inside).sum())
    if diff == 0:
        raise ValueError("containment must be strict")
    r1 = rho_min(mask1)
    r2 = rho_min(mask2)
    h = max(mask1.grid.hx, mask1.grid.hy)
    margin = 1e-8
    ok = (r1 is not None and r2 is not None and r1 > r2 + margin)
    return CheckReport("strict_monotonicity", bool(ok),
                       {"rho1": r1, "rho2": r2, "cells_removed": diff,
                        "margin": margin, "h": h})


def check_shrinking_limit(masks: Sequence[DomainMask], mask_limit: DomainMask,
                          rtol: float = 0.05) -> CheckReport:
    """rho(D_n) decreases along an increasing exhaustion D_n up to D and
    approaches rho(D); normalized eigenfunctions converge on a fixed
    compact sub-mask, the first mask eroded by two cells.  bc='face'."""
    values, fields = [], []
    for m in masks:
        r = rho_min(m, full_result=True)
        values.append(r.value)
        fields.append(r.eigenfunction)
    r_lim = rho_min(mask_limit)
    eps = 1e-10
    decreasing = all(values[i] + eps >= values[i + 1]
                     for i in range(len(values) - 1))
    approaches = (values[-1] is not None and r_lim is not None
                  and abs(values[-1] - r_lim) <= rtol * abs(r_lim))
    sup_diffs = []
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


def matsaev_probe(mask: DomainMask, box=None) -> CheckReport:
    """Exploratory comparison of Spec(D) and Spec(-D) plus the identity
    'largest negative spectrum point = -rho(D)'.

    The set equality Spec(D) = Spec(-D) is an open question; the probe
    reports the Hausdorff distance without asserting it.  A mask that is
    its own reflection reuses its spectrum and rho_min for -D.  Both
    spectra and both rho_min use bc='face'.
    """
    P = mask.grid.spec.P
    rmin = rho_min(mask)
    if box is None:
        hi = 3.0 * (rmin or 3.0)
        box = (-hi, hi, -1.2 * TWO_PI / P, 1.2 * TWO_PI / P)
    reflected = reflect_mask(mask)
    symmetric = np.array_equal(reflected.inside, mask.inside)
    spec_d = spectrum(mask, box)
    spec_r = spec_d if symmetric else spectrum(reflected, box)

    a, b = spec_d.eigenvalues, spec_r.eigenvalues
    if len(a) and len(b):
        d_ab = max(np.min(np.abs(b[None, :] - a[:, None]), axis=1).max(),
                   np.min(np.abs(a[None, :] - b[:, None]), axis=1).max())
    else:
        d_ab = np.inf if len(a) != len(b) else 0.0

    # Prop-6.7-style identity via the exact reflection symmetry:
    # largest negative point of Spec(D) equals -rho_min(reflect(D))
    rmin_r = rmin if symmetric else rho_min(reflected)
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
