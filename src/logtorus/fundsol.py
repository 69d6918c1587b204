"""Fundamental solutions of L_rho on the whole torus, and torus potentials.

Normalization: every kernel here satisfies  L_rho E = (unit Dirac mass
at 0)  so that potentials invert the operator directly; with this
convention the Fourier synthesis reads

    E_rho(x, y) = (1/(2*pi*P)) * sum_{k,l} a_kl exp(i*kap_k*x + i*l*y),
    a_kl = [(rho + i*kap_k)^2 - l^2]^(-1),       kap_k = 2*pi*k/P,

(the raw coefficients a_kl, with a_00 = 1/rho^2, are exposed separately)
and the same function is reproduced, route-independently, by the lattice
sum of genus-p Weierstrass log-factors

    E_rho(z) = (1/(2*pi)) * sum_k H(e^{z+kP}, p) e^{-rho(x+kP)},
    H(u, p) = log|1-u| + Re(sum_{m<=p} u^m/m),     p = floor(rho).

The Fourier route performs the k-sum per mode l in closed form (it is a
periodized exponential) for all columns at once and truncates the l-sum
by its exponential tail; on the lattice the l-sum folds by l mod ny into
one FFT over y.  The generalized kernel below is the same synthesis with
the resonant mode gauged.  The Weierstrass route evaluates the log
factor directly only on the near shifts |k| <= K = max(1, ceil(0.5/P)),
the only ones whose points can come within 0.5 of the singular strip;
deeper left near points sum their genus tail by Horner's rule.  Beyond
them every term of the factor's expansion in e^{-|x|} is geometric in k
(X e^{-rho X} arithmetico-geometric), so both far tails are summed in
closed form, one cos(m y) row times one x column per power.  The two
evaluations share no code beyond the flagged singular-offset
placeholder, so their agreement off the singularity cross-checks the
symbol, the genus structure, and the normalization at once.

Kernels are sampled at lattice offsets (i*hx, j*hy); the singular offset
(0,0) carries a finite placeholder (regular part of the shift sum minus
log(c0*h), with the 5-point lattice constant c0 = 0.5615) so that grid
convolutions stay finite.  The regular part is the shift sum at the
origin summed over k in closed form (geometric and arithmetico-geometric
series), gauged like the kernel for integer rho.  The placeholder cell
is flagged in meta.

For integer rho = p the resonant modes (k,l) = (0,+-p) are zeroed (gauge
choice A = 0); the generalized kernel then satisfies

    L_p E'_p = delta_0 - cos(p*y)/(pi*P)      (p >= 1)
    L_0 E'_0 = delta_0 - 1/(2*pi*P)           (p == 0)

in this unit-Dirac normalization.  A third, grid-exact kernel inverts
the assembled five-point symbol itself; it pairs with residual measures
produced by assemble(), making the representation identity
v = potential(L_h v) hold to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, MassSymmetryViolated, NearIntegerRho
from .operators import assemble
from .torus import TWO_PI, Grid, GridField

__all__ = [
    "GridMeasure", "fourier_coefficient", "fundsol_fourier",
    "fundsol_weierstrass", "fundsol_generalized", "discrete_kernel",
    "potential", "representation_check", "RepresentationReport",
    "mass_symmetry_integrals",
]

LATTICE_C0 = 0.5615          # 5-point Green-function lattice constant
INTEGER_GUARD = 1e-3


@dataclass
class GridMeasure:
    """Signed measure on grid cells; masses already carry the cell area."""

    grid: Grid
    masses: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != self.grid.shape:
            raise ConfigError("measure shape mismatch")

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.masses).sum())

    @classmethod
    def delta(cls, grid: Grid, j: int, i: int, mass: float = 1.0) -> "GridMeasure":
        m = np.zeros(grid.shape)
        m[j, i] = mass
        return cls(grid, m)


def _check_not_near_integer(rho: float):
    if abs(rho - round(rho)) < INTEGER_GUARD:
        raise NearIntegerRho(
            f"rho={rho} is within {INTEGER_GUARD} of an integer; "
            "use fundsol_generalized for integer rho")


def fourier_coefficient(rho: float, P: float, k, l):
    """Raw synthesis coefficient a_kl = [(rho+i*2*pi*k/P)^2 - l^2]^(-1)."""
    w = rho + 1j * TWO_PI * np.asarray(k, dtype=float) / P
    return 1.0 / (w * w - np.asarray(l, dtype=float) ** 2)


# ----------------------------------------------------------------------
# Fourier route: closed-form k-sums, truncated l-sum
# ----------------------------------------------------------------------

def _periodized_exp(c, xt, P):
    """sum_k e^{i*kap_k*x}/(c + i*kap_k) = P e^{-c*xt}/(1 - e^{-cP}) for
    rows c and columns xt in [0, P) (the one-sided limit at 0); rows with
    c < 0 take the overflow-safe form -P e^{c(P-xt)}/(1 - e^{cP}).
    c == 0 rows return 0 (callers replace them by a gauge value)."""
    out = np.where(c[:, None] > 0, xt, P - xt)
    out *= -np.abs(c)[:, None]
    np.exp(out, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.sign(c) * P / (1.0 - np.exp(-np.abs(c) * P))
    out *= np.where(c == 0.0, 0.0, scale)[:, None]
    return out


def _periodized_exp_mid(c, P):
    """Midpoint value of the same series at xt = 0: (P/2) coth(c P/2).
    c == 0 entries return 0 (callers replace them by a gauge value)."""
    e = np.exp(-np.abs(c) * P)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sign(c) * (P / 2.0) * (1.0 + e) / (1.0 - e)
    return np.where(c == 0.0, 0.0, out)


def _r0_col(rho, xt, P):
    """sum_k e^{i*kap*x}/(rho + i*kap)^2 for rho > 0; continuous at xt = 0."""
    e = np.exp(-rho * P)
    return P * np.exp(-rho * xt) * (xt * (1.0 - e) + P * e) / (1.0 - e) ** 2


def _bernoulli2(t):
    return t * t - t + 1.0 / 6.0


def _synthesis(rho, grid, tol, gauged=False):
    """Kernel samples (1/(2 pi P)) [R_0(x) + sum_{l>=1} 2 cos(l y) R_l(x)]
    at every lattice offset, for rho > 0, with the k-sums
    R_l(x) = sum_k a_kl e^{i*kap*x} in closed form.

    One l-range, rounded up to a multiple of ny, serves every column: the
    column nearest x = 0 needs the most modes to bring the exponential
    tail below tol, and the singular column x = 0 needs at least
    ceil(45/P) + p + 16.  That column holds the midpoint k-sums plus
    P/(2l); the slow -P/(2l) tail of R_l(0) is resummed through
    sum cos(l y)/l = -log(2|sin(y/2)|).  gauged (integer rho = p) drops
    the k = 0 term of the resonant mode l = p, and for p = 0 of R_0,
    which becomes a Bernoulli polynomial.
    """
    P = grid.spec.P
    p = int(np.floor(rho))
    xs = np.arange(grid.nx) * grid.hx
    ys = np.arange(grid.ny) * grid.hy
    lmax = max(int(np.ceil(45.0 / P)) + p + 16,
               int(np.ceil((-np.log(tol) + 6.0) / grid.hx)) + p + 8)
    lmax = -(-lmax // grid.ny) * grid.ny
    ls = np.arange(1.0, lmax + 1.0)
    R = _periodized_exp(rho - ls, xs, P)
    R -= _periodized_exp(rho + ls, xs, P)
    R[:, 0] = _periodized_exp_mid(rho - ls, P) - _periodized_exp_mid(rho + ls, P)
    if gauged and p >= 1:
        # k != 0 part of the resonant k-sum: sawtooth (0 at its midpoint)
        R[p - 1] += np.where(xs > 0, P / 2.0 - xs, 0.0) + 1.0 / (2.0 * p)
    R /= 2.0 * ls[:, None]
    R[:, 0] += P / (2.0 * ls)
    if gauged and p == 0:
        r0 = -(P * P / 2.0) * _bernoulli2(xs / P)
    else:
        r0 = _r0_col(rho, xs, P)
    # on the lattice cos(l*y) depends on l mod ny only: sum R_l by residue
    # (row i holds l = i + 1, hence the roll), then one FFT over y gives
    # sum_l 2 cos(l y) R_l(x)
    folded = np.roll(R.reshape(-1, grid.ny, grid.nx).sum(axis=0), 1, axis=0)
    vals = 2.0 * np.fft.fft(folded, axis=0).real + r0
    with np.errstate(divide="ignore"):
        vals[:, 0] += P * np.log(2.0 * np.abs(np.sin(ys / 2.0)))
    vals /= TWO_PI * P
    vals[0, 0] = _placeholder(rho, P, p, float(np.sqrt(grid.hx * grid.hy)))
    return vals


def _reflect(inner: GridField, rho: float) -> GridField:
    """E_{-rho}(x, y) = E_rho(-x, -y) on the offset lattice; the
    placeholder cell (0, 0) maps to itself."""
    vals = np.roll(inner.values[::-1, ::-1], (1, 1), axis=(0, 1))
    return GridField(inner.grid, vals, dict(inner.meta, rho=rho))


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")


def fundsol_fourier(rho: float, grid: Grid, tol: float = 1e-9) -> GridField:
    """Fundamental solution by Fourier synthesis of the a_kl coefficients.

    Sampled at lattice offsets; the k-sum is closed-form per mode l and
    the l-sum stops once its exponential tail bound is below tol.
    """
    _check_not_near_integer(rho)
    _check_tol(tol)
    if rho < 0:
        return _reflect(fundsol_fourier(-rho, grid, tol), rho)
    meta = {"kind": "fundsol_fourier", "rho": rho, "tol": tol,
            "singular_cell": (0, 0), "normalization": "unit_dirac",
            "sampling": "lattice_offsets"}
    return GridField(grid, _synthesis(rho, grid, tol), meta)


# ----------------------------------------------------------------------
# Weierstrass route: genus-p log factors over x-shifts
# ----------------------------------------------------------------------

def _weier_term(X, Y, p, rho):
    """H(e^{X+iY}, p) e^{-rho X}, evaluated in two regimes.

    For X < -0.5 the log factor cancels the power-sum head to order
    |u|^{p+1}; there the term is the tail series, which the e^{-rho X}
    weight cannot blow up, summed by Horner's rule in u = e^{X+iY}:

        -Re[ e^{(p+1-rho)X + i(p+1)Y} * sum_{j<J} u^j/(p+1+j) ].

    J = min(60, ceil(37/|X_max|)) over the call's deep points, so the
    omitted tail stays below e^{-37} (half an ulp) of the leading term
    wherever J < 60; the cap of 60 terms leaves e^{-30} at X = -0.5.
    Elsewhere the direct split form is stable.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    out = np.empty(np.broadcast(X, Y).shape)
    Xb, Yb = np.broadcast_arrays(X, Y)

    deep = Xb < -0.5
    if deep.any():
        xd, yd = Xb[deep], Yb[deep]
        J = min(60, int(np.ceil(37.0 / -xd.max())))
        u = np.exp(xd + 1j * yd)
        acc = np.full(xd.shape, 1.0 / (p + J), dtype=complex)
        for j in range(J - 2, -1, -1):
            acc *= u
            acc += 1.0 / (p + 1 + j)
        acc *= np.exp((p + 1 - rho) * xd + 1j * (p + 1) * yd)
        out[deep] = -acc.real

    rest = ~deep
    if rest.any():
        xr, yr = Xb[rest], Yb[rest]
        pos = xr > 0.5
        ex = np.exp(np.where(pos, -xr, xr))
        logpart = 0.5 * np.log(
            np.maximum(1.0 - 2.0 * ex * np.cos(yr) + ex * ex, 1e-300))
        logpart = np.where(pos, xr + logpart, logpart)
        acc = logpart * np.exp(-rho * xr)
        for m in range(1, p + 1):
            acc += np.exp((m - rho) * xr) * np.cos(m * yr) / m
        out[rest] = acc
    return out


def _regular_part_at_origin(rho, P, p):
    """lim_{z->0} [2*pi*E_rho(z) - log|z|] for rho >= 0, p = floor(rho).

    The shift terms at (kP, 0) are geometric and arithmetico-geometric
    in k, so their sum is closed:

        H_p + P q/(1-q)^2 + sum_{m<=p} 1/(m (e^{(rho-m)P} - 1))
            - sum_{n>=1} 1/(n (e^{(rho+n)P} - 1))
            - sum_{m>p}  1/(m (e^{(m-rho)P} - 1)),      q = e^{-rho P},

    with H_p = sum_{m<=p} 1/m.  Both series fall like e^{-nP}; they stop
    once (n + rho)P and (m - rho)P pass 40, where a term is below 1e-17.
    For integer rho = p the generalized kernel's gauge drops the
    resonant k = 0 modes, and the divergent term takes its finite part:
    the m = p term becomes 1/(2 p^2 P) - 1/(2p), and for p = 0 the
    lattice term P q/(1-q)^2 becomes -P/12.
    """
    n = np.arange(1.0, np.ceil(40.0 / P) + 2.0)
    m = np.arange(1.0, p + 1.0)
    reg = (np.sum(1.0 / m)
           - np.sum(1.0 / (n * np.expm1((n + rho) * P)))
           - np.sum(1.0 / ((n + p) * np.expm1((n + p - rho) * P))))
    if rho == p:
        if p == 0:
            return float(reg - P / 12.0)
        m = m[:-1]
        reg += 1.0 / (2.0 * p * p * P) - 1.0 / (2.0 * p)
    reg += P * np.exp(-rho * P) / np.expm1(-rho * P) ** 2
    reg += np.sum(1.0 / (m * np.expm1((rho - m) * P)))
    return float(reg)


def _placeholder(rho, P, p, h):
    return (_regular_part_at_origin(rho, P, p) + np.log(LATTICE_C0 * h)) / TWO_PI


def _far_modes(m0, c, xmin, P, tol):
    """Modes m = m0, m0+1, ... of a far tail whose largest term on the
    grid, e^{-(m+c) xmin} / (m (1 - e^{-(m+c)P})), is at least tol/10;
    that bound falls with m, so the series stops at the first mode below."""
    m = m0
    while np.exp(-(m + c) * xmin) / (m * -np.expm1(-(m + c) * P)) >= tol / 10.0:
        m += 1
    return np.arange(float(m0), float(m))


def _geometric_cols(decay, weight, d, P):
    """sum_{j>=0} weight e^{-decay (d + jP)}: rows over (decay, weight)
    pairs with decay > 0, columns over distances d."""
    return np.exp(-np.outer(decay, d)) * (weight / -np.expm1(-decay * P))[:, None]


def _far_tails(xs, ys, p, rho, K, P, tol):
    """sum_{|k|>K} H(e^{X+kP+iY}, p) e^{-rho(X+kP)} for columns xs in
    [0, P) and rows ys, with K*P >= 0.5.

    Right (k > K, X' = X+kP > 0.5): log|1-u| = X' - sum_n cos(nY)e^{-nX'}/n,
    so each term is X'e^{-rho X'}, + cos(mY)e^{-(rho-m)X'}/m for m <= p,
    or - cos(nY)e^{-(rho+n)X'}/n.  Left (k < -K, X' <= -0.5): the genus
    tail - sum_{m>p} cos(mY)e^{(m-rho)X'}/m.  With d = |X'| at the first
    far shift, X + (K+1)P on the right and (K+1)P - X on the left, each
    exponential sums over k to a geometric series, and X'e^{-rho X'} to
    e^{-rho d}(d/(1-q) + Pq/(1-q)^2), q = e^{-rho P}.
    """
    dr = xs + (K + 1) * P
    dl = (K + 1) * P - xs
    head = np.arange(1.0, p + 1.0)
    right = _far_modes(1, rho, dr.min(), P, tol)
    left = _far_modes(p + 1, -rho, dl.min(), P, tol)
    cols = np.vstack([
        _geometric_cols(np.concatenate([rho - head, rho + right]),
                        np.concatenate([1.0 / head, -1.0 / right]), dr, P),
        _geometric_cols(left - rho, -1.0 / left, dl, P)])
    one_q = -np.expm1(-rho * P)
    lattice = np.exp(-rho * dr) * (dr / one_q + P * (1.0 - one_q) / one_q ** 2)
    return np.cos(np.outer(ys, np.concatenate([head, right, left]))) @ cols + lattice


def fundsol_weierstrass(rho: float, grid: Grid, tol: float = 1e-9) -> GridField:
    """Fundamental solution as the shift sum of genus-p log factors.

    The base lattice and the K = max(1, ceil(0.5/P)) near shifts on each
    side are evaluated directly (meta['shifts_used'] = K); every farther
    shift is summed in closed form, each series stopping once its next
    term's bound on the grid falls below tol/10.
    """
    _check_not_near_integer(rho)
    _check_tol(tol)
    if rho < 0:
        return _reflect(fundsol_weierstrass(-rho, grid, tol), rho)
    P = grid.spec.P
    p = int(np.floor(rho))
    K = max(1, int(np.ceil(0.5 / P)))
    xs = np.arange(grid.nx) * grid.hx
    ys = np.arange(grid.ny) * grid.hy
    X, Y = np.meshgrid(xs, ys)
    vals = _weier_term(X, Y, p, rho)
    for k in range(1, K + 1):
        vals += _weier_term(X + k * P, Y, p, rho)
        vals += _weier_term(X - k * P, Y, p, rho)
    vals += _far_tails(xs, ys, p, rho, K, P, tol)
    vals /= TWO_PI
    vals[0, 0] = _placeholder(rho, P, p, float(np.sqrt(grid.hx * grid.hy)))
    meta = {"kind": "fundsol_weierstrass", "rho": rho, "tol": tol,
            "shifts_used": K, "singular_cell": (0, 0),
            "normalization": "unit_dirac", "sampling": "lattice_offsets"}
    return GridField(grid, vals, meta)


# ----------------------------------------------------------------------
# integer rho: gauge-fixed generalized kernel
# ----------------------------------------------------------------------

def fundsol_generalized(p: int, grid: Grid, tol: float = 1e-9) -> GridField:
    """Generalized kernel for integer rho = p >= 0, resonant modes zeroed."""
    p = int(p)
    if p < 0:
        raise ConfigError("generalized kernel takes p >= 0; reflect for p < 0")
    _check_tol(tol)
    meta = {"kind": "fundsol_generalized", "p": p, "tol": tol,
            "singular_cell": (0, 0), "gauge": "resonant_modes_zeroed",
            "normalization": "unit_dirac", "sampling": "lattice_offsets"}
    return GridField(grid, _synthesis(float(p), grid, tol, gauged=True), meta)


# ----------------------------------------------------------------------
# grid-exact kernel and potentials
# ----------------------------------------------------------------------

def discrete_kernel(rho: float, grid: Grid, generalized: bool = False) -> GridField:
    """Grid-exact kernel: inverse DFT of the reciprocal five-point symbol.

    assemble('l_rho') applied to it reproduces the discrete unit Dirac
    (density 1/cell_area at offset 0) exactly, minus the resonant plane
    waves when generalized=True.
    """
    hx, hy = grid.hx, grid.hy
    kx = TWO_PI * np.fft.fftfreq(grid.nx, d=hx)
    ly = TWO_PI * np.fft.fftfreq(grid.ny, d=hy)
    sym = ((2.0 * np.cos(kx * hx) - 2.0) / hx ** 2
           + 2j * rho * np.sin(kx * hx) / hx + rho * rho)[None, :] \
        + ((2.0 * np.cos(ly * hy) - 2.0) / hy ** 2)[:, None].astype(complex)
    live = np.ones(sym.shape, dtype=bool)
    if generalized:
        p = int(round(rho))
        if p == 0:
            live[0, 0] = False
        else:
            live[p % grid.ny, 0] = False
            live[(-p) % grid.ny, 0] = False
    if np.min(np.abs(sym[live])) < 1e-12:
        raise NearIntegerRho("discrete symbol vanishes; rho resonates with the grid")
    inv = np.zeros_like(sym)
    inv[live] = 1.0 / sym[live]
    vals = np.real(np.fft.ifft2(inv)) / (hx * hy)
    return GridField(grid, vals, {"kind": "discrete_kernel", "rho": rho,
                                  "generalized": generalized,
                                  "sampling": "lattice_offsets"})


def potential(measure: GridMeasure, kernel: GridField) -> GridField:
    """Torus potential: circular convolution of kernel samples against
    cell masses.  Linear; a unit delta reproduces a kernel translate."""
    if measure.grid.shape != kernel.grid.shape:
        raise ConfigError("measure and kernel grids differ")
    out = np.real(np.fft.ifft2(np.fft.fft2(kernel.values)
                               * np.fft.fft2(measure.masses)))
    return GridField(measure.grid, out, {"kind": "potential",
                                         "kernel": kernel.meta.get("kind")})


# ----------------------------------------------------------------------
# representation of subfunctions by potentials
# ----------------------------------------------------------------------

@dataclass
class RepresentationReport:
    rho: float
    integer_case: bool
    max_deviation: float
    mass_integrals: Optional[tuple]
    mass_tolerance: Optional[float]
    fitted_C: Optional[complex]
    passed: bool
    details: dict = field(default_factory=dict)


def mass_symmetry_integrals(measure: GridMeasure, p: int) -> tuple:
    """(integral e^{+ipy} dnu, integral e^{-ipy} dnu) by cell quadrature."""
    ys = measure.grid.y_centers()[:, None]
    plus = complex((np.exp(1j * p * ys) * measure.masses).sum())
    minus = complex((np.exp(-1j * p * ys) * measure.masses).sum())
    return plus, minus


def representation_check(v: GridField, rho: float,
                         measure: Optional[GridMeasure] = None,
                         tol: float = 1e-6) -> RepresentationReport:
    """Verify the whole-torus potential representation of a field.

    The residual measure nu = L_h v (cell masses) is recomputed with the
    assembled operator and the field rebuilt as the potential of nu
    against the grid-exact kernel; for integer rho the resonant plane
    wave is recovered by fitting C in Re(C e^{ipy}) (at rho = 0 the
    constant C).  A measure passed explicitly for integer rho must carry
    no resonant Fourier mass, up to the O(h^2) symbol-defect quadrature
    tolerance, or MassSymmetryViolated is raised; at rho = 0 the
    resonant mass is the total mass.
    """
    grid = v.grid
    p = int(round(rho))
    integer_case = abs(rho - p) < 1e-12
    area = grid.cell_area

    op = assemble(grid, "l_rho", rho=rho)
    nu = GridMeasure(grid,
                     (op.matrix @ v.values.ravel()).reshape(grid.shape) * area)

    details: dict = {}
    mass = None
    mass_tol = None
    if integer_case:
        hy = grid.hy
        scale = float(np.max(np.abs(v.values))) + 1.0
        mass_tol = (p ** 4 * hy ** 2 / 6.0) * grid.spec.area * scale + 1e-9
        if measure is not None:
            mp, mm = mass_symmetry_integrals(measure, p)
            if max(abs(mp), abs(mm)) > mass_tol:
                raise MassSymmetryViolated(
                    f"resonant mass {max(abs(mp), abs(mm)):.3e} exceeds "
                    f"tolerance {mass_tol:.3e}")
        mass = mass_symmetry_integrals(nu, p)
        details["mass_integrals_of_residual"] = mass

    kern = discrete_kernel(float(p) if integer_case else rho, grid,
                           generalized=integer_case)
    recon = potential(nu, kern)

    C = None
    if integer_case:
        ys = grid.y_centers()[:, None] * np.ones((1, grid.nx))
        d = v.values - recon.values
        n = grid.ncells
        if p == 0:
            C = complex(d.mean())
            recon_full = recon.values + C.real
        else:
            a = 2.0 * float((d * np.cos(p * ys)).sum()) / n
            b = 2.0 * float((d * np.sin(p * ys)).sum()) / n
            # Re(C e^{ipy}) = Re(C) cos(py) - Im(C) sin(py)
            C = complex(a, -b)
            recon_full = recon.values + a * np.cos(p * ys) + b * np.sin(p * ys)
        dev = float(np.max(np.abs(v.values - recon_full)))
    else:
        dev = float(np.max(np.abs(v.values - recon.values)))

    return RepresentationReport(rho, integer_case, dev, mass, mass_tol, C,
                                bool(dev <= tol), details)
