"""Closed-form references for strips and sectors.

These are the independent comparison targets of the tests, of the
acceptance criterion C07, of demo 05 and of the benchmark's `green`
check: the eigenvalue lattice of a strip, the conformal-map Green
function of a plane sector, and the shift series that transports it to
the Green function of L_rho on the torus strip.  Nothing here touches
the finite-difference pipeline.

The shift series is summed like the Weierstrass kernel of `fundsol`:
the K near shifts on each side of the source directly, every farther
shift in closed form.  Beyond the near shifts each sector term is a
difference of two log|1 - w| with |w| < 1, whose power series in w is
geometric in the shift index, so both tails become one series in the
power j whose terms shrink at least by e^-2 per step.  No far term is
formed as a difference of two large logarithms, so the sum is exact to
rounding for every |rho| < pi/(beta - alpha).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = [
    "strip_eigenvalue_lattice", "sector_green", "strip_green_series",
    "strip_majorant_profile",
]

_TAIL_GAP = 2.0      # c((K+1)P - max|x - xi|) >= this, so tail terms fall e^-2 per j
_TAIL_RTOL = 1e-17   # the tail series stops below this share of max|g|
_TAIL_JMAX = 64      # hard cap on the tail series (e^-128 of its first term)


def strip_eigenvalue_lattice(width: float, P: float, n_max: int, m_max: int):
    """Pencil eigenvalues of the strip alpha < y < alpha + width:
    rho = n*pi/width - 2*pi*m*i/P, n >= 1."""
    out = []
    for n in range(1, n_max + 1):
        for m in range(-m_max, m_max + 1):
            out.append(n * np.pi / width - 2j * np.pi * m / P)
    return np.array(out)


def _logabs_expdiff(a, b):
    """log |e^a - e^b| for complex a, b, stable for large real parts."""
    m = np.maximum(np.real(a), np.real(b))
    return m + np.log(np.abs(np.exp(a - m) - np.exp(b - m)))


def sector_green(z, zeta, alpha: float, beta: float):
    """Green function (unit Dirac normalization, Delta g = delta) of the
    plane sector {alpha < arg Z < beta} in log coordinates z = log Z:

        g = (1/2pi) log | (f(Z)-f(W)) / (f(Z)-conj(f(W))) |,
        f(Z) = (Z e^{-i alpha})^{pi/(beta-alpha)}.
    """
    c = np.pi / (beta - alpha)
    a = c * (np.asarray(z) - 1j * alpha)
    b = c * (np.asarray(zeta) - 1j * alpha)
    return (_logabs_expdiff(a, b) - _logabs_expdiff(a, np.conj(b))) / (2 * np.pi)


def strip_green_series(z, zeta, rho: float, alpha: float, beta: float,
                       P: float):
    """Green function of L_rho on the torus strip alpha < y < beta via the
    shift series over the sector Green function of the lift:

        g(z, zeta) = sum_k g_sector(e^z, e^{zeta+kP}) e^{rho(xi+kP)} e^{-rho x}.

    The series converges for |rho| < c = pi/(beta - alpha); outside that
    range, or when beta <= alpha or P <= 0, ConfigError is raised.  g is
    P-periodic in x, so each point is first carried to |x - xi| <= P/2.
    The shifts |k| <= K, with K the least integer such that
    c((K+1)P - max|x - xi|) >= 2, are summed directly (K = 3 at P = log 2
    and c = 1).  With a = c(z - i alpha), b0 = c(zeta - i alpha),
    U = e^{a-b0}, V = e^{a-conj(b0)}, S = e^{b0-a} and T = e^{conj(b0)-a},
    the shifts k > K and k < -K add

        (e^{rho(xi-x)}/2pi) Re sum_j [(V^j - U^j) r_j^{K+1}/(1 - r_j)
                                      + (T^j - S^j) l_j^{K+1}/(1 - l_j)] / j,

    r_j = e^{(rho - jc)P}, l_j = e^{-(rho + jc)P}.  The j-series stops once
    the bound on its next term falls below 1e-17 of max|g|, and after at
    most 64 terms.  The result agrees with a cancellation-free brute-force
    sum to within 3e-15 of max|g| for |rho| up to 0.9c.  A scalar z gives
    a float."""
    if not (beta > alpha and P > 0):
        raise ConfigError(f"strip needs beta > alpha and P > 0, got "
                          f"[{alpha}, {beta}], P = {P}")
    c = np.pi / (beta - alpha)
    if not abs(rho) < c:
        raise ConfigError(f"shift series diverges: |rho| = {abs(rho)} >= "
                          f"pi/(beta - alpha) = {c}")
    z = np.asarray(z, dtype=complex)
    zeta = complex(zeta)
    dx = np.real(z) - zeta.real
    dx = dx - P * np.round(dx / P)
    z = zeta.real + dx + 1j * np.imag(z)
    d = float(np.max(np.abs(dx), initial=0.0))
    K = int(np.ceil((d + _TAIL_GAP / c) / P)) - 1
    weight = np.exp(-rho * dx)          # e^{rho(xi - x)}
    near = weight * sum(sector_green(z, zeta + k * P, alpha, beta)
                        * np.exp(rho * k * P) for k in range(-K, K + 1))
    a = c * (z - 1j * alpha)
    b0 = c * (zeta - 1j * alpha)
    U, V = np.exp(a - b0), np.exp(a - np.conj(b0))
    S, T = np.exp(b0 - a), np.exp(np.conj(b0) - a)
    Uj, Vj, Sj, Tj = (np.ones_like(z) for _ in range(4))
    tail = np.zeros(z.shape)
    floor = _TAIL_RTOL * float(np.max(np.abs(near), initial=0.0))
    for j in range(1, _TAIL_JMAX + 1):
        log_r, log_l = (rho - j * c) * P, -(rho + j * c) * P
        right = np.exp((K + 1) * log_r) / -np.expm1(log_r)
        left = np.exp((K + 1) * log_l) / -np.expm1(log_l)
        # |V^j - U^j| <= 2e^{jc dx} and |T^j - S^j| <= 2e^{-jc dx}, times
        # the weight e^{-rho dx}, with |dx| <= d
        bound = (np.exp((j * c - rho) * d) * right
                 + np.exp((j * c + rho) * d) * left) / (np.pi * j)
        if bound < floor:
            break
        Uj, Vj, Sj, Tj = Uj * U, Vj * V, Sj * S, Tj * T
        tail += np.real((Vj - Uj) * right + (Tj - Sj) * left) / j
    total = near + tail * weight / (2 * np.pi)
    return total if z.shape else float(total)


def strip_majorant_profile(y, h_alpha: float, h_beta: float, rho: float,
                           alpha: float, beta: float):
    """Least trigonometric majorant through (alpha, h_alpha), (beta, h_beta):
    [h_a sin(rho(beta-y)) + h_b sin(rho(y-alpha))] / sin(rho(beta-alpha))."""
    s = np.sin(rho * (beta - alpha))
    y = np.asarray(y)
    return (h_alpha * np.sin(rho * (beta - y))
            + h_beta * np.sin(rho * (y - alpha))) / s
