"""Closed-form references for strips and sectors.

These are the independent comparison targets used by the test and
acceptance suites: the eigenvalue lattice of a strip, the conformal-map
Green function of a plane sector, and the shift series that transports
it to the Green function of L_rho on the torus strip.  Nothing here
touches the finite-difference pipeline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "strip_eigenvalue_lattice", "sector_green", "strip_green_series",
    "strip_majorant_profile",
]

STRIP_GREEN_KMAX = 80    # the shift series runs over |k| <= STRIP_GREEN_KMAX


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

    Converges for 0 < rho < pi/(beta - alpha); terms decay exponentially
    both ways."""
    z = np.asarray(z, dtype=complex)
    x = np.real(z)
    xi = float(np.real(zeta))
    total = np.zeros(z.shape if z.shape else (1,))
    for k in range(-STRIP_GREEN_KMAX, STRIP_GREEN_KMAX + 1):
        zk = zeta + k * P
        g = sector_green(z, zk, alpha, beta)
        total = total + g * np.exp(rho * (xi + k * P - x))
    return total if z.shape else float(total[0])


def strip_majorant_profile(y, h_alpha: float, h_beta: float, rho: float,
                           alpha: float, beta: float):
    """Least trigonometric majorant through (alpha, h_alpha), (beta, h_beta):
    [h_a sin(rho(beta-y)) + h_b sin(rho(y-alpha))] / sin(rho(beta-alpha))."""
    s = np.sin(rho * (beta - alpha))
    y = np.asarray(y)
    return (h_alpha * np.sin(rho * (beta - y))
            + h_beta * np.sin(rho * (y - alpha))) / s
