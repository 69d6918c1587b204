"""Tests of the strip Green function reference: agreement with a
brute-force shift sum that avoids cancellation, and its input checks."""

import numpy as np
import pytest

from logtorus.errors import ConfigError
from logtorus.oracles import strip_green_series

LOG2 = float(np.log(2.0))
STRIPS = {"pi": (-np.pi / 2, np.pi / 2), "1.5": (-0.4, 1.1)}


def brute_strip_green(z, zeta, rho, alpha, beta, P):
    """The shift series summed term by term without cancellation.

    In each sector term log|e^a - e^b| - log|e^a - e^conj(b)| the two logs
    share their dominant exponential, which is factored out and cancels
    exactly; each remaining log|1 - u|, |u| <= 1, is taken as
    log1p(|u|^2 - 2 Re u)/2.  Since |log|1 - u|| <= |u|/(1 - |u|), term k
    is at most e^{(c-rho)(dx - kP)}/(pi(1 - |u|)) on the right and
    e^{-(c+rho)(dx + |k|P)}/(pi(1 - |u|)) on the left, dx = x - xi.  Both
    sides run until the geometric bound on the omitted shifts falls below
    1e-18; that bound is returned with the sum."""
    c = np.pi / (beta - alpha)
    dx = z.real - zeta.real
    qr, ql = np.exp(-(c - rho) * P), np.exp(-(c + rho) * P)

    def omitted(N):
        # shifts |k| > N: |u| <= 1/2 there once NP > max|dx| + log(2)/c
        right = np.exp((c - rho) * (dx.max() - (N + 1) * P)) / (1 - qr)
        left = np.exp(-(c + rho) * (dx.min() + (N + 1) * P)) / (1 - ql)
        return 2 * float(right + left) / np.pi

    N = int(np.ceil((np.abs(dx).max() + np.log(2) / c) / P))
    while omitted(N) > 1e-18:
        N += 1
    a = c * (z - 1j * alpha)
    b = c * (zeta - 1j * alpha) + c * P * np.arange(-N, N + 1)[:, None]
    right = b.real > a.real
    u = np.where(right, np.exp(a - b), np.exp(b - a))
    v = np.where(right, np.exp(a - np.conj(b)), np.exp(np.conj(b) - a))
    logs = 0.5 * (np.log1p(np.abs(u) ** 2 - 2 * u.real)
                  - np.log1p(np.abs(v) ** 2 - 2 * v.real))
    k = np.arange(-N, N + 1)[:, None]
    terms = logs * np.exp(rho * (k * P - dx)) / (2 * np.pi)
    return terms[np.argsort(-np.abs(k[:, 0]))].sum(axis=0), omitted(N)


def points(zeta, alpha, beta, P):
    """Points with x - xi across (-P, P), at least 0.2 of the strip width
    away from the source and its images zeta + kP."""
    dx = np.linspace(-0.95, 0.95, 11) * P
    y = alpha + (beta - alpha) * np.linspace(0.04, 0.96, 9)
    DX, Y = np.meshgrid(dx, y)
    z = (zeta.real + DX + 1j * Y).ravel()
    gap = np.min(np.abs(z[:, None] - zeta - P * np.arange(-2, 3)), axis=1)
    return z[gap >= 0.2 * min(P, beta - alpha)]


@pytest.mark.parametrize("strip", sorted(STRIPS))
@pytest.mark.parametrize("P", [LOG2, 0.2, 3.0], ids=["log2", "0.2", "3"])
@pytest.mark.parametrize("frac", [0.0, 0.5, 0.9])
def test_strip_green_matches_brute_force_sum(strip, P, frac):
    alpha, beta = STRIPS[strip]
    rho = frac * np.pi / (beta - alpha)       # frac * rho(D)
    zeta = complex(0.3 * P, alpha + 0.37 * (beta - alpha))
    z = points(zeta, alpha, beta, P)
    ref, omitted = brute_strip_green(z, zeta, rho, alpha, beta, P)
    scale = float(np.max(np.abs(ref)))
    assert omitted <= 1e-17 * scale
    got = strip_green_series(z, zeta, rho, alpha, beta, P)
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_strip_green_is_nonpositive_and_periodic_in_x():
    alpha, beta = STRIPS["pi"]
    zeta = complex(0.2, 0.25)
    z = points(zeta, alpha, beta, LOG2)
    g = strip_green_series(z, zeta, 0.5, alpha, beta, LOG2)
    assert np.all(g < 0)
    shifted = strip_green_series(z + 3 * LOG2, zeta, 0.5, alpha, beta, LOG2)
    assert np.max(np.abs(shifted - g)) <= 1e-13 * np.max(np.abs(g))


def test_strip_green_scalar_point_gives_float():
    alpha, beta = STRIPS["pi"]
    zeta = complex(0.2, 0.25)
    g = strip_green_series(0.5 - 0.4j, zeta, 0.5, alpha, beta, LOG2)
    assert isinstance(g, float)
    assert g == strip_green_series(np.array([0.5 - 0.4j]), zeta, 0.5,
                                   alpha, beta, LOG2)[0]


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5], ids=["c", "-c", "above"])
def test_strip_green_raises_where_series_diverges(rho):
    # pi/(beta - alpha) = 1 on this strip
    with pytest.raises(ConfigError, match="diverges"):
        strip_green_series(0.5 + 0.1j, 0.2 + 0.25j, rho, -np.pi / 2,
                           np.pi / 2, LOG2)


@pytest.mark.parametrize("alpha,beta,P", [(0.5, 0.5, LOG2), (1.0, -1.0, LOG2),
                                          (-1.0, 1.0, 0.0)],
                         ids=["empty", "reversed", "P=0"])
def test_strip_green_raises_on_empty_strip_or_period(alpha, beta, P):
    with pytest.raises(ConfigError, match="beta > alpha and P > 0"):
        strip_green_series(0.5 + 0.1j, 0.2 + 0.0j, 0.1, alpha, beta, P)
