"""Pencil spectrum tests against separation-of-variables oracles.

For the strip alpha < y < beta of width W the eigenvalues are the
lattice rho = n*pi/W - 2*pi*m*i/P (n >= 1, m integer) with
eigenfunctions exp(2*pi*i*m*x/P) * sin((rho + 2*pi*m*i/P)(y - alpha));
this oracle is independent of the matrix pipeline.
"""

import functools
import time

import numpy as np
import pytest

from logtorus import operators, pencil
from logtorus.pencil import (
    NODES, PROBES_MAX, TOL_RES, PencilSystem, _tol_real, check_monotonicity,
    check_shrinking_limit, check_spectrum_symmetries, erode_periodic,
    matsaev_probe, rho_min, spectrum,
)
from logtorus.torus import (
    Band, Disc, Grid, ShapeUnion, Strip, TorusSpec, Tube, build_domain,
    mask_from_inside, translate_mask,
)

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)


def strip_lattice(width, P, n_max, m_max):
    out = []
    for n in range(1, n_max + 1):
        for m in range(-m_max, m_max + 1):
            out.append(n * np.pi / width - 2j * np.pi * m / P)
    return np.array(out)


@pytest.mark.parametrize("half,expect", [(np.pi / 4, 2.0), (np.pi / 2, 1.0)])
def test_strip_rho_min_matches_width_law(half, expect):
    mask = build_domain(SPEC, 96, 96, Strip(-half, half))
    r = rho_min(mask)
    assert r == pytest.approx(expect, rel=0.02)


def count_factorizations(monkeypatch) -> list:
    """A list that records the unknowns of every LinearSystem built."""
    dofs = []
    init = operators.LinearSystem.__init__

    def counted(self, op):
        dofs.append(op.ndof)
        init(self, op)

    monkeypatch.setattr(operators.LinearSystem, "__init__", counted)
    return dofs


def test_rho_min_factors_once_per_perron_evaluation(monkeypatch):
    mask = build_domain(SPEC, 40, 40, Strip(-np.pi / 4, np.pi / 4))
    lus = count_factorizations(monkeypatch)
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(2.0, rel=0.02)
    assert len(lus) == r.meta["evaluations"] >= 2
    assert set(lus) == {int(mask.inside.sum())}


def test_strip_rho_min_dense_path_small_grid():
    mask = build_domain(SPEC, 16, 32, Strip(-np.pi / 4, np.pi / 4))
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(2.0, rel=0.05)
    q = r.eigenfunction.values
    inside = mask.inside
    # sign-definite eigenfunction, normalized to peak 1
    assert q[inside].real.min() > -1e-8
    assert np.max(np.abs(q[inside])) == pytest.approx(1.0, abs=1e-12)
    assert r.residual < 1e-8


def test_strip_spectrum_lattice_complex_modes():
    mask = build_domain(SPEC, 96, 96, Strip(-np.pi / 4, np.pi / 4))
    box = (0.5, 4.5, -10.0, 10.0)
    res = spectrum(mask, box)
    oracle = strip_lattice(np.pi / 2, LOG2, 2, 1)
    oracle = oracle[(oracle.real >= 0.5) & (oracle.real <= 4.5)
                    & (np.abs(oracle.imag) <= 10.0)]
    assert len(oracle) == 6
    for target in oracle:
        err = np.min(np.abs(res.eigenvalues - target)) / abs(target)
        assert err < 0.03, f"missing lattice point {target}"
    # every certified eigenvalue sits near the lattice
    full = strip_lattice(np.pi / 2, LOG2, 6, 3)
    for r in res.eigenvalues:
        assert np.min(np.abs(full - r)) / abs(r) < 0.03


def test_vertical_band_has_empty_certified_spectrum():
    P = LOG2
    mask = build_domain(SPEC, 96, 96, Band(P / 4, 3 * P / 4))
    assert not mask.spiral_of(0).connected
    box = (0.1, 10.0, -np.pi / P, np.pi / P)
    res = spectrum(mask, box)
    assert len(res) == 0
    assert rho_min(mask) is None


def test_spectrum_symmetries_on_strip():
    mask = build_domain(SPEC, 96, 96, Strip(-np.pi / 4, np.pi / 4))
    res = spectrum(mask, (0.5, 4.5, -10.0, 10.0))
    report = check_spectrum_symmetries(res)
    assert report.passed, report.details


def test_spectrum_symmetries_recompute_with_the_result_bc():
    # reflected and translated spectra must use bc='outside' as well; a
    # 'face' recomputation misses 6 reflections and 6 translations here
    mask = build_domain(SPEC, 32, 32, Strip(-0.8, 0.8))
    res = spectrum(mask, (0.5, 4.5, -10.0, 10.0), bc="outside")
    details = check_spectrum_symmetries(res).details
    assert details["reflection_misses"] == []
    assert details["translation_misses"] == []


@pytest.mark.parametrize("n", [32, 48])
@pytest.mark.parametrize("bc", ["face", "outside"])
def test_shift_partners_match_to_an_h2_bound(n, bc):
    # the shift partners of a correct coarse spectrum miss by about
    # 0.022 (h |lambda|)^2 (0.062-0.073 at 32^2), more than a fixed 3 percent
    mask = build_domain(SPEC, n, n, Strip(-0.8, 0.8))
    res = spectrum(mask, (0.5, 4.5, -10.0, 10.0), bc=bc)
    report = check_spectrum_symmetries(res)
    assert report.passed, report.details
    h = max(mask.grid.hx, mask.grid.hy)
    assert report.details["shift_coef"] == pytest.approx(pencil.SHIFT_C * h * h)
    # without the eigenvalue near pi/W on the real axis, its shift
    # partner below the axis has nothing to match
    vals = res.eigenvalues
    drop = np.argmin(np.abs(vals - np.pi / 1.6))
    keep = np.arange(len(vals)) != drop
    cut = pencil.SpectrumResult(vals[keep],
                                [f for f, k in zip(res.eigenfunctions, keep) if k],
                                res.residuals[keep], mask, dict(res.meta))
    assert check_spectrum_symmetries(cut).details["shift_misses"]


def test_translation_leaves_spectrum_identical():
    mask = build_domain(SPEC, 64, 64, Strip(-np.pi / 4, np.pi / 4))
    moved = translate_mask(mask, 5, 9)
    r1 = rho_min(mask)
    r2 = rho_min(moved)
    assert r1 == pytest.approx(r2, rel=1e-9)


def test_monotonicity_strict_for_nested_strips():
    inner = build_domain(SPEC, 64, 64, Strip(-np.pi / 4, np.pi / 4))
    outer = build_domain(SPEC, 64, 64, Strip(-np.pi / 2, np.pi / 2))
    rep = check_monotonicity(inner, outer)
    assert rep.passed
    assert rep.details["rho1"] == pytest.approx(2.0, rel=0.02)
    assert rep.details["rho2"] == pytest.approx(1.0, rel=0.02)
    with pytest.raises(ValueError):
        check_monotonicity(inner, inner)


def test_monotonicity_survives_one_cell_perturbation():
    inner = build_domain(SPEC, 64, 64, Strip(-np.pi / 4, np.pi / 4))
    outer = build_domain(SPEC, 64, 64, Strip(-np.pi / 2, np.pi / 2))
    from logtorus.torus import mask_from_inside
    bumped = outer.inside.copy()
    j, i = np.argwhere(inner.inside)[0]
    bumped[j, i] = True  # no-op (already inside); remove one outer-only cell
    cand = np.argwhere(outer.inside & ~inner.inside)[0]
    bumped[cand[0], cand[1]] = False
    outer2 = mask_from_inside(outer.grid, bumped, classify=False)
    r1 = rho_min(inner)
    r2 = rho_min(outer2)
    assert r1 > r2


def test_shrinking_limit_strips():
    # grid-aligned half-widths so successive rasterizations are distinct
    hy = 2 * np.pi / 64
    halves = [k * hy for k in (13, 14, 15)]
    masks = [build_domain(SPEC, 64, 64, Strip(-h, h)) for h in halves]
    limit = build_domain(SPEC, 64, 64, Strip(-np.pi / 2, np.pi / 2))
    rep = check_shrinking_limit(masks, limit, rtol=0.08)
    assert rep.passed, rep.details
    vals = rep.details["rho_sequence"]
    oracle = [np.pi / (2 * h) for h in halves]
    for v, o in zip(vals, oracle):
        assert v == pytest.approx(o, rel=0.05)


def count_masks(monkeypatch, name):
    """Record the mask of every call to a pencil-module function."""
    seen = []
    fn = getattr(pencil, name)

    def counted(mask, *args, **kwargs):
        seen.append(mask)
        return fn(mask, *args, **kwargs)

    monkeypatch.setattr(pencil, name, counted)
    return seen


def test_matsaev_probe_on_symmetric_strip(monkeypatch):
    mask = build_domain(SPEC, 64, 64, Strip(-np.pi / 4, np.pi / 4))
    spectra = count_masks(monkeypatch, "spectrum")
    rep = matsaev_probe(mask, box=(-4.5, 4.5, -10.0, 10.0))
    # the strip is its own reflection, so -D reuses the spectrum of D
    assert spectra == [mask]
    assert rep.details["hausdorff"] == 0.0
    assert rep.details["n_spec"] == rep.details["n_spec_reflected"]
    assert rep.details["neg_identity_within_2pct"] is True
    assert rep.details["rho_min_reflected"] == rep.details["rho_min"]


def test_matsaev_probe_recomputes_an_asymmetric_reflection(monkeypatch):
    mask = build_domain(SPEC, 32, 32,
                        ShapeUnion(Strip(-0.8, 0.8), Disc(0.3, 0.9, 0.3)))
    spectra = count_masks(monkeypatch, "spectrum")
    roots = count_masks(monkeypatch, "rho_min")
    matsaev_probe(mask, box=(-4.5, 4.5, -10.0, 10.0))
    for seen in (spectra, roots):
        assert len(seen) == 2 and seen[0] is mask
        assert np.array_equal(seen[1].inside, mask.inside[::-1, ::-1])


def test_no_zero_eigenvalue_reported():
    mask = build_domain(SPEC, 64, 64, Strip(-np.pi / 3, np.pi / 3))
    res = spectrum(mask, (-2.0, 2.0, -1.0, 1.0))
    assert all(abs(r.real) > 1e-3 for r in res.eigenvalues)


def test_grid_refinement_consistency():
    vals = []
    for n in (48, 96):
        mask = build_domain(SPEC, n, n, Strip(-np.pi / 4, np.pi / 4))
        vals.append(rho_min(mask))
    errs = [abs(v - 2.0) for v in vals]
    # O(h^2): quartering the cell roughly quarters the error
    assert errs[1] < 0.5 * errs[0] + 1e-6


def test_degenerate_tiny_complement_is_flagged():
    # full torus minus one cell: the boundary barely has capacity, the
    # value drifts with resolution and must carry the flag
    from logtorus.torus import Grid, mask_from_inside
    vals = []
    for n in (32, 64):
        grid = Grid(SPEC, n, n)
        inside = np.ones(grid.shape, dtype=bool)
        inside[0, 0] = False
        r = rho_min(mask_from_inside(grid, inside), full_result=True)
        assert r.meta.get("resolution_limited") is True
        vals.append(r.value)
    # enlarging the domain (shrinking the hole) lowers the value
    assert vals[1] < vals[0]


def torus_minus_one_cell(n):
    grid = Grid(SPEC, n, n)
    inside = np.ones(grid.shape, dtype=bool)
    inside[0, 0] = False
    return mask_from_inside(grid, inside)


def test_strip_minus_disc_resolved_at_128():
    # rho*h ~ 0.29: well resolved; the dense companion gives 5.9312 at 40^2
    mask = build_domain(SPEC, 128, 128, Strip(-0.8, 0.8) - Disc(0.3, 0, 0.3))
    t0 = time.monotonic()
    r = rho_min(mask)
    assert time.monotonic() - t0 < 10.0
    assert r == pytest.approx(5.94, rel=0.01)


SMALL_DOMAINS = {
    "strip": lambda: build_domain(SPEC, 32, 32, Strip(-0.8, 0.8)),
    "strip_minus_disc": lambda: build_domain(
        SPEC, 32, 32, Strip(-0.8, 0.8) - Disc(0.3, 0, 0.3)),
    "strip_plus_disc": lambda: build_domain(
        SPEC, 32, 32, Strip(-0.8, 0.8) | Disc(0.3, 0.8, 0.3)),
    "two_strips": lambda: build_domain(
        SPEC, 32, 32, Strip(-2.4, -1.4) | Strip(0.4, 1.6)),
    "torus_minus_one_cell": lambda: torus_minus_one_cell(32),
}


# interior cells up to which the dense 2n x 2n companion takes seconds
DENSE_N_MAX = 1200


def dense_companion_rho_min(mask):
    """Least real positive eigenvalue of the dense 2n x 2n companion whose
    residual-certified eigenvector has a single sign after peak
    normalization; a 2-cell boundary layer may dip slightly below zero."""
    tol_res, tol_core, tol_layer = 1e-8, 1e-6, 1e-3
    system = PencilSystem(mask)
    vals, vecs = system.dense_eigs()
    tol_re = _tol_real(mask, tol_res)
    core = erode_periodic(mask.inside, 2)
    layer = mask.inside & ~core
    best = None
    for rho, q in zip(vals, vecs.T):
        if not (np.isfinite(rho) and rho.real > tol_re
                and abs(rho.imag) <= tol_re):
            continue
        if system.residual(rho, q) > tol_res:
            continue
        q = system.normalize(q)
        if np.max(np.abs(q.imag)) > 1e-5:
            continue
        v = system.opK.embed(q.real)
        if (core.any() and v[core].min() < -tol_core) or \
                (layer.any() and v[layer].min() < -tol_layer):
            continue
        if best is None or rho.real < best:
            best = float(rho.real)
    return best


@pytest.mark.parametrize("name", SMALL_DOMAINS)
def test_rho_min_agrees_with_dense_companion(name):
    # the dense 2n x 2n companion plus a sign filter is an independent
    # route to the least certified positive eigenvalue
    mask = SMALL_DOMAINS[name]()
    assert mask.n_inside <= DENSE_N_MAX
    ref = dense_companion_rho_min(mask)
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(ref, rel=1e-9)
    q = r.eigenfunction.values[mask.inside].real
    assert q.min() >= -1e-8
    assert q.max() == pytest.approx(1.0, abs=1e-12)
    assert r.residual <= 1e-8


def test_unresolved_tube_stops_below_grid_limit():
    mask = build_domain(SPEC, 64, 64, Tube(2, 0, 0.12))
    assert mask.spiral_of(0).connected
    t0 = time.monotonic()
    r = rho_min(mask, full_result=True)
    assert time.monotonic() - t0 < 5.0
    assert r.value is None
    assert "rho*hx" in r.meta["note"]
    assert not r.meta.get("grid_limited") and not r.meta.get("resolution_limited")


def test_tube_k5_rho_min_matches_straight_strip_law():
    # in the x-cover Tube(k, l, eps) is a straight strip of width 2*eps;
    # the tolerance adds one cell's extent across the slanted strand
    k, P = 5, LOG2
    eps = 0.69 * np.pi * P / np.sqrt((k * P) ** 2 + 4 * np.pi ** 2)
    mask = build_domain(SPEC, 48, 240, Tube(k, 0, eps))
    assert mask.spiral_of(0).k == k
    expect = np.pi * np.sqrt((k * P) ** 2 + 4 * np.pi ** 2) / (2 * eps * k * P)
    theta = np.arctan(2 * np.pi / (k * P))
    tol = 0.02 + (P / 48 * np.sin(theta)
                  + 2 * np.pi / 240 * np.cos(theta)) / (2 * eps)
    assert rho_min(mask) == pytest.approx(expect, rel=tol)


def tube_k4(nx, ny):
    k, P = 4, LOG2
    eps_max = np.pi * P / np.sqrt((k * P) ** 2 + 4 * np.pi ** 2)
    return build_domain(SPEC, nx, ny, Tube(k, 0, 0.69 * eps_max))


# the 32x128 tube of the benchmark has 2944 interior cells, whose dense
# companion takes minutes; the 16x64 one is the same winding at half the
# resolution
COMPANION_DOMAINS = {
    **{name: SMALL_DOMAINS[name] for name in
       ("strip", "strip_minus_disc", "strip_plus_disc", "two_strips")},
    "tube_k4_16x64": lambda: tube_k4(16, 64),
}
COMPANION_BOXES = [(0.5, 4.5, -10.0, 10.0), (-4.0, 4.0, -10.0, 10.0),
                   (0.5, 8.5, -20.0, 20.0)]


@functools.lru_cache(maxsize=None)
def dense_companion_spectrum(name, bc):
    """Residual-certified eigenvalues of the dense 2n x 2n companion."""
    mask = COMPANION_DOMAINS[name]()
    assert mask.n_inside <= DENSE_N_MAX
    system = PencilSystem(mask, bc=bc)
    vals, vecs = system.dense_eigs()
    keep = [k for k in range(len(vals)) if np.isfinite(vals[k])
            and system.residual(vals[k], vecs[:, k]) <= TOL_RES]
    return mask, vals[keep]


@pytest.mark.parametrize("box", COMPANION_BOXES)
@pytest.mark.parametrize("bc", ["face", "outside"])
@pytest.mark.parametrize("name", COMPANION_DOMAINS)
def test_spectrum_matches_dense_companion(name, bc, box):
    # the boxes hold 0 to 33 eigenvalues, up to 43 in the contour: past
    # what a fixed block of 16 probes resolves
    mask, vals = dense_companion_spectrum(name, bc)
    re0, re1, im0, im1 = box
    ref = vals[(vals.real >= re0) & (vals.real <= re1)
               & (vals.imag >= im0) & (vals.imag <= im1)]
    got = spectrum(mask, box, bc=bc).eigenvalues
    assert len(got) == len(ref)
    for a, b in ((ref, got), (got, ref)):
        for rho in a:
            assert np.min(np.abs(b - rho)) <= 1e-10 * abs(rho)


def test_spectrum_is_deterministic_and_reports_its_filter():
    mask = SMALL_DOMAINS["strip_plus_disc"]()
    box = (0.5, 8.5, -20.0, 20.0)
    first, second = spectrum(mask, box), spectrum(mask, box)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    meta = first.meta
    for key in ("count_estimate", "certified_in_contour", "probes", "nodes",
                "factorizations"):
        assert key in meta
    assert meta["nodes"] == NODES
    assert meta["certified_in_contour"] >= len(first)
    assert "reason" not in meta


def test_spectrum_beyond_the_bounded_block_is_flagged(monkeypatch):
    # about 200 eigenvalues in the contour against at most 2*PROBES_MAX
    # filtered directions: one grown block, then a reason
    lus = count_factorizations(monkeypatch)
    mask = SMALL_DOMAINS["strip"]()
    res = spectrum(mask, (0.5, 30.0, -60.0, 60.0))
    assert "saturated" in res.meta["reason"]
    assert res.meta["probes"] == PROBES_MAX
    assert res.meta["factorizations"] == len(lus) == NODES
    assert all(r <= TOL_RES for r in res.residuals)


PENCIL_DOMAINS = {
    "strip96_quarter": lambda: build_domain(SPEC, 96, 96, Strip(-np.pi / 4, np.pi / 4)),
    "strip96_half": lambda: build_domain(SPEC, 96, 96, Strip(-np.pi / 2, np.pi / 2)),
    "strip16x32": lambda: build_domain(SPEC, 16, 32, Strip(-np.pi / 4, np.pi / 4)),
    "band96": lambda: build_domain(SPEC, 96, 96, Band(LOG2 / 4, 3 * LOG2 / 4)),
    "strip64_third": lambda: build_domain(SPEC, 64, 64, Strip(-np.pi / 3, np.pi / 3)),
    "strip48_half": lambda: build_domain(SPEC, 48, 48, Strip(-np.pi / 2, np.pi / 2)),
    "torus64_minus_one_cell": lambda: torus_minus_one_cell(64),
    "strip128_minus_disc": lambda: build_domain(
        SPEC, 128, 128, Strip(-0.8, 0.8) - Disc(0.3, 0, 0.3)),
    "tube64": lambda: build_domain(SPEC, 64, 64, Tube(2, 0, 0.12)),
    **SMALL_DOMAINS,
}


@pytest.mark.parametrize("name", PENCIL_DOMAINS)
def test_rho_min_reports_its_perron_work(name):
    r = rho_min(PENCIL_DOMAINS[name](), full_result=True)
    assert r.meta["mode"] == "perron"
    assert r.meta["evaluations"] <= 40
    if r.value is None:
        assert r.meta["note"]
        return
    assert r.meta["evaluations"] >= 2
    lo, hi = r.meta["bracket"]
    assert lo <= r.value and (hi is None or r.value <= hi)
    assert r.meta["sign_margin"] >= 0.0
