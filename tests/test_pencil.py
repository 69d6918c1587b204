"""Pencil spectrum tests against separation-of-variables oracles.

For the strip alpha < y < beta of width W the eigenvalues are the
lattice rho = n*pi/W - 2*pi*m*i/P (n >= 1, m integer) with
eigenfunctions exp(2*pi*i*m*x/P) * sin((rho + 2*pi*m*i/P)(y - alpha));
this oracle is independent of the matrix pipeline.
"""

import contextlib
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
    components, mask_from_inside, translate_mask,
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


def test_rho_min_counts_its_factorizations(monkeypatch):
    # the -K start and one shift: a strip converges on its first shift
    mask = build_domain(SPEC, 40, 40, Strip(-np.pi / 4, np.pi / 4))
    lus = count_factorizations(monkeypatch)
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(2.0, rel=0.02)
    assert len(lus) == r.meta["factorizations"] <= 3
    assert r.meta["fallbacks"] == 0
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


@contextlib.contextmanager
def pencil_rule(bc):
    """The pencil is assembled under the 'face' rule.  With bc='outside'
    the pencil module assembles K and B under the outside rule instead: a
    second matrix family, whose boundary rows differ, on which the
    contour filter and the symmetry checks must hold as well."""
    with pytest.MonkeyPatch.context() as mp:
        if bc != "face":
            mp.setattr(pencil, "assemble", functools.partial(operators.assemble, bc=bc))
        yield


@pytest.mark.parametrize("n", [32, 48])
@pytest.mark.parametrize("bc", ["face", "outside"])
def test_shift_partners_match_to_an_h2_bound(n, bc):
    # the shift partners of a correct coarse spectrum miss by about
    # 0.022 (h |lambda|)^2 (0.062-0.073 at 32^2), more than a fixed 3 percent
    mask = build_domain(SPEC, n, n, Strip(-0.8, 0.8))
    with pencil_rule(bc):
        res = spectrum(mask, (0.5, 4.5, -10.0, 10.0))
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
    with pencil_rule(bc):
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


@pytest.mark.parametrize("n", [32, 64])
def test_unresolved_tube_stops_within_bounded_factorizations(monkeypatch, n):
    # the iteration climbs past certified mu < 0 shifts and turns back;
    # one Perron evaluation at the cap then ends the search
    mask = build_domain(SPEC, n, n, Tube(2, 0, 0.12))
    lus = count_factorizations(monkeypatch)
    r = rho_min(mask, full_result=True)
    assert r.value is None
    assert r.meta["note"].startswith("no Perron root below rho*hx=")
    assert r.meta["stop"] == "cap" and r.meta["fallbacks"] >= 1
    assert len(lus) == r.meta["factorizations"] <= 10
    assert "grid_limited" not in r.meta


@pytest.mark.parametrize("k, eps, n, stop, note", [
    (1, 0.69 * np.pi * LOG2 / np.sqrt(LOG2 ** 2 + 4 * np.pi ** 2), 48, "sign",
     "Perron vector changes sign at rho="),
    (2, 0.12, 32, "cap", "no Perron root below rho*hx="),
], ids=["sign", "cap"])
def test_unresolved_tube_returns_none_with_its_stop(monkeypatch, k, eps, n, stop, note):
    # under-resolved tubes end at the cap with one of two notes; either
    # way the value is None, the note says why and the LUs stay bounded
    mask = build_domain(SPEC, n, n, Tube(k, 0, eps))
    lus = count_factorizations(monkeypatch)
    r = rho_min(mask, full_result=True)
    assert r.value is None and r.eigenfunction is None
    assert r.meta["stop"] == stop and r.meta["note"].startswith(note)
    assert len(lus) == r.meta["factorizations"] <= pencil.MAX_FACTORS


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


def tube_k4(nx, ny, l=0):
    k, P = 4, LOG2
    eps_max = np.pi * P / np.sqrt((k * P) ** 2 + 4 * np.pi ** 2)
    return build_domain(SPEC, nx, ny, Tube(k, l, 0.69 * eps_max))


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
    with pencil_rule(bc):
        system = PencilSystem(mask)
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
    with pencil_rule(bc):
        got = spectrum(mask, box).eigenvalues
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


def test_spectrum_counts_the_factorizations_of_an_unsaturated_block(monkeypatch):
    lus = count_factorizations(monkeypatch)
    mask = SMALL_DOMAINS["strip"]()
    res = spectrum(mask, (0.5, 4.5, -10.0, 10.0))
    assert "reason" not in res.meta and res.meta["probes"] == pencil.PROBES
    assert res.meta["factorizations"] == len(lus) == NODES // 2
    assert set(lus) == {mask.n_inside}


MATRIX_DOMAINS = {
    "strip": SMALL_DOMAINS["strip"],
    "strip_minus_disc": SMALL_DOMAINS["strip_minus_disc"],
    "tube_k4_16x64": lambda: tube_k4(16, 64),
}


@pytest.mark.parametrize("rho", [0.3, 7.7, 2.0 + 3.0j])
@pytest.mark.parametrize("name", MATRIX_DOMAINS)
def test_pencil_matrix_is_l_rho_on_the_laplacian_pattern(name, rho):
    # A(rho) is one combination of data arrays on K's pattern, equal bit
    # for bit to the assembled L_rho, with no sparse addition
    mask = MATRIX_DOMAINS[name]()
    system = PencilSystem(mask)
    A = system.matrix(rho)
    for got, own in ((A.indices, system.K.indices), (A.indptr, system.K.indptr)):
        assert np.shares_memory(got, own)
    L = operators.assemble(mask, "l_rho", rho=rho).matrix.tocsc()
    assert A.dtype == L.dtype
    for got, want in ((A.data, L.data), (A.indices, L.indices), (A.indptr, L.indptr)):
        assert np.array_equal(got, want)


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


def test_rho_min_lists_every_component():
    # two strips and a disc that does not wind: one value per component
    # connected on spirals, None for the disc
    mask = build_domain(SPEC, 32, 32, Strip(-2.4, -1.4) | Strip(0.4, 1.6)
                        | Disc(0.3, -0.5, 0.25))
    parts = components(mask)
    assert [p.spiral_of(0).connected for p in parts] == [True, False, True]
    r = rho_min(mask, full_result=True)
    assert r.per_component == [rho_min(parts[0]), None, rho_min(parts[2])]
    assert r.value == min(r.per_component[0], r.per_component[2])


@pytest.mark.parametrize("name", PENCIL_DOMAINS)
def test_rho_min_reports_its_perron_work(monkeypatch, name):
    mask = PENCIL_DOMAINS[name]()
    lus = count_factorizations(monkeypatch)
    r = rho_min(mask, full_result=True)
    assert r.meta["mode"] == "rii"
    assert len(lus) == r.meta["factorizations"] <= pencil.MAX_FACTORS * mask.n_components
    assert r.meta["fallbacks"] <= r.meta["factorizations"]
    if r.value is None:
        assert r.meta["note"] and r.meta["stop"] != "converged"
        return
    assert r.meta["stop"] == "converged"
    assert r.meta["solves"] >= r.meta["evaluations"] >= 2
    lo, hi = r.meta["bracket"]
    assert lo <= r.value and (hi is None or r.value <= hi)
    assert r.meta["sign_margin"] >= 0.0


def secant_rho_min(mask):
    """The secant on Perron evaluations that rho_min used before the
    residual inverse iteration, kept as a reference: the least value of
    a safeguarded secant in t = rho^2 on the components connected on
    spirals, each evaluation one ARPACK shift-invert solve."""
    values = []
    for part in components(mask):
        if not part.spiral_of(0).connected:
            continue
        system = PencilSystem(part)
        t_cap = (pencil.RHO_HX_MAX / part.grid.hx) ** 2
        pts = []

        def evaluate(t):
            mu, q = system.perron(np.sqrt(t))
            pts.append((t, mu))
            assert q.min() >= -pencil.SIGN_TOL
            return mu

        mu = evaluate(0.0)
        lo, hi = 0.0, None
        t = min(-mu, t_cap)
        while True:
            assert len(pts) < 40
            mu = evaluate(t)
            slope = (mu - pts[-2][1]) / (t - pts[-2][0])
            if mu < 0.0:
                lo = t
            else:
                hi = t
            if (abs(mu) <= pencil.TOL_X * t * abs(slope)
                    or (hi is not None and hi - lo <= pencil.TOL_X * hi)):
                break
            step = -mu / slope if slope != 0.0 else np.inf
            if hi is None:
                assert t < t_cap
                t = min(t + step if slope > 0.0 else np.inf, pencil.GROW_MAX * t, t_cap)
            else:
                t = t + step
                if not lo < t < hi:
                    t = 0.5 * (lo + hi)
        values.append(float(np.sqrt(t)))
    return min(values)


def tube_k5():
    k, P = 5, LOG2
    eps = 0.69 * np.pi * P / np.sqrt((k * P) ** 2 + 4 * np.pi ** 2)
    return build_domain(SPEC, 48, 240, Tube(k, 0, eps))


# the classes of rho_min jobs of the benchmark's critical workload
REFERENCE_DOMAINS = {
    "strip40": lambda: build_domain(SPEC, 40, 40, Strip(-0.6, 0.6)),
    "strip128_narrow": lambda: build_domain(SPEC, 128, 128, Strip(-0.5, 0.5)),
    "strip128_wide": lambda: build_domain(SPEC, 128, 128, Strip(-1.0, 1.0)),
    "strip96_minus_disc": lambda: build_domain(
        SPEC, 96, 96, Strip(-0.6, 0.6) - Disc(0.3, 0.6, 0.32)),
    "strip96_plus_disc": lambda: build_domain(
        SPEC, 96, 96, Strip(-0.6, 0.6) | Disc(0.3, 0.6, 0.32)),
    "two_strips96": lambda: build_domain(
        SPEC, 96, 96, Strip(-2.2, -1.0) | Strip(0.9, 2.2)),
    **{f"tube_k4_l{l}": functools.partial(tube_k4, 48, 192, l) for l in range(4)},
    "tube_k3": lambda: build_domain(SPEC, 48, 144, Tube(3, 1, 0.25)),
    "tube_k5": tube_k5,
}


@pytest.mark.parametrize("name", REFERENCE_DOMAINS)
def test_rho_min_matches_the_perron_secant(name):
    mask = REFERENCE_DOMAINS[name]()
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(secant_rho_min(mask), rel=1e-10)
    assert r.meta["fallbacks"] == 0


@pytest.mark.parametrize("bad_step", ["past_cap", "no_root"])
def test_a_step_out_of_the_bracket_falls_back_to_one_perron_evaluation(
        monkeypatch, bad_step):
    # the first step after the start is replaced by one past the cap, or
    # by a quadratic without a positive root; one Perron evaluation
    # (at the cap, or inside the bracket) restarts the iteration
    mask = SMALL_DOMAINS["strip_minus_disc"]()
    expect = rho_min(mask)
    cap = pencil.RHO_HX_MAX / mask.grid.hx
    root = pencil._positive_root
    calls = []

    def sabotaged(*args):
        calls.append(args)
        if len(calls) == 2:
            return 2.0 * cap if bad_step == "past_cap" else None
        return root(*args)

    monkeypatch.setattr(pencil, "_positive_root", sabotaged)
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(expect, rel=1e-10)
    assert r.meta["fallbacks"] == 1 and r.meta["stop"] == "converged"
    lo, hi = r.meta["bracket"]
    assert lo <= r.value <= hi


def test_tube_k4_rho_min_takes_few_factorizations(monkeypatch):
    mask = tube_k4(48, 192)
    lus = count_factorizations(monkeypatch)
    r = rho_min(mask, full_result=True)
    assert r.value == pytest.approx(18.2122632289833, rel=1e-10)
    assert len(lus) == r.meta["factorizations"] <= 7
