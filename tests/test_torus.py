"""Geometry and spiral-classification tests."""

from collections import deque
from functools import reduce
from math import gcd

import numpy as np
import pytest
from scipy import ndimage

from logtorus.errors import AllCellsInside, ConfigError, EmptyDomain
from logtorus.torus import (
    Band, Disc, Grid, Polygon, Rect, ShapeUnion, SpiralClass, Strip,
    TorusSpec, Tube, _label_periodic, _spiral_class, build_domain,
    classify_spiral, components, mask_from_inside, parse_shape_lines,
    reflect_mask, translate_mask,
)

LOG2 = float(np.log(2.0))


def test_torus_spec_validation():
    spec = TorusSpec(LOG2)
    assert spec.T == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        TorusSpec(-1.0)
    with pytest.raises(ConfigError):
        Grid(spec, 4, 64)


def test_strip_is_one_component_connected_k1():
    spec = TorusSpec(LOG2)
    mask = build_domain(spec, 64, 64, Strip(-np.pi / 4, np.pi / 4))
    assert mask.n_components == 1
    sc = mask.spiral_of(0)
    assert sc.connected and sc.k == 1 and sc.y_winding == 0
    assert sc.conclusive


def test_vertical_band_not_connected_on_spirals():
    spec = TorusSpec(LOG2)
    P = spec.P
    mask = build_domain(spec, 64, 64, Band(P / 4, 3 * P / 4))
    assert mask.n_components == 1
    sc = mask.spiral_of(0)
    assert not sc.connected
    assert sc.conclusive


def test_union_of_band_and_strip_is_connected():
    # the band alone is not connected on spirals, the union with a strip is
    spec = TorusSpec(LOG2)
    P = spec.P
    shape = ShapeUnion(Band(P / 4, 3 * P / 4), Strip(-np.pi / 4, np.pi / 4))
    mask = build_domain(spec, 64, 64, shape)
    assert mask.n_components == 1
    assert mask.spiral_of(0).connected
    assert mask.spiral_of(0).k == 1


def tube_eps_max(k):
    """Half-width at which neighboring strands of Tube(k, ., eps) touch."""
    return np.pi * LOG2 / np.sqrt((k * LOG2) ** 2 + 4 * np.pi ** 2)


# (k, nx, ny, eps): each grid keeps the k strands of its tube apart
TUBES = [(1, 96, 96, 0.05), (2, 96, 96, 0.05), (3, 96, 96, 0.05),
         (4, 96, 96, 0.04), (5, 48, 240, 0.69 * tube_eps_max(5)),
         (6, 48, 288, 0.69 * tube_eps_max(6))]


@pytest.mark.parametrize("k,nx,ny,eps", TUBES, ids=[str(t[0]) for t in TUBES])
def test_tube_detects_construction_winding(k, nx, ny, eps):
    spec = TorusSpec(LOG2)
    mask = build_domain(spec, nx, ny, Tube(k, 0, eps))
    assert mask.n_components == 1
    sc = mask.spiral_of(0)
    assert sc.connected
    assert sc.k == k
    assert sc.y_winding == 1
    assert sc.conclusive
    # the phase l renumbers the strands and does not move the tube
    for l in range(1, k):
        other = build_domain(spec, nx, ny, Tube(k, l, eps), classify=False)
        assert np.array_equal(other.inside, mask.inside)


def test_crossing_tubes_reduce_y_winding_mod_d():
    # a (1, 1) tube and its mirror image y -> -y, of class (1, -1), cross
    # twice per period; half of each strand between the crossings closes a
    # (0, 1) loop, so the windings span Z^2 (d = 1) and y_winding is 0
    spec = TorusSpec(LOG2)
    tube = build_domain(spec, 64, 64, Tube(1, 0, 0.3), classify=False)
    mask = mask_from_inside(tube.grid, tube.inside | tube.inside[::-1, :])
    assert mask.n_components == 1
    assert mask.spiral_of(0) == SpiralClass("connected_on_spirals", 1, 0)


@pytest.mark.parametrize("windings,expect", [
    ([], (None, None)),
    ([(0, 2), (0, 3)], (None, None)),
    ([(3, 1), (-6, -2)], (3, 1)),
    ([(2, 3), (0, 4)], (2, -1)),
    ([(4, 1), (6, 0)], (2, -1)),       # (6,0)-(4,1) = (2,-1); d = 3
    ([(1, 5), (1, 1)], (1, 1)),        # d = 4: least |l| is 1
    ([(1, 2), (0, 4)], (1, 2)),        # tie at d/2 keeps +d/2
])
def test_spiral_class_reads_the_hermite_basis(windings, expect):
    sc = _spiral_class(windings)
    assert (sc.k, sc.y_winding) == expect
    assert sc.connected == (expect[0] is not None)
    assert sc.conclusive


def test_two_strips_two_components_disc_one():
    spec = TorusSpec(LOG2)
    two = ShapeUnion(Strip(-1.0, -0.5), Strip(0.5, 1.0))
    mask = build_domain(spec, 64, 64, two)
    assert mask.n_components == 2
    assert len(components(mask)) == 2
    disc = build_domain(spec, 64, 64, Disc(LOG2 / 2, 0.0, 0.3))
    assert disc.n_components == 1
    assert not disc.spiral_of(0).connected  # precompact component


def test_component_split_preserves_cells():
    spec = TorusSpec(LOG2)
    two = ShapeUnion(Strip(-1.0, -0.5), Disc(0.2, 2.0, 0.25))
    mask = build_domain(spec, 64, 64, two)
    subs = components(mask)
    total = sum(s.n_inside for s in subs)
    assert total == mask.n_inside
    for s in subs:
        assert s.n_components == 1


def test_empty_and_full_are_rejected():
    spec = TorusSpec(LOG2)
    with pytest.raises(EmptyDomain):
        build_domain(spec, 64, 64, Strip(2.9, 2.95).__sub__(Strip(-4, 4)))
    with pytest.raises(AllCellsInside):
        build_domain(spec, 64, 64, Strip(-4.0, 4.0))


def test_rasterization_monotone():
    # shape A inside shape B pointwise -> cellwise containment
    spec = TorusSpec(LOG2)
    a = Disc(0.3, 0.1, 0.2)
    b = Disc(0.3, 0.1, 0.5)
    ma = build_domain(spec, 64, 64, a, classify=False)
    mb = build_domain(spec, 64, 64, b, classify=False)
    assert np.all(~ma.inside | mb.inside)


def test_classification_invariant_under_translation_and_reflection():
    # z -> -z maps the class (k, l) to (-k, -l), the same lattice
    spec = TorusSpec(LOG2)
    for k, nx, ny, eps in ((2, 64, 64, 0.06), TUBES[4]):
        mask = build_domain(spec, nx, ny, Tube(k, 0, eps))
        sc = mask.spiral_of(0)
        assert sc.connected and sc.k == k
        for m2 in (translate_mask(mask, 7, 13), reflect_mask(mask)):
            assert classify_spiral(m2)[0] == sc


def test_wrapping_component_labels_merge_across_seams():
    spec = TorusSpec(LOG2)
    grid = Grid(spec, 32, 32)
    inside = np.zeros(grid.shape, dtype=bool)
    inside[:, :4] = True
    inside[:, -4:] = True   # same component across the x seam
    mask = mask_from_inside(grid, inside, classify=False)
    assert mask.n_components == 1


def test_polygon_and_rect_rasterize():
    spec = TorusSpec(LOG2)
    tri = Polygon(((0.1, -0.5), (0.6, -0.5), (0.35, 0.5)))
    mask = build_domain(spec, 64, 64, tri, classify=False)
    assert 0 < mask.n_inside < mask.grid.ncells
    r = build_domain(spec, 64, 64, Rect(0.1, 0.5, -1.0, 1.0), classify=False)
    X, Y = r.grid.meshgrid()
    expect = (X > 0.1) & (X < 0.5) & (Y > -1.0) & (Y < 1.0)
    assert np.array_equal(r.inside, expect)


def test_shape_file_parsing_roundtrip():
    lines = [
        "torus 0.6931471805599453 64 64",
        "# strip with a bite taken out",
        "+ strip -0.785398 0.785398",
        "- disc 0.34657 0.0 0.2",
        "+ tube 2 0 0.05",
    ]
    spec, nx, ny, shape = parse_shape_lines(lines)
    assert spec.P == pytest.approx(LOG2)
    mask = build_domain(spec, nx, ny, shape)
    assert mask.n_inside > 0
    with pytest.raises(ConfigError):
        parse_shape_lines(["+ strip 0 1"])          # missing header
    with pytest.raises(ConfigError):
        parse_shape_lines(["torus 0.7 64 64", "- strip 0 1"])  # leading difference


# ----------------------------------------------------------------------
# reference: the tiled-window classifier the winding lattice replaced
# ----------------------------------------------------------------------

def _ref_label_y_periodic(inside):
    """ndimage labels of a window, joined across its y seam (rows 0 and
    -1 meet); x is left open."""
    labels, n = ndimage.label(inside)
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    a_line, b_line = labels[0, :], labels[-1, :]
    both = (a_line > 0) & (b_line > 0)
    for a, b in zip(a_line[both], b_line[both]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(a) for a in range(n + 1)])[labels]


def _ref_tiled(comp, wp):
    """Least m <= wp whose m-period translate of a cell is connected to
    it in the window of wp + 1 periods (with a witness cell), and whether
    the lift crosses a period seam without reconnecting."""
    nx = comp.shape[1]
    labels = _ref_label_y_periodic(np.tile(comp, (1, wp + 1)))
    base = labels[:, :nx]
    for m in range(1, wp + 1):
        hit = comp & (base > 0) & (base == labels[:, m * nx:(m + 1) * nx])
        if hit.any():
            return m, tuple(int(v) for v in np.argwhere(hit)[0]), False
    seed = set(np.unique(base[comp & (base > 0)]))
    for m in range(wp):
        a, b = labels[:, m * nx + nx - 1], labels[:, (m + 1) * nx]
        if seed & set(np.unique(a[(a > 0) & (a == b)])):
            return None, None, True
    return None, None, False


def _ref_y_winding(comp, wp, cell, k):
    """y-cycle count of a BFS path from a cell to its k-period translate
    in the window of wp + 1 periods."""
    ny, nx = comp.shape
    start, target = (*cell, 0), (*cell, k)
    wraps = {start: 0}
    queue = deque([start])
    while queue:
        j, i, blk = queue.popleft()
        for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jj, ww = (j + dj) % ny, wraps[(j, i, blk)] + (j + dj) // ny
            ii, bb = (i + di) % nx, blk + (i + di) // nx
            key = (jj, ii, bb)
            if 0 <= bb <= wp and comp[jj, ii] and key not in wraps:
                wraps[key] = ww
                if key == target:
                    return ww
                queue.append(key)
    return 0


def _ref_classify(mask, wp=8):
    """(kind, k, y_winding) per component, or None where windows of wp
    and wp - 1 periods disagree (an inconclusive window)."""
    out = []
    for c in range(mask.n_components):
        comp = mask.component_mask(c)
        (k, cell, crossed), (k_small, _, crossed_small) = (
            _ref_tiled(comp, wp), _ref_tiled(comp, wp - 1))
        if k is not None:
            out.append(("connected_on_spirals", k,
                        _ref_y_winding(comp, wp, cell, k))
                       if k == k_small else None)
        else:
            out.append(None if crossed or crossed_small
                       else ("not_connected_on_spirals", None, None))
    return out


def test_exact_classes_match_tiled_reference_on_random_masks():
    spec = TorusSpec(LOG2)
    rng = np.random.default_rng(2001)
    conclusive = 0
    for _ in range(300):
        ny, nx = (int(v) for v in rng.integers(8, 24, size=2))
        inside = rng.random((ny, nx)) < rng.uniform(0.4, 0.7)
        if inside.all() or not inside.any():
            continue
        mask = mask_from_inside(Grid(spec, nx, ny), inside)
        windings = _label_periodic(inside)[2]
        for c, ref in enumerate(_ref_classify(mask)):
            if ref is None:
                continue
            conclusive += 1
            sc = mask.spiral_of(c)
            assert (sc.kind, sc.k) == ref[:2]
            if sc.connected:
                # y_winding is defined mod d, the y-step of the lattice
                d = reduce(gcd, (y - x // sc.k * sc.y_winding
                                 for x, y in windings[c]), 0)
                assert ref[2] - sc.y_winding == 0 or (
                    d and (ref[2] - sc.y_winding) % d == 0)
    assert conclusive > 2000
