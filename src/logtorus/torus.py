"""Torus geometry: grids, rasterized domains, spiral classification.

The torus has x-period P (log-radius direction) and y-period 2*pi
(argument direction); the fundamental rectangle is (0,P) x (-pi,pi).
Cells are rasterized by their centers, components use 4-connectivity,
and a domain is classified as *connected on spirals* when it carries a
loop with nonzero winding around the x-cycle.  The winding count k is
detected by lifting the component to the x-covering strip and looking
for cells that reconnect with their translate by k periods.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .errors import AllCellsInside, ConfigError, EmptyDomain

__all__ = [
    "TorusSpec", "Grid", "GridField", "DomainMask", "SpiralClass",
    "Strip", "Band", "Rect", "Disc", "Tube", "Polygon", "ShapeUnion",
    "ShapeDifference", "build_domain", "classify_spiral", "components",
    "reflect_mask", "translate_mask", "mask_from_inside", "parse_shape_lines",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusSpec:
    """Torus with x-period P > 0 and fixed y-period 2*pi."""

    P: float

    def __post_init__(self):
        if not (self.P > 0.0 and np.isfinite(self.P)):
            raise ConfigError(f"torus period must be positive, got {self.P}")

    @property
    def T(self) -> float:
        """Homogeneity ratio e^P of the underlying plane domain."""
        return float(np.exp(self.P))

    @property
    def area(self) -> float:
        return self.P * TWO_PI


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the torus; indices wrap periodically.

    Arrays are indexed [j, i] with j the y-row (outer) and i the x-column,
    cell centers at x_i = (i+1/2)hx, y_j = -pi + (j+1/2)hy.
    """

    spec: TorusSpec
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ConfigError("grid needs nx, ny >= 8")

    @property
    def hx(self) -> float:
        return self.spec.P / self.nx

    @property
    def hy(self) -> float:
        return TWO_PI / self.ny

    @property
    def shape(self) -> tuple:
        return (self.ny, self.nx)

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def x_centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.hx

    def y_centers(self) -> np.ndarray:
        return -np.pi + (np.arange(self.ny) + 0.5) * self.hy

    def meshgrid(self) -> tuple:
        """(X, Y) arrays of cell centers, shape (ny, nx)."""
        return np.meshgrid(self.x_centers(), self.y_centers())

    def cell_of(self, x: float, y: float) -> tuple:
        """(j, i) index of the cell containing the torus point (x, y)."""
        i = int(np.floor((x % self.spec.P) / self.hx)) % self.nx
        j = int(np.floor(((y + np.pi) % TWO_PI) / self.hy)) % self.ny
        return j, i


@dataclass
class GridField:
    """Scalar samples on a grid, one value per cell (real or complex)."""

    grid: Grid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}")

    def copy(self) -> "GridField":
        return GridField(self.grid, self.values.copy(), dict(self.meta))


# ----------------------------------------------------------------------
# shape language
# ----------------------------------------------------------------------

class ShapeExpr:
    """Base class for the shape language; subclasses implement contains()."""

    def contains(self, X, Y, spec: TorusSpec):
        raise NotImplementedError

    def __or__(self, other):
        return ShapeUnion(self, other)

    def __sub__(self, other):
        return ShapeDifference(self, other)


def _wrap_dist(t, period):
    """Distance from t to the nearest multiple of period."""
    return np.abs((t + 0.5 * period) % period - 0.5 * period)


@dataclass(frozen=True)
class Strip(ShapeExpr):
    """Horizontal strip ymin < y < ymax in the principal range (-pi, pi)."""
    ymin: float
    ymax: float

    def contains(self, X, Y, spec):
        return (Y > self.ymin) & (Y < self.ymax)


@dataclass(frozen=True)
class Band(ShapeExpr):
    """Vertical band xmin < x < xmax in the principal range (0, P)."""
    xmin: float
    xmax: float

    def contains(self, X, Y, spec):
        return (X > self.xmin) & (X < self.xmax)


@dataclass(frozen=True)
class Rect(ShapeExpr):
    x0: float
    x1: float
    y0: float
    y1: float

    def contains(self, X, Y, spec):
        return ((X > self.x0) & (X < self.x1)
                & (Y > self.y0) & (Y < self.y1))


@dataclass(frozen=True)
class Disc(ShapeExpr):
    """Disc of radius r about (cx, cy), measured in the flat torus metric."""
    cx: float
    cy: float
    r: float

    def contains(self, X, Y, spec):
        dx = _wrap_dist(X - self.cx, spec.P)
        dy = _wrap_dist(Y - self.cy, TWO_PI)
        return dx * dx + dy * dy < self.r * self.r


@dataclass(frozen=True)
class Tube(ShapeExpr):
    """Neighborhood of half-width eps of the closed spiral that winds k
    times around the x-cycle while advancing once around the y-cycle.

    The spiral is the image of the line family
        y = (2*pi/(k*P)) * x + (l + m) * 2*pi/k,   m in Z,
    which is invariant under both torus deck translations; its winding
    class is (k, 1), so the minimal loop winding detected in the tube is
    exactly k once eps keeps neighboring strands disjoint.
    """
    k: int
    l: int
    eps: float

    def contains(self, X, Y, spec):
        if self.k < 1:
            raise ConfigError("tube winding k must be >= 1")
        slope = TWO_PI / (self.k * spec.P)
        spacing = TWO_PI / self.k
        t = Y - slope * X - self.l * spacing
        d = _wrap_dist(t, spacing) / np.sqrt(1.0 + slope * slope)
        return d < self.eps


@dataclass(frozen=True)
class Polygon(ShapeExpr):
    """Simple polygon given by vertices in the fundamental rectangle
    (no wrap-around); even-odd crossing rule."""
    vertices: tuple

    def contains(self, X, Y, spec):
        vx = np.array([v[0] for v in self.vertices])
        vy = np.array([v[1] for v in self.vertices])
        n = len(vx)
        inside = np.zeros(np.shape(X), dtype=bool)
        for a in range(n):
            b = (a + 1) % n
            cross = ((vy[a] > Y) != (vy[b] > Y))
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = vx[a] + (Y - vy[a]) * (vx[b] - vx[a]) / (vy[b] - vy[a])
            inside ^= cross & (X < xint)
        return inside


@dataclass(frozen=True)
class ShapeUnion(ShapeExpr):
    a: ShapeExpr
    b: ShapeExpr

    def contains(self, X, Y, spec):
        return self.a.contains(X, Y, spec) | self.b.contains(X, Y, spec)


@dataclass(frozen=True)
class ShapeDifference(ShapeExpr):
    a: ShapeExpr
    b: ShapeExpr

    def contains(self, X, Y, spec):
        return self.a.contains(X, Y, spec) & ~self.b.contains(X, Y, spec)


_PRIMS = {
    "strip": (Strip, 2),
    "band": (Band, 2),
    "rect": (Rect, 4),
    "disc": (Disc, 3),
    "tube": (Tube, 3),
}


def parse_shape_lines(lines: Sequence[str]):
    """Parse the line-oriented shape format.

    Header ``torus P nx ny``, then one primitive per line prefixed with
    ``+`` (union) or ``-`` (difference), e.g. ``+ strip -0.785 0.785``.
    Returns (TorusSpec, nx, ny, ShapeExpr).
    """
    spec = nx = ny = None
    expr: Optional[ShapeExpr] = None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "torus":
            if len(parts) != 4:
                raise ConfigError(f"bad torus header: {line!r}")
            spec = TorusSpec(float(parts[1]))
            nx, ny = int(parts[2]), int(parts[3])
            continue
        sign, name, args = parts[0], parts[1] if len(parts) > 1 else "", parts[2:]
        if sign not in "+-":
            raise ConfigError(f"shape line must start with + or -: {line!r}")
        if name == "poly":
            if len(args) < 6 or len(args) % 2:
                raise ConfigError(f"poly needs >= 3 vertex pairs: {line!r}")
            vals = [float(a) for a in args]
            prim = Polygon(tuple(zip(vals[0::2], vals[1::2])))
        else:
            if name not in _PRIMS:
                raise ConfigError(f"unknown primitive {name!r}")
            cls, argc = _PRIMS[name]
            if len(args) != argc:
                raise ConfigError(f"{name} needs {argc} arguments: {line!r}")
            vals = [int(a) if f == int else float(a)
                    for a, f in zip(args, [int, int, float] if cls is Tube
                                    else [float] * argc)]
            prim = cls(*vals)
        if expr is None:
            if sign == "-":
                raise ConfigError("first shape line must be a union (+)")
            expr = prim
        else:
            expr = ShapeUnion(expr, prim) if sign == "+" else ShapeDifference(expr, prim)
    if spec is None or expr is None:
        raise ConfigError("shape input needs a torus header and at least one primitive")
    return spec, nx, ny, expr


# ----------------------------------------------------------------------
# domain masks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralClass:
    """Connectivity-on-spirals verdict for one component.

    k is the minimal x-winding of a detected loop, y_winding the y-cycle
    count of a realizing loop.  conclusive=False flags a detection window
    that was too small to settle the verdict.
    """

    kind: str                      # 'connected_on_spirals' | 'not_connected_on_spirals'
    k: Optional[int] = None
    y_winding: Optional[int] = None
    conclusive: bool = True

    @property
    def connected(self) -> bool:
        return self.kind == "connected_on_spirals"


@dataclass(frozen=True)
class DomainMask:
    """Rasterized open subset of the torus with labeled components.

    labels[j,i] is the component id of an inside cell, -1 outside.  The
    complement is required to be nonempty so the boundary has positive
    capacity at grid scale (true capacity is not computed).
    """

    grid: Grid
    inside: np.ndarray
    labels: np.ndarray
    n_components: int
    spiral: tuple = ()

    def __post_init__(self):
        self.inside.flags.writeable = False
        self.labels.flags.writeable = False

    @property
    def n_inside(self) -> int:
        return int(self.inside.sum())

    def component_mask(self, c: int) -> np.ndarray:
        return self.labels == c

    def spiral_of(self, c: int) -> SpiralClass:
        return self.spiral[c]


def _seam_roots(n: int, *seams) -> np.ndarray:
    """Class root of every label 0..n once the labels that face each
    other across each seam are joined.  A seam is a pair (a, b) of label
    lines that meet when the grid wraps; a pair joins only where both
    labels are inside (> 0).  A root is the least label of its class, so
    label 0 stays 0."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a_line, b_line in seams:
        both = (a_line > 0) & (b_line > 0)
        for a, b in zip(a_line[both], b_line[both]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(a) for a in range(n + 1)])


def _label_periodic(inside: np.ndarray) -> tuple:
    """4-connected component labels with wrap-around in both directions."""
    labels, n = ndimage.label(inside)
    roots = _seam_roots(n, (labels[:, 0], labels[:, -1]),
                        (labels[0, :], labels[-1, :]))
    # number the classes by their least label; root 0 (outside) gives -1
    uniq, remap = np.unique(roots, return_inverse=True)
    return remap[labels] - 1, len(uniq) - 1


def mask_from_inside(grid: Grid, inside: np.ndarray,
                     classify: bool = True, window_periods: int = 4) -> DomainMask:
    """Build a DomainMask from a boolean inside array."""
    inside = np.ascontiguousarray(inside, dtype=bool).copy()
    if not inside.any():
        raise EmptyDomain("no inside cells")
    if inside.all():
        raise AllCellsInside("complement is empty; boundary has no grid support")
    labels, n = _label_periodic(inside)
    mask = DomainMask(grid, inside, labels, n)
    if classify:
        spiral = classify_spiral(mask, window_periods=window_periods)
        mask = DomainMask(grid, inside, labels, n, spiral)
    return mask


def build_domain(spec: TorusSpec, nx: int, ny: int, shape: ShapeExpr,
                 classify: bool = True, window_periods: int = 4) -> DomainMask:
    """Rasterize a shape expression (cell-center rule) and classify it."""
    grid = Grid(spec, nx, ny)
    X, Y = grid.meshgrid()
    inside = np.asarray(shape.contains(X, Y, spec), dtype=bool)
    return mask_from_inside(grid, inside, classify=classify,
                            window_periods=window_periods)


def components(mask: DomainMask) -> list:
    """Split a mask into one single-component mask per label."""
    out = []
    for c in range(mask.n_components):
        sub = mask_from_inside(mask.grid, mask.component_mask(c), classify=False)
        spiral = (mask.spiral[c],) if mask.spiral else ()
        out.append(DomainMask(sub.grid, sub.inside, sub.labels,
                              sub.n_components, spiral))
    return out


# ----------------------------------------------------------------------
# spiral classification
# ----------------------------------------------------------------------

def _tiled_classify(comp: np.ndarray, wp: int):
    """Detect the minimal x-winding of loops in one component.

    The component is tiled wp+1 times along x (cutting the x-cycle open
    while keeping y periodic); two copies of the same base cell falling in
    one tiled component realize a loop with x-winding = block offset.

    Returns (k or None, pair or None, labels, boundary_flag) where pair
    is a witness ((j,i), block_a, block_b) and boundary_flag marks a lift
    that crosses tile seams or window edges without reconnecting.
    """
    ny, nx = comp.shape
    tiled = np.tile(comp, (1, wp + 1))
    labels, n = ndimage.label(tiled)
    # restore y-periodicity of the quotient
    labels = _seam_roots(n, (labels[0, :], labels[-1, :]))[labels]

    base = labels[:, :nx]
    k_best, witness = None, None
    for m in range(1, wp + 1):
        shifted = labels[:, m * nx:(m + 1) * nx]
        hit = comp & (base > 0) & (base == shifted)
        if hit.any():
            j, i = np.argwhere(hit)[0]
            k_best, witness = m, ((int(j), int(i)), 0, m)
            break

    boundary = False
    if k_best is None:
        # does the seed's lift cross between tile blocks or touch edges?
        seed_labels = set(np.unique(base[comp & (base > 0)]))
        for m in range(wp):
            seam_a = labels[:, m * nx + nx - 1]
            seam_b = labels[:, (m + 1) * nx]
            crossing = set(np.unique(seam_a[(seam_a > 0) & (seam_a == seam_b)]))
            if crossing & seed_labels:
                boundary = True
                break
    return k_best, witness, labels, boundary


def _y_winding(comp: np.ndarray, wp: int, cell, k: int) -> int:
    """Net y-cycle count of a loop joining a cell to its k-period x-translate.

    BFS on the x-cover (y kept periodic), tracking accumulated y wraps.
    """
    ny, nx = comp.shape
    j0, i0 = cell
    start = (j0, i0, 0)
    target = (j0, i0, k)
    b = {start: 0}
    q = deque([start])
    while q:
        j, i, blk = q.popleft()
        wraps = b[(j, i, blk)]
        for dj, di, dw in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)):
            jj = j + dj
            ww = wraps
            if jj == ny:
                jj, ww = 0, wraps + 1
            elif jj == -1:
                jj, ww = ny - 1, wraps - 1
            ii, bb = i + di, blk
            if ii == nx:
                ii, bb = 0, blk + 1
            elif ii == -1:
                ii, bb = nx - 1, blk - 1
            if not (0 <= bb <= wp) or not comp[jj, ii]:
                continue
            key = (jj, ii, bb)
            if key not in b:
                b[key] = ww
                if key == target:
                    return ww
                q.append(key)
    return 0


def classify_spiral(mask: DomainMask, window_periods: int = 4) -> tuple:
    """Classify every component of the mask; see SpiralClass.

    A verdict is conclusive when detection windows of window_periods and
    window_periods-1 x-periods agree; windings k > window_periods - 1 are
    reported as inconclusive.
    """
    if window_periods < 2:
        raise ConfigError("window_periods must be >= 2")
    out = []
    for c in range(mask.n_components):
        comp = mask.component_mask(c)
        k, witness, _, boundary = _tiled_classify(comp, window_periods)
        k_small, _, _, boundary_small = _tiled_classify(comp, window_periods - 1)
        if k is not None:
            conclusive = (k == k_small)
            l = _y_winding(comp, window_periods, witness[0], k)
            out.append(SpiralClass("connected_on_spirals", k, l, conclusive))
        else:
            conclusive = not (boundary or boundary_small)
            out.append(SpiralClass("not_connected_on_spirals",
                                   conclusive=conclusive))
    return tuple(out)


# ----------------------------------------------------------------------
# mask transforms (used by symmetry checks)
# ----------------------------------------------------------------------

def reflect_mask(mask: DomainMask) -> DomainMask:
    """Image of the mask under z -> -z (cell centers map to cell centers)."""
    return mask_from_inside(mask.grid, mask.inside[::-1, ::-1])


def translate_mask(mask: DomainMask, di: int, dj: int) -> DomainMask:
    """Translate by whole cells (di in x, dj in y), wrapping around."""
    return mask_from_inside(mask.grid, np.roll(mask.inside, (dj, di), axis=(0, 1)))
