"""Torus geometry: grids, rasterized domains, spiral classification.

The torus has x-period P (log-radius direction) and y-period 2*pi
(argument direction); the fundamental rectangle is (0,P) x (-pi,pi).
Cells are rasterized by their centers, components use 4-connectivity,
and a domain is classified as *connected on spirals* when it carries a
loop with nonzero winding around the x-cycle.  One periodic labeling
finds the components and the winding lattice of each (the integer
vectors (x, y) by which a loop of the component winds around the two
cycles); the class (k, l) is read off that lattice exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
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
    exactly k once eps keeps neighboring strands disjoint.  An integer
    phase l is the deck translation x -> x - l*P, which maps the family
    onto itself, so it does not move the tube and every l gives the same
    set; the shape format still requires it.
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

    The windings (x, y) of the component's loops form a lattice with
    Hermite basis {(k, l), (0, d)}, k, d >= 0.  The component is connected
    on spirals iff k > 0; k is then the minimal x-winding of a loop and
    y_winding = l the y-cycle count of a loop that realizes it.  When the
    lattice also holds a pure-y loop (d > 0), l is defined only mod d and
    y_winding is its representative of least |l|, in (-d/2, d/2].  The
    verdict is exact, so conclusive is always True; the field stays for
    existing readers.
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
        """Spiral class of component c, classified on demand when the
        mask was built with classify=False."""
        return (self.spiral or classify_spiral(self))[c]


def _label_periodic(inside: np.ndarray) -> tuple:
    """4-connected component labels with wrap-around in both directions,
    and the winding vectors of every component.

    The cut-open grid is labeled once; its pieces are then joined across
    the x seam (last column to first, offset (1, 0)) and the y seam (last
    row to first, offset (0, 1)) by a union-find that keeps each piece's
    integer offset to its class root, i.e. which lift of the piece is
    connected to the root's lift in the covering plane.  A seam link
    inside one class closes a loop, and the offset it finds is that
    loop's winding (Newman and Ziff, Phys. Rev. E 64, 016706, 2001); the
    windings of a component form the lattice these vectors generate.

    Returns (labels, n, windings): labels[j, i] the component of an
    inside cell and -1 outside, components numbered by their least
    cut-open label, and windings[c] the loop vectors (x, y) of c.
    """
    pieces, n = ndimage.label(inside)
    links = []
    for a_line, b_line, e in ((pieces[:, -1], pieces[:, 0], (1, 0)),
                              (pieces[-1, :], pieces[0, :], (0, 1))):
        both = (a_line > 0) & (b_line > 0)
        pairs = a_line[both].astype(np.int64) * (n + 1) + b_line[both]
        links += [(*divmod(int(ab), n + 1), e) for ab in np.unique(pairs)]

    parent = list(range(n + 1))
    offset = [(0, 0)] * (n + 1)   # lift joined to the parent's base lift

    def find(a):
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        dx = dy = 0
        for p in reversed(path):
            dx, dy = dx + offset[p][0], dy + offset[p][1]
            parent[p], offset[p] = a, (dx, dy)
        return a

    loops = {}
    for a, b, (ex, ey) in links:
        ra, rb = find(a), find(b)
        # the root ra's base lift is joined to rb's lift at (dx, dy)
        dx = offset[a][0] + ex - offset[b][0]
        dy = offset[a][1] + ey - offset[b][1]
        if ra == rb:
            loops.setdefault(ra, []).append((dx, dy))
            continue
        # the least label stays the root, so label 0 (outside) stays 0
        if ra < rb:
            parent[rb], offset[rb] = ra, (dx, dy)
        else:
            parent[ra], offset[ra] = rb, (-dx, -dy)
        loops.setdefault(min(ra, rb), []).extend(loops.pop(max(ra, rb), []))

    roots = np.arange(n + 1)
    for a in {a for link in links for a in link[:2]}:
        roots[a] = find(a)
    # number the classes by their least label; root 0 (outside) gives -1
    uniq, remap = np.unique(roots, return_inverse=True)
    windings = [loops.get(int(r), []) for r in uniq[1:]]
    return remap[pieces] - 1, len(uniq) - 1, windings


def mask_from_inside(grid: Grid, inside: np.ndarray,
                     classify: bool = True) -> DomainMask:
    """Build a DomainMask from a boolean inside array."""
    inside = np.ascontiguousarray(inside, dtype=bool).copy()
    if not inside.any():
        raise EmptyDomain("no inside cells")
    if inside.all():
        raise AllCellsInside("complement is empty; boundary has no grid support")
    labels, n, windings = _label_periodic(inside)
    spiral = tuple(_spiral_class(w) for w in windings) if classify else ()
    return DomainMask(grid, inside, labels, n, spiral)


def build_domain(spec: TorusSpec, nx: int, ny: int, shape: ShapeExpr,
                 classify: bool = True) -> DomainMask:
    """Rasterize a shape expression (cell-center rule) and classify it."""
    grid = Grid(spec, nx, ny)
    X, Y = grid.meshgrid()
    inside = np.asarray(shape.contains(X, Y, spec), dtype=bool)
    return mask_from_inside(grid, inside, classify=classify)


def components(mask: DomainMask) -> list:
    """Split a mask into one single-component mask per label, sliced
    from the parent's labels."""
    out = []
    for c in range(mask.n_components):
        sub = mask.component_mask(c)
        spiral = (mask.spiral[c],) if mask.spiral else ()
        out.append(DomainMask(mask.grid, sub, np.where(sub, 0, -1), 1, spiral))
    return out


# ----------------------------------------------------------------------
# spiral classification
# ----------------------------------------------------------------------

def _spiral_class(windings) -> SpiralClass:
    """Reduce loop windings to the Hermite basis {(k, l), (0, d)} of the
    lattice they generate and read the class off it."""
    u, d = (0, 0), 0
    for w in windings:
        # Euclid on the x-components: keeps the span of {u, w}
        while w[0]:
            q = u[0] // w[0]
            u, w = w, (u[0] - q * w[0], u[1] - q * w[1])
        d = gcd(d, w[1])
    k, l = u if u[0] >= 0 else (-u[0], -u[1])
    if k == 0:
        return SpiralClass("not_connected_on_spirals")
    if d:
        l %= d
        if 2 * l > d:
            l -= d
    return SpiralClass("connected_on_spirals", k, l)


def classify_spiral(mask: DomainMask) -> tuple:
    """Classify every component of the mask exactly; see SpiralClass."""
    return tuple(_spiral_class(w) for w in _label_periodic(mask.inside)[2])


# ----------------------------------------------------------------------
# mask transforms (used by symmetry checks)
# ----------------------------------------------------------------------

def reflect_mask(mask: DomainMask) -> DomainMask:
    """Image of the mask under z -> -z (cell centers map to cell centers)."""
    return mask_from_inside(mask.grid, mask.inside[::-1, ::-1])


def translate_mask(mask: DomainMask, di: int, dj: int) -> DomainMask:
    """Translate by whole cells (di in x, dj in y), wrapping around."""
    return mask_from_inside(mask.grid, np.roll(mask.inside, (dj, di), axis=(0, 1)))
