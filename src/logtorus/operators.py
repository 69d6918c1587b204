"""Discrete elliptic operators on the torus and on log-plane windows.

Assembles the five-point form of  L_rho = Laplacian + 2*rho*d/dx + rho^2
over the inside cells of a region, and its parts kind='laplacian' and
kind='d_dx' (centered first difference), in one pass over the four
links of every cell.  A link towards +-x carries c_lap = 1/hx^2 and
c_dx = +-1/(2*hx), a link towards +-y carries c_lap = 1/hy^2 and no d/dx
part; the link's coefficient is c = c_lap + 2*rho*c_dx for l_rho, c_lap
for the Laplacian and c_dx for d/dx.  A link to an inside neighbor puts
c in the neighbor's column.  Every link subtracts c_lap from the
Laplacian part of the diagonal; l_rho's diagonal is that part plus
2*rho times the d/dx part plus rho^2.  A link to an outside cell (or
beyond a window's edge, where there is no data cell) follows the
Dirichlet or insulated convention bc:

``bc='outside'``
    the classical "rows removed" form: the unknown at an outside cell is
    replaced by its data value (data lives at outside cell centers), so
    the link couples c to the data.  Exact discrete identities (Riesz
    reconstruction, sweeping) use this.

``bc='face'``
    data lives on the shared cell face; the outside value is eliminated
    by odd reflection (ghost = 2*data - inside value): the link couples
    2c to the data and subtracts c_lap and c_dx once more from the two
    diagonal parts.  For boundaries aligned with cell faces this
    restores O(h^2) accuracy and is the default for eigenvalue and
    boundary-value computations.

``bc='neumann'``
    insulated: the link does not count, so it adds its c_lap back to
    the Laplacian part of the diagonal and couples nothing.

Windows cut from the x-covering plane use the same machinery without
periodic wrap; their artificial edges are Dirichlet-0, and harmonic
measure targets are interior crosscut cells clamped to 1.

Every cell whose value moves to the right-hand side sits in one
coupling list: outside cells linked to an inside cell, and inside cells
clamped to data.  Clamping is a restriction by slicing:
OperatorMatrix.restrict(clamp) keeps the rows and columns of the cells
that stay free and appends the sliced-off columns to the coupling list.
Outside and clamped cells are disjoint, so boundary_rhs reads one data
array over all cells.  A caller that clamps many different sets (the
obstacle solver) assembles once and restricts per set, and the
bc='outside' operator of a torus mask is the whole-torus operator
restricted to the mask's complement.

Period chains.  The Laplacian of a covering window is block tridiagonal
across its period blocks of nx columns (Buzbee-Golub-Nielson block
elimination).  PeriodChain(bc) assembles each distinct block pattern
(the inside cells of nx columns on one grid: the entries follow hx and
hy) edge-blind, as an nx-column LogWindow, factors its interior (every
column but the first and last) once through LinearSystem and solves it
for the interface columns, which gives the block's Schur complement
onto its first and last columns.  A link between two blocks differs from
the edge-blind blocks only on the diagonal of interface rows where both
cells are inside: +1/hx^2 for 'face' (no ghost), -1/hx^2 for 'neumann'
(the link counts), with the coupling 1/hx^2 between the two rows; a
window's own edges need nothing.  ChainSweep eliminates the blocks left
to right, keeping one Schur complement onto the last column per period
and the map that back-substitutes the column before it, so one sweep
solves every prefix window: clamp the prefix's last column, walk back
through the maps, and fill a block's interior with one dense product.
The factored blocks live as long as the chain; martin makes one chain
per boundary rule and rho_estimates call (or public estimator call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConfigError, EmptyInterior, SolverFailure, TargetEmpty
from .torus import TWO_PI, DomainMask, Grid, GridField

__all__ = [
    "LogWindow", "OperatorMatrix", "Region", "assemble", "lift_window",
    "solve_dirichlet", "harmonic_measure", "harmonic_measure_field",
    "LinearSystem", "PeriodChain", "ChainSweep", "region_of",
]

_KINDS = ("laplacian", "d_dx", "l_rho")


@dataclass(frozen=True)
class LogWindow:
    """Rectangular window in the x-covering plane of the torus.

    Spans x in [px_lo*P, px_hi*P] and y in [-pi + py_lo*2*pi,
    -pi + py_hi*2*pi] with the parent grid's spacings, so window cell
    centers project exactly onto torus cell centers.  Not periodic;
    all four edges are artificial Dirichlet-0 boundaries.
    """

    grid: Grid
    px_lo: int
    px_hi: int
    py_lo: int
    py_hi: int
    inside: np.ndarray

    def __post_init__(self):
        if self.px_hi <= self.px_lo or self.py_hi <= self.py_lo:
            raise ConfigError("window must span at least one period")
        self.inside.flags.writeable = False

    @property
    def shape(self):
        return self.inside.shape

    @property
    def hx(self):
        return self.grid.hx

    @property
    def hy(self):
        return self.grid.hy

    def x_centers(self) -> np.ndarray:
        x0 = self.px_lo * self.grid.spec.P
        return x0 + (np.arange(self.shape[1]) + 0.5) * self.hx

    def y_centers(self) -> np.ndarray:
        y0 = -np.pi + self.py_lo * TWO_PI
        return y0 + (np.arange(self.shape[0]) + 0.5) * self.hy

    def meshgrid(self):
        return np.meshgrid(self.x_centers(), self.y_centers())

    def cell_of(self, x: float, y: float) -> tuple:
        i = int(np.floor((x - self.px_lo * self.grid.spec.P) / self.hx))
        j = int(np.floor((y + np.pi - self.py_lo * TWO_PI) / self.hy))
        if not (0 <= i < self.shape[1] and 0 <= j < self.shape[0]):
            raise ConfigError(f"point ({x}, {y}) outside the window")
        return j, i


def lift_window(mask: DomainMask, component: int, px_lo: int, px_hi: int,
                py_lo: int = 0, py_hi: int = 1,
                anchor: Optional[tuple] = None) -> LogWindow:
    """Lift one component of a torus mask to a covering window.

    The lift tiles the component over the window and keeps the connected
    piece (non-periodic 4-connectivity) containing the anchor point
    (defaults to an inside cell nearest the window center).
    """
    from scipy import ndimage

    comp = mask.component_mask(component)
    tiles = np.tile(comp, (py_hi - py_lo, px_hi - px_lo))
    labels, n = ndimage.label(tiles)
    if n == 0:
        raise EmptyInterior("component lifts to an empty window")
    win = LogWindow(mask.grid, px_lo, px_hi, py_lo, py_hi, tiles)
    if anchor is None:
        # nearest inside cell to the window center
        cand = np.argwhere(tiles)
        jc, ic = tiles.shape[0] / 2.0, tiles.shape[1] / 2.0
        j0, i0 = cand[np.argmin(((cand - [jc, ic]) ** 2).sum(axis=1))]
    else:
        j0, i0 = win.cell_of(*anchor)
        if not tiles[j0, i0]:
            raise ConfigError("anchor is not an inside cell of the lift")
    pick = labels == labels[j0, i0]
    return LogWindow(mask.grid, px_lo, px_hi, py_lo, py_hi, pick)


@dataclass(frozen=True)
class Region:
    """Uniform rectangular index space with an inside mask; the assembly
    substrate shared by torus masks and covering windows."""

    inside: np.ndarray
    hx: float
    hy: float
    periodic: bool


def region_of(domain) -> Region:
    if isinstance(domain, Grid):
        return Region(np.ones(domain.shape, dtype=bool), domain.hx, domain.hy,
                      True)
    if isinstance(domain, DomainMask):
        return Region(domain.inside, domain.grid.hx, domain.grid.hy, True)
    if isinstance(domain, LogWindow):
        return Region(domain.inside, domain.hx, domain.hy, False)
    raise ConfigError(f"cannot assemble over {type(domain).__name__}")


@dataclass
class OperatorMatrix:
    """Sparse operator over the free inside cells of a region.

    dof_index maps cells to unknown numbers (-1 elsewhere), free marks
    the cells that have one.  The coupling list records, per link from a
    row to a cell that is not an unknown (an outside cell, or an inside
    cell clamped by restrict), the row, the flat index of that cell, and
    the coefficient with which its value enters the equation; apply it
    via boundary_rhs().
    """

    matrix: sparse.csr_matrix
    dof_index: np.ndarray
    free: np.ndarray
    coup_rows: np.ndarray
    coup_cells: np.ndarray
    coup_vals: np.ndarray

    @property
    def ndof(self) -> int:
        return self.matrix.shape[0]

    def boundary_rhs(self, data: np.ndarray) -> np.ndarray:
        """RHS contribution moving the coupled cells' values to the
        right-hand side.

        data is an array over all cells, read at every cell of the
        coupling list: outside cells (center or face trace depending on
        bc) and clamped cells alike.
        """
        rhs = np.zeros(self.ndof, dtype=self.matrix.dtype)
        vals = self.coup_vals * np.asarray(data).ravel()[self.coup_cells]
        np.add.at(rhs, self.coup_rows, -vals)
        return rhs

    def restrict(self, clamp: np.ndarray) -> "OperatorMatrix":
        """The operator with the free cells in clamp fixed to data.

        Rows and columns of the cells that stay free are sliced out of
        this matrix; the sliced-off columns join the coupling list, read
        through boundary_rhs().  Cells of clamp that are not free are
        ignored.
        """
        cells = np.flatnonzero(self.free)           # dof -> flat cell
        keep = ~np.asarray(clamp, dtype=bool).ravel()[cells]
        if not keep.any():
            raise EmptyInterior("all inside cells are clamped")
        renum = np.cumsum(keep) - 1                 # old dof -> new dof
        rows = self.matrix[keep]
        fc = rows[:, ~keep].tocoo()
        free = np.zeros(self.free.shape, dtype=bool)
        free.ravel()[cells[keep]] = True
        dof_index = -np.ones(free.shape, dtype=np.int64)
        dof_index[free] = np.arange(int(keep.sum()))
        on = keep[self.coup_rows]
        return OperatorMatrix(
            rows[:, keep], dof_index, free,
            np.concatenate([renum[self.coup_rows[on]], fc.row.astype(np.int64)]),
            np.concatenate([self.coup_cells[on], cells[~keep][fc.col]]),
            np.concatenate([self.coup_vals[on], fc.data]))

    def embed(self, u: np.ndarray) -> np.ndarray:
        """Scatter a dof vector back to the full cell array, 0 elsewhere."""
        out = np.zeros(self.free.shape, dtype=np.result_type(u.dtype, float))
        out[self.free] = u
        return out


_BCS = ("face", "outside", "neumann")


def _stencil(region: Region, kind: str, rho: complex, bc: str):
    """One pass over the four links of every inside cell.

    Each link's coefficient goes into one COO list (inside neighbor) or
    into the coupling and the diagonal by the bc rule (outside neighbor;
    beyond-edge cells of windows have no data cell).  The Laplacian and
    d/dx parts of the diagonal are kept apart and combined once, so that
    l_rho = laplacian + 2*rho*d_dx + rho^2 holds exactly.
    """
    if bc not in _BCS:
        raise ConfigError(f"unknown bc {bc!r}")
    inside = region.inside
    n = int(inside.sum())
    if n == 0:
        raise EmptyInterior("no inside cells")
    ny, nx = inside.shape
    idx = -np.ones((ny, nx), dtype=np.int64)
    idx[inside] = np.arange(n)
    # neighbor dofs and flat cells, padded by one cell: wrapped on the
    # torus, -1 (no dof, no data cell) beyond the edges of a window
    pad = {"mode": "wrap"} if region.periodic else {"constant_values": -1}
    nb_dofs = np.pad(idx, 1, **pad).ravel()
    nb_cells = np.pad(np.arange(ny * nx).reshape(ny, nx), 1, **pad).ravel()
    at = np.flatnonzero(np.pad(inside, 1))    # inside cells in the tables
    two_rho = 2.0 * rho
    lap, dx = np.zeros(n), np.zeros(n)          # diagonal parts
    rows, cols, vals = [], [], []
    none = np.zeros(0, dtype=np.int64)
    c_rows, c_cells, c_vals = [none], [none], [np.zeros(0)]   # coupling

    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        if kind == "d_dx" and di == 0:
            continue
        c_lap = 1.0 / region.hx ** 2 if di else 1.0 / region.hy ** 2
        c_dx = di / (2.0 * region.hx)
        c = {"laplacian": c_lap, "d_dx": c_dx}.get(kind, c_lap + two_rho * c_dx)
        lap -= c_lap
        link = at + dj * (nx + 2) + di
        dof = nb_dofs[link]
        nb = dof >= 0
        rows.append(np.flatnonzero(nb))
        cols.append(dof[nb])
        vals.append(np.full(len(cols[-1]), c))

        out = ~nb                          # outside / beyond-edge neighbor
        if bc == "neumann":
            # insulated: the missing link simply does not count
            lap[out] += c_lap
            continue
        if bc == "face":
            # ghost = 2*data - u_center
            lap[out] -= c_lap
            dx[out] -= c_dx
        cell = nb_cells[link]
        has_data = out & (cell >= 0)
        c_rows.append(np.flatnonzero(has_data))
        c_cells.append(cell[has_data])
        c_vals.append(np.full(len(c_rows[-1]), 2.0 * c if bc == "face" else c))

    if kind == "laplacian":
        diag = lap
    elif kind == "d_dx":
        diag = dx
    else:
        diag = lap + two_rho * dx + rho * rho
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    coup = (np.concatenate(c_rows), np.concatenate(c_cells),
            np.concatenate(c_vals))
    return A, coup, idx


def assemble(domain, kind: str = "l_rho", rho: complex = 0.0,
             bc: str = "face") -> OperatorMatrix:
    """Assemble a discrete operator over a Grid, DomainMask, or LogWindow.

    One stencil pass builds the matrix and the Dirichlet coupling of
    kind 'laplacian', 'd_dx' or 'l_rho' (see the module docstring);
    l_rho equals laplacian + 2*rho*d_dx + rho^2*I exactly.  Clamp cells
    with OperatorMatrix.restrict.
    """
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {_KINDS}")
    region = region_of(domain)
    A, coup, idx = _stencil(region, kind, rho, bc)
    return OperatorMatrix(A, idx, region.inside, *coup)


class LinearSystem:
    """LU-factorized sparse system reused across right-hand sides.

    The library's only sparse factorization: every SuperLU factor, the
    pencil's included, is built here, so one site sees them all."""

    def __init__(self, op: OperatorMatrix):
        self.op = op
        try:
            self.lu = splu(op.matrix.tocsc())
        except RuntimeError as exc:   # singular factorization
            raise SolverFailure(f"factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
        """Solve for one right-hand side or for the columns of a 2-D one;
        every nonzero column must reach the relative residual rel_tol."""
        u = self.lu.solve(rhs)
        if not np.all(np.isfinite(u)):
            raise SolverFailure("solution is not finite")
        cols = rhs.reshape(rhs.shape[0], -1)
        scale = np.linalg.norm(cols, axis=0)
        res = np.linalg.norm((self.op.matrix @ u - rhs).reshape(cols.shape), axis=0)
        for k in np.flatnonzero((scale > 0) & (res > rel_tol * scale)):
            where = f" in column {k}" if rhs.ndim > 1 else ""
            raise SolverFailure(f"relative residual {res[k] / scale[k]:.2e} > "
                                f"{rel_tol:.0e}{where}")
        return u


@dataclass
class _Block:
    """One factored period-block pattern.  left and right are the inside
    rows of its first and last column (the interface, in that order),
    interior the mask of the other inside cells, X = A_JJ^-1 A_JI their
    response to unit interface values and S = A_II - A_IJ X the Schur
    complement onto the interface."""

    left: np.ndarray
    right: np.ndarray
    interior: np.ndarray
    X: np.ndarray
    S: np.ndarray


class PeriodChain:
    """Factored period blocks of one boundary convention ('face' or
    'neumann'), keyed by grid and inside pattern and shared by every
    window swept through this chain.  See the module docstring."""

    def __init__(self, bc: str):
        if bc not in ("face", "neumann"):
            raise ConfigError(f"a period chain needs bc 'face' or 'neumann', not {bc!r}")
        self.bc = bc
        self._blocks = {}

    def _block(self, window: LogWindow, b: int) -> _Block:
        nx = window.grid.nx
        inside = window.inside[:, b * nx:(b + 1) * nx]
        key = (window.grid, inside.shape, inside.tobytes())
        if key in self._blocks:
            return self._blocks[key]
        edges = np.zeros_like(inside)
        edges[:, [0, -1]] = inside[:, [0, -1]]
        left, right = np.flatnonzero(inside[:, 0]), np.flatnonzero(inside[:, -1])
        interior = inside & ~edges
        X = np.zeros((int(interior.sum()), len(left) + len(right)))
        S = np.zeros((X.shape[1], X.shape[1]))
        if inside.any():
            op = assemble(LogWindow(window.grid, 0, 1, window.py_lo, window.py_hi,
                                    inside.copy()), "laplacian", bc=self.bc)
            A = op.matrix
            I = np.concatenate([op.dof_index[left, 0], op.dof_index[right, -1]])
            J = op.dof_index[interior]
            S = A[I][:, I].toarray()
            if J.size:
                X = LinearSystem(op.restrict(edges)).solve(A[J][:, I].toarray())
                S -= A[I][:, J] @ X
        self._blocks[key] = _Block(left, right, interior, X, S)
        return self._blocks[key]

    def sweep(self, window: LogWindow, nblocks: Optional[int] = None,
              clamp_left: bool = False) -> "ChainSweep":
        """Left-to-right Schur sweep over the first nblocks period blocks
        of the window (all by default); with clamp_left the window's
        first column is clamped to 0 instead of free."""
        whole = window.shape[1] // window.grid.nx
        if nblocks is None:
            nblocks = whole
        if not 1 <= nblocks <= whole:
            raise ConfigError(f"cannot sweep {nblocks} of the window's {whole} periods")
        return ChainSweep(self, window, nblocks, clamp_left)


class ChainSweep:
    """One left-to-right sweep: T[b] is the Schur complement of the
    prefix of blocks 0..b onto the last column of block b, G[b] the map
    from that column's values to the values of the last column of block
    b-1 and the first column of block b (see the module docstring)."""

    def __init__(self, chain: PeriodChain, window: LogWindow, nblocks: int,
                 clamp_left: bool):
        self.window = window
        self.nx = window.grid.nx
        self.c = 1.0 / window.hx ** 2            # x-link coefficient
        dc = self.c if chain.bc == "face" else -self.c   # link correction
        self.blocks, self.T, self.G = [], [], []
        T, prev = np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        for b in range(nblocks):
            blk = chain._block(window, b)
            nl = len(blk.left)
            S_LL, S_LR = blk.S[:nl, :nl], blk.S[:nl, nl:]
            if b == 0 and clamp_left:
                G = np.zeros((nl, len(blk.right)))
            else:
                C = self.c * (prev[:, None] == blk.left[None, :])
                M = np.block([[T + dc * np.diag(C.any(axis=1)), C],
                              [C.T, S_LL + dc * np.diag(C.any(axis=0))]])
                G = np.linalg.solve(M, np.vstack([np.zeros((len(prev), S_LR.shape[1])),
                                                  S_LR]))
            T = blk.S[nl:, nl:] - blk.S[nl:, :nl] @ G[len(G) - nl:]
            self.blocks.append(blk)
            self.T.append(T)
            self.G.append(G)
            prev = blk.right

    def solve(self, k: int, clamp: np.ndarray) -> list:
        """End-column values, (left, right) per block, on the prefix of k
        blocks whose last-column cells in the row mask clamp are clamped
        to 1; every other boundary value is 0."""
        if not 1 <= k <= len(self.blocks):
            raise ConfigError(f"no prefix of {k} periods in a sweep of {len(self.blocks)}")
        T = self.T[k - 1]
        on = np.asarray(clamp, dtype=bool)[self.blocks[k - 1].right]
        u = on.astype(float)
        u[~on] = np.linalg.solve(T[np.ix_(~on, ~on)], -T[np.ix_(~on, on)].sum(axis=1))
        return self._back(k, u)

    def _back(self, k: int, u: np.ndarray) -> list:
        """Back substitution from the last column's values u."""
        ends = [None] * k
        for b in range(k - 1, -1, -1):
            v = -self.G[b] @ u
            n_prev = len(v) - len(self.blocks[b].left)
            ends[b] = (v[n_prev:], u)
            u = v[:n_prev]
        return ends

    def _values(self, ends: list, b: int) -> np.ndarray:
        blk = self.blocks[b]
        left, right = ends[b]
        vals = np.zeros(blk.interior.shape)
        vals[blk.left, 0] = left
        vals[blk.right, -1] = right
        vals[blk.interior] = -blk.X @ np.concatenate([left, right])
        return vals

    def field(self, ends: list) -> np.ndarray:
        """Values on every cell of the prefix that ends solves: one dense
        interior product per block."""
        return np.hstack([self._values(ends, b) for b in range(len(ends))])

    def value(self, ends: list, cell: tuple) -> float:
        """Value at one cell, from its own block only."""
        b, i = divmod(cell[1], self.nx)
        return float(self._values(ends, b)[cell[0], i])

    def energy(self, k: int, rows: np.ndarray) -> float:
        """Least Dirichlet energy hx*hy * sum over links of
        c*(difference)^2 on the prefix of k blocks plus one more column,
        whose cells in the row mask rows are clamped to 1, with the first
        column clamped to 0: the DtN quadratic form of the 0/1 data.  For
        a 'neumann' sweep with clamp_left.  By Green's identity it is the
        flux out of the first column, a sum of positive values with no
        cancellation."""
        link = np.zeros(len(self.blocks[k - 1].right))
        link[np.asarray(rows, dtype=bool)[self.blocks[k - 1].right]] = self.c
        ends = self._back(k, np.linalg.solve(np.diag(link) - self.T[k - 1], link))
        flux = self.c * self._values(ends, 0)[self.blocks[0].left, 1].sum()
        return self.window.hx * self.window.hy * float(flux)


def _field_domain(domain):
    """What a solution field lives on: a mask's torus grid, or the
    window itself."""
    return domain.grid if isinstance(domain, DomainMask) else domain


def solve_dirichlet(domain, boundary_data, bc: str = "face") -> GridField:
    """Solve the Laplace Dirichlet problem on a mask or window.

    boundary_data: array over all cells, read at outside cells adjacent to
    the interior (cell-center values for bc='outside', face traces for
    bc='face').  Returns the discrete-harmonic field, zero outside.
    """
    data = boundary_data.values if isinstance(boundary_data, GridField) else boundary_data
    op = assemble(domain, "laplacian", bc=bc)
    u = LinearSystem(op).solve(op.boundary_rhs(np.asarray(data, dtype=float)))
    return GridField(_field_domain(domain), op.embed(u),
                     {"kind": "laplace_dirichlet", "bc": bc})


def harmonic_measure_field(domain, target: np.ndarray, bc: str = "face"):
    """Harmonic measure of a target set as a field.

    Target cells that are interior are clamped to 1 (crosscut measure);
    target cells outside the domain act as Dirichlet data 1.  All other
    boundary data is 0.  Values lie in [0,1] up to solver tolerance.
    """
    region = region_of(domain)
    target = np.asarray(target, dtype=bool)
    if target.shape != region.inside.shape:
        raise ConfigError("target shape mismatch")
    if not target.any():
        raise TargetEmpty("harmonic-measure target is empty")
    clamp = target & region.inside
    op = assemble(domain, "laplacian", bc=bc).restrict(clamp)
    u = LinearSystem(op).solve(op.boundary_rhs(np.where(target, 1.0, 0.0)))
    values = op.embed(u)
    values[clamp] = 1.0
    return GridField(_field_domain(domain), values,
                     {"kind": "harmonic_measure", "bc": bc})


def cell_of(domain, x: float, y: float) -> tuple:
    """(j, i) cell index of a point in a mask's torus or a window."""
    return _field_domain(domain).cell_of(x, y)


def harmonic_measure(domain, target: np.ndarray, z0: tuple) -> float:
    """Harmonic measure of the target seen from the cell containing z0,
    under bc='face'."""
    fld = harmonic_measure_field(domain, target)
    j, i = cell_of(domain, *z0)
    return float(fld.values[j, i])
