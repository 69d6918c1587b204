"""Operator assembly and Dirichlet-solve tests.

Oracles: symbol of L_rho on single Fourier modes, exact linear/harmonic
solutions of the Laplace equation, and the discrete maximum principle.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from logtorus import operators
from logtorus.errors import ConfigError, SolverFailure, TargetEmpty
from logtorus.operators import (
    LinearSystem, LogWindow, PeriodChain, assemble, harmonic_measure,
    harmonic_measure_field, lift_window, region_of,
)
from logtorus.pencil import PencilSystem
from logtorus.subfunc import dirichlet_lrho
from logtorus.torus import (Disc, Grid, Strip, TorusSpec, Tube, build_domain,
                            mask_from_inside)

LOG2 = float(np.log(2.0))
SPEC = TorusSpec(LOG2)


def test_periodic_laplacian_row_sums_vanish():
    grid = Grid(SPEC, 16, 16)
    op = assemble(grid)
    sums = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) < 1e-9


def test_lrho_on_constant_gives_rho_squared():
    grid = Grid(SPEC, 16, 16)
    rho = 1.7
    op = assemble(grid, "l_rho", rho=rho)
    c = 3.25
    out = op.matrix @ np.full(op.ndof, c)
    assert np.allclose(out, rho * rho * c, atol=1e-9)


def test_lrho_symbol_on_pure_y_mode():
    # e^{iy} is an eigenvector of L_rho with eigenvalue rho^2 - 1 + O(hy^2)
    grid = Grid(SPEC, 32, 64)
    rho = 2.0
    op = assemble(grid, "l_rho", rho=rho)
    X, Y = grid.meshgrid()
    v = np.exp(1j * Y).ravel()
    out = op.matrix @ v
    expect = (rho * rho - 1.0) * v
    err = np.max(np.abs(out - expect))
    assert err < 2.0 * grid.hy ** 2 * np.max(np.abs(v))


def _domains(n):
    """A full torus grid, a torus mask and a covering window, n x n cells
    (the grid has one column fewer, so hx != hy)."""
    grid = Grid(SPEC, n - 1, n)
    rng = np.random.default_rng(n)
    mask = mask_from_inside(grid, rng.random(grid.shape) < 0.7,
                            classify=False)
    strip = build_domain(SPEC, n, n, Strip(-1.0, 1.2))
    return {"grid": grid, "mask": mask, "window": lift_window(strip, 0, 0, 1)}


@pytest.mark.parametrize("bc", ["face", "outside", "neumann"])
@pytest.mark.parametrize("where", ["grid", "mask", "window"])
def test_matrix_identity_l_equals_k_plus_2rho_b_plus_rho2(where, bc):
    domain = _domains(24)[where]
    K = assemble(domain, bc=bc).matrix              # l_rho at rho = 0
    B = assemble(domain, "d_dx", bc=bc).matrix
    for rho in (0.9, -1.3):
        L = assemble(domain, "l_rho", rho=rho, bc=bc).matrix
        combo = K + 2 * rho * B + rho * rho * sparse.identity(K.shape[0])
        assert (L - combo).count_nonzero() == 0
        # d/dx keeps its y-links as explicit zeros: one pattern for all three
        for M in (B, L):
            assert np.array_equal(M.indices, K.indices)
            assert np.array_equal(M.indptr, K.indptr)


def test_assemble_builds_only_l_rho_and_d_dx():
    with pytest.raises(ConfigError, match="kind must be one of"):
        assemble(Grid(SPEC, 8, 8), "laplacian")


def _reference_parts(domain, bc):
    """K and B with their data couplings (row x flat data cell), by a loop
    over cells and links that follows the rules of the operators module
    docstring."""
    region = region_of(domain)
    inside, hx, hy = region.inside, region.hx, region.hy
    ny, nx = inside.shape
    dof = {cell: k for k, cell in enumerate(zip(*np.nonzero(inside)))}
    n = len(dof)
    K, B = np.zeros((n, n)), np.zeros((n, n))
    K_data, B_data = np.zeros((n, ny * nx)), np.zeros((n, ny * nx))
    for (j, i), r in dof.items():
        for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            c_lap = 1.0 / hx ** 2 if di else 1.0 / hy ** 2
            c_dx = di / (2.0 * hx)
            jj, ii = j + dj, i + di
            if region.periodic:
                jj, ii = jj % ny, ii % nx
            on_grid = 0 <= jj < ny and 0 <= ii < nx
            K[r, r] -= c_lap
            if on_grid and inside[jj, ii]:
                K[r, dof[jj, ii]] += c_lap
                B[r, dof[jj, ii]] += c_dx
            elif bc == "neumann":
                K[r, r] += c_lap
            else:
                if bc == "face":
                    K[r, r] -= c_lap
                    B[r, r] -= c_dx
                if on_grid:
                    w = 2.0 if bc == "face" else 1.0
                    K_data[r, jj * nx + ii] += w * c_lap
                    B_data[r, jj * nx + ii] += w * c_dx
    return K, B, K_data, B_data


@pytest.mark.parametrize("bc", ["face", "outside", "neumann"])
@pytest.mark.parametrize("where", ["grid", "mask", "window"])
def test_assembly_matches_per_cell_reference(where, bc):
    domain = _domains(12)[where]
    want = _reference_parts(domain, bc)
    for kind, mat, data in (("l_rho", want[0], want[2]),
                            ("d_dx", want[1], want[3])):
        op = assemble(domain, kind, bc=bc)
        coup = np.zeros_like(data)
        np.add.at(coup, (op.coup_rows, op.coup_cells), op.coup_vals)
        for got, ref in ((op.matrix.toarray(), mat), (coup, data)):
            ulp = np.spacing(np.maximum(np.abs(got), np.abs(ref)))
            assert np.all(np.abs(got - ref) <= ulp), (kind, bc)


def test_adjoint_identity_on_full_torus():
    # transpose of L_rho equals L_{-rho}: centered d/dx is antisymmetric
    grid = Grid(SPEC, 16, 24)
    rho = 1.3
    L = assemble(grid, "l_rho", rho=rho).matrix
    Lm = assemble(grid, "l_rho", rho=-rho).matrix
    assert abs(L.T - Lm).max() < 1e-12


def test_dirichlet_constant_data_gives_constant():
    mask = build_domain(SPEC, 32, 32, Disc(0.35, 0.2, 0.6), classify=False)
    data = np.ones(mask.grid.shape)
    u = dirichlet_lrho(mask, 0.0, data)
    assert np.allclose(u.values[mask.inside], 1.0, atol=1e-9)


def _ramp_data(mask):
    # strip 0 < y < pi: the wall y=pi is the wrap seam, so the outside
    # cells carrying data 1 are the bottom row y ~ -pi
    data = np.zeros(mask.grid.shape)
    data[0, :] = 1.0
    return data


def test_dirichlet_strip_ramp_face_convention_exact():
    # strip 0 < y < pi, data 0 on y=0 and 1 on y=pi: solution y/pi
    mask = build_domain(SPEC, 16, 64, Strip(0.0, np.pi), classify=False)
    X, Y = mask.grid.meshgrid()
    u = dirichlet_lrho(mask, 0.0, _ramp_data(mask))
    expect = np.where(mask.inside, Y / np.pi, 0.0)
    assert np.max(np.abs(u.values - expect)) < 1e-9


def test_dirichlet_strip_ramp_outside_convention_first_order():
    mask = build_domain(SPEC, 16, 64, Strip(0.0, np.pi), classify=False)
    X, Y = mask.grid.meshgrid()
    op = assemble(mask, bc="outside")
    u = op.embed(LinearSystem(op).solve(op.boundary_rhs(_ramp_data(mask))))
    expect = np.where(mask.inside, Y / np.pi, 0.0)
    err = np.max(np.abs(u - expect))
    assert 1e-4 < err < 2.0 * mask.grid.hy  # wall sits half a cell out


def test_dirichlet_disc_cosine_profile():
    # harmonic extension of cos(theta) on a disc is (r/R) cos(theta);
    # keep the radius below P/2 so the disc does not wrap into itself
    r0 = 0.25
    cx, cy = LOG2 / 2, 0.0
    mask = build_domain(SPEC, 128, 128, Disc(cx, cy, r0), classify=False)
    X, Y = mask.grid.meshgrid()
    theta = np.arctan2(Y - cy, X - cx)
    u = dirichlet_lrho(mask, 0.0, np.cos(theta))
    rr = np.hypot(X - cx, Y - cy)
    expect = (rr / r0) * np.cos(theta)
    err = np.max(np.abs(u.values - expect)[mask.inside])
    assert err < 3.0 * max(mask.grid.hx, mask.grid.hy)


def test_discrete_maximum_principle_random_masks():
    rng = np.random.default_rng(7)
    grid = Grid(SPEC, 24, 24)
    for _ in range(5):
        inside = rng.random(grid.shape) < 0.6
        inside[0, :] = False  # keep complement nonempty
        if not inside.any():
            continue
        mask = mask_from_inside(grid, inside, classify=False)
        data = rng.random(grid.shape)
        u = dirichlet_lrho(mask, 0.0, data)
        lo, hi = data.min(), data.max()
        vals = u.values[mask.inside]
        assert vals.min() >= lo - 1e-9 and vals.max() <= hi + 1e-9


def test_harmonic_measure_whole_boundary_is_one():
    mask = build_domain(SPEC, 32, 32, Disc(0.3, 0.5, 0.5), classify=False)
    target = ~mask.inside
    fld = harmonic_measure_field(mask, target)
    assert np.allclose(fld.values[mask.inside], 1.0, atol=1e-9)


def test_harmonic_measure_strip_mid_height():
    mask = build_domain(SPEC, 16, 64, Strip(0.0, np.pi), classify=False)
    target = np.zeros(mask.grid.shape, dtype=bool)
    target[0, :] = True  # outside row adjacent to the wall y=pi
    j = np.argmin(np.abs(mask.grid.y_centers() - np.pi / 2))
    y0 = mask.grid.y_centers()[j]
    w = harmonic_measure(mask, target, (0.3, y0))
    assert w == pytest.approx(y0 / np.pi, abs=1e-9)


def test_harmonic_measure_additive_and_monotone():
    mask = build_domain(SPEC, 48, 48, Disc(0.35, 0.0, 0.6), classify=False)
    X, Y = mask.grid.meshgrid()
    bdry = ~mask.inside
    a = bdry & (Y > 0)
    b = bdry & (Y <= 0)
    z0 = (0.35, 0.05)
    wa = harmonic_measure(mask, a, z0)
    wb = harmonic_measure(mask, b, z0)
    wall = harmonic_measure(mask, bdry, z0)
    assert wa + wb == pytest.approx(wall, abs=1e-8)
    assert 0.0 < wa < wall + 1e-12
    with pytest.raises(TargetEmpty):
        harmonic_measure(mask, np.zeros_like(bdry), z0)


def test_lift_window_of_strip_and_crosscut_measure():
    mask = build_domain(SPEC, 32, 32, Strip(-np.pi / 4, np.pi / 4))
    win = lift_window(mask, 0, -2, 2, anchor=(0.1, 0.0))
    assert win.inside.sum() == 4 * mask.n_inside  # strip tiles fully
    target = np.zeros(win.shape, dtype=bool)
    target[:, -1] = True
    fld = harmonic_measure_field(win, target)
    j0, i0 = win.cell_of(0.05, 0.0)
    v = fld.values[j0, i0]
    assert 0.0 < v < 1.0
    # measure grows towards the target edge
    j1, i1 = win.cell_of(2 * LOG2 - 0.05, 0.0)
    assert fld.values[j1, i1] > v


def _clamp_cases():
    grid = Grid(SPEC, 24, 32)
    mask = build_domain(SPEC, 24, 32, Disc(0.35, 0.2, 1.0), classify=False)
    win = lift_window(build_domain(SPEC, 24, 24, Strip(-1.0, 1.2)), 0, 0, 3)
    return [(grid, 0.9, "face"), (mask, 0.9, "face"), (mask, 0.9, "outside"),
            (win, 0.0, "face"), (win, 0.0, "neumann"), (win, 0.9, "face")]


@pytest.mark.parametrize("case", range(6))
def test_clamped_rows_reproduce_unclamped_rows(case):
    domain, rho, bc = _clamp_cases()[case]
    rng = np.random.default_rng(case)
    full = assemble(domain, rho=rho, bc=bc)
    shape = full.free.shape
    clamp = rng.random(shape) < 0.3
    op = full.restrict(clamp)
    # free and dof_index: the unclamped free cells minus the clamp
    assert np.array_equal(op.free, full.free & ~clamp)
    assert np.array_equal(op.dof_index[op.free], np.arange(op.ndof))
    assert np.all(op.dof_index[~op.free] == -1)
    # one array: unknowns at free cells, data at outside and clamped ones
    u = rng.standard_normal(shape)
    want = full.matrix @ u[full.free] - full.boundary_rhs(u)
    got = op.matrix @ u[op.free] - op.boundary_rhs(u)
    want = want[full.dof_index[op.free]]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [Strip(-1.0, 1.2), Disc(0.35, 0.2, 1.0),
                                   Strip(-1.0, 1.0) - Disc(0.3, 0.0, 0.4),
                                   Tube(3, 0, 0.15)],
                         ids=["strip", "disc", "strip_minus_disc", "tube"])
@pytest.mark.parametrize("rho", [0.0, 0.9])
def test_torus_operator_restricted_to_a_mask_is_its_outside_operator(shape, rho):
    mask = build_domain(SPEC, 24, 32, shape, classify=False)
    want = assemble(mask, "l_rho", rho=rho, bc="outside")
    got = assemble(mask.grid, "l_rho", rho=rho).restrict(~mask.inside)
    assert (got.matrix != want.matrix).nnz == 0
    assert np.array_equal(got.dof_index, want.dof_index)
    data = np.random.default_rng(0).standard_normal(mask.inside.shape)
    assert np.array_equal(got.boundary_rhs(data), want.boundary_rhs(data))


def test_solve_checks_the_residual_of_every_column(monkeypatch):
    # a column 1e-9 times smaller than the others, corrupted by 0.1%:
    # its own relative residual is 1e-3, that of all three columns in
    # the Frobenius norm below 1e-12
    mask = build_domain(SPEC, 32, 32, Strip(-1.0, 1.0))
    system = LinearSystem(assemble(mask))
    rhs = np.ones((system.op.ndof, 3))
    rhs[:, 1] *= 1e-9
    system.solve(rhs)
    lu = system.lu

    class Corrupt:
        def solve(self, b):
            u = lu.solve(b)
            u[:, 1] *= 1.001
            return u

    monkeypatch.setattr(system, "lu", Corrupt())
    with pytest.raises(SolverFailure, match="in column 1"):
        system.solve(rhs)


def test_period_chain_equals_the_direct_solve_on_every_prefix():
    # four 8-column blocks, all different: a strip with a hole, a plain
    # strip, an empty block and one whose only cells lie in its edge
    # columns
    grid = Grid(SPEC, 8, 16)
    inside = np.zeros((16, 32), dtype=bool)
    inside[4:12, :16] = True
    inside[7:9, 3:5] = False
    inside[5:10, [24, 31]] = True
    win = LogWindow(grid, 0, 4, 0, 1, inside)
    sweep = PeriodChain("face").sweep(win)
    for k in (1, 2, 4):
        target = np.zeros(16, dtype=bool)
        target[inside[:, 8 * k - 1]] = True
        target[[5, 9]] = False
        cut = LogWindow(grid, 0, k, 0, 1, inside[:, :8 * k].copy())
        full = np.zeros(cut.shape, dtype=bool)
        full[:, -1] = target & cut.inside[:, -1]
        want = harmonic_measure_field(cut, full).values
        ends = sweep.solve(k, target)
        got = sweep.field(ends)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert sweep.value(ends, (6, 8 * k - 2)) == pytest.approx(want[6, -2], rel=1e-12)


@pytest.mark.parametrize("bc", ["face", "neumann"])
def test_period_chain_reused_across_grids_equals_a_fresh_chain(bc):
    # one block pattern on two periods P: the x-links 1/hx^2 differ, so a
    # chain that sweeps both windows must factor the pattern for each grid
    inside = np.zeros((32, 64), dtype=bool)
    inside[8:24] = True
    chain = PeriodChain(bc)
    for P in (LOG2, 2.0):
        win = LogWindow(Grid(TorusSpec(P), 32, 32), 0, 2, 0, 1, inside.copy())
        if bc == "neumann":
            got, want = (c.sweep(win, clamp_left=True).energy(2, inside[:, 0])
                         for c in (chain, PeriodChain(bc)))
        else:
            got, want = (s.field(s.solve(2, inside[:, -1]))
                         for s in (chain.sweep(win), PeriodChain(bc).sweep(win)))
        np.testing.assert_array_equal(got, want)


def test_linear_system_is_the_only_factor_site():
    # every sparse LU goes through LinearSystem, where it is counted
    src = pathlib.Path(operators.__file__).parent
    users = sorted(path.name for path in src.glob("*.py")
                   if any(isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                          and "splu" in (getattr(node, "id", None),
                                         getattr(node, "attr", None),
                                         getattr(node, "name", None))
                          for node in ast.walk(ast.parse(path.read_text()))))
    assert users == ["operators.py"]


def _strip_bump_free_set(grid):
    # the free set of an obstacle solve on a strip bump: a band of rows
    # about 0.9 rad wide whose edges wave with x; the rest is in contact
    X, Y = grid.meshgrid()
    return np.abs(Y - 0.05 * np.cos(2 * np.pi * X / grid.spec.P)) < 0.45


def test_linear_system_orders_for_less_fill_than_colamd():
    # both library patterns are structurally symmetric: the A + A^T
    # minimum-degree order fills far less than SuperLU's default COLAMD
    grid = Grid(SPEC, 96, 96)
    obstacle = assemble(grid, "l_rho", rho=1.3).restrict(~_strip_bump_free_set(grid))
    pencil = PencilSystem(build_domain(SPEC, 96, 96, Strip(-0.8, 0.8), classify=False))
    ops = [obstacle, dataclasses.replace(pencil.opK, matrix=pencil.matrix(2 + 3j))]
    for op in ops:
        pattern = op.matrix.astype(bool).astype(int)
        assert (pattern != pattern.T).nnz == 0
        default = splu(op.matrix.tocsc()).nnz
        assert LinearSystem(op).lu.nnz <= 0.7 * default


def test_linear_system_pivots_away_from_a_tiny_diagonal():
    # 2x2 blocks [[1e-14, 1], [1, 1e-14]] on the x-pairs of a torus grid,
    # coupled weakly through the Laplacian's other links: the matrix is
    # well conditioned and structurally symmetric, but a diagonal pivot
    # would grow the factors by 1e14; the threshold of 1.0 swaps rows
    grid = Grid(SPEC, 16, 16)
    op = assemble(grid)
    links = sparse.triu(op.matrix, 1) + sparse.tril(op.matrix, -1)
    links = links / abs(links).sum(axis=1).max()
    pairs = sparse.block_diag([np.array([[1e-14, 1.0], [1.0, 1e-14]])] * (op.ndof // 2))
    matrix = (pairs + 0.1 * (links - links.multiply(pairs != 0))).tocsr()
    assert (matrix.diagonal() == 1e-14).all()
    system = LinearSystem(dataclasses.replace(op, matrix=matrix))
    want = np.random.default_rng(3).standard_normal(op.ndof)
    u = system.solve(matrix @ want, rel_tol=1e-10)
    assert np.allclose(u, want, rtol=0, atol=1e-9)
