"""CLI and file-format tests: command dispatch, exit codes, and
bit-reproducibility of outputs for a fixed config + seed."""

import os

import numpy as np

from logtorus import operators
from logtorus.cli import main
from logtorus.fieldio import field_to_csv, read_field_csv
from logtorus.pencil import rho_min
from logtorus.torus import (Grid, GridField, TorusSpec, build_domain,
                            parse_shape_lines)

LOG2 = float(np.log(2.0))

SHAPE = """torus 0.6931471805599453 48 48
+ strip -0.7853981633974483 0.7853981633974483
"""

BAND_SHAPE = """torus 0.6931471805599453 48 48
+ band 0.17 0.52
"""


def write(tmp, name, text):
    p = os.path.join(tmp, name)
    with open(p, "w") as f:
        f.write(text)
    return p


def test_domain_command_and_reproducibility(tmp_path):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    cfg = write(tmp, "cfg.txt", f"shape {shp}\nseed 3\nout {tmp}/o1\n")
    assert main(["domain", cfg]) == 0
    report = open(os.path.join(tmp, "o1", "domain_report.txt")).read()
    assert "connected_on_spirals" in report and "k 1" in report
    mask1 = open(os.path.join(tmp, "o1", "mask.csv")).read()
    assert main(["domain", cfg, "--out", f"{tmp}/o2"]) == 0
    mask2 = open(os.path.join(tmp, "o2", "mask.csv")).read()
    assert mask1 == mask2  # bit-identical for fixed config+seed
    assert f"cfg=" in mask1.splitlines()[1] or "cfg" in mask1


def test_spectrum_and_green_commands(tmp_path):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    cfg = write(tmp, "cfg.txt",
                f"shape {shp}\nrho_box 0.5,4.5,-1,1\nrho 0.5\n"
                f"sources 0.35 0.2\nout {tmp}/out\n")
    assert main(["spectrum", cfg]) == 0
    spec_txt = open(os.path.join(tmp, "out", "spectrum.txt")).read()
    rows = [l for l in spec_txt.splitlines() if l and not l.startswith("#")]
    vals = np.array([[float(v) for v in r.split()] for r in rows])
    assert np.any(np.abs(vals[:, 0] - 2.0) < 0.05)   # rho(D)=2 present
    assert main(["green", cfg]) == 0
    g = read_field_csv(os.path.join(tmp, "out", "green_0.csv"))
    assert g.values.max() <= 1e-12


def shape_mask():
    return build_domain(*parse_shape_lines(SHAPE.splitlines()))


def test_spectrum_report_reads_rho_min_and_seed_only_labels(tmp_path):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    rows = []
    for seed in (0, 3):
        cfg = write(tmp, f"cfg{seed}.txt",
                    f"shape {shp}\nrho_box 0.5,4.5,-1,1\nseed {seed}\n"
                    f"out {tmp}/o{seed}\n")
        assert main(["spectrum", cfg]) == 0
        text = open(os.path.join(tmp, f"o{seed}", "spectrum.txt")).read()
        assert f"seed {seed}" in text
        rows.append([l for l in text.splitlines() if not l.startswith("#")])
    assert rows[0] and rows[0] == rows[1]
    report = open(os.path.join(tmp, "o0", "symmetry_report.txt")).read()
    line = next(l for l in report.splitlines() if l.startswith("eigenvalues"))
    assert float(line.split("rho_min")[1]) == rho_min(shape_mask())


def test_matsaev_probe_command(tmp_path):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    cfg = write(tmp, "cfg.txt", f"shape {shp}\nout {tmp}/out\n")
    assert main(["matsaev-probe", cfg]) == 0
    text = open(os.path.join(tmp, "out", "matsaev_report.txt")).read()
    rep = dict(l.split(" ", 1) for l in text.splitlines()
               if not l.startswith("#"))
    # the strip is its own reflection: both values come from one route
    assert rep["rho_min_reflected"] == rep["rho_min"]
    assert float(rep["rho_min"]) == rho_min(shape_mask())
    assert rep["neg_identity_within_2pct"] == "True"


def test_rho_command_exports_the_estimators_martin_window(tmp_path, monkeypatch):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    factorizations = []
    init = operators.LinearSystem.__init__

    def counted(self, op):
        factorizations.append(1)
        init(self, op)

    monkeypatch.setattr(operators.LinearSystem, "__init__", counted)
    counts = {}
    for export in ("", "export_martin 1\n"):
        out = f"{tmp}/o{len(counts)}"
        cfg = write(tmp, f"cfg{len(counts)}.txt",
                    f"shape {shp}\nz0 0.3 0.0\n{export}out {out}\n")
        factorizations.clear()
        assert main(["rho", cfg]) == 0
        counts[export] = len(factorizations)
    text = open(os.path.join(out, "rho_report.txt")).read()
    rows = [l.split()[0] for l in text.splitlines()
            if l and not l.startswith("#")]
    assert rows[1:6] == ["growth", "hm_decay", "modulus", "extremal", "pencil"]
    assert os.path.exists(os.path.join(out, "martin.csv"))
    # the export writes the growth estimate's Martin window, not a new solve
    assert counts["export_martin 1\n"] == counts[""]


def test_rho_command_flags_estimates_with_a_reason(tmp_path, capsys):
    # the k=4 tube winds once in y over 4 periods in x; its windows take
    # their y-periods from that class, and its one-period quad has oblique
    # crosscuts
    tmp = str(tmp_path)
    shp = write(tmp, "tube.txt", "torus 0.6931471805599453 48 48\n"
                                 "+ tube 4 0 0.2\n")
    cfg = write(tmp, "cfg.txt", f"shape {shp}\nz0 0.3 0.68\nn_martin 4\n"
                                f"out {tmp}/out\n")
    assert main(["rho", cfg]) == 4
    assert "flag: modulus: oblique crosscuts" in capsys.readouterr().err


def test_dirichlet_sweep_riesz_roundtrip(tmp_path):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    grid = Grid(TorusSpec(LOG2), 48, 48)
    X, Y = grid.meshgrid()
    v = GridField(grid, 0.2 * np.cos(Y) + 0.3)
    fpath = os.path.join(tmp, "field.csv")
    field_to_csv(fpath, v)
    cfg = write(tmp, "cfg.txt",
                f"shape {shp}\nrho 0.5\nfield {fpath}\ndata_const 1.0\n"
                f"out {tmp}/out\n")
    assert main(["dirichlet", cfg]) == 0
    q = read_field_csv(os.path.join(tmp, "out", "dirichlet.csv"))
    assert np.isfinite(q.values).all()
    assert main(["sweep", cfg]) == 0
    assert main(["riesz", cfg]) == 0
    rep = open(os.path.join(tmp, "out", "riesz_report.txt")).read()
    err = float(rep.split("reconstruction_error")[1].split()[0])
    assert err < 1e-8


def test_fundsol_command(tmp_path):
    tmp = str(tmp_path)
    cfg = write(tmp, "cfg.txt",
                f"P {LOG2!r}\nnx 48\nny 48\nrho 1.5\nout {tmp}/out\n")
    assert main(["fundsol", cfg]) == 0
    F = read_field_csv(os.path.join(tmp, "out", "fundsol_fourier.csv"))
    W = read_field_csv(os.path.join(tmp, "out", "fundsol_weierstrass.csv"))
    assert F.values.shape == W.values.shape == (48, 48)
    rep = open(os.path.join(tmp, "out", "fundsol_report.txt")).read()
    fields = dict(l.split() for l in rep.splitlines() if not l.startswith("#"))
    d = float(fields["max_disagreement_off_singular"])
    gap = np.abs(F.values - W.values)
    gap[0, 0] = 0.0
    assert d < 1e-6 and d == gap.max()   # row 0 and column 0 count too
    assert int(fields["weierstrass_shifts"]) > 0

    # within 0.01 of an integer the far shifts are summed in closed form
    cfg = write(tmp, "near.txt",
                f"P {LOG2!r}\nnx 48\nny 48\nrho 2.01\nout {tmp}/near\n")
    assert main(["fundsol", cfg]) == 0
    assert os.path.exists(os.path.join(tmp, "near", "fundsol_weierstrass.csv"))

    cfg = write(tmp, "int.txt",
                f"P {LOG2!r}\nnx 48\nny 48\nrho 1\nout {tmp}/int\n")
    assert main(["fundsol", cfg]) == 0
    E = read_field_csv(os.path.join(tmp, "int", "fundsol_generalized.csv"))
    assert E.values.shape == (48, 48) and np.isfinite(E.values).all()

    # near an integer the Fourier and Weierstrass kernels refuse rho; the
    # command writes the integer kernel instead and flags the substitution
    cfg = write(tmp, "near.txt",
                f"P {LOG2!r}\nnx 48\nny 48\nrho 1.0005\nout {tmp}/near\n")
    assert main(["fundsol", cfg]) == 4
    N = read_field_csv(os.path.join(tmp, "near", "fundsol_generalized.csv"))
    assert np.array_equal(N.values, E.values)


def test_lambda_and_subminorant_commands(tmp_path):
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt", SHAPE)
    grid = Grid(TorusSpec(LOG2), 48, 48)
    X, Y = grid.meshgrid()
    m = GridField(grid, np.where(np.abs(Y) < np.pi / 4,
                                 np.cos(2 * Y) ** 2, 0.0))
    opath = os.path.join(tmp, "obstacle.csv")
    field_to_csv(opath, m)
    cfg = write(tmp, "cfg.txt",
                f"shape {shp}\nrho 3.0\nobstacle {opath}\nout {tmp}/out\n")
    assert main(["lambda", cfg]) == 0
    rep = open(os.path.join(tmp, "out", "lambda_report.txt")).read()
    assert "lambda 0.50" in rep
    assert main(["subminorant", cfg]) == 0
    rep = open(os.path.join(tmp, "out", "subminorant_report.txt")).read()
    assert "status nonzero" in rep


def test_minimality_and_plotdata(tmp_path):
    tmp = str(tmp_path)
    grid = Grid(TorusSpec(LOG2), 48, 48)
    zero = GridField(grid, np.zeros(grid.shape))
    fpath = os.path.join(tmp, "zero.csv")
    field_to_csv(fpath, zero)
    cfg = write(tmp, "cfg.txt",
                f"rho 3.0\nfield {fpath}\naxis y\nat 0.0\nout {tmp}/out\n")
    assert main(["minimality", cfg]) == 0
    rep = open(os.path.join(tmp, "out", "minimality_report.txt")).read()
    assert "verdict minimal" in rep
    assert main(["plotdata", cfg]) == 0
    sl = open(os.path.join(tmp, "out", "slice.csv")).read()
    assert len([l for l in sl.splitlines() if not l.startswith("#")]) == 48


def test_exit_codes(tmp_path):
    tmp = str(tmp_path)
    # missing config file -> 2
    assert main(["domain", os.path.join(tmp, "nope.txt")]) == 2
    # config missing required key -> 2
    cfg = write(tmp, "bad.txt", "rho 1.0\n")
    assert main(["domain", cfg]) == 2
    # flagged result -> 4: a spectrum truncated at max_count
    shp = write(tmp, "shape.txt",
                "torus 0.6931471805599453 32 32\n+ strip -0.8 0.8\n")
    cfg = write(tmp, "cfg.txt",
                f"shape {shp}\nmax_count 1\nout {tmp}/out\n")
    assert main(["spectrum", cfg]) == 4


def test_spectrum_command_flags_an_unresolved_box(tmp_path, capsys):
    # about 200 eigenvalues in the contour saturate the bounded probe block
    tmp = str(tmp_path)
    shp = write(tmp, "shape.txt",
                "torus 0.6931471805599453 32 32\n+ strip -0.8 0.8\n")
    cfg = write(tmp, "cfg.txt",
                f"shape {shp}\nrho_box 0.5,30,-60,60\nout {tmp}/out\n")
    assert main(["spectrum", cfg]) == 4
    assert "flag: spectrum incomplete: filtered block saturated" in capsys.readouterr().err


def test_field_csv_roundtrip(tmp_path):
    grid = Grid(TorusSpec(LOG2), 16, 24)
    rng = np.random.default_rng(0)
    v = GridField(grid, rng.standard_normal(grid.shape))
    p = os.path.join(str(tmp_path), "f.csv")
    field_to_csv(p, v, extra={"note": "roundtrip"})
    w = read_field_csv(p)
    assert w.grid.nx == 16 and w.grid.ny == 24
    assert np.array_equal(w.values, v.values)   # %.17g round-trips doubles
