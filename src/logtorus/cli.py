"""Batch front end.

    logtorus <command> <config-file> [--out DIR]

Commands: domain, spectrum, rho, fundsol, green, dirichlet, sweep,
riesz, subminorant, lambda, minimality, matsaev-probe, verify, plotdata.

The config file is line-oriented `key value ...`; `shape` points to a
shape file in the torus_core format (header `torus P nx ny`, one
primitive per line prefixed +/-).  Outputs are CSV/text files whose
headers embed the config hash and the config's `seed`, which only labels
outputs: no computation reads it, and a fixed config is reproducible bit
for bit.  Exit codes: 0 ok, 2 config error, 3 numerical
failure, 4 finished with inconclusive/flagged results.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Optional

import numpy as np

from . import verify as verify_mod
from .errors import ConfigError, LogTorusError
from .fieldio import (atomic_write, field_to_csv, format_float, mask_to_csv,
                      read_field_csv, spectrum_to_csv)
from .fundsol import (INTEGER_GUARD, fundsol_fourier, fundsol_generalized,
                      fundsol_weierstrass)
from .martin import consistency_table, rho_estimates
from .pencil import check_spectrum_symmetries, matsaev_probe, rho_min, spectrum
from .subfunc import dirichlet_lrho, green_lrho, is_subfunction, riesz_decompose, sweep
from .subminorant import (existence_test, integral_condition, lambda_value,
                          maximal_subminorant, minimality_test)
from .torus import build_domain, parse_shape_lines

COMMANDS = ("domain", "spectrum", "rho", "fundsol", "green", "dirichlet",
            "sweep", "riesz", "subminorant", "lambda", "minimality",
            "matsaev-probe", "verify", "plotdata")


def parse_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as f:
            for raw in f:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                cfg[parts[0]] = parts[1:] if len(parts) > 2 else \
                    (parts[1] if len(parts) == 2 else True)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


def config_hash(path: str, seed: int) -> str:
    with open(path, "rb") as f:
        blob = f.read()
    return hashlib.sha256(blob + str(seed).encode()).hexdigest()[:12]


class Runner:
    def __init__(self, command: str, cfg_path: str, out_dir: Optional[str]):
        self.command = command
        self.cfg = parse_config(cfg_path)
        self.seed = int(self.cfg.get("seed", 0))
        self.hash = config_hash(cfg_path, self.seed)
        self.out = out_dir or str(self.cfg.get("out", "out"))
        self.flags: list = []
        os.makedirs(self.out, exist_ok=True)

    # -- helpers -------------------------------------------------------
    def header(self) -> dict:
        return {"logtorus": self.command, "cfg": self.hash, "seed": self.seed}

    def need(self, key: str):
        if key not in self.cfg:
            raise ConfigError(f"config key '{key}' required for {self.command}")
        return self.cfg[key]

    def mask(self):
        shape_path = self.need("shape")
        with open(shape_path) as f:
            spec, nx, ny, shape = parse_shape_lines(f.readlines())
        return build_domain(spec, nx, ny, shape)

    def rho(self) -> float:
        return float(self.need("rho"))

    def box(self):
        vals = self.cfg.get("rho_box", ["0.1", "10", "-10", "10"])
        if isinstance(vals, str):
            vals = vals.split(",")
        return tuple(float(v) for v in vals)

    def z0(self):
        z = self.cfg.get("z0")
        if z is None:
            return None
        return (float(z[0]), float(z[1]))

    def write_report(self, name: str, lines: list):
        head = [f"# logtorus {self.command} cfg={self.hash} seed={self.seed}"]
        atomic_write(os.path.join(self.out, name),
                     "\n".join(head + lines) + "\n")

    # -- commands ------------------------------------------------------
    def cmd_domain(self):
        mask = self.mask()
        mask_to_csv(os.path.join(self.out, "mask.csv"), mask, self.header())
        lines = [f"components {mask.n_components}"]
        for c in range(mask.n_components):
            sc = mask.spiral_of(c)
            lines.append(f"component {c} cells "
                         f"{int((mask.labels == c).sum())} {sc.kind} "
                         f"k {sc.k} y_winding {sc.y_winding} "
                         f"conclusive {sc.conclusive}")
        self.write_report("domain_report.txt", lines)

    def cmd_spectrum(self):
        mask = self.mask()
        res = spectrum(mask, self.box(),
                       max_count=int(self.cfg.get("max_count", 200)))
        if res.meta.get("truncated"):
            self.flags.append("spectrum truncated at max_count")
        if res.meta.get("reason"):
            self.flags.append(f"spectrum incomplete: {res.meta['reason']}")
        spectrum_to_csv(os.path.join(self.out, "spectrum.txt"), res, self.header())
        if self.cfg.get("eigenfunctions"):
            for k, fld in enumerate(res.eigenfunctions):
                field_to_csv(os.path.join(self.out, f"eigenfunction_{k}.csv"),
                             fld, extra=dict(self.header(),
                                             rho=res.eigenvalues[k]))
        rep = check_spectrum_symmetries(res)
        lines = [f"eigenvalues {len(res)} rho_min {rho_min(mask)}",
                 f"symmetries_pass {rep.passed}"]
        for k, v in rep.details.items():
            lines.append(f"{k} {v}")
        self.write_report("symmetry_report.txt", lines)

    def cmd_rho(self):
        mask = self.mask()
        component = int(self.cfg.get("component", 0))
        n_martin = int(self.cfg.get("n_martin", 6))
        ests = rho_estimates(mask, component, z0=self.z0(), n_martin=n_martin)
        tab = consistency_table(ests)
        lines = ["method value ci n_range"]
        for e in ests:
            lines.append(f"{e.method} {format_float(e.value)} "
                         f"{format_float(e.ci)} {e.n_range[0]}..{e.n_range[1]}")
        lines.append(f"max_pairwise_rel {format_float(tab['max_rel_disagreement'])}")
        self.write_report("rho_report.txt", lines)
        self.flags += [f"{e.method}: {e.meta['reason']}" for e in ests
                       if "reason" in e.meta]
        if self.cfg.get("export_martin"):
            from .fieldio import window_field_to_csv
            H = ests[0].meta["martin"]      # the growth estimate comes first
            if not H.converged:
                self.flags.append("martin window not converged at 2%")
            window_field_to_csv(os.path.join(self.out, "martin.csv"),
                                H.window, H.values, extra=self.header())

    def cmd_fundsol(self):
        from .torus import Grid, TorusSpec
        P = float(self.need("P"))
        nx = int(self.cfg.get("nx", 96))
        ny = int(self.cfg.get("ny", 96))
        grid = Grid(TorusSpec(P), nx, ny)
        rho = self.rho()
        p = int(round(rho))
        if abs(rho - p) < INTEGER_GUARD:
            E = fundsol_generalized(p, grid)
            field_to_csv(os.path.join(self.out, "fundsol_generalized.csv"),
                         E, extra=self.header())
            if rho != p:
                self.flags.append(f"rho={rho} is within {INTEGER_GUARD} of "
                                  f"{p}: wrote the kernel for rho={p}")
        else:
            F = fundsol_fourier(rho, grid)
            W = fundsol_weierstrass(rho, grid)
            field_to_csv(os.path.join(self.out, "fundsol_fourier.csv"), F,
                         extra=self.header())
            field_to_csv(os.path.join(self.out, "fundsol_weierstrass.csv"), W,
                         extra=self.header())
            gap = np.abs(F.values - W.values)
            gap[0, 0] = 0.0
            # shifts_used: near shifts per side evaluated term by term;
            # the farther ones are summed in closed form
            self.write_report("fundsol_report.txt", [
                f"max_disagreement_off_singular {format_float(float(gap.max()))}",
                f"weierstrass_shifts {W.meta['shifts_used']}"])

    def cmd_green(self):
        mask = self.mask()
        rho = self.rho()
        srcs = self.cfg.get("sources", self.cfg.get("z0"))
        if srcs is None:
            raise ConfigError("green needs 'sources x1 y1 [x2 y2 ...]'")
        if isinstance(srcs, str):
            srcs = [srcs]
        vals = [float(v) for v in srcs]
        pts = list(zip(vals[0::2], vals[1::2]))
        g = green_lrho(mask, rho, pts, allow_sign_violation=True)
        if not g.sign_ok:
            self.flags.append("green sign property violated: rho >= rho(D)?")
        for k, col in enumerate(g.columns):
            field_to_csv(os.path.join(self.out, f"green_{k}.csv"), col,
                         extra=self.header())
        self.write_report("green_report.txt",
                          [f"sources {pts}", f"max_value {format_float(g.max_value)}",
                           f"sign_ok {g.sign_ok}"])

    def cmd_dirichlet(self):
        mask = self.mask()
        rho = self.rho()
        if "data" in self.cfg:
            data = read_field_csv(str(self.cfg["data"])).values
        else:
            data = np.full(mask.grid.shape, float(self.cfg.get("data_const", 1.0)))
        q = dirichlet_lrho(mask, rho, data)
        field_to_csv(os.path.join(self.out, "dirichlet.csv"), q,
                     extra=self.header())

    def cmd_sweep(self):
        mask = self.mask()
        rho = self.rho()
        v = read_field_csv(str(self.need("field")))
        out = sweep(v, mask, rho)
        cert = is_subfunction(out, rho)
        field_to_csv(os.path.join(self.out, "swept.csv"), out,
                     extra=self.header())
        self.write_report("sweep_report.txt",
                          [f"certificate {cert.verdict}",
                           f"min_mass {format_float(cert.min_mass)}"])
        if cert.verdict == "borderline":
            self.flags.append("sweep output certificate borderline")

    def cmd_riesz(self):
        mask = self.mask()
        rho = self.rho()
        v = read_field_csv(str(self.need("field")))
        q, pi = riesz_decompose(v, mask, rho)
        field_to_csv(os.path.join(self.out, "riesz_majorant.csv"), q,
                     extra=self.header())
        field_to_csv(os.path.join(self.out, "riesz_potential.csv"), pi,
                     extra=self.header())
        err = float(np.max(np.abs(v.values - q.values - pi.values)[mask.inside]))
        self.write_report("riesz_report.txt",
                          [f"reconstruction_error {format_float(err)}"])

    def cmd_subminorant(self):
        rho = self.rho()
        m = read_field_csv(str(self.need("obstacle")))
        res = maximal_subminorant(m, rho)
        field_to_csv(os.path.join(self.out, "subminorant.csv"), res.minorant,
                     extra=self.header())
        ex = existence_test(m, rho)
        ic = integral_condition(m)
        lines = [f"status {res.status}",
                 f"complementarity_residual {format_float(res.complementarity_residual)}",
                 f"iterations {res.iterations}",
                 f"existence_verdict {ex.verdict}",
                 f"slice_integral_min {format_float(ic.min_integral)} "
                 f"refuted {ic.refuted}"]
        self.write_report("subminorant_report.txt", lines)
        if res.status == "diverged":
            self.flags.append("subminorant iteration diverged")
        if ex.verdict in ("borderline", "inconclusive"):
            self.flags.append(f"existence verdict {ex.verdict}")

    def cmd_lambda(self):
        mask = self.mask()
        lam = lambda_value(mask)
        lines = ["component rho lambda spiral"]
        for p in lam.per_component:
            lines.append(f"{p['component']} {p['rho']} "
                         f"{format_float(p['lambda'])} {p['spiral']}")
        lines.append(f"lambda {format_float(lam.value)}")
        lines.append(f"inner {lam.inner} outer {lam.outer}")
        self.write_report("lambda_report.txt", lines)

    def cmd_minimality(self):
        rho = self.rho()
        v = read_field_csv(str(self.need("field")))
        rep = minimality_test(v, rho)
        lines = [f"verdict {rep.verdict}", f"certified {rep.certified}"]
        for k, w in rep.details.items():
            lines.append(f"{k} {w}")
        self.write_report("minimality_report.txt", lines)
        if rep.verdict == "undetermined":
            self.flags.append("minimality undetermined")

    def cmd_matsaev_probe(self):
        mask = self.mask()
        rep = matsaev_probe(mask)
        self.write_report("matsaev_report.txt",
                          [f"{k} {v}" for k, v in rep.details.items()])

    def cmd_verify(self):
        lines: list = []
        ok = verify_mod.run_all(emit=lambda s: (print(s), lines.append(s)))
        self.write_report("verify_report.txt", lines)
        if not ok:
            raise LogTorusError("acceptance criteria failed")

    def cmd_plotdata(self):
        v = read_field_csv(str(self.need("field")))
        axis = str(self.cfg.get("axis", "y"))
        at = float(self.cfg.get("at", 0.0))
        grid = v.grid
        if axis == "y":
            j, _ = grid.cell_of(0.0, at)
            xs = grid.x_centers()
            rows = [f"{format_float(x)},{format_float(val)}"
                    for x, val in zip(xs, v.values[j, :])]
            head = "# x,value"
        elif axis == "x":
            _, i = grid.cell_of(at, 0.0)
            ys = grid.y_centers()
            rows = [f"{format_float(y)},{format_float(val)}"
                    for y, val in zip(ys, v.values[:, i])]
            head = "# y,value"
        else:
            raise ConfigError("axis must be x or y")
        atomic_write(os.path.join(self.out, "slice.csv"),
                     f"# logtorus plotdata cfg={self.hash} seed={self.seed}\n"
                     f"{head}\n" + "\n".join(rows) + "\n")

    def dispatch(self):
        name = "cmd_" + self.command.replace("-", "_")
        getattr(self, name)()


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="logtorus",
        description="batch computations for the log-torus operator pencil")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("config", help="line-oriented `key value` config file")
    ap.add_argument("--out", default=None, help="output directory")
    args = ap.parse_args(argv)
    try:
        runner = Runner(args.command, args.config, args.out)
        runner.dispatch()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LogTorusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if runner.flags:
        for fl in runner.flags:
            print(f"flag: {fl}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
