"""Layer tracing for the logtorus benchmark.

The tracer wraps the public functions of each library layer from the
outside and records one span per call: name, start, end, parent span and
job id.  Modules such as ``pencil``, ``subfunc`` and ``subminorant``
import ``assemble``, ``LinearSystem`` and ``rho_min`` by
``from ... import ...``, so a wrapper is bound at every module attribute
that holds the original function, not only in the defining module.
Methods (``LinearSystem.__init__``/``solve``, ``PencilSystem.eigs_near``/
``dense_eigs``) are patched on their class, which every caller shares.

Spans are kept in memory and turned into per-layer metrics at the end:
``calls``, inclusive ``busy_s``, ``self_s`` (duration minus the time of
direct child spans; calls run on one thread, so children never overlap)
and counters read from the wrapped calls' own inputs and outputs or
counted by probes on private helpers (see ``PROBES``).
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("torus.build_domain", "logtorus.torus", "build_domain"),
    ("torus.classify_spiral", "logtorus.torus", "classify_spiral"),
    ("torus.components", "logtorus.torus", "components"),
    ("operators.assemble", "logtorus.operators", "assemble"),
    ("operators.harmonic_measure_field", "logtorus.operators",
     "harmonic_measure_field"),
    ("pencil.rho_min", "logtorus.pencil", "rho_min"),
    ("pencil.spectrum", "logtorus.pencil", "spectrum"),
    ("martin.martin_function", "logtorus.martin", "martin_function"),
    ("martin.rho_from_growth", "logtorus.martin", "rho_from_growth"),
    ("martin.rho_from_hm_decay", "logtorus.martin", "rho_from_hm_decay"),
    ("martin.rho_from_modulus", "logtorus.martin", "rho_from_modulus"),
    ("martin.rho_from_extremal", "logtorus.martin", "rho_from_extremal"),
    ("fundsol.fundsol_fourier", "logtorus.fundsol", "fundsol_fourier"),
    ("fundsol.fundsol_weierstrass", "logtorus.fundsol", "fundsol_weierstrass"),
    ("fundsol.fundsol_generalized", "logtorus.fundsol", "fundsol_generalized"),
    ("fundsol.discrete_kernel", "logtorus.fundsol", "discrete_kernel"),
    ("fundsol.potential", "logtorus.fundsol", "potential"),
    ("fundsol.representation_check", "logtorus.fundsol", "representation_check"),
    ("subfunc.green_lrho", "logtorus.subfunc", "green_lrho"),
    ("subfunc.riesz_decompose", "logtorus.subfunc", "riesz_decompose"),
    ("subfunc.sweep", "logtorus.subfunc", "sweep"),
    ("subfunc.is_subfunction", "logtorus.subfunc", "is_subfunction"),
    ("subminorant.maximal_subminorant", "logtorus.subminorant",
     "maximal_subminorant"),
    ("subminorant.lambda_value", "logtorus.subminorant", "lambda_value"),
]

# (span name, module, class, method) for methods patched on their class.
METHODS = [
    ("operators.factor", "logtorus.operators", "LinearSystem", "__init__"),
    ("operators.solve", "logtorus.operators", "LinearSystem", "solve"),
    ("pencil.eigs_near", "logtorus.pencil", "PencilSystem", "eigs_near"),
    ("pencil.dense_eigs", "logtorus.pencil", "PencilSystem", "dense_eigs"),
]

# (counter, module, attribute, predicate) for private helpers whose calls
# are counted on the innermost open span, not recorded as spans.  The
# cross-checks compare these observed counts with the public outputs:
# fundsol_weierstrass evaluates one array term for the base lattice point
# and two per shift (right and left); scalar calls come from the
# regular part at the origin and are not counted.
PROBES = [
    ("weier_terms", "logtorus.fundsol", "_weier_term",
     lambda args: isinstance(args[0], np.ndarray)),
]

CHECK_SPAN = "bench.check"


def _attrs(name, args, result):
    """Counters a span carries, read from the call's inputs and outputs."""
    if name == "operators.factor":
        system = args[0]
        # SuperLU's own count of stored L and U entries; reading
        # lu.L/lu.U would build CSC copies of the factors
        return {"dofs": int(system.op.ndof), "lu_nnz": int(system.lu.nnz)}
    if name in ("pencil.eigs_near", "pencil.dense_eigs"):
        return {"returned": int(len(result[0]))}
    if name == "pencil.spectrum":
        return {"certified": int(len(result.eigenvalues))}
    if name == "subminorant.maximal_subminorant":
        return {"iterations": int(result.iterations),
                "pgs_rescues": int(result.meta["pgs_rescues"])}
    return None


class Tracer:
    """Records spans while armed; wrappers stay transparent otherwise."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, attrs dict]
        self._stack = []         # indices of open spans
        self.job = None
        self.armed = False
        self._undo = []

    # -- recording -----------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        if not self.armed:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.job, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        rec[5].update(_attrs(name, args, result) or {})
        return result

    def _probe(self, key, keep, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.armed and self._stack and keep(args):
                attrs = self.spans[self._stack[-1]][5]
                attrs[key] = attrs.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self, extra_modules=()):
        """Bind wrappers at the defining modules, every ``logtorus``
        module and ``extra_modules`` that hold the originals; returns
        self, which uninstalls on leaving a ``with`` block."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            originals[id(fn)] = (fn, self._wrap(name, fn))
        for key, modname, attr, keep in PROBES:
            fn = getattr(sys.modules[modname], attr, None)
            if fn is not None:     # a missing helper shows in the cross-checks
                originals[id(fn)] = (fn, self._probe(key, keep, fn))
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "logtorus" or n.startswith("logtorus."))]
        holders += list(extra_modules)
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        for name, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, fn))
            self._undo.append((cls, meth, fn))
        return self

    def uninstall(self):
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------
    def write(self, path):
        """Write the spans as JSON lines (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, s, e, parent, job, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name,
                                     "start": s - t0, "end": e - t0,
                                     "parent": parent, "job": job,
                                     "attrs": attrs}) + "\n")


def _chain(spans, idx):
    """Indices of the ancestors of span idx, nearest first."""
    parent = spans[idx][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def _ancestors(spans, idx):
    return [spans[a][0] for a in _chain(spans, idx)]


def layer_metrics(spans):
    """Per-layer metrics from recorded spans.

    busy_s counts only the outermost span of a name (recursion is not
    double counted); calls count every span.
    """
    names = [n for n, *_ in FUNCTIONS] + [n for n, *_ in METHODS] + [CHECK_SPAN]
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    child = [0.0] * len(spans)
    for idx, (name, s, e, parent, _, _) in enumerate(spans):
        calls[name] += 1
        if name not in _ancestors(spans, idx):
            busy[name] += e - s
        if parent is not None:
            child[parent] += e - s
    self_s = dict.fromkeys(names, 0.0)
    for idx, (name, s, e, *_rest) in enumerate(spans):
        self_s[name] += (e - s) - child[idx]

    def total(span_name, key, within=None):
        return sum(a.get(key, 0) for i, (n, _, _, _, _, a) in enumerate(spans)
                   if n == span_name and a
                   and (within is None or within in _ancestors(spans, i)))

    def count(span_name, within):
        return sum(1 for i, sp in enumerate(spans)
                   if sp[0] == span_name and within in _ancestors(spans, i))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer, fns, fields in (
            ("torus", ("build_domain", "classify_spiral"), ("calls", "busy_s")),
            ("torus", ("components",), ("busy_s",)),
            ("operators", ("assemble", "factor", "solve", "harmonic_measure_field"),
             ("calls", "busy_s")),
            ("pencil", ("rho_min", "spectrum"), ("calls", "busy_s", "self_s")),
            ("pencil", ("eigs_near", "dense_eigs"), ("calls", "busy_s")),
            ("martin", ("martin_function", "rho_from_growth", "rho_from_hm_decay",
                        "rho_from_modulus", "rho_from_extremal"),
             ("busy_s", "self_s")),
            ("fundsol", ("fundsol_fourier", "fundsol_weierstrass",
                         "fundsol_generalized", "discrete_kernel", "potential",
                         "representation_check"), ("calls", "busy_s")),
            ("subfunc", ("green_lrho", "riesz_decompose", "sweep", "is_subfunction"),
             ("busy_s", "self_s")),
            ("subminorant", ("maximal_subminorant",), ("calls", "busy_s", "self_s")),
            ("subminorant", ("lambda_value",), ("busy_s",)),
            ("bench", ("check",), ("busy_s",))):
        for fn in fns:
            key = f"{layer}.{fn}"
            for f in fields:
                m[f"{key}.{f}"] = {"calls": calls, "busy_s": busy,
                                   "self_s": self_s}[f][key]
    m["operators.factor.dofs"] = total("operators.factor", "dofs")
    m["operators.factor.lu_nnz"] = total("operators.factor", "lu_nnz")
    m["pencil.eigs_near_per_rho_min"] = ratio(
        count("pencil.eigs_near", "pencil.rho_min"), calls["pencil.rho_min"])
    m["pencil.certified_per_returned"] = ratio(
        total("pencil.spectrum", "certified"),
        total("pencil.eigs_near", "returned", "pencil.spectrum")
        + total("pencil.dense_eigs", "returned", "pencil.spectrum"))
    seen = observed_counts(spans)
    m["fundsol.weierstrass_shifts"] = sum(c["weierstrass_shifts"] for c in seen.values())
    m["subfunc.green_columns"] = sum(c["green_columns"] for c in seen.values())
    steps = total("subminorant.maximal_subminorant", "iterations")
    m["subminorant.active_set_steps"] = steps
    m["subminorant.pgs_rescues"] = total("subminorant.maximal_subminorant",
                                         "pgs_rescues")
    m["subminorant.factor_per_step"] = ratio(
        count("operators.factor", "subminorant.maximal_subminorant"), steps)
    return m


def observed_counts(spans):
    """Counts the tracer observed, per job id: Weierstrass shifts from
    the probed array terms (one base term, then two per shift) and Green
    columns as ``operators.solve`` spans inside ``subfunc.green_lrho``."""
    seen = {}
    for i, (name, _, _, _, job, attrs) in enumerate(spans):
        c = seen.setdefault(job, {"weierstrass_shifts": 0, "green_columns": 0})
        if name == "fundsol.fundsol_weierstrass" and attrs.get("weier_terms"):
            c["weierstrass_shifts"] += (attrs["weier_terms"] - 1) // 2
        elif name == "operators.solve" and "subfunc.green_lrho" in _ancestors(spans, i):
            c["green_columns"] += 1
    return seen


def cross_checks(spans, public):
    """Compare tracer counts with what the jobs' public outputs report.

    public: job id -> {'weierstrass_shifts': Σ meta['shifts_used'],
    'green_columns': number of sources}, for every traced job whose
    call returned (failed checks included).  Returns failure messages.
    """
    fails = []
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        if name != "subminorant.maximal_subminorant" or "iterations" not in attrs:
            continue
        if attrs["pgs_rescues"]:
            continue
        factors = sum(1 for j in range(i + 1, len(spans))
                      if spans[j][0] == "operators.factor"
                      and i in _chain(spans, j))
        if factors != attrs["iterations"] - 1:
            fails.append(f"maximal_subminorant span {i}: {factors} factorizations "
                         f"for {attrs['iterations']} active-set steps")
    seen = observed_counts(spans)
    empty = {"weierstrass_shifts": 0, "green_columns": 0}
    for job, counts in sorted(public.items()):
        for key, want in counts.items():
            got = seen.get(job, empty)[key]
            if got != want:
                fails.append(f"job {job}: traced {key} {got} != public {want}")
    return fails
