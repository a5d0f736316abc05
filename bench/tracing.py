"""Spans around the package's public functions, recorded from outside the package.

`patched(lib, tracer)` replaces, for the duration of a `with` block, every
public function of the layer modules (`ncqm.core`, `ncqm.observables`,
`ncqm.oscillator`, `ncqm.dynamics`, `ncqm.measurement`, `ncqm.cli`) by a
wrapper that records a span, both in the defining module and wherever another
module bound the same function at import (`from .x import f`).  It also wraps
`SuperOperator.apply`, the `SuperOperator.matrix` property and, to count the
dense eigensolves, `numpy.linalg.eigh` and `eigvalsh`.  Nothing under `src/`
changes; on leaving the block every original is put back.

A span is (name, start, end, parent span, job id, attributes).  Spans stay in
memory; `layer_metrics` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import time
import types

import numpy as np

LAYERS = ("core", "observables", "oscillator", "dynamics", "measurement", "cli")


def load(src_dir: str) -> types.SimpleNamespace:
    """The layer modules, resolved as submodules: `ncqm.observables` the attribute is a function."""
    mods = {name: importlib.import_module(f"ncqm.{name}") for name in LAYERS}
    lib = types.SimpleNamespace(package=importlib.import_module("ncqm"), **mods)
    if not str(lib.package.__file__).startswith(src_dir):
        raise RuntimeError(f"ncqm was imported from {lib.package.__file__}, not from {src_dir}")
    return lib


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, job, attrs]
        self.stack = []
        self.job = None
        self.eigh_dims = []

    def call(self, name: str, fn, args, kwargs, attrs: dict):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def open_attr(self, key: str):
        return self.spans[self.stack[-1]][5].get(key) if self.stack else None


# Attributes recorded at span start, from the call's bound arguments.  A call is
# "cold" when the object's own cache is still empty, so the call fills it; at
# this commit that is the first call per object.  Reading the cache slot keeps
# no object alive, so tracing does not change when memory is freed.
def _attrs_matrix(tr, a):
    op = a["self"]
    if getattr(op, "_matrix", None) is None:
        return {"cold": True, "bytes": 16 * op.cutoff ** 4}
    return {"cold": False}


def _attrs_solve(tr, a):
    return {"full_dim": a["h"].cutoff ** 2}


def _attrs_evolve(tr, a):
    return {"full_dim": a["h"].cutoff ** 2, "cold": getattr(a["h"], "_eig", None) is None}


def _attrs_excited(alpha):
    def attrs(tr, a):
        n1, n2, cutoff = a["n1"], a["n2"], a["ctx"].cutoff
        if n1 == 0 and n2 == 0:
            return {}
        return {"internal_cutoff": cutoff + math.ceil(28.0 / abs(alpha(a["ctx"].params))) + 2 * (n1 + n2)}
    return attrs


def _attrs_grid(tr, a):
    return {"points": a["grid"].points[0] * a["grid"].points[1]}


def _attrs_identity(tr, a):
    return {"points": a["points"] ** 2}


def _attrs_main(tr, a):
    return {"command": a["argv"][0] if a["argv"] else None}


@contextlib.contextmanager
def patched(lib, tracer: Tracer):
    """Wrap the package's public functions (and a few methods) in spans while the block runs."""
    hooks = {
        "dynamics.solve_spectrum": _attrs_solve,
        "dynamics.evolve": _attrs_evolve,
        "oscillator.excited_state": _attrs_excited(lib.oscillator.alpha),
        "measurement.probability_grid": _attrs_grid,
        "measurement.povm_identity_residual": _attrs_identity,
        "cli.main": _attrs_main,
    }

    def wrap(name, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            attrs = {}
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = hook(tracer, bound.arguments)
            return tracer.call(name, fn, args, kwargs, attrs)
        traced.__wrapped__ = fn
        return traced

    modules = [lib.package] + [getattr(lib, name) for name in LAYERS]
    restore = []
    for layer in LAYERS:
        mod = getattr(lib, layer)
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{fname}"
            wrapper = wrap(name, fn, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    superop = lib.core.SuperOperator
    apply_fn, matrix_prop = superop.apply, superop.__dict__["matrix"]
    restore.append((superop, "apply", apply_fn))
    restore.append((superop, "matrix", matrix_prop))
    superop.apply = wrap("core.SuperOperator.apply", apply_fn)
    superop.matrix = property(wrap("core.SuperOperator.matrix", matrix_prop.fget, _attrs_matrix))

    def counted(fn):
        # full-dimension (N^2) eigensolves opened directly by solve_spectrum or evolve
        def eig(a, *args, **kwargs):
            full = tracer.open_attr("full_dim")
            if full is not None and np.shape(a)[-1] == full:
                tracer.eigh_dims.append(full)
            return fn(a, *args, **kwargs)
        return eig

    for fname in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, fname)
        restore.append((np.linalg, fname, fn))
        setattr(np.linalg, fname, counted(fn))
    try:
        yield tracer
    finally:
        for obj, attr, value in reversed(restore):
            setattr(obj, attr, value)


# ---------------------------------------------------------------- metrics

# (metric, unit) in the order they are reported; every workload reports all of them.
PER_LAYER = [(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [
    ("core.build_fock.calls", "count"), ("core.build_fock.self_s", "s"),
    ("core.apply.calls", "count"), ("core.apply.self_s", "s"),
    ("core.matrix.cold_calls", "count"), ("core.matrix.self_s", "s"), ("core.matrix.bytes_computed", "B"),
    ("oscillator.ground_state.self_s", "s"),
    ("oscillator.excited_state.calls", "count"), ("oscillator.excited_state.self_s", "s"),
    ("oscillator.excited_state.internal_cutoff_max", "levels"),
    ("oscillator.ladder_ops.self_s", "s"), ("oscillator.closed_form.self_s", "s"),
    ("dynamics.hamiltonian.self_s", "s"),
    ("dynamics.solve_spectrum.calls", "count"), ("dynamics.solve_spectrum.self_s", "s"),
    ("dynamics.evolve.cold_calls", "count"), ("dynamics.evolve.cold_s", "s"),
    ("dynamics.evolve.warm_calls", "count"), ("dynamics.evolve.warm_s", "s"),
    ("dynamics.residuals.self_s", "s"), ("dynamics.plane_wave.self_s", "s"),
    ("dynamics.dense_eigh.calls", "count"), ("dynamics.dense_eigh.dim_max", "count"),
    ("measurement.probability_grid.self_s", "s"), ("measurement.probability_grid.points", "count"),
    ("measurement.probability_grid.points_per_s", "1/s"),
    ("measurement.position_probability.calls", "count"), ("measurement.position_probability.self_s", "s"),
    ("measurement.povm_matrix.calls", "count"), ("measurement.povm_matrix.self_s", "s"),
    ("measurement.post_measurement.calls", "count"), ("measurement.post_measurement.self_s", "s"),
    ("measurement.povm_identity_residual.self_s", "s"),
    ("measurement.povm_identity_residual.quadrature_points", "count"),
    ("measurement.coherent_state_op.self_s", "s"), ("measurement.errors", "count"),
    ("cli.startup_s", "s"), ("cli.spectrum.s", "s"), ("cli.evolve.s", "s"),
    ("cli.probability.s", "s"), ("cli.check.s", "s"), ("cli.exit_nonzero", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_s", "s"), ("trace.overhead_s", "s"),
]
UNITS = dict(PER_LAYER)
# Counts repeat exactly between traced passes of one seed; the run asserts it.
EXACT = [name for name, unit in PER_LAYER if unit in ("count", "B", "levels")]

# Span names summed into one metric group.
GROUPS = {
    "core.build_fock": ("core.build_fock",),
    "core.apply": ("core.SuperOperator.apply",),
    "core.matrix": ("core.SuperOperator.matrix",),
    "oscillator.ground_state": ("oscillator.ground_state",),
    "oscillator.excited_state": ("oscillator.excited_state",),
    "oscillator.ladder_ops": ("oscillator.ladder_ops",),
    "oscillator.closed_form": tuple(f"oscillator.{f}" for f in
                                    ("lambdas", "alpha", "energy", "k_norms", "bogoliubov_transform")),
    "dynamics.hamiltonian": ("dynamics.hamiltonian",),
    "dynamics.solve_spectrum": ("dynamics.solve_spectrum",),
    "dynamics.residuals": tuple(f"dynamics.{f}" for f in
                                ("interior_residual", "continuity_residual", "boundary_defect_depth")),
    "dynamics.plane_wave": ("dynamics.plane_wave",),
    "measurement.probability_grid": ("measurement.probability_grid",),
    "measurement.position_probability": ("measurement.position_probability",),
    "measurement.povm_matrix": ("measurement.povm_matrix",),
    "measurement.post_measurement": ("measurement.post_measurement",),
    "measurement.povm_identity_residual": ("measurement.povm_identity_residual",),
    "measurement.coherent_state_op": ("measurement.coherent_state_op",),
}


def self_times(spans: list) -> list:
    """Span duration minus the time its direct children cover (children never overlap)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tracer: Tracer, wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass of `wall` seconds, and accounting problems found."""
    spans = tracer.spans
    own = self_times(spans)
    m = {name: 0.0 for name, _ in PER_LAYER}
    for span, self_s in zip(spans, own):
        layer = span[0].split(".", 1)[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += self_s
    for group, names in GROUPS.items():
        picked = [(s, t) for s, t in zip(spans, own) if s[0] in names]
        if f"{group}.calls" in m:
            m[f"{group}.calls"] = len(picked)
        if f"{group}.self_s" in m:
            m[f"{group}.self_s"] = sum(t for _, t in picked)
    m["core.matrix.cold_calls"] = sum(1 for s in spans if s[0] == "core.SuperOperator.matrix" and s[5]["cold"])
    m["core.matrix.bytes_computed"] = sum(s[5].get("bytes", 0) for s in spans if s[0] == "core.SuperOperator.matrix")
    m["oscillator.excited_state.internal_cutoff_max"] = max(
        [s[5].get("internal_cutoff", 0) for s in spans if s[0] == "oscillator.excited_state"], default=0)
    for s, t in zip(spans, own):
        if s[0] == "dynamics.evolve":
            kind = "cold" if s[5]["cold"] else "warm"
            m[f"dynamics.evolve.{kind}_calls"] += 1
            m[f"dynamics.evolve.{kind}_s"] += t
    m["dynamics.dense_eigh.calls"] = len(tracer.eigh_dims)
    m["dynamics.dense_eigh.dim_max"] = max(tracer.eigh_dims, default=0)
    m["measurement.probability_grid.points"] = sum(
        s[5]["points"] for s in spans if s[0] == "measurement.probability_grid")
    if m["measurement.probability_grid.self_s"] > 0.0:
        m["measurement.probability_grid.points_per_s"] = (
            m["measurement.probability_grid.points"] / m["measurement.probability_grid.self_s"])
    m["measurement.povm_identity_residual.quadrature_points"] = sum(
        s[5]["points"] for s in spans if s[0] == "measurement.povm_identity_residual")
    m["measurement.errors"] = sum(
        1 for s in spans if s[0].startswith("measurement.")
        and s[5].get("error") in ("ConvergenceError", "TruncationError"))
    for s in spans:
        kind = f"cli.{s[5].get('command')}.s"
        if s[0] == "cli.main" and kind in m:
            m[kind] += s[2] - s[1]

    covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = wall - covered
    problems = []
    total_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(total_self + m["trace.untraced_s"] - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times {total_self:.6f} s + untraced {m['trace.untraced_s']:.6f} s "
                        f"!= traced wall {wall:.6f} s")
    if min(own, default=0.0) < -1e-6:
        problems.append(f"negative self time {min(own):.3e} s: spans overlap")
    return m, problems


def combine(passes: list) -> tuple[dict, list]:
    """Median of each metric over traced passes; counts must agree exactly."""
    problems = []
    out = {}
    for name, _ in PER_LAYER:
        values = [p[name] for p in passes]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        out[name] = statistics.median(values)
    return out, problems


def dump_spans(tracer: Tracer) -> list:
    return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4],
             **({"attrs": s[5]} if s[5] else {})} for s in tracer.spans]
