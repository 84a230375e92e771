"""Spans around the package's public names, installed from outside.

`install` rebinds each traced name in every loaded `subspace_angles`
module that holds it (so `problems.relative_angle` is traced as well as
`engine.relative_angle`) and returns a function that puts the originals
back.  Untraced runs never call it.

A span is (id, parent id, pair id, layer, name, start ns, end ns,
self ns); self time is the span's duration minus its children's.  The
caller times each pair on its own and records it in `Tracer.units`, so
the self times of a pair's spans can be checked against that timing:
they may not exceed it, and what they leave is the caller's glue.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# layer (= package module) -> public functions and Class.method names to trace
TRACED = {
    "ga": ["Multivector.__mul__", "Multivector.outer", "Multivector.left_contraction",
           "Multivector.scalar_product"],
    "blades": ["blade_from_spanning_vectors", "orthogonal_factorization", "is_blade",
               "subspace_membership", "Blade.from_multivector"],
    "engine": ["relative_angle", "bivector_split", "rotor_reconstruction", "cos_total",
               "product_spectrum"],
    "oracle": ["orthonormal_basis", "principal_angles", "svd_small",
               "intersection_dimension", "perpendicularity_count"],
    "conformal": ["conformal_relative_angle", "euclidean_carrier", "to_offset_flat",
                  "ConformalObject.from_multivector"],
    "problems": ["parse_problem", "run_problem", "selftest"],
    "cli": ["render_json", "render_text"],
    "sampling": ["sample_spans", "random_problem_document"],
}
ENGINE_ERRORS = ("AmbiguousRankError", "NotABladeError")
# In a traced command-line process each problem starts a new pair id.
PAIR_STARTS = ("parse_problem", "sample_spans")


class Tracer:
    """Spans and per-layer counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.pair = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        self.units: list[tuple[int, int]] = []   # (pair id, ns timed by the caller)

    def open(self, layer: str, name: str) -> list:
        if name in PAIR_STARTS:
            self.pair += 1
        span = [len(self.spans), self.stack[-1][0] if self.stack else -1, self.pair,
                layer, name, time.perf_counter_ns(), 0, 0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        end = time.perf_counter_ns()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span[4]} closed out of order")
        span[6] = end
        span[7] += end - span[5]          # self starts as the full duration
        if self.stack:
            self.stack[-1][7] -= end - span[5]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value


def _traced(tracer: Tracer, layer: str, name: str, fn):
    if layer == "ga":
        from subspace_angles.ga import Multivector

        @functools.wraps(fn)
        def wrapper(self, other, *args, **kwargs):
            if isinstance(other, Multivector):
                tracer.count("ga.terms", np.count_nonzero(self.coeffs) * np.count_nonzero(other.coeffs)
                              if name != "Multivector.scalar_product" else self.coeffs.size)
            span = tracer.open(layer, name)
            try:
                out = fn(self, other, *args, **kwargs)
            finally:
                tracer.close(span)
            if isinstance(other, Multivector):
                result = out.coeffs.nbytes if isinstance(out, Multivector) else 8
                tracer.count("ga.bytes_computed", self.coeffs.nbytes + other.coeffs.nbytes + result)
            return out
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(layer, name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if name == "relative_angle":
                kind = type(exc).__name__
                tracer.count("engine.errors." + (kind if kind in ENGINE_ERRORS else "other"))
            raise
        finally:
            tracer.close(span)
        if name == "relative_angle":
            tracer.residual_max = max(tracer.residual_max, float(out.residual))
        return out
    return wrapper


def install(tracer: Tracer):
    """Wrap every name in TRACED that exists; return the undo function."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "subspace_angles" or key.startswith("subspace_angles."))]
    undo = []
    for layer, names in TRACED.items():
        module = sys.modules.get(f"subspace_angles.{layer}")
        if module is None:
            continue
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(_traced(tracer, layer, name, raw.__func__))
                else:
                    new = _traced(tracer, layer, name, raw)
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
                continue
            original = getattr(module, name, None)
            if original is None:
                continue
            wrapper = _traced(tracer, layer, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def unit_self_times(spans, units) -> list[tuple[int, int]]:
    """(ns timed by the caller, sum of the self ns of its spans) for each pair in `units`."""
    self_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        self_ns[span[2]] += span[7]
    return [(ns, self_ns[pair]) for pair, ns in units]


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,pair,layer,name,start_ns,end_ns,self_ns\n")
        for span in spans:
            fh.write(",".join(str(x) for x in span) + "\n")
