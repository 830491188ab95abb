"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps eigenforge from outside the package: every public
function of each layer module, the arithmetic operators of
GaussRational, Poly and Matrix, and a few methods the per-layer metrics
need.  A wrapped function is replaced in every eigenforge module
namespace that holds it, so `from .poly import real_gradient` call sites
are traced too.  Scalar operators only count (a span per scalar op would
cost more than the op); everything else records a span
(name, start, end, parent, op id) in preallocated arrays, kept in memory
and written out when the run ends.  Self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("scalars", "poly", "linalg", "conformality", "holomorphy", "degree2",
          "constructions", "parser", "cli", "catalog")

# class -> operators and methods wrapped with a span
SPAN_METHODS = {
    ("poly", "Poly"): ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                       "__rmul__", "__truediv__", "__pow__", "substitute", "conjugate",
                       "wirtinger", "real_partial"),
    ("linalg", "Matrix"): ("__add__", "__sub__", "__neg__", "__mul__", "rref", "nullspace",
                           "det", "inverse", "solve", "apply", "rank"),
    ("linalg", "RealSubspace"): ("projector",),
}


def _bits(c) -> int:
    return max(c.re.numerator.bit_length(), c.re.denominator.bit_length(),
               c.im.numerator.bit_length(), c.im.denominator.bit_length())


def _key(obj):
    "A hashable identity for a repeated-argument check."
    try:
        hash(obj)
        return obj
    except TypeError:
        return id(obj)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._seen = defaultdict(set)    # per-op distinct arguments
        self._distinct = defaultdict(int)
        self._undo = []

    # -- op boundaries -------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id

    def end_op(self):
        for k, seen in self._seen.items():
            self._distinct[k] += len(seen)
        self._seen.clear()

    # -- wrapping ------------------------------------------------------

    def _span(self, name, fn, hook=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _count(self, counter, fn, bits=False):
        counts, maxima = self.counts, self.maxima

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[counter] += 1
            r = fn(a, b)
            if bits and r is not NotImplemented:
                nb = _bits(r)
                if nb > maxima["scalars.max_coeff_bits"]:
                    maxima["scalars.max_coeff_bits"] = nb
            return r
        return wrapper

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                           else getattr(obj, attr)))
        setattr(obj, attr, value)

    def _hooks(self):
        counts, maxima, seen = self.counts, self.maxima, self._seen

        def poly_mul(args, r):
            a, b = args
            counts["poly.mul_calls"] += 1
            counts["poly.term_products"] += len(a.terms) * len(getattr(b, "terms", (0,)))
            poly_result(args, r)

        def poly_result(args, r):
            n = len(getattr(r, "terms", ()))
            if n > maxima["poly.peak_terms"]:
                maxima["poly.peak_terms"] = n

        def kappa(args, r):
            counts["conformality.kappa_calls"] += 1
            seen["conformality.kappa"].add((_key(args[0]), _key(args[1])))

        def gradient_span(args, r):
            counts["holomorphy.gradient_span_calls"] += 1
            seen["holomorphy.gradient_span"].add(tuple(_key(f) for f in args[0]))

        def maximal_axis(args, r):
            counts["holomorphy.maximal_axis_calls"] += 1
            counts["holomorphy.numeric_extension_calls"] += bool(r.numeric_vectors)

        def eigen_check(args, r):
            counts["degree2.eigen_check_calls"] += 1
            seen["degree2.eigen_check"].add(tuple(_key(f) for f in args[0]))

        def to_form(args, r):
            counts["degree2.to_form_calls"] += 1

        def decompose(args, r):
            counts["degree2.decompose_calls"] += 1
            counts["degree2.float_tail_calls"] += not r.exact

        def matmul(args, r):
            counts["linalg.matmul_calls"] += 1

        def rref(args, r):
            M = args[0]
            counts["linalg.rref_calls"] += 1
            cells = M.nrows * M.ncols
            if cells > maxima["linalg.rref_max_cells"]:
                maxima["linalg.rref_max_cells"] = cells

        return {
            "poly.Poly.__mul__": poly_mul, "poly.Poly.__rmul__": poly_mul,
            "poly.Poly.__add__": poly_result, "poly.Poly.__radd__": poly_result,
            "poly.Poly.__sub__": poly_result, "poly.Poly.substitute": poly_result,
            "conformality.kappa": kappa,
            "holomorphy.gradient_span": gradient_span,
            "holomorphy.maximal_axis": maximal_axis,
            "degree2.is_eigenfamily_deg2": eigen_check,
            "degree2.to_form": to_form,
            "degree2.decompose_eigenpair": decompose,
            "linalg.Matrix.__mul__": matmul,
            "linalg.Matrix.rref": rref,
        }

    def install(self):
        mods = {layer: importlib.import_module(f"eigenforge.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        replaced = {}
        for layer, mod in mods.items():
            if layer == "scalars":
                continue  # scalar helpers run once per scalar op: counted below instead
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                replaced[fn] = self._span(name, fn, hooks.get(name))
        # every module namespace holding an original gets the wrapper
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "eigenforge" or modname.startswith("eigenforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(mod, attr, replaced[value])
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                self._set(cls, meth, self._span(name, cls.__dict__[meth], hooks.get(name)))
        Poly = mods["poly"].Poly
        self._set(Poly, "_slot_derivative", self._count("poly.derivative_calls",
                                                          Poly.__dict__["_slot_derivative"]))
        for cls_name in ("ComplexSubspace", "RealSubspace"):
            cls = getattr(mods["linalg"], cls_name)
            init = cls.__dict__["__init__"]

            def counted_init(obj, *args, _init=init, **kwargs):
                self.counts["linalg.subspace_builds"] += 1
                _init(obj, *args, **kwargs)
            self._set(cls, "__init__", functools.wraps(init)(counted_init))
        G = mods["scalars"].GaussRational
        for meth, counter in (("__add__", "scalars.add_calls"), ("__radd__", "scalars.add_calls"),
                              ("__sub__", "scalars.add_calls"), ("__rsub__", "scalars.add_calls"),
                              ("__mul__", "scalars.mul_calls"), ("__rmul__", "scalars.mul_calls")):
            self._set(G, meth, self._count(counter, G.__dict__[meth],
                                           bits=counter == "scalars.mul_calls"))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------

    def self_times(self):
        "Total self time per span name: duration minus child durations."
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = defaultdict(float)
        names = self.names
        for i, nid in enumerate(self.span_name):
            out[names[nid]] += ends[i] - starts[i] - child[i]
        return out

    def metrics(self, n_ops):
        """Per-layer metrics; times and counts are per op."""
        st = self.self_times()
        c, mx = self.counts, self.maxima

        def per_op(x):
            return x / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        def selfs(*names):
            return per_op(sum(st.get(n, 0.0) for n in names))

        layer_self = defaultdict(float)
        for name, t in st.items():
            layer_self[name.split(".", 1)[0]] += t
        out = {
            "scalars.mul_calls": (per_op(c["scalars.mul_calls"]), "calls/op"),
            "scalars.add_calls": (per_op(c["scalars.add_calls"]), "calls/op"),
            "scalars.max_coeff_bits": (mx["scalars.max_coeff_bits"], "bits"),
            "poly.mul_calls": (per_op(c["poly.mul_calls"]), "calls/op"),
            "poly.term_products": (per_op(c["poly.term_products"]), "products/op"),
            "poly.mul_self_s": (selfs("poly.Poly.__mul__", "poly.Poly.__rmul__"), "s/op"),
            "poly.substitute_self_s": (selfs("poly.Poly.substitute"), "s/op"),
            "poly.derivative_calls": (per_op(c["poly.derivative_calls"]), "calls/op"),
            "poly.peak_terms": (mx["poly.peak_terms"], "terms"),
            "conformality.kappa_calls": (per_op(c["conformality.kappa_calls"]), "calls/op"),
            "conformality.kappa_repeat_ratio": (
                ratio(c["conformality.kappa_calls"], self._distinct["conformality.kappa"]),
                "ratio"),
            "conformality.kappa_self_s": (selfs("conformality.kappa"), "s/op"),
            "conformality.laplacian_self_s": (selfs("conformality.laplacian"), "s/op"),
            "conformality.sphere_eigen_data_self_s": (selfs("conformality.sphere_eigen_data"),
                                                      "s/op"),
            "conformality.power_family_self_s": (selfs("conformality.power_family"), "s/op"),
            "linalg.matmul_calls": (per_op(c["linalg.matmul_calls"]), "calls/op"),
            "linalg.matmul_self_s": (selfs("linalg.Matrix.__mul__"), "s/op"),
            "linalg.rref_calls": (per_op(c["linalg.rref_calls"]), "calls/op"),
            "linalg.rref_self_s": (selfs("linalg.Matrix.rref"), "s/op"),
            "linalg.rref_max_cells": (mx["linalg.rref_max_cells"], "cells"),
            "linalg.subspace_builds": (per_op(c["linalg.subspace_builds"]), "builds/op"),
            "linalg.projector_self_s": (selfs("linalg.RealSubspace.projector"), "s/op"),
            "holomorphy.gradient_span_calls": (per_op(c["holomorphy.gradient_span_calls"]),
                                               "calls/op"),
            "holomorphy.gradient_span_repeat_ratio": (
                ratio(c["holomorphy.gradient_span_calls"],
                      self._distinct["holomorphy.gradient_span"]), "ratio"),
            "holomorphy.maximal_axis_self_s": (selfs("holomorphy.maximal_axis"), "s/op"),
            "holomorphy.is_axis_self_s": (selfs("holomorphy.is_axis"), "s/op"),
            "holomorphy.apply_real_isometry_self_s": (selfs("holomorphy.apply_real_isometry"),
                                                      "s/op"),
            "holomorphy.numeric_extension_share": (
                ratio(c["holomorphy.numeric_extension_calls"],
                      c["holomorphy.maximal_axis_calls"]), "share"),
            "degree2.to_form_calls": (per_op(c["degree2.to_form_calls"]), "calls/op"),
            "degree2.to_form_self_s": (selfs("degree2.to_form"), "s/op"),
            "degree2.eigen_check_repeat_ratio": (
                ratio(c["degree2.eigen_check_calls"], self._distinct["degree2.eigen_check"]),
                "ratio"),
            "degree2.decompose_self_s": (selfs("degree2.decompose_eigenpair"), "s/op"),
            "degree2.float_tail_share": (ratio(c["degree2.float_tail_calls"],
                                               c["degree2.decompose_calls"]), "share"),
            "constructions.congruent_under_self_s": (selfs("constructions.congruent_under"),
                                                     "s/op"),
            "constructions.span_equal_self_s": (selfs("constructions.span_equal"), "s/op"),
            "parser.load_family_self_s": (selfs("parser.load_family"), "s/op"),
            "parser.format_poly_self_s": (selfs("parser.format_poly"), "s/op"),
            "cli.self_s": (per_op(layer_self["cli"]), "s/op"),
            "catalog.run_entry_self_s": (selfs("catalog.run_entry"), "s/op"),
        }
        for layer in LAYERS:
            if layer in ("scalars", "cli"):  # no spans; cli.self_s above
                continue
            out[f"{layer}.layer_self_s"] = (per_op(layer_self[layer]), "s/op")
        out["trace.spans"] = (per_op(len(self.span_name)), "spans/op")
        return out

    def write(self, path):
        "Spans as arrays in one .npz file (names indexed by span_name)."
        import numpy
        numpy.savez(path, names=numpy.array(self.names),
                    name=numpy.frombuffer(self.span_name, dtype=numpy.int32),
                    parent=numpy.frombuffer(self.span_parent, dtype=numpy.int64),
                    op=numpy.frombuffer(self.span_op, dtype=numpy.int32),
                    start=numpy.frombuffer(self.span_start, dtype=numpy.float64),
                    end=numpy.frombuffer(self.span_end, dtype=numpy.float64))
