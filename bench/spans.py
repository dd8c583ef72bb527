"""Span tracing of the program's layers, installed from outside it.

A Tracer replaces each listed public function of tameprod, wherever a
caller looks it up (every module namespace that holds it, or the class for
a method), with a wrapper that records one span per call: an id, the id of
the enclosing span, the layer, the function, and start and end times.  A
layer's self time is the duration of its spans minus the time their child
spans cover.  Nothing under src/ changes; uninstall() puts the original
objects back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Public functions timed per layer.  "Class.method" names a method.  One-line
# constructors and helpers called in inner loops (zvar, wvar, Var, demote) and
# the signatures/errors modules are counted inside their callers.
LAYERS = {
    "cli": ["main", "parse_expression"],
    "weyl_calculus": [
        "simple_multiplier",
        "compound_multiplier",
        "tensor_decompose",
        "stabilization_index",
        "stable_decompose",
        "multiplicity",
    ],
    "lr_oracle": ["schur_poly", "poly_mul", "schur_decompose", "schur_product_decompose"],
    "invariants": [
        "generator",
        "diophantine_solutions",
        "monomial",
        "unipotent_constraints",
        "invariant_basis",
        "diagonal_right_action",
        "TensorProblem.build",
        "InvariantBasis.element",
        "InvariantBasis.elements",
    ],
    "linalg": [
        "identity",
        "matmul",
        "transpose",
        "invert",
        "contragredient_matrix",
        "rref",
        "rank",
        "nullspace_primitive",
        "solve_dict_system",
    ],
    "polynomials": [
        "MultiPoly.__add__",
        "MultiPoly.__radd__",
        "MultiPoly.__sub__",
        "MultiPoly.__mul__",
        "MultiPoly.__rmul__",
        "MultiPoly.__pow__",
        "MultiPoly.substitute",
        "MultiPoly.differentiate",
        "MultiPoly.drop_vars",
        "MultiPoly.rename_vars",
        "MultiPoly.variables",
        "MultiPoly.max_col",
        "apply_diff",
        "act_rows",
        "act_cols",
    ],
    "fock_pairing": ["pair", "truncate_columns", "pair_truncated"],
    "cg_coefficients": [
        "tilde_map",
        "cg_coefficient",
        "cg_coefficient_embedded",
        "verify_equivariance",
    ],
    "contragredient": [
        "highest_weight_vector",
        "lowest_weight_vector_check",
        "negate_signature",
        "reversal",
    ],
}

MUL = {"MultiPoly.__mul__", "MultiPoly.__rmul__", "MultiPoly.__pow__"}
ACT = {"act_cols", "act_rows"}


def _observe_spectrum(counts, args, result):
    counts["spectrum_terms"] += len(result)


def _observe_solutions(counts, args, result):
    counts["exponent_matrices"] += len(result)


def _observe_rows(counts, args, result):
    counts["constraint_rows"] += len(result)
    counts["distinct_rows"] += len({tuple(r) for r in result})


def _observe_nullspace(counts, args, result):
    matrix, ncols = args[0], args[1]
    counts["rank"] += ncols - len(result)
    counts["nonzero_rows"] += sum(1 for row in matrix if any(row))


def _observe_pair(counts, args, result):
    counts["pair_nonzero"] += 1 if result else 0


# Sizes read off a call's arguments and result, keyed by (layer, function).
OBSERVERS = {
    ("weyl_calculus", "tensor_decompose"): _observe_spectrum,
    ("invariants", "diophantine_solutions"): _observe_solutions,
    ("invariants", "unipotent_constraints"): _observe_rows,
    ("linalg", "nullspace_primitive"): _observe_nullspace,
    ("fock_pairing", "pair"): _observe_pair,
}


class Tracer:
    """Records spans for calls into the program while installed."""

    def __init__(self):
        self.spans: list = []  # (id, parent id or None, layer, name, start, end)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------- install

    def _wrap(self, layer, name, fn):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        observe = OBSERVERS.get((layer, name))
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, start, end))
            if observe is not None:
                # Counting happens inside its own span so that its cost is
                # charged to the tracer, not to the caller's self time.
                oid = tracer._next_id
                tracer._next_id = oid + 1
                ostart = clock()
                observe(counts, args, result)
                spans.append((oid, parent, "trace", "observe", ostart, clock()))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"tameprod.{layer}")
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "tameprod" or name.startswith("tameprod.")
        }
        for layer, names in LAYERS.items():
            mod = mods[f"tameprod.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, name, raw.__func__))
                    else:
                        new = self._wrap(layer, name, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(layer, name, original)
                for owner in mods.values():
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, original))
                            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- summary

    def take(self):
        """Per-function and per-layer totals of the spans recorded so far,
        then forget them: {"functions": {(layer, name): [calls, total_s,
        self_s]}, "layers": {layer: self_s}, "counts": {...}}."""
        covered: dict = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        functions: dict = {}
        layers: dict = defaultdict(float)
        for sid, _, layer, name, start, end in self.spans:
            dur = end - start
            own = dur - covered.get(sid, 0.0)
            row = functions.setdefault((layer, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
            layers[layer] += own
        out = {"functions": functions, "layers": dict(layers), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out
