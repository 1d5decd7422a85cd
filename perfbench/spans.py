"""Span tracing of the biclosure layers, installed from outside the package.

Each traced function is replaced by a wrapper wherever it is looked up:
in every ``biclosure`` module namespace that binds the same function
object under the same name (``represent`` calls ``is_separating`` through
its own ``from .dualspace import ...`` binding, so patching ``dualspace``
alone would miss those calls), or on the class for methods.

A wrapper records one span per call: name, parent span, start and end of
the wrapped call, and the wrapper's own bookkeeping time, which lies in
the parent's interval but belongs to no layer. Spans stay in flat arrays
until the pass ends; ``Tracer.summary`` then derives self times (a span's
duration minus the intervals its children and their bookkeeping cover)
and the work counters recorded at the same boundaries.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from time import perf_counter_ns

from workloads import is_bounded, upsets

# (module, attribute, class or None, span name). The order fixes the
# order of the per-layer metrics.
TARGETS = (
    ("biclosure.cli", "main", None, "cli.main"),
    ("biclosure.cli", "_emit_json", None, "cli.emit_json"),
    ("biclosure.poset", "enumerate_posets", None, "poset.enumerate_posets"),
    ("biclosure.poset", "find_orthocomplementations", None,
     "poset.find_orthocomplementations"),
    ("biclosure.dualspace", "dual_space", None, "dualspace.dual_space"),
    ("biclosure.dualspace", "lattice_dual", None, "dualspace.lattice_dual"),
    ("biclosure.dualspace", "ideals_wrt", None, "dualspace.ideals_filters"),
    ("biclosure.dualspace", "filters_wrt", None, "dualspace.ideals_filters"),
    ("biclosure.dualspace", "is_full", None, "dualspace.is_full"),
    ("biclosure.dualspace", "is_separating", None, "dualspace.is_separating"),
    ("biclosure.closure", "induced_closures", None, "closure.induced_closures"),
    ("biclosure.closure", "closed_open_family", None,
     "closure.closed_open_family"),
    ("biclosure.closure", "is_topological", "ClosureOperator",
     "closure.is_topological"),
    ("biclosure.closure", "apply", "ClosureOperator", "closure.apply"),
    ("biclosure.represent", "_closure_formula_agrees", None,
     "represent.closure_equations"),
    ("biclosure.represent", "representation_report", None,
     "represent.representation_report"),
    ("biclosure.represent", "selfdual_subspaces", None,
     "represent.selfdual_subspaces"),
    ("biclosure.represent", "ortho_correspondence", None,
     "represent.ortho_correspondence"),
    ("biclosure.represent", "check_poset", None, "represent.check_poset"),
    ("biclosure.represent", "sweep_catalog", None, "represent.sweep_catalog"),
)

SPAN_NAMES = tuple(dict.fromkeys(t[3] for t in TARGETS))


# --- independent work counters ------------------------------------------------
# These recompute sizes from the inputs instead of asking the package,
# so that counting never fills a cache the package would later read.


def _intersection_family(generators) -> set:
    family: set = set()
    for g in generators:
        family |= {g} | {g & x for x in family}
    return family


def _closed_family_size(op) -> int:
    cached = op.__dict__.get("closed_family")
    if cached is not None:
        return len(cached)
    return len(_intersection_family(op.base) | {op.full})


def _poset_key(poset):
    return (poset.labels, poset.up)


def _subspace_key(subspace):
    return (subspace.poset.labels, subspace.poset.up, subspace.points)


def _count_classes(t, span, args, kwargs, result):
    t.add(span + ".classes", len(result))


def _count_orthos(t, span, args, kwargs, result):
    poset = args[0]
    t.see(span, _poset_key(poset))
    if is_bounded(poset.up):
        t.add(span + ".perms_scanned", math.factorial(poset.n))


def _count_dual(t, span, args, kwargs, result):
    t.see(span, _poset_key(args[0]))
    t.add(span + ".points", result.size)


def _count_lattice_dual(t, span, args, kwargs, result):
    t.see(span, _poset_key(args[0]))


def _count_family(t, span, args, kwargs, result):
    t.see(span, _subspace_key(args[0]))
    t.add(span + ".members", len(result))


def _count_full(t, span, args, kwargs, result):
    t.add(span + ".false", not result[0])


def _count_separating(t, span, args, kwargs, result):
    sub = args[0]
    t.see(span, _subspace_key(sub))
    t.add(span + ".false", not result[0])
    kernels = [sub.poset.full ^ s for s in sub.points]
    t.add(
        span + ".pairs",
        len(_intersection_family(kernels)) * len(_intersection_family(sub.points)),
    )


def _count_closures(t, span, args, kwargs, result):
    t.see(span, _subspace_key(args[0]))
    t.add(span + ".closed_sets", sum(_closed_family_size(c) for c in result))


def _count_equations(t, span, args, kwargs, result):
    t.add(span + ".subsets", len(args[3]))


def _count_sweep(t, span, args, kwargs, result):
    t.add(span + ".subsets_swept", 1 << len(upsets(args[0].up)))
    t.add(span + ".found", len(result))


def _count_emit(t, span, args, kwargs, result):
    out_path = args[1] if len(args) > 1 else kwargs.get("out_path")
    if out_path:
        t.add(span + ".bytes", os.path.getsize(out_path))


COUNTERS = {
    "poset.enumerate_posets": _count_classes,
    "poset.find_orthocomplementations": _count_orthos,
    "dualspace.dual_space": _count_dual,
    "dualspace.lattice_dual": _count_lattice_dual,
    "dualspace.ideals_filters": _count_family,
    "dualspace.is_full": _count_full,
    "dualspace.is_separating": _count_separating,
    "closure.induced_closures": _count_closures,
    "represent.closure_equations": _count_equations,
    "represent.selfdual_subspaces": _count_sweep,
    "cli.emit_json": _count_emit,
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self._installed = []
        # one entry per span, in call order; parent -1 marks a root
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_overhead = array("q")
        self._stack = [-1]
        self.counts = {}
        self.keys = {}

    def reset(self):
        """Drop the spans and counters of the previous pass; the arrays are
        cleared in place because installed wrappers hold them."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.span_overhead):
            del arr[:]
        self._stack[1:] = []
        self.counts.clear()
        self.keys.clear()

    # --- counters ---------------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def see(self, name, key):
        self.keys.setdefault(name, set()).add(key)

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span):
        name_id = SPAN_NAMES.index(span)
        names, parents = self.span_name, self.span_parent
        starts, ends, overheads = (
            self.span_start, self.span_end, self.span_overhead)
        tracer = self
        stack = self._stack
        counts = self.counts
        calls_key = span + ".calls"
        counter = COUNTERS.get(span)

        def traced(*args, **kwargs):
            t_in = perf_counter_ns()
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            overheads.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            counts[calls_key] = counts.get(calls_key, 0) + 1
            if counter is not None:
                counter(tracer, span, args, kwargs, result)
            overheads[idx] = perf_counter_ns() - t1 + t0 - t_in
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self, modules):
        """Patch every binding of every target; ``modules`` maps module
        names to the package's loaded modules. A target the package no
        longer has is reported on stderr and its metrics read 0."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, cls_name, span in TARGETS:
            home = modules.get(mod_name)
            owner = getattr(home, cls_name, None) if cls_name else home
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                where = ".".join(x for x in (mod_name, cls_name, attr) if x)
                print(f"trace: {where} not found, {span} not traced",
                      file=sys.stderr)
                continue
            wrapped = self._wrap(original, span)
            if cls_name is not None:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # --- derived numbers ------------------------------------------------------

    def summary(self, wall_ns: int) -> dict:
        """Per-layer self seconds, counters and the accounting of ``wall_ns``,
        the wall time of the traced pass."""
        n = len(self.span_name)
        starts, ends, overheads = (
            self.span_start, self.span_end, self.span_overhead)
        covered = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i] + overheads[i]
        self_ns = [0] * len(SPAN_NAMES)
        for i in range(n):
            self_ns[self.span_name[i]] += ends[i] - starts[i] - covered[i]
        overhead_ns = sum(overheads)
        return {
            "self_s": {
                name: self_ns[k] / 1e9 for k, name in enumerate(SPAN_NAMES)
            },
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "spans": n,
            "wrapper_s": overhead_ns / 1e9,
            "unattributed_s": (wall_ns - sum(self_ns) - overhead_ns) / 1e9,
            "wall_s": wall_ns / 1e9,
        }
