"""Outside-in tracing of the `extforms` modules for the per-layer metrics.

`Tracer.install` replaces every public function of each `extforms` module,
in every module namespace that binds it (names are imported with
`from .algebra import wedge`, so patching `algebra.wedge` alone would miss
the `wedge_solver` and `subspace` bindings), and the public `LambdaMatrix`
methods, by a wrapper that records a span (name, start, end, parent, op id)
in memory.  A span's self time is its duration minus the time its child
spans cover, where a child's cover includes its wrapper's own bookkeeping,
so tracing cost lands in no parent's self time.  Counters that need the
arguments or results of a call are computed after the wrapped call returns,
also outside every span.

Generator functions (whose call does no work) and the bit-twiddling leaf
helpers in `algebra` are left unwrapped: they are called per term pair, a
span each would multiply the run time, and their cost stays in the caller's
self time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
import types
from math import comb

MODULES = ("algebra", "linalg", "subspace", "wedge_solver", "symbolic", "dsl",
           "randgen", "cli")
LEAF_HELPERS = {"algebra.mask_of", "algebra.indices_of", "algebra.shuffle_sign",
                "algebra.reverse_sign", "algebra.as_scalar"}
METHODS = {"wedge_solver": {"LambdaMatrix": ("rank", "kernel", "solve")}}
# spans kept in memory for the spans file; self times and counters cover every
# call, but the kept spans stop here so that a long traced phase cannot fill
# the memory (a 15 s traced phase records up to about 2e5 spans)
SPAN_CAP = 200_000


def _has_float(form) -> bool:
    return any(isinstance(c, float) for c in form.coeffs.values())


def _count_row_reduce(c, args, kwargs, result):
    rows, ncols = args[0], args[1]
    c["linalg.cells"] += len(rows) * ncols
    bits = max((abs(x).bit_length() for row in result[0] for x in row), default=0)
    c["linalg.max_bits"] = max(c["linalg.max_bits"], bits)


def _count_wedge(c, args, kwargs, result):
    a, b = args[0], args[1]
    if a.degree + b.degree > a.dim:
        return
    c["algebra.wedge.pairs_tried"] += len(a.coeffs) * len(b.coeffs)
    c["algebra.wedge.pairs_useful"] += sum(1 for ma in a.coeffs for mb in b.coeffs
                                           if not ma & mb)


def _count_frame(c, args, kwargs, result):
    omega, frame = args[0], args[1]
    c["subspace.frame_coefficients.tried"] += comb(frame.dim, omega.degree)
    c["subspace.frame_coefficients.nonzero"] += len(result)


def _count_eval(c, args, kwargs, result):
    c["symbolic.eval_at.results"] += 1
    c["symbolic.eval_at.floats"] += _has_float(result)


def _count_float_mode(c, args, kwargs, result):
    subject = args[0]
    forms = [subject.omega if hasattr(subject, "omega") else subject]
    forms += [a for a in args[1:2] if hasattr(a, "coeffs")]
    c["wedge_solver.decisions"] += 1
    c["wedge_solver.float_decisions"] += any(_has_float(f) for f in forms)


COUNTERS = {
    "linalg.row_reduce_int": _count_row_reduce,
    "algebra.wedge": _count_wedge,
    "subspace.frame_coefficients": _count_frame,
    "symbolic.eval_at": _count_eval,
    "wedge_solver.rank2": _count_float_mode,
    "wedge_solver.kernel2": _count_float_mode,
    "wedge_solver.LambdaMatrix.rank": _count_float_mode,
    "wedge_solver.LambdaMatrix.kernel": _count_float_mode,
    "wedge_solver.LambdaMatrix.solve": _count_float_mode,
}


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span recorder for one traced phase; install, run ops, uninstall."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, list] = {}      # name -> [calls, self seconds]
        self.counters = _Counters()
        self.spans: list[tuple] = []           # (id, name, start, end, parent, op)
        self.nspans = 0
        self.op = -1
        self._stack: list[list] = []           # [span id, child cover seconds]
        self._patches: list[tuple] = []

    # -- patching ------------------------------------------------------------

    def install(self):
        mods = [getattr(self.package, m) for m in MODULES]
        wrappers: dict[int, types.FunctionType] = {}
        for ns in [self.package] + mods:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("extforms.") or owner not in MODULES:
                    continue
                name = f"{owner}.{obj.__name__}"
                if name in LEAF_HELPERS or inspect.isgeneratorfunction(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(ns, attr, wrappers[id(obj)])
        for mod, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(getattr(self.package, mod), cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._patch(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        post = COUNTERS.get(name)
        counters = self.counters
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf()
            sid = tracer.nspans
            tracer.nspans = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t1 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = perf()
                stack.pop()
                stats[0] += 1
                stats[1] += (t2 - t1) - frame[1]
                if sid < SPAN_CAP:
                    spans.append((sid, name, t1, t2, parent, tracer.op))
                if ok and post is not None:
                    post(counters, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every `<module>.<function>.{calls,self_s}`, `<module>.self_s`, and
        the derived counters and ratios."""
        out: dict[str, float] = {}
        module_self = {m: 0.0 for m in MODULES}
        for name, (calls, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            module_self[name.partition(".")[0]] += self_s
        for mod, self_s in module_self.items():
            out[f"{mod}.self_s"] = self_s
        c = self.counters
        out["linalg.cells"] = c["linalg.cells"]
        out["linalg.max_bits"] = c["linalg.max_bits"]
        out["algebra.wedge.useful_pair_ratio"] = _ratio(
            c["algebra.wedge.pairs_useful"], c["algebra.wedge.pairs_tried"])
        out["subspace.frame_coefficients.nonzero_ratio"] = _ratio(
            c["subspace.frame_coefficients.nonzero"], c["subspace.frame_coefficients.tried"])
        out["symbolic.eval_at.float_share"] = _ratio(
            c["symbolic.eval_at.floats"], c["symbolic.eval_at.results"])
        out["wedge_solver.float_mode_share"] = _ratio(
            c["wedge_solver.float_decisions"], c["wedge_solver.decisions"])
        out["trace.spans"] = self.nspans
        return out

    def write_spans(self, path):
        """Write the recorded spans (the first SPAN_CAP) as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
