"""Spans and counters around the library's layers, installed from the
benchmark's side.

``Tracer.install`` replaces each public function of every library
module by a wrapper that records a span ``(id, parent, name, start,
end)``.  The replacement is made in every module that holds the
function under any name, so ``from .dga import kernel_of_d`` in the CLI
goes through the wrapper too.  A few hot arithmetic entry points only
count calls.  Spans stay in memory until ``write``; ``summary`` derives
self time as span time minus the time of the child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "prelie_calculus"
# the layers, in the order the split is reported; "cli" is the root
# span of each job, whose self time is the job time no library span covers
MODULES = ("cli", "catalog", "exact_core", "liebialg", "prelie", "dga",
           "constructions", "metric", "su2", "group_dga")
# public helpers called per vector entry, per term or per subset; their
# time stays in the self time of the caller, where the algorithms that
# call them that often are measured (omega_word per position subset in
# differential_d, genpoly_derivative per Christoffel term in the
# curvature), and a span each would cost more than their work
UNTRACED = {
    "exact_core": ("genpoly_derivative",),
    "liebialg": ("zero_vec", "basis_vec", "add_vec", "sub_vec",
                 "scale_vec", "vec_is_zero"),
    "dga": ("omega_word",),
    "metric": ("func_mul",),
    "su2": ("sl2_gen",),
}


def _extra_counts(name, args, result, counts):
    if name == "exact_core.linear_kernel":
        rows = args[0]
        ncols = len(rows[0]) if rows else 0
        counts["exact_core.linear_kernel.cells"] += len(rows) * ncols
        counts["exact_core.linear_kernel.rank"] += ncols - len(result)
    elif name == "dga.differential_d":
        counts["dga.differential_d.terms_out"] += len(result.terms)
    elif name == "prelie.check_left_symmetry":
        counts["prelie.check_left_symmetry.nnz_in"] += \
            len(args[0].xi.entries)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = [0]
        self._next_id = 1
        self._patches = []

    # -- spans --------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))
        _extra_counts(name, args, result, self.counts)
        return result

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _yield_counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    # -- installation -------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PACKAGE):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES[1:]}
        for short, mod in modules.items():
            skip = UNTRACED.get(short, ())
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._replace_everywhere(
                    fn, self._span_wrapper(f"{short}.{attr}", fn))
        dga = modules["dga"]
        self._replace_everywhere(
            dga._pbw_words, self._yield_counter("dga.pbw_words",
                                                dga._pbw_words))
        group_dga = modules["group_dga"].GroupDGA
        self._patch(group_dga, "mul",
                    self._span_wrapper("group_dga.mul", group_dga.mul))
        core = modules["exact_core"]
        for cls, key in ((core.Scalar, "exact_core.scalar_mul.calls"),
                         (core.LambdaScalar, "exact_core.lambda_mul.calls")):
            counted = self._count_wrapper(key, cls.__mul__)
            self._patch(cls, "__mul__", counted)
            self._patch(cls, "__rmul__", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------
    def summary(self):
        """{name: [calls, total_ns, self_ns]} over all spans."""
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for sid, _, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[sid]
        return dict(out)

    def write(self, path):
        """All spans as tab-separated id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
