"""Timing wrappers installed on linscat from outside the package.

Each wrapper replaces a function at the attribute where its callers look it
up (a module global such as ``linscat.twisted.arch_abs``, or a method on its
class).  Every wrapped call pushes a frame on one stack, so a call's self time
is its duration minus the time of the wrapped calls beneath it.  Coarse calls
are also kept as spans (name, start, end, parent span) and written out as
JSON lines when the run ends; hot leaf calls are only aggregated into a call
count and self time, per phase (``setup`` or ``run``).
"""

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

from linscat import cli, exceptional, fieldarith, heights, kernels, places, twisted

_MODULES = (places, heights, twisted, exceptional, cli)


def _targets():
    """(owner, attribute, metric name, kept as span, result-length counter)."""
    out = []
    for attr, name in (("arch_abs", "places.arch_abs"),
                       ("nonarch_exponent", "places.nonarch_exponent"),
                       ("places_above", "places.places_above")):
        for mod in _MODULES:
            if attr in vars(mod):
                out.append((mod, attr, name, name == "places.places_above", None))
    for attr in ("prefilter_p1", "prefilter_p2"):
        out.append((kernels, attr, "kernels.prefilter", True,
                    "kernels.prefilter.survivors"))
    for attr in ("enum_p1", "enum_p2"):
        out.append((kernels, attr, "kernels.enum", True, "kernels.enum.points"))
    for attr in ("count_p1", "count_p2"):
        out.append((kernels, attr, "kernels.count", True, None))
    out += [
        (exceptional, "filter_solutions", "exceptional.recheck", True, None),
        (exceptional, "subspace_cover", "exceptional.cover", True, None),
        (exceptional, "span_subspace", "exceptional.span_subspace", False, None),
        (twisted, "log_twisted_report", "twisted.report", True, None),
        (twisted, "log_twisted_height", "twisted.log_twisted_height", True, None),
        (cli, "main", "cli", True, None),
        (heights.LinearForm, "evaluate", "heights.evaluate", False, None),
        (fieldarith.FieldElement, "__add__", "fieldarith", False, None),
        (fieldarith.FieldElement, "__mul__", "fieldarith", False, None),
    ]
    return out


class Tracer:
    """Spans and per-phase aggregates for one traced run."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.phase = "setup"
        self.calls = defaultdict(int)     # (phase, name) -> calls
        self.self_ns = defaultdict(int)   # (phase, name) -> self time
        self.counts = defaultdict(int)    # (phase, counter) -> items
        self.spans = []                   # (id, parent, name, phase, t0, t1)
        self._stack = []                  # [child_ns, enclosing span id]
        self._restore = []

    def _call(self, name, keep_span, counter, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span_id = len(self.spans) if keep_span else parent
        if keep_span:
            self.spans.append(None)
        frame = [0, span_id]
        stack.append(frame)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            key = (self.phase, name)
            self.calls[key] += 1
            self.self_ns[key] += dur - frame[0]
            if keep_span:
                self.spans[span_id] = (span_id, parent, name, self.phase, t0, t1)
        if counter is not None:
            self.counts[(self.phase, counter)] += len(result)
        return result

    def _wrap(self, fn, name, keep_span, counter):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, keep_span, counter, fn, args, kwargs)

        return wrapper

    def install(self):
        for owner, attr, name, keep_span, counter in _targets():
            fn = vars(owner)[attr]
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, keep_span, counter))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def spanned(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        return self._call(name, True, None, fn, args, {})

    def total(self, phase, name):
        return self.calls[(phase, name)], self.self_ns[(phase, name)] / 1e9

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, phase, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "phase": phase, "start_ns": t0,
                                     "end_ns": t1}) + "\n")
