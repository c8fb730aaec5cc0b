"""In-memory span tracer that wraps the library's public functions from outside.

A span records (name, start, end, parent). Wrapping happens by replacing
every module attribute that is bound to a traced function, in every loaded
``paretofair`` module, so that ``from x import f`` copies are traced too. The
original bindings are put back by ``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Library layers, in the order they are reported. ``cli`` is the root layer:
# it is never wrapped, its self time is what the top-level spans leave over.
LAYERS = ("risk", "model", "adaptive", "oracle", "baselines", "data", "report")

# Called hundreds of thousands of times by the oracle's dominance prune: a span
# each would swamp what it measures, so these are counted only.
COUNT_ONLY = {"risk.dominates"}

# Methods traced besides module-level functions: (layer, class, method).
METHODS = (("model", "MLPClassifier", "forward"), ("model", "MLPClassifier", "decisions"))


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end=None, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so a child that runs past its parent's end, or two overlapping children,
    are not subtracted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _arg(fn, name):
    """Getter for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _hooks(pf):
    """Work counters taken from the arguments or results of traced calls.

    Each hook gets (counts, args, kwargs, result) after the call returns.
    """
    m, d = pf.model, pf.data
    wg_x = _arg(m.weighted_grad, "X")
    fw_x = _arg(m.MLPClassifier.forward, "X")
    save_ds, save_path = _arg(d.save_csv, "dataset"), _arg(d.save_csv, "path")

    def weighted_grad(c, args, kwargs, result):
        c["model.weighted_grad.rows"] += len(wg_x(args, kwargs))

    def forward(c, args, kwargs, result):
        c["model.forward.rows"] += len(fw_x(args, kwargs))

    def sgd_early_stop(c, args, kwargs, result):
        c["model.epochs"] += result[2]

    def pareto_fair_optimize(c, args, kwargs, result):
        trace = result[1]
        c["adaptive.outer_iters"] += len(trace)
        c["adaptive.accepted"] += sum(1 for row in trace if row.accepted)

    def trace_front(c, args, kwargs, result):
        c["oracle.front_points"] = len(result)

    def save_csv(c, args, kwargs, result):
        c["data.save_csv.rows"] += save_ds(args, kwargs).n
        c["data.csv_bytes"] += _file_size(save_path(args, kwargs))

    def load_csv(c, args, kwargs, result):
        c["data.load_csv.rows"] += result.n

    return {
        "model.weighted_grad": weighted_grad,
        "model.forward": forward,
        "model.sgd_early_stop": sgd_early_stop,
        "adaptive.pareto_fair_optimize": pareto_fair_optimize,
        "oracle.trace_front": trace_front,
        "data.save_csv": save_csv,
        "data.load_csv": load_csv,
    }


def public_functions(module):
    """Module-level functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Collects spans and counters while installed; restores everything on uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def wrap_span(self, name, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(name, clock(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def wrap_count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ----------------------------------------------------

    def install(self, pf):
        """Wrap the public functions of every layer of the package namespace ``pf``.

        ``pf`` is the imported ``paretofair`` package; its attributes are the layer modules.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = _hooks(pf)
        loaded = [mod for key, mod in sys.modules.items() if key == "paretofair" or key.startswith("paretofair.")]
        for layer in LAYERS:
            for fname, fn in public_functions(getattr(pf, layer)).items():
                name = f"{layer}.{fname}"
                if name in COUNT_ONLY:
                    wrapper = self.wrap_count(name, fn)
                else:
                    wrapper = self.wrap_span(name, fn, hooks.get(name))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(pf, layer), cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            self._patch(cls, meth, self.wrap_span(name, fn, hooks.get(name)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def summary(self):
        """calls / self_s per span name plus the work counters, as one flat dict."""
        out = Counter(self.counts)
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.name + ".calls"] += 1
            out[span.name + ".self_s"] += own
        return dict(out)

    def top_level_seconds(self):
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path, header):
        """One JSON object per line: the header, then one per span (id, name, start, end, parent)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
                fh.write(json.dumps(rec) + "\n")
