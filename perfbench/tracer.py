"""Spans around the calls into smtl's layers, recorded from outside.

A :class:`Tracer` replaces a name in the module where its caller looks it
up (``smtl.solver.eval_S``, ``smtl.linalg.sym_eig``, ``smtl.cli.load_model``
...) with a wrapper that records a span, and puts the original back on
exit. Nothing under ``src/`` changes, and an untraced run pays nothing.

A span is a dict with ``id``, ``parent``, ``name``, ``start`` and ``end``
(``time.perf_counter`` seconds) plus attributes. Span names are
``<layer>.<function>``; the layer is the smtl module that owns the function.
Spans stay in memory until the caller writes them out.
"""

import importlib
import os
import time

LAYERS = ("cli", "data", "kernels", "linalg", "solver", "penalties",
          "objectives", "metrics", "model_io")


def _route(args, kwargs):
    # The supervised route follows from the weight pattern, by the rule
    # smtl.solver documents: uniform -> spectral, one entry per row ->
    # one-hot, anything else -> CG.
    w = args[0].W
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "altmin")
    if mode != "altmin":
        return {"route": "gradient"}
    if w.size and w.flat[0] > 0 and (w == w.flat[0]).all():
        return {"route": "spectral"}
    if ((w > 0).sum(axis=1) == 1).all():
        return {"route": "one_hot"}
    return {"route": "cg"}


def _fit_outcome(args, out):
    report = out[1]
    return {"iters": report.iters,
            "converged": report.termination == "converged",
            "objective": float(report.objective_trajectory[-1])}


# (module where the caller looks the name up, attribute, span name,
#  attributes from the arguments, attributes from (arguments, result))
PATCHES = (
    ("smtl.cli", "load_dataset", "data.load_dataset",
     None, lambda a, out: {"rows": int(out.n)}),
    ("smtl.cli", "fit", "solver.fit", None, None),
    ("smtl.solver", "fit", "solver.fit", None, None),
    ("smtl.solver", "fit_gram", "solver.fit_gram", None, _fit_outcome),
    ("smtl.solver", "supervised_step", "solver.supervised_step",
     _route, None),
    ("smtl.solver", "unsupervised_step", "solver.unsupervised_step",
     None, None),
    ("smtl.solver", "GramMatrix", "kernels.GramMatrix", None, None),
    ("smtl.model_io", "GramMatrix", "kernels.GramMatrix", None, None),
    ("smtl.kernels", "gram", "kernels.gram", None, None),
    ("smtl.metrics", "gram", "kernels.cross_gram", None, None),
    ("smtl.kernels", "psd_clip", "linalg.psd_clip", None, None),
    ("smtl.linalg", "sym_eig", "linalg.sym_eig",
     lambda a, k: {"dim": len(a[0])}, None),
    ("smtl.penalties", "sym_eig", "linalg.sym_eig",
     lambda a, k: {"dim": len(a[0])}, None),
    ("smtl.solver", "sylvester_ls_solve", "linalg.sylvester_ls_solve",
     None, None),
    ("smtl.solver", "unsupervised_min", "penalties.unsupervised_min",
     lambda a, k: {"kind": a[0].kind}, None),
    ("smtl.objectives", "penalty_value", "penalties.penalty_value",
     None, None),
    ("smtl.solver", "eval_S", "objectives.eval_S", None, None),
    ("smtl.cli", "predict", "metrics.predict", None, None),
    ("smtl.metrics", "predict", "metrics.predict", None, None),
    ("smtl.cli", "nmse", "metrics.nmse", None, None),
    ("smtl.metrics", "nmse", "metrics.nmse", None, None),
    ("smtl.cli", "save_model", "model_io.save_model",
     None, lambda a, out: {"bytes": os.path.getsize(a[1])}),
    ("smtl.cli", "load_model", "model_io.load_model", None, None),
)


class Tracer:
    """Records spans while installed (``with tracer:``)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, pre, post in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, pre, post))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def wrap(self, fn, name, pre=None, post=None):
        """Return ``fn`` recording a span named ``name`` per call."""
        def traced(*args, **kwargs):
            span = {"id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name}
            if pre is not None:
                span.update(pre(args, kwargs))
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if post is not None:
                span.update(post(args, out))
            return out
        return traced

    def add(self, name, start, end, children=()):
        """Record a span timed elsewhere, e.g. a subprocess, adopting the
        root spans of ``children`` (spans recorded in that process)."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": None, "name": name,
                           "start": start, "end": end})
        offset = len(self.spans)
        for child in children:
            child = dict(child, id=child["id"] + offset)
            child["parent"] = (sid if child["parent"] is None
                               else child["parent"] + offset)
            self.spans.append(child)
        return sid


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def layer_of(span):
    return span["name"].split(".", 1)[0]
