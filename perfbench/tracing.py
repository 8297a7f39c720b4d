"""Span tracing of the ``wiener`` layers from the benchmark's own files.

:func:`install` wraps each public function of the traced modules once and
rebinds every ``wiener.*`` module global that refers to it (several
modules import functions by name, e.g. ``inversion`` binds
``l1z.convolve`` as ``convolve``).  ``L1ZSeq.__post_init__`` is wrapped
as a counter only.  :func:`uninstall` puts every original back.

Spans live in flat arrays until the run ends: name, start, end, parent
span and op id.  A span's self time is its duration minus the durations
of its direct children, which cover disjoint parts of it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

LAYERS = ("certs", "l1z", "inversion", "l1r", "calculus", "cli")

_MARK = "__perfbench_original__"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self._saved: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def parent_name(self) -> str:
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else ""

    def table(self) -> Dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.table())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


# ---------------------------------------------------------------------------
# wrapping


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _is_uniform(xs: np.ndarray) -> bool:
    """Input property: breakpoints equally spaced to a relative 1e-9."""
    d = np.diff(xs)
    return bool(np.ptp(d) <= 1e-9 * np.mean(d))


def _hooks(tracer: Tracer) -> Dict[str, Callable]:
    """Pre-call hooks: count work from the arguments, may rename the span."""
    c = tracer.counts

    def cu_sum_abs(nid, args, kwargs):
        xs = list(_arg(args, kwargs, 0, "xs"))
        c["certs.cu_sum_abs.terms"] += len(xs)
        return nid, (xs,), {}

    def l1z_convolve(nid, args, kwargs):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        c["l1z.convolve.products"] += len(a.coeffs) * len(b.coeffs)
        return nid, args, kwargs

    def circle(nid, args, kwargs):
        f, N = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 2, "N")
        c["inversion.circle_min_modulus_certify.evals"] += N * len(f.coeffs)
        c["inversion.grid_max"] = max(c["inversion.grid_max"], N)
        return nid, args, kwargs

    def residual_norm(nid, args, kwargs):
        if tracer.parent_name() == "inversion.wiener_invert":
            c["inversion.sampling_rounds"] += 1
        return nid, args, kwargs

    uni = tracer.name_id("l1r.fourier_eval_many.uniform")
    nonuni = tracer.name_id("l1r.fourier_eval_many.nonuniform")

    def fourier(nid, args, kwargs):
        f, ps = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "ps")
        P, S = int(np.size(ps)), f.breakpoints.size - 1
        kind = "uniform" if _is_uniform(f.breakpoints) else "nonuniform"
        c["l1r.fourier_eval_many.%s.pairs" % kind] += P * S
        if tracer.parent_name() == "l1r.certify_transform_lower":
            c["l1r.certify_transform_lower.points"] += P
        return (uni if kind == "uniform" else nonuni), args, kwargs

    def l1r_convolve(nid, args, kwargs):
        if tracer.parent_name() == "l1r.tauberian_divide":
            c["l1r.divide_rounds"] += 1
        return nid, args, kwargs

    def norm_l1(nid, args, kwargs):
        c["l1r.norm_l1.segments"] += _arg(args, kwargs, 0, "f").breakpoints.size - 1
        return nid, args, kwargs

    def integrate(nid, args, kwargs):
        panels = args[4] if len(args) > 4 else kwargs.get("panels")
        c["calculus.integrate.panels"] += panels or 0
        return nid, args, kwargs

    return {
        "certs.cu_sum_abs": cu_sum_abs,
        "l1z.convolve": l1z_convolve,
        "inversion.circle_min_modulus_certify": circle,
        "inversion.residual_norm": residual_norm,
        "l1r.fourier_eval_many": fourier,
        "l1r.convolve": l1r_convolve,
        "l1r.norm_l1": norm_l1,
        "calculus.integrate": integrate,
    }


def _post_hooks(tracer: Tracer) -> Dict[str, Callable]:
    c = tracer.counts

    def l1r_convolve(result):
        c["l1r.convolve.nodes"] += result.breakpoints.size

    return {"l1r.convolve": l1r_convolve}


def _wrap(tracer: Tracer, fn, span: str, pre=None, post=None):
    nid = tracer.name_id(span)
    if pre is None and post is None:
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
    else:
        def wrapper(*args, **kwargs):
            sid = nid
            if pre is not None:
                sid, args, kwargs = pre(nid, args, kwargs)
            idx = tracer.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(result)
            return result
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _MARK, fn)
    return wrapper


def _wiener_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wiener" or n.startswith("wiener."))]


def install(tracer: Tracer) -> None:
    """Wrap every public function of the traced layers and rebind its names."""
    import wiener
    from wiener.l1z import L1ZSeq

    pre, post = _hooks(tracer), _post_hooks(tracer)
    wrappers = {}
    for layer in LAYERS:
        mod = getattr(wiener, layer, None) or __import__("wiener." + layer, fromlist=[layer])
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            span = "%s.%s" % (layer, name)
            wrappers[obj] = _wrap(tracer, obj, span, pre.get(span), post.get(span))
    for mod in _wiener_modules():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                tracer._saved.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    original = L1ZSeq.__post_init__
    counts = tracer.counts

    def counted(self):
        counts["l1z.seq.constructions"] += 1
        original(self)

    setattr(counted, _MARK, original)
    tracer._saved.append((L1ZSeq, "__post_init__", original))
    L1ZSeq.__post_init__ = counted


def uninstall(tracer: Tracer) -> None:
    while tracer._saved:
        owner, name, obj = tracer._saved.pop()
        setattr(owner, name, obj)


def leftover_wrappers() -> List[str]:
    """Names of ``wiener`` attributes still bound to a tracing wrapper."""
    from wiener.l1z import L1ZSeq

    left = ["%s.%s" % (m.__name__, n) for m in _wiener_modules()
            for n, obj in vars(m).items() if hasattr(obj, _MARK)]
    if hasattr(L1ZSeq.__post_init__, _MARK):
        left.append("L1ZSeq.__post_init__")
    return left


# ---------------------------------------------------------------------------
# per-layer metrics

L1Z_LINEAR = ("l1z.add", "l1z.sub", "l1z.neg", "l1z.scale", "l1z.shift")
L1Z_JSON = ("l1z.to_jsonable", "l1z.from_jsonable", "l1z.dumps", "l1z.loads")

#: per-layer metrics of the traced loop, in report order: (name, unit)
LOOP_METRICS = [
    ("certs.calls", "count"),
    ("certs.self_s", "s"),
    ("certs.cu_sum_abs.terms", "count"),
    ("l1z.self_s", "s"),
    ("l1z.convolve.calls", "count"),
    ("l1z.convolve.self_s", "s"),
    ("l1z.convolve.products", "count"),
    ("l1z.seq.constructions", "count"),
    ("l1z.norm_upper.self_s", "s"),
    ("l1z.truncate.self_s", "s"),
    ("l1z.linear.self_s", "s"),
    ("l1z.json.self_s", "s"),
    ("inversion.self_s", "s"),
    ("inversion.circle_min_modulus_certify.calls", "count"),
    ("inversion.circle_min_modulus_certify.self_s", "s"),
    ("inversion.circle_min_modulus_certify.evals", "count"),
    ("inversion.grid_max_log2", "log2"),
    ("inversion.wiener_invert.self_s", "s"),
    ("inversion.sampling_rounds_per_solve", "count"),
    ("inversion.newton_refine.self_s", "s"),
    ("inversion.residual_norm.calls", "count"),
    ("inversion.residual_norm.self_s", "s"),
    ("l1r.self_s", "s"),
    ("l1r.fourier_eval_many.nonuniform.self_s", "s"),
    ("l1r.fourier_eval_many.nonuniform.pairs", "count"),
    ("l1r.fourier_eval_many.uniform.self_s", "s"),
    ("l1r.fourier_eval_many.uniform.pairs", "count"),
    ("l1r.tauberian_divide.self_s", "s"),
    ("l1r.divide_rounds_per_solve", "count"),
    ("l1r.certify_transform_lower.self_s", "s"),
    ("l1r.certify_transform_lower.points", "count"),
    ("l1r.convolve.self_s", "s"),
    ("l1r.convolve.nodes", "count"),
    ("l1r.norm_l1.self_s", "s"),
    ("l1r.norm_l1.segments", "count"),
    ("l1r.fejer_kernel.self_s", "s"),
    ("l1r.add_fn.self_s", "s"),
    ("calculus.self_s", "s"),
    ("calculus.resolvent_eval.calls", "count"),
    ("calculus.resolvent_eval.self_s", "s"),
    ("calculus.integrate.self_s", "s"),
    ("calculus.integrate.panels", "count"),
    ("calculus.loop_integral.self_s", "s"),
    ("calculus.banach_exp.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("trace.op_self_s", "s"),
    ("trace.spans", "count"),
]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer totals of the traced loop, by the names of ``LOOP_METRICS``."""
    t = tracer.table()
    own = self_times(t["start"], t["end"], t["parent"])
    n = len(tracer.names)
    self_by = np.bincount(t["name"], weights=own, minlength=n)
    calls_by = np.bincount(t["name"], minlength=n)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def self_s(*names):
        return float(sum(self_by[ids[x]] for x in names if x in ids))

    def calls(*names):
        return int(sum(calls_by[ids[x]] for x in names if x in ids))

    def layer(prefix):
        return [x for x in tracer.names if x.startswith(prefix + ".")]

    c = tracer.counts
    solves_inv = calls("inversion.wiener_invert")
    solves_div = calls("l1r.tauberian_divide")
    grid_max = c.get("inversion.grid_max", 0.0)
    out = {
        "certs.calls": calls(*layer("certs")),
        "certs.self_s": self_s(*layer("certs")),
        "l1z.linear.self_s": self_s(*L1Z_LINEAR),
        "l1z.json.self_s": self_s(*L1Z_JSON),
        "inversion.grid_max_log2": float(np.log2(grid_max)) if grid_max else 0.0,
        "inversion.sampling_rounds_per_solve":
            c.get("inversion.sampling_rounds", 0.0) / solves_inv if solves_inv else 0.0,
        "l1r.divide_rounds_per_solve":
            c.get("l1r.divide_rounds", 0.0) / solves_div if solves_div else 0.0,
        "cli.main.self_s": self_s(*layer("cli")),
        "trace.op_self_s": self_s("op"),
        "trace.spans": len(t["name"]),
    }
    for name, _unit in LOOP_METRICS:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        if name in c or kind in ("terms", "products", "constructions", "evals", "pairs",
                                 "points", "nodes", "segments", "panels", "output_bytes"):
            out[name] = c.get(name, 0.0)
        elif kind == "calls":
            out[name] = calls(base)
        elif name.count(".") == 1:  # module total, e.g. "l1z.self_s"
            out[name] = self_s(*layer(base))
        else:
            out[name] = self_s(base)
    return out
