"""Spans around the functions each aipoints module exposes to its caller.

The benchmark never edits the package.  It patches a name where the caller
looks it up (``aipoints.estimator.evaluate_weights_batch`` is the name
``_stream_partial`` calls, ``aipoints.weightfn.batch_intersection_area`` the
one ``evaluate_weights_batch`` calls), records one span per call and puts the
original back afterwards.  Spans stay in memory until the run ends.

A span is the tuple ``(id, name, layer, start, end, parent, thread, info)``.
Calls made on a pool thread whose own stack is empty are children of the
span open on the caller thread, which is blocked waiting for them: every
workload is a closed loop with one caller.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

ID, NAME, LAYER, START, END, PARENT, THREAD, INFO = range(8)

LAYERS = ("cli", "estimator", "weightfn", "geometry", "haar", "classical",
          "symmetry", "unimodular", "bench")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# What a span keeps from its call besides the times.  Each entry reads the
# arguments and result of one wrapped function.
def _clip_info(args, kwargs, result):
    subjects = _arg(args, kwargs, 0, "subjects")
    clip = _arg(args, kwargs, 1, "clip")
    n, m = subjects.shape[0], subjects.shape[1]
    return {"n": n, "m": m, "edges": len(clip.vertices),
            "useful": int((result > 0.0).sum())}


def _weights_info(args, kwargs, result):
    return {"n": len(_arg(args, kwargs, 2, "xs"))}


def _draw_info(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 2, "n"))}


def _run_once_info(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 3, "samples")),
            "hits": int(result[3])}


def _estimate_info(args, kwargs, result):
    K = _arg(args, kwargs, 0, "K").vertices
    L = _arg(args, kwargs, 2, "L").vertices
    cfg = _arg(args, kwargs, 3, "cfg")
    se = result.std_error
    # "body" is set for an estimate of K against itself, a primary estimate
    own = K.shape == L.shape and bool(np.allclose(K, L))
    return {"samples": int(cfg.samples), "ess": float(result.ess),
            "se2": float(se[0] * se[0] + se[1] * se[1]),
            "body": K.tolist() if own else None}


# (module, attribute, layer, info).  Each attribute is the name the caller
# looks up at call time.
PROBES = (
    ("aipoints.estimator", "estimate_tk_unit", "estimator", _estimate_info),
    ("aipoints.estimator", "_run_once", "estimator", _run_once_info),
)

LAYER_TARGETS = PROBES + (
    ("aipoints.cli", "main", "cli", None),
    ("aipoints.cli", "estimate_tk", "estimator", None),
    ("aipoints.estimator", "convergence_sweep", "estimator", None),
    ("aipoints.estimator", "_stream_partial", "estimator", None),
    ("aipoints.estimator", "weight_context", "weightfn", None),
    ("aipoints.estimator", "evaluate_weights_batch", "weightfn", _weights_info),
    ("aipoints.weightfn", "batch_intersection_area", "geometry", _clip_info),
    ("aipoints.estimator", "normalize_to_unit_area", "geometry", None),
    ("aipoints.cli", "load_polygon", "geometry", None),
    ("aipoints.cli", "apply_affine", "geometry", None),
    ("aipoints.estimator", "_sample_cartan", "haar", _draw_info),
    ("aipoints.estimator", "_decode_cartan", "haar", None),
    ("aipoints.estimator", "_sample_disk", "haar", None),
    ("aipoints.estimator", "truncated_mass", "haar", None),
    ("aipoints.cli", "sample_sl2pm", "haar", None),
    ("aipoints.classical", "john_center", "classical", None),
    ("aipoints.estimator", "automorphism_group", "symmetry", None),
    ("aipoints.estimator", "fixed_points", "symmetry", None),
    ("aipoints.cli", "singular_values", "unimodular", None),
    ("aipoints.unimodular", "VolumePreservingAffineMap.apply", "unimodular",
     None),
)

# Counted, not timed: about 74 calls per inscribed-ellipse solve.
COUNTERS = (("aipoints.classical", "_grad_hess"),)


class Tracer:
    """Collects spans and call counts; thread-safe for one caller thread
    plus the pool threads it waits on."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.info_errors: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._local.stack = self._root_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, info=None):
        """Return ``fn`` wrapped so each call records one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._root_stack:
                parent = tracer._root_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if info is not None and result is not None:
                    try:
                        extra = info(args, kwargs, result)
                    except Exception:  # a changed signature must not end the run
                        tracer.info_errors[name] += 1
                tracer.spans.append((sid, name, layer, start, end, parent,
                                     threading.get_ident(), extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list[tuple]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _resolve(module: str, attribute: str):
    """(owner, leaf) for a dotted attribute, or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


class Patched:
    """Context manager that installs wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, targets, counters=()):
        self.tracer = tracer
        self.targets = targets
        self.counters = counters
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Patched":
        for module, attribute, layer, info in self.targets:
            self._install(module, attribute, lambda name, fn, layer=layer, info=info:
                          self.tracer.wrap(name, layer, fn, info))
        for module, attribute in self.counters:
            self._install(module, attribute, self.tracer.counter)
        return self

    def _install(self, module: str, attribute: str, make_wrapper) -> None:
        name = f"{module}.{attribute}"
        found = _resolve(module, attribute)
        if found is None:
            self.absent.append(name)
            return
        owner, leaf = found
        original = getattr(owner, leaf)
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(name, original))

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the total overlap of parallel children.

    A span's self time is its duration minus the part of its interval that
    its children cover.  Children running on several threads at once cover
    an instant only once, so the self times of all spans add up to the root
    durations plus the returned overlap (the sum over parents of children's
    durations minus the union of their intervals).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    overlap = 0.0
    for span in spans:
        start, end = span[START], span[END]
        kids = [(max(a, start), min(b, end)) for a, b in children.get(span[ID], ())]
        kids = [(a, b) for a, b in kids if b > a]
        covered = _union_length(kids)
        overlap += sum(b - a for a, b in kids) - covered
        out[span[ID]] = (end - start) - covered
    return out, overlap
