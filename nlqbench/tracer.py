"""Span tracing of nlqground from outside the program.

`Tracer.install()` replaces every module attribute bound to a public
function of the layer modules (and every public method of their public
classes) with a wrapper that records a span: name, start, end, parent span
and request id.  A function imported into several modules, such as
`decode_index_spans` in both `trainer` and `inference`, is wrapped under all
of its bindings.  A few scalar helpers called millions of times are only
counted, per CLI command, because a span per call would swamp memory.
Spans stay in memory until `dump()`; `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from contextlib import contextmanager

PACKAGE = "nlqground"
LAYER_MODULES = ("core", "anchors", "losses", "data", "trainer", "inference",
                 "evaluation", "nn.layers", "nn.model", "nn.checkpoint")

# Called per proposal pair or per span: counted, not spanned.
COUNT_ONLY = frozenset({
    "core.iou", "core.index_to_sec", "core.sec_to_index", "evaluation.query_hit",
})
# Constructions are counted through the constructor.
COUNT_CONSTRUCTIONS = frozenset({"core.TimeSpan"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
                "request": self.request, "info": self.info}


def self_times(spans) -> list[float]:
    """Self time of each span in seconds: its duration minus the part of its
    interval covered by its direct children (overlaps merged, clipped)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the public functions
    defined in `module` and the public methods of its public classes."""
    short = module.__name__[len(PACKAGE) + 1:]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield f"{short}.{attr}", module, attr, obj
        elif isinstance(obj, type):
            cls_name = f"{short}.{attr}"
            for m_attr, m_obj in vars(obj).items():
                if isinstance(m_obj, types.FunctionType) and (
                        not m_attr.startswith("_")
                        or (m_attr == "__init__" and cls_name in COUNT_CONSTRUCTIONS)):
                    name = cls_name if m_attr == "__init__" else f"{cls_name}.{m_attr}"
                    yield name, obj, m_attr, m_obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.scope = "bench"
        self.request = None
        self.wrapped: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._scope_counts: dict[str, int] = {}
        self._commands: dict[str, int] = {}
        self._steps = 0
        self._batches = 0
        self._pending_queries: list[str] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, 0.0, parent, self.request)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def command(self, name: str):
        """One CLI call: a root span `cli.<name>` that scopes the counters."""
        self._flush_counts()
        self.scope = name
        self._commands[name] = self._commands.get(name, 0) + 1
        self.request = f"{name}:{self._commands[name]}"
        span = self._open(f"cli.{name}")
        try:
            yield span
        finally:
            self._close(span)
            self._flush_counts()
            self.scope = "bench"
            self.request = None

    def _flush_counts(self) -> None:
        for name, n in self._scope_counts.items():
            key = (self.scope, name)
            self.counts[key] = self.counts.get(key, 0) + n
        self._scope_counts = {}

    def count(self, scope: str, name: str) -> int:
        return self.counts.get((scope, name), 0)

    # -- request ids --------------------------------------------------------

    def _on_batch(self, parent_name: str, batch) -> None:
        """Training batches are steps; predict batches carry their queries,
        which the per-query decode calls then adopt as request ids."""
        if parent_name == "trainer.train":
            self._steps += 1
            self.request = f"step:{self._steps}"
        else:
            self._batches += 1
            self.request = f"batch:{self._batches}"
            self._pending_queries = list(getattr(batch, "query_ids", ()))

    def _on_call(self, name: str) -> None:
        if name == "inference.decode_proposals" and self._pending_queries:
            self.request = f"query:{self._pending_queries.pop(0)}"

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        annotate = _ANNOTATORS.get(name)
        sig = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._on_call(name)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate:
                try:
                    span.info = annotate(sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, AttributeError, KeyError):
                    span.info = None
            return result
        return wrapper

    def _generator_wrapper(self, name, fn):
        """Each next() on the generator is one span (time spent waiting for
        the item); the caller's work between items is not included."""
        tracer = self

        def timed(gen):
            parent = tracer.spans[tracer.stack[-1]].name if tracer.stack else ""
            while True:
                span = tracer._open(name)
                span.info = {"parent": parent}
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(span)
                    span.info["last"] = True
                    return
                except BaseException:
                    tracer._close(span)
                    raise
                tracer._close(span)
                tracer._on_batch(parent, item)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = tracer._scope_counts
            c[name] = c.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        originals: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for short in LAYER_MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            for name, owner, attr, fn in list(_public_callables(module)):
                if name in COUNT_ONLY or name in COUNT_CONSTRUCTIONS:
                    wrapper = self._count_wrapper(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._generator_wrapper(name, fn)
                else:
                    wrapper = self._span_wrapper(name, fn)
                self.wrapped.add(name)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    originals[id(fn)] = (fn, wrapper)
        # rebind every module attribute that refers to a wrapped function
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if isinstance(owner, type)
                              else vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s.to_json()}) + "\n")
            for (scope, name), n in sorted(self.counts.items()):
                f.write(json.dumps({"count": name, "scope": scope, "n": n}) + "\n")


def _len_or_none(x):
    try:
        return len(x)
    except TypeError:
        return None


# Extra facts recorded on a span from its bound arguments and result.
_ANNOTATORS = {
    "nn.model.GroundingModel.forward_batch": lambda a, r: {"train": bool(a.get("train", False))},
    "inference.nms": lambda a, r: {"kept": _len_or_none(r)},
    "inference.top_k": lambda a, r: {"k_out": _len_or_none(r)},
}
