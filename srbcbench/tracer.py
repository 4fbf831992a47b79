"""Outside-in span tracer for the ``srbc`` package.

The tracer replaces every ``srbc`` function found in the namespace of
each package module with a wrapper that records a span (id, parent id,
thread, name, start, end).  Calls are intercepted in the namespace
where they are looked up, so ``srbc.harness.apply_channel`` and
``srbc.analysis.integrate_adaptive`` are traced as ``channel`` and
``quadrature`` work.  Nothing under ``src/`` changes.

Each thread keeps its own span stack, so spans opened concurrently by
pool workers never pop each other's parents.  Work submitted to the
harness thread pool runs in a ``harness.pool_task`` span whose parent is
the span that submitted it.  Spans stay in memory until ``take()``.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import math
import threading
import time
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

LAYERS = ("cli", "harness", "waveform", "channel", "backscatter", "detector",
          "crc", "analysis", "quadrature")


class Span(NamedTuple):
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float
    work: float | None


def _rows(args, index=0, attr=None):
    obj = args[index]
    if attr is not None:
        obj = getattr(obj, attr)
    return obj.shape[0]


def _kept_batches(fn):
    """Batches the in-order stop rule kept: trials used over batch size."""
    signature = inspect.signature(fn)

    def work(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return math.ceil(result[1] / bound.arguments["batch_size"])
    return work


# Work each span carries, by span name: f(args, kwargs, result) -> number.
_WORK = {
    "detector.ook_test_statistic": lambda a, k, r: _rows(a, 0, "values"),
    "detector.fsk_metrics": lambda a, k, r: _rows(a, 0, "values"),
    "backscatter.apply_backscatter": lambda a, k, r: _rows(a, 0, "samples"),
    "harness._tdl_grid": lambda a, k, r: a[1],
    "crc.crc5_check_many": lambda a, k, r: _rows(a),
    "quadrature.integrate_adaptive": lambda a, k, r: r.n_evals,
}


class Tracer:
    """Install with ``install()``, run the code, ``uninstall()``, ``take()``."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list = []
        self._saved: list = []
        self._wrappers: dict = {}

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, work, parent, args, kwargs):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        amount = None
        if work is not None:
            try:
                amount = work(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                amount = None
        self._spans.append(Span(sid, parent, threading.get_ident(), name,
                                start, end, amount))
        return result

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        work = _kept_batches(fn) if name == "harness._accumulate" else _WORK.get(name)
        # Positions of parameters annotated as callables: a callback defined
        # in another layer (the Gil-Pelaez integrand handed to the
        # quadrature) is that layer's work, not the callee's.
        params = list(inspect.signature(fn).parameters.values())
        callbacks = [i for i, p in enumerate(params)
                     if "Callable" in str(p.annotation)]
        call = self._call

        if callbacks:
            def wrapper(*args, **kwargs):
                args = list(args)
                for i in callbacks:
                    if i < len(args):
                        args[i] = self._callback(args[i], layer)
                return call(name, fn, work, None, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, work, None, args, kwargs)

        wrapper.__wrapped__ = fn
        self._wrappers[fn] = wrapper
        return wrapper

    def _callback(self, obj, callee_layer):
        if not isinstance(obj, types.FunctionType) or "<locals>" not in obj.__qualname__:
            return obj
        module = obj.__module__ or ""
        layer = module.rsplit(".", 1)[-1]
        if not module.startswith("srbc.") or layer == callee_layer:
            return obj
        name = f"{layer}.{obj.__qualname__.rsplit('.', 1)[-1]}"

        def callback(*args, **kwargs):
            return self._call(name, obj, None, None, args, kwargs)
        return callback

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task(*a, **k):
                    return tracer._call("harness.pool_task", fn, None, parent, a, k)
                return super().submit(task, *args, **kwargs)
        return TracedPool

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every srbc function in every layer module's namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"srbc.{layer}")
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and (value.__module__ or "").startswith("srbc.")):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))
            if getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._saved.append((module, "ThreadPoolExecutor", ThreadPoolExecutor))
                module.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self._spans = self._spans, []
        return spans


# -- analysis -------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Profile:
    """Self time, pool wait, call count and work per span name."""

    self_s: dict
    wait_s: dict
    calls: dict
    work: dict
    main_root_s: float
    worker_self_s: float
    spans: int


def profile(spans, main_thread: int) -> Profile:
    """Self time of every span: its duration minus what its children cover.

    Children on the span's own thread are nested and disjoint.  Children
    on other threads (pool tasks) overlap the span while it waits for
    them; that part is reported as wait, not self time, so neither can
    go negative and no time is counted twice on one thread.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_s = defaultdict(float)
    wait_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    main_root_s = worker_self_s = 0.0
    for s in spans:
        kids = children.get(s.id, ())
        same = [(k.start, k.end) for k in kids if k.thread == s.thread]
        remote = [(max(k.start, s.start), min(k.end, s.end))
                  for k in kids if k.thread != s.thread]
        covered_same = sum(hi - lo for lo, hi in same)
        covered = _union_length(same + remote) if remote else covered_same
        busy = (s.end - s.start) - covered
        self_s[s.name] += busy
        wait_s[s.name] += covered - covered_same
        calls[s.name] += 1
        if s.work is not None:
            work[s.name] += s.work
        if s.thread == main_thread:
            if s.parent is None:
                main_root_s += s.end - s.start
        else:
            worker_self_s += busy
    return Profile(dict(self_s), dict(wait_s), dict(calls), dict(work),
                   main_root_s, worker_self_s, len(spans))
