"""Outside-in layer spans: self time per thread, counters, modeled seconds.

The benchmark never edits the program. It replaces a public function or
method *where its caller looks it up* (``repro.core.stencil.step_vectorized``
is read from the stencil module's globals by the GPU kernel's fast path,
``BP5Writer.put`` from the class) with a wrapper that opens a span for the
duration of the call. Each thread keeps its own stack of open spans, and a
span's self time is its duration minus the time of the spans nested in it,
so nested layers never count the same second twice.

Wall seconds (``self_s``), event counts (``counts``) and seconds of the
program's *modeled* Frontier clock (``modeled``) are kept in three separate
tables; nothing here ever adds a modeled second to a wall second.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Per-thread span stacks and the totals they produce."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, layer) -> self wall seconds
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: (thread name, layer) -> completed spans
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: counter name -> total (messages, bytes, events, compiles, ...)
        self.counts: dict[str, float] = defaultdict(float)
        #: modeled-clock name -> modeled seconds
        self.modeled: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        """Open a span; returns its frame ``[layer, start, child seconds]``."""
        frame = [layer, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost span (``frame``); returns its duration."""
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        key = (threading.current_thread().name, frame[0])
        with self._lock:
            self.self_s[key] += duration - frame[2]
            self.calls[key] += 1
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def model(self, name: str, seconds: float) -> None:
        with self._lock:
            self.modeled[name] += seconds

    # -- queries ------------------------------------------------------------
    def layer_self(self, layer: str, threads=None) -> float:
        """Self seconds of ``layer`` summed over ``threads`` (default: all)."""
        return sum(
            s for (t, name), s in self.self_s.items()
            if name == layer and (threads is None or t in threads)
        )

    def layer_calls(self, layer: str, threads=None) -> int:
        return sum(
            n for (t, name), n in self.calls.items()
            if name == layer and (threads is None or t in threads)
        )

    def thread_self(self, thread: str) -> float:
        """All attributed self seconds of one thread."""
        return sum(s for (t, _), s in self.self_s.items() if t == thread)


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Patches:
    """Wrappers installed on program attributes, undone by :meth:`restore`.

    ``wrap(target, layer, after=...)`` times every call of ``target`` as a
    span of ``layer`` (``layer=None`` only runs ``after``, for counters on a
    call whose time belongs to its caller). ``after(recorder, args, kwargs,
    result)`` runs once the call returned, outside the span.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, layer: str | None, after=None) -> None:
        owner, name = _resolve(target)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                frame = recorder.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder.exit(frame)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        setattr(owner, name, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, name, raw))

    def restore(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
