"""Sampling profiler for virtual time.

A traced virtual run records every labelled delay — at 64k ranks that
is tens of millions of spans, which is exactly the cost the streaming
sinks in :mod:`repro.observe.stream` exist to absorb. Often the
question is coarser: *what were the ranks doing over time?* The
:class:`SimProfiler` answers it the way ``perf record`` does for real
programs — by sampling. At a configurable virtual-time interval it
walks the engine's process table and counts, per (process name, state)
pair, how many virtual processes were in that state: blocked on a
kernel delay, queued on a GCD acquire, waiting at a barrier.

The output is flame-graph-ready **folded stacks**: one line per
``name;state`` with the total sample count, the input format of
Brendan Gregg's ``flamegraph.pl`` and of speedscope. With the default
``collapse=True`` digit runs in names collapse to ``*`` so all 65,536
``rank12345`` processes aggregate into one ``rank*`` row — the profile
stays a few dozen lines no matter the rank count.

Cost model: the engine's hot event loop pays one float compare per
clock advance (nothing at all per same-time event); the walk of
the process table happens only at sample instants, so the overhead is
``samples x live processes``, controlled entirely by ``interval``.

Usage::

    profiler = SimProfiler(interval=0.001)
    engine = Engine(name="virtual", profiler=profiler)
    ... spawn ranks, engine.run() ...
    profiler.write_folded("profile.folded")
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.util.errors import SchedError

_DIGITS = re.compile(r"\d+")


def collapse_label(label: str) -> str:
    """Fold digit runs to ``*`` so per-rank labels aggregate."""
    return _DIGITS.sub("*", label)


class SimProfiler:
    """Sample the process table of an :class:`~repro.sched.Engine`.

    ``interval`` is virtual seconds between samples; the first sample
    fires at ``interval`` (at t=0 nothing has started). Attach by
    passing ``profiler=`` to the engine constructor or assigning
    ``engine.profiler`` before :meth:`~repro.sched.Engine.run`.
    """

    def __init__(self, interval: float, *, collapse: bool = True):
        if not interval > 0:
            raise SchedError(
                f"profiler interval must be > 0 virtual seconds, got {interval}"
            )
        self.interval = float(interval)
        self.collapse = collapse
        #: virtual time of the next pending sample (engine hot-loop key)
        self.next_sample = self.interval
        self.samples_taken = 0
        #: (name, state) -> occupancy count summed over all samples
        self.stacks: dict[tuple[str, str], int] = {}
        self._label_cache: dict[str, str] = {}

    # -- engine hook --------------------------------------------------------
    def advance(self, engine, until: float) -> float:
        """Take every sample due in ``(next_sample, until]``; returns the new
        ``next_sample``.

        Called by the engine just before it advances its clock past
        ``next_sample`` — the sampled states are the processes' blocked
        states during the idle gap, which is precisely what a sampling
        profiler of a discrete-event simulation should attribute time
        to.
        """
        while self.next_sample <= until:
            self._sample(engine)
            self.next_sample += self.interval
        return self.next_sample

    def _fold(self, label: str) -> str:
        folded = self._label_cache.get(label)
        if folded is None:
            folded = collapse_label(label) if self.collapse else label
            self._label_cache[label] = folded
        return folded

    def _sample(self, engine) -> None:
        self.samples_taken += 1
        stacks = self.stacks
        finished = 0
        live = 0
        for process in engine._processes:
            if process.finished:
                finished += 1
                continue
            live += 1
            desc = process._blocked_desc() or "running"
            key = (self._fold(process.name), self._fold(desc))
            stacks[key] = stacks.get(key, 0) + 1
        # keep sampling O(live processes): at 262k ranks the table is
        # dominated by finished halo/write frames between the engine's
        # own compaction thresholds — compact eagerly once dead frames
        # outnumber the ranks we actually sample
        if finished > live:
            engine.compact_finished()

    # -- output -------------------------------------------------------------
    def folded(self) -> list[str]:
        """Flame-graph folded stacks: ``name;state count`` lines, sorted."""
        return [
            f"{name};{state} {count}"
            for (name, state), count in sorted(self.stacks.items())
        ]

    def write_folded(self, path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.folded()) + "\n")
        return target

    def to_json(self) -> dict:
        return {
            "schema": "repro.sched.profile/1",
            "interval_seconds": self.interval,
            "samples": self.samples_taken,
            "stacks": [
                {"name": name, "state": state, "count": count}
                for (name, state), count in sorted(self.stacks.items())
            ],
        }

    def render(self, *, width: int = 40) -> str:
        """ASCII occupancy summary (the ``observe flamegraph`` view)."""
        return render_stacks(
            self.stacks, samples=self.samples_taken, width=width
        )


def load_folded(path) -> dict[tuple[str, str], int]:
    """Parse a folded-stacks file back into ``(name, state) -> count``."""
    target = Path(path)
    if not target.exists():
        raise SchedError(f"profile file not found: {target}")
    stacks: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(target.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            stack, count = line.rsplit(" ", 1)
            name, state = stack.split(";", 1)
            stacks[(name, state)] = stacks.get((name, state), 0) + int(count)
        except ValueError as exc:
            raise SchedError(
                f"{target}:{lineno} is not a folded stack "
                f"('name;state count'): {line!r}"
            ) from exc
    return stacks


def render_stacks(
    stacks: dict[tuple[str, str], int],
    *,
    samples: int | None = None,
    width: int = 40,
) -> str:
    """ASCII occupancy bars for folded stacks, heaviest first."""
    if not stacks:
        return "no samples"
    total = sum(stacks.values())
    head = f"{total} process-samples"
    if samples is not None:
        head = f"{samples} samples, {head}"
    lines = [head]
    ranked = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    top = ranked[0][1]
    for (name, state), count in ranked:
        bar = "#" * max(1, round(width * count / top))
        share = 100.0 * count / total
        lines.append(f"{share:6.2f}%  {name};{state:<28} {bar}")
    return "\n".join(lines)
