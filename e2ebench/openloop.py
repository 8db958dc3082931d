"""A single-process open-loop request generator for ``SimService``.

Requests are sent at a fixed rate, each moved by a seeded jitter, whatever
the service does, as independent users would: a stall makes the queue grow
instead of slowing the sender. Each request is timed from the moment it was
*due*, so time a request spends behind a stall is counted, and the generator
records how late it ran itself, so that its own lag can be told apart from
the service's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Request:
    """One scheduled request and what became of it."""

    phase: int
    #: seconds after the run's start when the request is due
    offset: float
    spec: object
    #: perf_counter values: due, actually sent, answered
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    #: requests outstanding (sent, not answered) when this one was sent
    backlog: int = 0
    ok: bool = False
    refused: bool = False
    error: str | None = None
    record: object | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseReport:
    """Counts and timings of one fixed-rate phase."""

    rate: float
    duration: float
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)

    def backlog_growing(self, slack: int) -> bool:
        """Mean backlog of the phase's second half exceeds the first's by
        more than ``slack`` requests."""
        half = len(self.backlog) // 2
        if half == 0:
            return False
        first = float(np.mean(self.backlog[:half]))
        second = float(np.mean(self.backlog[half:]))
        return second - first > slack


#: the widest move of a send either way, as a share of the send interval
JITTER = 0.25


def paced_schedule(rng: np.random.Generator, rates, durations) -> list[tuple[int, float]]:
    """``(phase, offset)`` pairs, phases back to back: each phase sends at
    its fixed rate, every send moved by a seeded uniform jitter of up to
    ``JITTER`` of the interval either way (so sends keep their order)."""
    out = []
    start = 0.0
    for phase, (rate, duration) in enumerate(zip(rates, durations)):
        gap = 1.0 / rate
        count = int(duration * rate)
        shifts = rng.uniform(-JITTER, JITTER, size=count)
        out.extend((phase, start + (k + 0.5 + shifts[k]) * gap) for k in range(count))
        start += duration
    return out


async def drive(service, requests: list[Request], *, check) -> None:
    """Send every request at its due time; fills in the timing fields.

    ``check(request)`` decides, once the service answered, whether the
    answer is correct; a refused or raised request is a failure.
    """
    from repro.util.errors import AdmissionError

    outstanding = 0
    tasks = []

    async def one(req: Request) -> None:
        nonlocal outstanding
        try:
            record = await service.submit(req.spec)
            await service.wait(record)
        except AdmissionError as exc:
            req.refused = True
            req.error = str(exc)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            req.error = f"{type(exc).__name__}: {exc}"
        else:
            req.record = record
        finally:
            req.done = time.perf_counter()
            outstanding -= 1
        if req.record is not None:
            req.ok = check(req)

    start = time.perf_counter()
    for req in requests:
        req.due = start + req.offset
        delay = req.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        req.sent = time.perf_counter()
        req.backlog = outstanding
        outstanding += 1
        tasks.append(asyncio.create_task(one(req)))
    for task in tasks:
        await task


def phase_reports(requests: list[Request], rates, durations) -> list[PhaseReport]:
    reports = [PhaseReport(rate, duration) for rate, duration in zip(rates, durations)]
    for req in requests:
        report = reports[req.phase]
        report.sent += 1
        if req.ok:
            report.succeeded += 1
        else:
            report.failed += 1
        report.latencies.append(req.latency)
        report.lateness.append(req.lateness)
        report.backlog.append(req.backlog)
    return reports
