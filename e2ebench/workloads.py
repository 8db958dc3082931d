"""The four workloads, each run through the entry points users call.

``solve``, ``io_ranks2`` and ``virtual`` call
:func:`repro.core.execute.execute_job` with a :class:`JobSpec`, as
``grayscott run`` does; ``serve_mix`` drives an in-process
:class:`repro.serve.SimService`. Every workload

- builds its inputs from the workload seed alone,
- runs an untimed warm-up (``warm``) so lazy set-up is done before timing,
- runs user operations until a time budget is spent (``measure``), checking
  every output, and
- runs a fixed amount of work under the layer spans (``traced``), so that
  the counts of two traced runs can be compared exactly.

``probe`` is the workload's cold first call; ``run.py`` times it in a fresh
process for ``setup_s``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from host import NOMINAL_S, pin_to_one_cpu, reference_each_cpu, reference_seconds

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
#: the noise seed of ``solve`` and ``virtual`` is the workload seed modulo
#: this, so every run has a stored reference output (expected.json)
SHIPPED_SEEDS = 32
#: the Gray-Scott physics of examples/settings/gs-demo.json
PHYSICS = dict(Du=0.2, Dv=0.1, F=0.02, k=0.048, dt=1.0, noise=0.01, backend="julia")


def settings(**overrides):
    from repro.core.settings import GrayScottSettings

    return GrayScottSettings(**{**PHYSICS, **overrides})


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Measurement:
    """What one pass of a workload produced."""

    #: wall seconds of each user operation, in order (serve: from due)
    raw: list[float] = field(default_factory=list)
    #: the same, scaled to the nominal host speed (host.py): each batch
    #: operation by the readings around it, serve by the run's median reading
    latencies: list[float] = field(default_factory=list)
    #: reference-kernel walls taken during the pass
    host_refs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: cell updates per wall second of the solver work (modeled cells
    #: for ``virtual``), in millions
    mcell_steps_per_s: float = 0.0
    #: workload-specific figures (speed-up, rates, serve queue numbers)
    extras: dict = field(default_factory=dict)
    #: wall seconds of each unit of solver work, when not ``latencies``
    work_walls: list[float] | None = None
    #: units of work the traced pass normalizes per-layer totals by
    units: int = 1
    #: simulated ranks per unit
    nranks: int = 1
    #: threads whose attributed self time is shared out of ``share_wall``
    share_threads: tuple = ("MainThread",)
    share_wall: float = 0.0

    def add(self, latency: float, ok: bool, host_ref: float | None = None) -> None:
        self.raw.append(latency)
        if host_ref is not None:
            latency *= NOMINAL_S / host_ref
        self.latencies.append(latency)
        self.attempted += 1
        self.failed += 0 if ok else 1


def repeat(op, seconds: float, m: Measurement) -> None:
    """Run ``op() -> (wall, ok)`` until ``seconds`` have passed (at least
    once), timing the host reference kernel before, between and after the
    operations; each operation is scaled by the mean of the two readings
    around it."""
    deadline = time.perf_counter() + seconds
    m.host_refs.append(reference_seconds())
    while not m.raw or time.perf_counter() < deadline:
        wall, ok = op()
        m.host_refs.append(reference_seconds())
        m.add(wall, ok, (m.host_refs[-2] + m.host_refs[-1]) / 2)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _execute(spec):
    from repro.core.execute import execute_job

    return _timed(lambda: execute_job(spec))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


# -- output checks -----------------------------------------------------------


def field_digest(dataset) -> str:
    """sha256 over the final output step's U and V bytes (Fortran order)."""
    from repro.adios.engines import BP5Reader

    reader = BP5Reader(None, dataset)
    last = reader.steps("U")[-1]
    digest = hashlib.sha256()
    for var in ("U", "V"):
        digest.update(reader.read(var, step=last).tobytes(order="F"))
    return digest.hexdigest()


def check_digest(dataset, expected: str) -> bool:
    """The final fields hash to ``expected``; an unreadable file fails."""
    from repro.util.errors import ReproError

    try:
        return field_digest(dataset) == expected
    except (ReproError, OSError):
        return False


def check_same_steps(serial, parallel) -> bool:
    """Every output step of ``parallel`` is bitwise equal to ``serial``'s."""
    from repro.adios.engines import BP5Reader
    from repro.util.errors import ReproError

    try:
        a, b = BP5Reader(None, serial), BP5Reader(None, parallel)
        if a.steps("U") != b.steps("U") or a.scalar_series("step") != b.scalar_series("step"):
            return False
        for step in a.steps("U"):
            for var in ("U", "V"):
                x = a.read(var, step=step)
                y = b.read(var, step=step)
                if x.shape != y.shape or x.tobytes(order="F") != y.tobytes(order="F"):
                    return False
        return True
    except (ReproError, OSError):
        return False


def virtual_values(result) -> list:
    """The modeled outcome a virtual job is checked on."""
    v = result.virtual
    return [repr(float(v.elapsed_seconds)), int(v.events_processed)]


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    #: the public modules the workload's first call goes through
    entry_modules = ("repro.core.execute",)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def probe(self) -> dict:
        """The cold first call; returns extra set-up timings."""
        self.warm()
        return {}

    def warm(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def traced(self, seconds: float, tracing) -> Measurement:
        """A fixed amount of work, run inside ``with tracing():`` (which
        installs the layer spans); ``seconds`` bounds a time-driven pass."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Solve(Workload):
    """Serial compute-heavy run with few outputs: stencil + noise RNG."""

    name = "solve"
    L, STEPS, PLOTGAP = 40, 100, 100

    def __init__(self, seed, work):
        super().__init__(seed, work)
        noise_seed = seed % SHIPPED_SEEDS
        self.spec = self.spec_for(noise_seed, work)
        self.expected = load_expected()["solve"][str(noise_seed)]

    @classmethod
    def spec_for(cls, noise_seed: int, work: Path):
        from repro.core.execute import JobSpec

        return JobSpec(settings(
            L=cls.L, steps=cls.STEPS, plotgap=cls.PLOTGAP, seed=noise_seed,
            output=str(work / "solve.bp"),
        ))

    def warm(self):
        from repro.core.execute import JobSpec

        _execute(JobSpec(self.spec.settings.with_overrides(
            steps=1, plotgap=1, output=str(self.work / "warm.bp"))))

    def _op(self) -> tuple[float, bool]:
        _, wall = _execute(self.spec)
        return wall, check_digest(self.spec.settings.output, self.expected)

    def measure(self, seconds):
        m = Measurement()
        repeat(self._op, seconds, m)
        cells = self.L ** 3 * self.STEPS
        m.mcell_steps_per_s = cells / statistics.median(m.latencies) / 1e6
        return m

    def traced(self, seconds, tracing):
        m = Measurement(units=3)
        with tracing():
            for _ in range(m.units):
                wall, ok = self._op()
                m.add(wall, ok)
                m.share_wall += wall
        return m


class IoRanks2(Workload):
    """2-rank threaded run heavy on output; the serial run is the oracle."""

    name = "io_ranks2"
    L, STEPS, PLOTGAP = 32, 50, 1
    #: the serial run (baseline and oracle) goes before every this many
    #: timed 2-rank runs; its output is the same every time
    SERIAL_EVERY = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from repro.core.execute import JobSpec

        # both rank threads hand the interpreter lock over at every halo
        # exchange and barrier; on one CPU a hand-off does not wait for the
        # host to wake another vCPU (README.md, "Steadiness and host scaling")
        pin_to_one_cpu()
        base = settings(L=self.L, steps=self.STEPS, plotgap=self.PLOTGAP, seed=seed)
        self.serial = JobSpec(base.with_overrides(output=str(work / "serial.bp")))
        self.ranks2 = JobSpec(base.with_overrides(ranks=2, output=str(work / "ranks2.bp")))

    def warm(self):
        from repro.core.execute import JobSpec

        for spec in (self.serial, self.ranks2):
            _execute(JobSpec(spec.settings.with_overrides(
                steps=1, output=str(self.work / "warm.bp"))))

    def measure(self, seconds):
        m = Measurement(nranks=2)
        serial_walls = []

        def pair():
            if len(m.raw) % self.SERIAL_EVERY == 0:
                serial_walls.append(_execute(self.serial)[1])
            _, ranks2 = _execute(self.ranks2)
            return ranks2, check_same_steps(self.serial.settings.output,
                                            self.ranks2.settings.output)

        repeat(pair, seconds, m)
        m.mcell_steps_per_s = self.L ** 3 * self.STEPS / statistics.median(m.latencies) / 1e6
        m.extras["io.speedup_2r"] = statistics.median(serial_walls) / statistics.median(m.raw)
        return m

    def traced(self, seconds, tracing):
        # only the 2-rank runs are traced; the serial run stays the oracle
        m = Measurement(units=2, nranks=2, share_threads=("rank-0",))
        _execute(self.serial)
        for _ in range(m.units):
            with tracing():
                _, ranks2 = _execute(self.ranks2)
            m.add(ranks2, check_same_steps(self.serial.settings.output,
                                           self.ranks2.settings.output))
            m.share_wall += ranks2
        return m


class Virtual(Workload):
    """Two modeled jobs: vector tier at 16,384 ranks, NIC contention at 256."""

    name = "virtual"
    L, STEPS, PLOTGAP = 48, 100, 25
    VECTOR_RANKS, NIC_RANKS = 16384, 256

    def __init__(self, seed, work):
        super().__init__(seed, work)
        noise_seed = seed % SHIPPED_SEEDS
        self.vector, self.nic = self.specs_for(noise_seed)
        self.expected = load_expected()["virtual"][str(noise_seed)]

    @classmethod
    def specs_for(cls, noise_seed: int):
        """The vector-tier job and the NIC-contention job."""
        from repro.core.execute import JobSpec

        base = settings(L=cls.L, steps=cls.STEPS, plotgap=cls.PLOTGAP, seed=noise_seed)
        return (
            JobSpec(base, mode="virtual", virtual_ranks=cls.VECTOR_RANKS, overlap=True),
            JobSpec(base, mode="virtual", virtual_ranks=cls.NIC_RANKS, nic_contention=True),
        )

    def warm(self):
        from dataclasses import replace

        _execute(replace(self.vector, virtual_ranks=256))
        _execute(replace(self.nic, virtual_ranks=32))

    def _op(self, walls: dict) -> tuple[float, bool]:
        total, ok = 0.0, True
        for kind, spec in (("vector", self.vector), ("nic", self.nic)):
            result, wall = _execute(spec)
            walls.setdefault(kind, []).append(wall)
            ok = ok and virtual_values(result) == self.expected[kind]
            total += wall
        return total, ok

    def measure(self, seconds):
        m = Measurement()
        walls: dict = {}
        repeat(lambda: self._op(walls), seconds, m)
        modeled_cells = (self.VECTOR_RANKS + self.NIC_RANKS) * self.L ** 3 * self.STEPS
        m.mcell_steps_per_s = modeled_cells / statistics.median(m.latencies) / 1e6
        m.extras["virtual.rank_steps_per_s"] = (
            self.VECTOR_RANKS * self.STEPS / statistics.median(walls["vector"]))
        m.extras["virtual.nic_rank_steps_per_s"] = (
            self.NIC_RANKS * self.STEPS / statistics.median(walls["nic"]))
        return m

    def traced(self, seconds, tracing):
        m = Measurement(units=2)
        with tracing():
            for _ in range(m.units):
                wall, ok = self._op({})
                m.add(wall, ok)
                m.share_wall += wall
        return m


class ServeMix(Workload):
    """Open-loop traffic on an in-process ``SimService``: the repo's own
    serve mix (``repro.serve.loadgen``), a hot key answered from the store
    plus unique F/k variations of it that execute and are stored."""

    name = "serve_mix"
    entry_modules = ("repro.core.execute", "repro.serve")
    L, STEPS, PLOTGAP = 24, 10, 10
    #: share of requests that repeat the hot key: the hit fraction of the
    #: repo's serve mix (``loadgen.drive_load``, perfsuite ``serve_load``)
    HIT_FRACTION = 0.75
    #: every block of BLOCK sends holds exactly one unique job
    BLOCK = round(1 / (1 - HIT_FRACTION))
    #: requests per second of the three phases; the last is past saturation
    RATES = (8.0, 20.0, 200.0)
    #: share of a pass each phase lasts (the rest is drain time)
    SHARES = (0.1, 0.7, 0.1)
    #: the latency limit on the tail percentile, seconds
    LIMIT_S = 0.25
    #: windows of the middle phase, with reference readings between two
    WINDOWS = 24

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from spans import Patches, SpanRecorder

        self.rng = np.random.default_rng(seed)
        #: the hot key; unique jobs are generate_specs variations of it
        self.base = settings(L=self.L, steps=self.STEPS, plotgap=self.PLOTGAP,
                             seed=seed, output="serve.bp")
        self.hot = self._specs(1)[0]
        self._used = 0
        self.loop = asyncio.new_event_loop()
        self.service = None
        #: rendered bytes of each key's execution, and executions per key,
        #: keyed by the service's sandbox name (the key's first 16 digits)
        self.cold: dict[str, str] = {}
        self.executions: dict[str, int] = {}
        self._lock = threading.Lock()  # workers execute on two threads
        self._counting = Patches(SpanRecorder())
        self._counting.wrap("repro.serve.service:execute_and_render", None,
                            self._on_execute)

    def _on_execute(self, rec, args, kwargs, result):
        stem = Path(args[0].settings.output).stem
        with self._lock:
            self.executions[stem] = self.executions.get(stem, 0) + 1
            self.cold.setdefault(stem, result["rendered"])

    def _specs(self, count: int) -> list:
        from repro.serve.loadgen import generate_specs

        return generate_specs(self.base, count)

    def _uniques(self, count: int) -> list:
        """The next ``count`` variations of the hot key, never reused."""
        first = self._used + 1
        self._used += count
        return self._specs(self._used + 1)[first:]

    def _start(self) -> float:
        from repro.serve import SimService

        self.service = SimService(
            backend="thread", workers=workers(), max_pending=10**6,
            cache_capacity=10**6, workdir=str(self.work / "serve"),
        )
        _, wall = _timed(lambda: self.loop.run_until_complete(self.service.start()))
        return wall

    def probe(self):
        start = self._start()
        self.loop.run_until_complete(self.service.run(self._uniques(1)[0]))
        return {"service_start_s": start}

    def warm(self):
        self._start()
        self.loop.run_until_complete(self.service.run(self.hot))

    def _check(self, req) -> bool:
        record = req.record
        if not record.ok or record.rendered != self.cold.get(record.key[:16]):
            return False
        if record.cached or record.coalesced:
            return True
        return record.result.report.steps_run == self.STEPS

    def _requests(self, schedule) -> list:
        """Requests for ``(phase, offset)`` sends: each block of BLOCK
        consecutive sends holds exactly one unique job at a seeded position,
        so the mix is random but never bunched."""
        from openloop import Request

        unique = np.zeros(len(schedule), dtype=bool)
        starts = np.arange(0, len(schedule), self.BLOCK)
        picks = starts + self.rng.integers(self.BLOCK, size=len(starts))
        unique[picks[picks < len(schedule)]] = True
        jobs = iter(self._uniques(int(unique.sum())))
        return [Request(phase, offset, next(jobs) if is_unique else self.hot)
                for (phase, offset), is_unique in zip(schedule, unique)]

    def _drive(self, requests) -> None:
        from openloop import drive

        self.loop.run_until_complete(drive(self.service, requests, check=self._check))

    def _ladder(self, seconds, m: Measurement):
        """The three phases. The middle one runs as WINDOWS back-to-back
        open-loop windows with reference readings on each CPU before,
        between and after them, taken while the service is idle; its
        latencies are scaled by the median of those readings (host.py)."""
        from openloop import paced_schedule, phase_reports

        durations = [seconds * share for share in self.SHARES]
        before = self._repeats()
        first = self._requests(paced_schedule(self.rng, self.RATES[:1], durations[:1]))
        self._drive(first)
        middle = []
        m.host_refs.extend(reference_each_cpu())
        for _ in range(self.WINDOWS):
            reqs = self._requests([(1, offset) for _, offset in paced_schedule(
                self.rng, self.RATES[1:2], [durations[1] / self.WINDOWS])])
            self._drive(reqs)
            m.host_refs.extend(reference_each_cpu())
            middle += reqs
        m.raw = [req.latency for req in middle]
        scale = NOMINAL_S / statistics.median(m.host_refs)
        m.latencies = [latency * scale for latency in m.raw]
        last = self._requests([(2, offset) for _, offset in paced_schedule(
            self.rng, self.RATES[2:], durations[2:])])
        self._drive(last)
        requests = first + middle + last
        return requests, phase_reports(requests, self.RATES, durations), \
            self._repeats() - before

    def _repeats(self) -> int:
        """Executions beyond the first of any key (each one a failure)."""
        return sum(n - 1 for n in self.executions.values())

    def _measurement(self, m, requests, phases, repeats) -> Measurement:
        mid = phases[1]
        m.attempted = len(requests)
        m.failed = sum(not req.ok for req in requests) + repeats
        ran = [req for req in requests if req.ok
               and not req.record.cached and not req.record.coalesced]
        executed = [req.record for req in ran]
        exec_walls = [r.finished_at - r.started_at for r in executed]
        # at the middle rate, like p50_ms: past saturation the two workers
        # contend for the interpreter lock and every execution slows down
        mid_walls = [req.record.finished_at - req.record.started_at
                     for req in ran if req.phase == 1]
        if mid_walls:
            m.mcell_steps_per_s = (self.L ** 3 * self.STEPS
                                   / float(np.median(mid_walls)) / 1e6)
        m.work_walls = exec_walls
        # a failed or refused request misses the limit whatever its time
        m.extras["serve.goodput_rps"] = sum(
            req.ok and req.latency <= self.LIMIT_S
            for req in requests if req.phase == 1) / mid.duration
        max_rate = 0.0
        for i, phase in enumerate(phases):
            growing = phase.backlog_growing(2 * workers())
            q, tail_s = tail(phase.latencies)
            if phase.failed == 0 and tail_s <= self.LIMIT_S and not growing:
                max_rate = phase.rate
            m.extras.update({
                f"phase{i}.rate_rps": phase.rate,
                f"phase{i}.sent": phase.sent,
                f"phase{i}.succeeded": phase.succeeded,
                f"phase{i}.failed": phase.failed,
                f"phase{i}.p50_ms": 1e3 * float(np.median(phase.latencies or [0.0])),
                f"phase{i}.p{q:g}_ms": 1e3 * tail_s,
                f"phase{i}.lateness_ms_p99": 1e3 * float(
                    np.percentile(phase.lateness or [0.0], 99)),
                f"phase{i}.backlog_max": max(phase.backlog, default=0),
                f"phase{i}.backlog_growing": float(growing),
            })
        m.extras["serve.max_rate_rps"] = max_rate
        m.units = max(1, len(executed))
        m.share_threads = tuple(f"serve-worker_{i}" for i in range(workers()))
        m.share_wall = sum(exec_walls)
        queue = [1e3 * (r.started_at - r.submitted_at) for r in executed] or [0.0]
        m.extras.update({
            "serve.queue_wait_ms_p50": float(np.percentile(queue, 50)),
            "serve.queue_wait_ms_p99": float(np.percentile(queue, 99)),
            "serve.exec_ms_p50": 1e3 * float(np.median(exec_walls)) if exec_walls else 0.0,
            "serve.hit_ratio": sum(bool(req.record and req.record.cached)
                                   for req in requests) / max(1, len(requests)),
            "serve.coalesced": sum(bool(req.record and req.record.coalesced)
                                   for req in requests),
            "serve.rejected": sum(req.refused for req in requests),
            "serve.backlog_max": max((req.backlog for req in requests), default=0),
            "loadgen.lag_ms_p99": 1e3 * float(np.percentile(
                [req.lateness for req in requests], 99)) if requests else 0.0,
        })
        return m

    def measure(self, seconds):
        m = Measurement()
        return self._measurement(m, *self._ladder(seconds, m))

    def traced(self, seconds, tracing):
        m = Measurement()
        with tracing():
            ladder = self._ladder(seconds, m)
        return self._measurement(m, *ladder)

    def close(self):
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
        self.loop.close()
        self._counting.restore()
        shutil.rmtree(self.work / "serve", ignore_errors=True)


def tail(samples) -> tuple[float, float]:
    """(q, value): the highest of the 99.9/99/95/90th percentiles with at
    least 25 samples beyond it, so that a few slow operations cannot set
    it alone; the 75th when fewer than 250 samples."""
    samples = list(samples)
    if not samples:
        return 75.0, 0.0
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1 - q / 100) >= 25:
            break
    return q, float(np.percentile(samples, q, method="higher"))


WORKLOADS = {w.name: w for w in (Solve, IoRanks2, ServeMix, Virtual)}
