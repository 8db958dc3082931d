"""Self-performance suite: timings for the repo's own hot paths.

The figure benchmarks measure the *modeled* machine; this suite
measures the *simulator*. Each case times one optimization shipped by
the perf pass against its retained reference implementation, checking
bit-identity where a reference exists:

- ``cache_sweep`` — :meth:`repro.gpu.cache.TraceCacheSim.multi_sweep`
  vector engine vs. the retained scalar loop (identical counters);
- ``jit_trace_memo`` — :func:`repro.gpu.jit.memoized_trace` vs. a cold
  :func:`repro.gpu.jit.trace_kernel` per launch (identical traces);
- ``pack_unpack`` — :func:`repro.mpi.datatypes.pack`/``unpack`` strided
  view vs. the retained gather path (identical wire bytes);
- ``io_bp5`` — :func:`repro.adios.bp5.append_blocks` batched writev of
  zero-copy :func:`~repro.adios.bp5.block_payload` views vs. a
  per-block ``tobytes`` + open-and-append reference kept inside the
  case (identical file bytes, offsets, and CRCs);
- ``par_speedup`` — the Fig. 6 rank ladder through
  :func:`repro.par.run_tasks` at ``--jobs 2`` vs. serial (identical
  points; the speedup is the process-parallel win on multi-core CI);
- ``sched_engine`` — a virtual-SPMD overlap run; no slow engine is
  retained, so the case reports absolute throughput plus a
  machine-normalized event rate for the regression gate;
- ``vspmd`` — the vector epoch-queue tier of
  :class:`repro.core.virtual.VirtualWorkflow` vs. the retained scalar
  event-heap tier on the same overlap run (identical reductions,
  barrier recurrence, and per-rank finish times), gated against the
  *absolute* ``min_rate_speedup`` (5.0x): the NumPy epoch engine must
  stay at least 5x above the scalar reference's event rate — the
  million-rank contract, not a host-relative floor;
- ``trace_streaming`` — the bounded-memory streaming sink
  (:mod:`repro.observe.stream`): raw spans/sec through a
  ``ShardedPerfettoWriter`` (machine-normalized for the rate gate),
  plus the tracing overhead of streaming the real solver workflow vs.
  the untraced run — gated against the *absolute* ``overhead_limit``
  (1.10x) rather than a derated baseline, because "streaming tracing
  costs <= 10%" is the contract, not a host-relative floor;
- ``ir_passes`` — the stencil-IR rewrite pipeline
  (:class:`repro.ir.passes.PassManager` over the traced workflow
  module): pipeline wall time plus the dimensionless op-count
  reduction ratios the passes deliver, with the pass-legality contract
  checked as bit-identity of :func:`repro.ir.interp.evaluate_module`
  before vs. after rewriting;
- ``serve_load`` — the cached service (:mod:`repro.serve`) under a
  synthetic concurrent-client mix: saturation throughput
  (machine-normalized for the rate gate) plus hit/miss latency
  p50/p99, gated against the *absolute*
  ``hit_miss_p99_limit`` (0.10): a cache hit's tail latency must stay
  at least 10x below a cache miss's — the service contract, not a
  host-relative floor;
- ``native_step`` — the fused native Gray-Scott step
  (:mod:`repro.core.native`, through ``step_vectorized``) vs. its NumPy
  body :func:`repro.core.stencil.step_numpy` (identical field bytes),
  gated against the *absolute* ``min_speedup`` (3.0x): the native tier
  must stay at least 3x faster than NumPy, or it does not pay for the
  compiler it needs;
- ``jit_warm`` — the persistent compilation cache
  (:mod:`repro.gpu.jitcache`): first-launch latency over distinct
  kernel specializations in a cold process (full trace) vs. a
  warm-started one (plans preloaded from disk), gated against the
  *absolute* ``warm_cold_limit`` (0.20): a warm first launch's p50
  must stay at least 5x below a cold one's — the warm-start contract
  (the Fig. 7 gap, closed) — with bit-identity of every persisted
  plan against a fresh trace.

``run_suite`` returns a :class:`SuiteResult`; ``to_json`` produces the
schema-stable payload written to ``BENCH_selfperf.json`` (schema id
:data:`SCHEMA`); ``check_regressions`` compares a run against the
committed baseline and reports anything >25% worse. The CLI wrapper is
``benchmarks/bench_selfperf.py``; CI runs it with ``--quick --check``.

Machine normalization: raw seconds are not comparable across CI hosts,
so the gate only consumes dimensionless quantities — optimized-vs-
reference speedups, and event rates divided by ``loop_score`` (the
host's measured pure-Python loop throughput in Miter/s).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

#: schema identifier written to (and required of) BENCH_selfperf.json
SCHEMA = "repro.bench.selfperf/1"

#: regression tolerance of :func:`check_regressions` (fractional)
TOLERANCE = 0.25


@dataclass
class CaseResult:
    """One hot path's before/after timing."""

    name: str
    optimized_seconds: float
    #: retained slow-path timing; None when no reference is kept
    reference_seconds: float | None
    #: True when optimized and reference outputs were bit-identical,
    #: None for cases without a comparable reference output
    identical: bool | None
    metrics: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float | None:
        if self.reference_seconds is None or self.optimized_seconds <= 0:
            return None
        return self.reference_seconds / self.optimized_seconds


@dataclass
class SuiteResult:
    quick: bool
    #: pure-Python loop throughput of this host (Miter/s) — divides
    #: absolute rates into machine-normalized ones for the gate
    loop_score: float
    cases: list[CaseResult]

    def case(self, name: str) -> CaseResult:
        for c in self.cases:
            if c.name == name:
                return c
        raise KeyError(name)


def _measure_loop_score() -> float:
    """Millions of trivial loop iterations per second on this host."""
    n = 2_000_000
    t0 = time.perf_counter()
    s = 0
    for i in range(n):
        s += i
    dt = time.perf_counter() - t0
    return n / dt / 1e6


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- cases -------------------------------------------------------------------


def _case_cache_sweep(quick: bool) -> CaseResult:
    from repro.gpu.cache import TraceCacheSim
    from repro.gpu.proxy import kernel_access_pattern

    L = 40 if quick else 192
    shape = (L, L, L)
    loads, stores = kernel_access_pattern(2)
    capacity = 8 * 1024 * 1024  # the MI250x GCD's 8 MiB TCC

    def run(engine: str):
        sim = TraceCacheSim(capacity)
        est = sim.multi_sweep(shape, 8, loads, stores, engine=engine)
        return est, sim.hits, sim.misses

    t0 = time.perf_counter()
    vec_est, vec_hits, vec_misses = run("vector")
    vec_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref_est, ref_hits, ref_misses = run("scalar")
    ref_s = time.perf_counter() - t0

    identical = (
        vec_est == ref_est and vec_hits == ref_hits and vec_misses == ref_misses
    )
    return CaseResult(
        name="cache_sweep",
        optimized_seconds=vec_s,
        reference_seconds=ref_s,
        identical=identical,
        metrics={
            "L": L,
            "fetch_bytes": vec_est.fetch_bytes,
            "write_bytes": vec_est.write_bytes,
            "tcc_hits": vec_est.tcc_hits,
            "tcc_misses": vec_est.tcc_misses,
        },
    )


def _case_jit_trace_memo(quick: bool) -> CaseResult:
    from repro.core.stencil import kernel_args, make_gray_scott_kernel
    from repro.core.settings import GrayScottSettings
    from repro.gpu.jit import TraceMemo, trace_kernel

    settings = GrayScottSettings(L=16, backend="julia")
    shape = (12, 12, 12)
    u, v = (np.ones(shape, order="F") for _ in range(2))
    u_new, v_new = (np.zeros(shape, order="F") for _ in range(2))
    kernel = make_gray_scott_kernel()
    args = kernel_args(u, v, u_new, v_new, settings.params(), seed=1, step=0)
    launches = 50 if quick else 100
    memo = TraceMemo()
    ref_trace = trace_kernel(kernel, args)
    memo_trace = memo.trace(kernel, args)  # prime: first launch traces

    def ref_batch():
        for _ in range(launches):
            trace_kernel(kernel, args)

    def memo_batch():
        for _ in range(launches):
            memo.trace(kernel, args)

    # interleaved best-of-3: the memo batch is sub-millisecond, so a
    # single pass is at the mercy of scheduler noise
    opt_s = ref_s = float("inf")
    for _ in range(3):
        opt_s = min(opt_s, _best_of(memo_batch, 1))
        ref_s = min(ref_s, _best_of(ref_batch, 1))

    identical = (
        ref_trace.ir_lines == memo_trace.ir_lines
        and ref_trace.flops == memo_trace.flops
    )
    return CaseResult(
        name="jit_trace_memo",
        optimized_seconds=opt_s,
        reference_seconds=ref_s,
        identical=identical,
        metrics={
            "launches": launches,
            "memo_hits": memo.hits,
            "memo_misses": memo.misses,
        },
    )


def _case_pack_unpack(quick: bool) -> CaseResult:
    from repro.mpi.datatypes import VectorDatatype, pack, unpack

    n = 96 if quick else 128
    rng = np.random.default_rng(2023)
    arr = np.asfortranarray(rng.random((n, n, n)))
    face = VectorDatatype(n, n, n * n).commit()  # one y-z ghost face
    repeats = 100 if quick else 200

    out = np.zeros_like(arr)

    def roundtrip(mode: str):
        wire = pack(arr, face, offset_elements=1, mode=mode)
        unpack(out, face, wire, offset_elements=1, mode=mode)
        return wire

    def batch(mode: str):
        for _ in range(repeats):
            roundtrip(mode)

    # interleaved best-of-5 batches: quick-mode iterations are tens of
    # microseconds, so a single pass is at the mercy of CPU frequency
    # and scheduler noise
    wire_s = roundtrip("strided")
    out_s = out.copy()
    out[:] = 0.0
    wire_g = roundtrip("gather")
    identical = (
        wire_s.tobytes() == wire_g.tobytes()
        and out_s.tobytes() == out.tobytes()
    )
    opt_s = ref_s = float("inf")
    for _ in range(5):
        opt_s = min(opt_s, _best_of(lambda: batch("strided"), 1))
        ref_s = min(ref_s, _best_of(lambda: batch("gather"), 1))
    return CaseResult(
        name="pack_unpack",
        optimized_seconds=opt_s,
        reference_seconds=ref_s,
        identical=identical,
        metrics={"n": n, "repeats": repeats, "wire_bytes": wire_s.nbytes},
    )


def _case_io_bp5(quick: bool) -> CaseResult:
    import tempfile
    import zlib
    from pathlib import Path

    from repro.adios import bp5

    nblocks = 64 if quick else 128
    edge = 16 if quick else 32
    rng = np.random.default_rng(7)
    blocks = [
        np.asfortranarray(rng.random((edge, edge, edge)))
        for _ in range(nblocks)
    ]

    def fast(root: Path):
        payloads, crcs = [], []
        for b in blocks:
            payload, crc = bp5.block_payload(b)
            payloads.append(payload)
            crcs.append(crc)
        return bp5.append_blocks(root, 0, payloads), crcs

    def append_block(root: Path, payload) -> int:
        with open(root / "data.0", "ab") as fh:
            offset = fh.tell()
            fh.write(payload)
        return offset

    def ref(root: Path):
        # the per-block reference: one tobytes copy and one
        # open+write syscall pair per block
        offsets, crcs = [], []
        for b in blocks:
            payload = b.tobytes(order="F")
            crcs.append(zlib.crc32(payload) & 0xFFFFFFFF)
            offsets.append(append_block(root, payload))
        return offsets, crcs

    repeats = 3 if quick else 5
    opt_s = ref_s = float("inf")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats):
            fast_root = Path(tmp) / f"fast{i}.bp"
            ref_root = Path(tmp) / f"ref{i}.bp"
            bp5.create_dataset(fast_root, 1)
            bp5.create_dataset(ref_root, 1)
            t0 = time.perf_counter()
            fast_offsets, fast_crcs = fast(fast_root)
            opt_s = min(opt_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            ref_offsets, ref_crcs = ref(ref_root)
            ref_s = min(ref_s, time.perf_counter() - t0)
            identical = identical and (
                fast_offsets == ref_offsets
                and fast_crcs == ref_crcs
                and (fast_root / "data.0").read_bytes()
                == (ref_root / "data.0").read_bytes()
            )
    return CaseResult(
        name="io_bp5",
        optimized_seconds=opt_s,
        reference_seconds=ref_s,
        identical=identical,
        metrics={
            "blocks": nblocks,
            "block_bytes": blocks[0].nbytes,
            "step_bytes": nblocks * blocks[0].nbytes,
        },
    )


def _case_par_speedup(quick: bool) -> CaseResult:
    from repro.bench import fig6

    ranks = (1, 8, 64, 512) if quick else (1, 8, 64, 512, 4096)
    steps = 10 if quick else 20
    jobs = 2

    t0 = time.perf_counter()
    serial = fig6.run_frontier(steps=steps, ranks=ranks)
    ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = fig6.run_frontier(steps=steps, ranks=ranks, jobs=jobs)
    opt_s = time.perf_counter() - t0

    identical = len(serial) == len(par) and all(
        a.nranks == b.nranks
        and a.steps == b.steps
        and np.array_equal(a.rank_seconds, b.rank_seconds)
        and a.kernel_seconds_per_step == b.kernel_seconds_per_step
        and a.comm_seconds_mean == b.comm_seconds_mean
        for a, b in zip(serial, par)
    )
    return CaseResult(
        name="par_speedup",
        optimized_seconds=opt_s,
        reference_seconds=ref_s,
        identical=identical,
        metrics={"ladder": list(ranks), "steps": steps, "jobs": jobs},
    )


def _case_sched_engine(quick: bool, loop_score: float) -> CaseResult:
    from repro.core.settings import GrayScottSettings
    from repro.core.virtual import VirtualWorkflow

    nranks = 1024 if quick else 16384
    settings = GrayScottSettings(
        L=64, steps=10 if quick else 20, plotgap=5 if quick else 10,
        backend="julia",
    )
    t0 = time.perf_counter()
    result = VirtualWorkflow(settings, nranks=nranks, overlap=True).run()
    wall = time.perf_counter() - t0
    events_per_second = result.events_processed / wall
    return CaseResult(
        name="sched_engine",
        optimized_seconds=wall,
        reference_seconds=None,
        identical=None,
        metrics={
            "virtual_ranks": nranks,
            "events": result.events_processed,
            "events_per_second": events_per_second,
            # dimensionless: engine events per plain-Python loop
            # iteration — comparable across differently-clocked hosts
            "normalized_rate": events_per_second / (loop_score * 1e6),
            "modeled_elapsed_seconds": result.elapsed_seconds,
        },
    )


#: absolute floor on the vspmd vector-vs-scalar event-rate speedup
#: (the epoch-queue tier must process events >= 5x faster than the
#: retained scalar heap) enforced by :func:`check_regressions`
MIN_RATE_SPEEDUP = 5.0


def _case_vspmd(quick: bool, loop_score: float) -> CaseResult:
    from repro.core.settings import GrayScottSettings
    from repro.core.virtual import VirtualWorkflow

    nranks = 2048 if quick else 16384
    settings = GrayScottSettings(
        L=64, steps=10 if quick else 20, plotgap=5 if quick else 10,
        backend="julia",
    )

    def run(engine: str):
        t0 = time.perf_counter()
        result = VirtualWorkflow(
            settings, nranks=nranks, overlap=True, engine=engine,
        ).run()
        return result, time.perf_counter() - t0

    vec, opt_s = run("vector")
    ref, ref_s = run("scalar")

    # the tier contract: identical reductions, barrier recurrence, and
    # per-rank finish times — events_processed legitimately differs
    # (the vector tier retires whole epochs per rank, the scalar heap
    # one delay at a time)
    identical = (
        vec.elapsed_seconds == ref.elapsed_seconds
        and np.array_equal(vec.rank_finish_seconds, ref.rank_finish_seconds)
        and vec.results == ref.results
        and vec.collectives_per_rank == ref.collectives_per_rank
    )
    vec_rate = vec.events_processed / opt_s
    ref_rate = ref.events_processed / ref_s
    return CaseResult(
        name="vspmd",
        optimized_seconds=opt_s,
        reference_seconds=ref_s,
        identical=identical,
        metrics={
            "virtual_ranks": nranks,
            "events": vec.events_processed,
            "reference_events": ref.events_processed,
            "events_per_second": vec_rate,
            # dimensionless: engine events per plain-Python loop
            # iteration — comparable across differently-clocked hosts
            "normalized_rate": vec_rate / (loop_score * 1e6),
            "rate_speedup": vec_rate / ref_rate,
            "min_rate_speedup": MIN_RATE_SPEEDUP,
        },
    )


#: absolute ceiling on streaming-tracing overhead (traced / untraced
#: wall time of the smoke workflow) enforced by :func:`check_regressions`
OVERHEAD_LIMIT = 1.10


def _case_trace_streaming(quick: bool, loop_score: float) -> CaseResult:
    import tempfile
    from pathlib import Path

    from repro.core.settings import GrayScottSettings
    from repro.core.workflow import Workflow
    from repro.observe import trace as observe
    from repro.observe.stream import ShardedPerfettoWriter
    from repro.observe.trace import SIM, Tracer

    # raw sink throughput: a synthetic span pump straight through the
    # tracer into rotating shards (retain=False, so this measures the
    # streaming path itself, not list growth)
    nspans = 20_000 if quick else 100_000
    with tempfile.TemporaryDirectory() as tmp:
        sink = ShardedPerfettoWriter(
            Path(tmp) / "pump", flush_threshold=4096, shard_spans=32768
        )
        tracer = Tracer(sinks=[sink], retain=False)
        add_span = tracer.add_span
        t0 = time.perf_counter()
        for i in range(nspans):
            add_span(
                "pump", cat="core", clock=SIM, process=f"p{i & 7}",
                thread="core", start=float(i), seconds=1.0,
                args={"i": i & 15},
            )
        tracer.close()
        pump_s = time.perf_counter() - t0
        max_buffered = sink.max_buffered
        shards = len(sink._entries)
    spans_per_second = nspans / pump_s

    # tracing overhead on the real (compute-dominated) solver workflow
    # — the smoke workload of the <=10% acceptance gate
    with tempfile.TemporaryDirectory() as tmp:
        settings = GrayScottSettings(
            L=48 if quick else 64,
            steps=24 if quick else 32,
            plotgap=4,
            output=str(Path(tmp) / "bench.bp"),
        )
        runs = [0]

        def untraced():
            Workflow(settings).run()

        def traced():
            runs[0] += 1
            stream = ShardedPerfettoWriter(Path(tmp) / f"t{runs[0]}")
            with observe.session(Tracer(sinks=[stream], retain=False)) as tr:
                Workflow(settings).run()
                tr.close()

        # interleaved best-of: both paths see the same cache/frequency
        # conditions, so the ratio is not biased by measurement order
        ref_s = opt_s = float("inf")
        for _ in range(3):
            ref_s = min(ref_s, _best_of(untraced, 1))
            opt_s = min(opt_s, _best_of(traced, 1))
    return CaseResult(
        name="trace_streaming",
        optimized_seconds=pump_s,
        reference_seconds=None,
        identical=None,
        metrics={
            "spans": nspans,
            "spans_per_second": spans_per_second,
            # dimensionless: streamed spans per plain-Python loop
            # iteration — comparable across differently-clocked hosts
            "normalized_rate": spans_per_second / (loop_score * 1e6),
            "max_buffered": max_buffered,
            "shards": shards,
            "untraced_seconds": ref_s,
            "traced_seconds": opt_s,
            "overhead_ratio": opt_s / ref_s,
            "overhead_limit": OVERHEAD_LIMIT,
        },
    )


def _case_ir_passes(quick: bool) -> CaseResult:
    from repro.ir.build import workflow_module
    from repro.ir.interp import evaluate_module
    from repro.ir.passes import PassManager

    extent = 6  # evaluator-friendly domain; the trace is extent-invariant
    module = workflow_module(extent=extent)
    rewritten, _ = PassManager().run(module)
    repeats = 10 if quick else 30
    pipeline_s = _best_of(lambda: PassManager().run(module), repeats)

    # the pass-legality contract: evaluating the rewritten module over
    # the same inputs must reproduce every output array bit for bit
    rng = np.random.default_rng(11)
    shape = (extent,) * 3
    base = {
        "u": np.asfortranarray(rng.random(shape)),
        "v": np.asfortranarray(rng.random(shape)),
        "u_new": np.zeros(shape, order="F"),
        "v_new": np.zeros(shape, order="F"),
        "lap": np.zeros(shape, order="F"),
    }
    reference = {k: a.copy(order="F") for k, a in base.items()}
    optimized = {k: a.copy(order="F") for k, a in base.items()}
    evaluate_module(module, reference)
    evaluate_module(rewritten, optimized)
    identical = all(
        np.array_equal(reference[name], optimized[name]) for name in base
    )

    before, after = module.op_counts(), rewritten.op_counts()
    return CaseResult(
        name="ir_passes",
        optimized_seconds=pipeline_s,
        reference_seconds=None,
        identical=identical,
        metrics={
            "funcs_before": 2,
            "funcs_after": len(rewritten.funcs),
            "load_ops_before": before["load"],
            "load_ops_after": after["load"],
            # dimensionless reduction ratios — comparable across hosts
            "load_reduction": 1.0 - after["load"] / before["load"],
            "arith_reduction": 1.0 - after["arith"] / before["arith"],
        },
    )


#: absolute ceiling on the serve_load hit/miss p99 ratio (cache hits
#: must stay >= 10x faster at the tail) enforced by
#: :func:`check_regressions`
HIT_MISS_P99_LIMIT = 0.10


def _case_serve_load(quick: bool, loop_score: float) -> CaseResult:
    import tempfile
    from pathlib import Path

    from repro.core.settings import GrayScottSettings
    from repro.serve.loadgen import run_load

    clients = 8 if quick else 16
    requests = 6 if quick else 12
    with tempfile.TemporaryDirectory() as tmp:
        settings = GrayScottSettings(
            L=16, steps=6, plotgap=3,
            output=str(Path(tmp) / "serve.bp"),
        )
        t0 = time.perf_counter()
        report, _ = run_load(
            settings,
            clients=clients,
            requests=requests,
            hit_fraction=0.75,
            workers=2,
            backend="thread",
            workdir=str(Path(tmp) / "jobs"),
        )
        wall = time.perf_counter() - t0
    return CaseResult(
        name="serve_load",
        optimized_seconds=wall,
        reference_seconds=None,
        identical=None,
        metrics={
            "clients": clients,
            "requests_per_client": requests,
            "completed": report.completed,
            "failed": report.failed,
            "cache_hits": report.cache_hits,
            "coalesced": report.coalesced,
            "jobs_per_second": report.throughput,
            # dimensionless: service answers per plain-Python loop
            # iteration — comparable across differently-clocked hosts
            "normalized_rate": report.throughput / (loop_score * 1e6),
            "hit_p50_seconds": report.hit_p50,
            "hit_p99_seconds": report.hit_p99,
            "miss_p50_seconds": report.miss_p50,
            "miss_p99_seconds": report.miss_p99,
            "hit_miss_p99_ratio": report.hit_miss_p99_ratio,
            "hit_miss_p99_limit": HIT_MISS_P99_LIMIT,
        },
    )


#: absolute ceiling on the jit_warm warm/cold first-launch p50 ratio
#: (warm starts from the persistent cache must answer first launches
#: >= 5x faster than cold traces) enforced by :func:`check_regressions`
WARM_COLD_LIMIT = 0.20


def _case_jit_warm(quick: bool) -> CaseResult:
    import tempfile

    from repro.core.settings import GrayScottSettings
    from repro.core.stencil import kernel_args, make_gray_scott_kernel
    from repro.gpu import jitcache
    from repro.gpu.jit import TraceMemo, trace_kernel

    settings = GrayScottSettings(L=16, backend="julia")
    kernel = make_gray_scott_kernel()
    edges = range(8, 14) if quick else range(8, 24)
    arg_sets = []
    for edge in edges:
        shape = (edge,) * 3
        u, v = (np.ones(shape, order="F") for _ in range(2))
        u_new, v_new = (np.zeros(shape, order="F") for _ in range(2))
        arg_sets.append(
            kernel_args(u, v, u_new, v_new, settings.params(), seed=1, step=0)
        )

    def first_launches(memo: TraceMemo) -> list[float]:
        times = []
        for args in arg_sets:
            t0 = time.perf_counter()
            memo.trace(kernel, args)
            times.append(time.perf_counter() - t0)
        return times

    repeats = 3
    with tempfile.TemporaryDirectory() as tmp:
        # cold: a fresh process traces every specialization on first
        # launch (no disk tier attached — pure trace cost)
        cold_times = np.full(len(arg_sets), np.inf)
        for _ in range(repeats):
            cold_times = np.minimum(
                cold_times, first_launches(TraceMemo())
            )

        # persist every plan, as `run --jit-cache` would have
        seed_memo = TraceMemo()
        cache = jitcache.JitDiskCache(tmp)
        for args in arg_sets:
            key = seed_memo.signature(kernel, args, None)
            cache.store(key, kernel, seed_memo.trace(kernel, args))

        # warm: a fresh memo preloaded from the persisted plans — the
        # first launch of every specialization is already a memo hit
        warm_times = np.full(len(arg_sets), np.inf)
        warm_memo = TraceMemo()
        for _ in range(repeats):
            warm_memo = TraceMemo()
            preloaded = jitcache.warm_start(tmp, memo=warm_memo)["preloaded"]
            warm_times = np.minimum(
                warm_times, first_launches(warm_memo)
            )
        jitcache.deconfigure(memo=warm_memo)

        # bit-identity: every warm answer is byte for byte the plan a
        # fresh trace of the same specialization produces
        identical = all(
            jitcache.serialize_trace(warm_memo.trace(kernel, args))
            == jitcache.serialize_trace(trace_kernel(kernel, args))
            for args in arg_sets
        )

    cold_p50 = float(np.percentile(cold_times, 50))
    warm_p50 = float(np.percentile(warm_times, 50))
    return CaseResult(
        name="jit_warm",
        optimized_seconds=float(warm_times.sum()),
        reference_seconds=float(cold_times.sum()),
        identical=identical,
        metrics={
            "shape_classes": len(arg_sets),
            "preloaded": preloaded,
            "warm_memo_hits": warm_memo.hits,
            "cold_p50_seconds": cold_p50,
            "warm_p50_seconds": warm_p50,
            "warm_cold_ratio": warm_p50 / cold_p50,
            "warm_cold_limit": WARM_COLD_LIMIT,
        },
    )


#: absolute floor on the native step's speedup over the NumPy step,
#: enforced by :func:`check_regressions` (no derate, no tolerance)
MIN_NATIVE_SPEEDUP = 3.0


def _case_native_step(quick: bool) -> CaseResult:
    from repro.core.params import GrayScottParams
    from repro.core.stencil import native_step, step_numpy, step_vectorized

    L = 48 if quick else 128
    steps = 10 if quick else 4
    shape = (L + 2,) * 3
    rng = np.random.default_rng(7)
    u, v = (np.asfortranarray(rng.random(shape)) for _ in range(2))
    params = GrayScottParams(noise=0.01)
    outputs = {}

    def batch(step_fn):
        out = [np.zeros(shape, order="F") for _ in range(2)]
        for step in range(steps):
            step_fn(u, v, *out, params, seed=3, step=step, global_start=(0, 0, 0))
        outputs[step_fn.__name__] = out

    batch(step_vectorized)  # first use builds or loads the library
    opt_s = ref_s = float("inf")
    for _ in range(3):
        opt_s = min(opt_s, _best_of(lambda: batch(step_vectorized), 1))
        ref_s = min(ref_s, _best_of(lambda: batch(step_numpy), 1))
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(outputs["step_vectorized"], outputs["step_numpy"])
    )
    return CaseResult(
        name="native_step",
        optimized_seconds=opt_s / steps,
        reference_seconds=ref_s / steps,
        identical=identical,
        metrics={
            "L": L,
            "native": native_step.available(),
            "min_speedup": MIN_NATIVE_SPEEDUP,
        },
    )


def run_suite(*, quick: bool = False) -> SuiteResult:
    """Run all hot-path cases; ``quick`` shrinks sizes to CI scale."""
    loop_score = _measure_loop_score()
    cases = [
        _case_cache_sweep(quick),
        _case_jit_trace_memo(quick),
        _case_pack_unpack(quick),
        _case_io_bp5(quick),
        _case_par_speedup(quick),
        _case_sched_engine(quick, loop_score),
        _case_vspmd(quick, loop_score),
        _case_trace_streaming(quick, loop_score),
        _case_ir_passes(quick),
        _case_serve_load(quick, loop_score),
        _case_jit_warm(quick),
        _case_native_step(quick),
    ]
    return SuiteResult(quick=quick, loop_score=loop_score, cases=cases)


# -- schema ------------------------------------------------------------------


def to_json(suite: SuiteResult) -> dict:
    """The schema-stable payload of ``BENCH_selfperf.json``."""
    return {
        "schema": SCHEMA,
        "quick": suite.quick,
        "loop_score_miters_per_s": round(suite.loop_score, 3),
        "cases": [
            {
                "name": c.name,
                "optimized_seconds": round(c.optimized_seconds, 6),
                "reference_seconds": (
                    None if c.reference_seconds is None
                    else round(c.reference_seconds, 6)
                ),
                "speedup": (
                    None if c.speedup is None else round(c.speedup, 3)
                ),
                "identical": c.identical,
                "metrics": {
                    k: (round(v, 6) if isinstance(v, float) else v)
                    for k, v in sorted(c.metrics.items())
                },
            }
            for c in suite.cases
        ],
    }


#: derating applied by :func:`to_baseline`: committed floors are half
#: the measured values, so scheduler jitter on microsecond-scale cases
#: cannot trip the gate but losing an optimization outright (speedup
#: collapsing to ~1x) still does
BASELINE_DERATE = 0.5


def to_baseline(payload: dict) -> dict:
    """Derate a run's payload into a committable baseline."""
    out = json.loads(json.dumps(payload))
    out["note"] = (
        "baseline floors are measured values derated by "
        f"{BASELINE_DERATE}; regenerate with bench_selfperf.py "
        "--write-baseline"
    )
    for case in out["cases"]:
        if case.get("speedup"):
            case["speedup"] = round(case["speedup"] * BASELINE_DERATE, 3)
        rate = case.get("metrics", {}).get("normalized_rate")
        if rate:
            case["metrics"]["normalized_rate"] = round(
                rate * BASELINE_DERATE, 6
            )
    return out


def check_regressions(
    current: dict, baseline: dict, *, tolerance: float = TOLERANCE
) -> list[str]:
    """Failures of ``current`` vs ``baseline`` (>``tolerance`` worse).

    Only dimensionless quantities are gated: per-case speedups, the
    normalized event rate, and the bit-identity flags. Raw seconds are
    reported but never compared — CI hosts differ too much.
    """
    failures: list[str] = []
    for payload, label in ((current, "current"), (baseline, "baseline")):
        if payload.get("schema") != SCHEMA:
            failures.append(
                f"{label} payload has schema {payload.get('schema')!r}, "
                f"expected {SCHEMA!r}"
            )
    if failures:
        return failures
    base_cases = {c["name"]: c for c in baseline["cases"]}
    cur_cases = {c["name"]: c for c in current["cases"]}
    for name, base in base_cases.items():
        cur = cur_cases.get(name)
        if cur is None:
            failures.append(f"case {name!r} missing from current run")
            continue
        if base.get("identical") and not cur.get("identical"):
            failures.append(
                f"{name}: optimized path no longer bit-identical to its "
                "reference"
            )
        base_speedup = base.get("speedup")
        cur_speedup = cur.get("speedup")
        if base_speedup and cur_speedup is not None:
            floor = base_speedup * (1.0 - tolerance)
            if cur_speedup < floor:
                failures.append(
                    f"{name}: speedup {cur_speedup:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base_speedup:.2f}x - "
                    f"{tolerance:.0%})"
                )
        base_rate = base.get("metrics", {}).get("normalized_rate")
        cur_rate = cur.get("metrics", {}).get("normalized_rate")
        if base_rate and cur_rate is not None:
            floor = base_rate * (1.0 - tolerance)
            if cur_rate < floor:
                failures.append(
                    f"{name}: normalized event rate {cur_rate:.4f} fell "
                    f"below {floor:.4f} (baseline {base_rate:.4f} - "
                    f"{tolerance:.0%})"
                )
        # absolute floor on a case's own speedup (no derate, no
        # tolerance): "the native step is >= 3x NumPy" is the contract
        # that justifies needing a compiler, not a host-relative floor
        speedup_floor = base.get("metrics", {}).get("min_speedup")
        if (
            speedup_floor
            and cur_speedup is not None
            and cur_speedup < speedup_floor
        ):
            failures.append(
                f"{name}: speedup {cur_speedup:.2f}x is below the "
                f"absolute {speedup_floor:.1f}x floor"
            )
        # absolute floor on the vector-tier event-rate speedup (no
        # derate, no tolerance): "the epoch engine is >= 5x the scalar
        # heap" is the million-rank contract, not a host-relative floor
        rate_floor = base.get("metrics", {}).get("min_rate_speedup")
        cur_rate_speedup = cur.get("metrics", {}).get("rate_speedup")
        if (
            rate_floor
            and cur_rate_speedup is not None
            and cur_rate_speedup < rate_floor
        ):
            failures.append(
                f"{name}: vector-tier event rate is only "
                f"{cur_rate_speedup:.2f}x the scalar reference, below "
                f"the absolute {rate_floor:.1f}x floor"
            )
        # absolute overhead ceilings (no derate, no tolerance): the
        # limit is a contract — "streaming tracing costs <= 10%" —
        # not a host-relative floor
        limit = base.get("metrics", {}).get("overhead_limit")
        cur_overhead = cur.get("metrics", {}).get("overhead_ratio")
        if limit and cur_overhead is not None and cur_overhead > limit:
            failures.append(
                f"{name}: tracing overhead {cur_overhead:.3f}x exceeds "
                f"the absolute {limit:.2f}x limit"
            )
        # same absolute-contract shape for the service cache: a hit's
        # p99 must stay at least 1/limit times below a miss's p99
        ratio_limit = base.get("metrics", {}).get("hit_miss_p99_limit")
        cur_ratio = cur.get("metrics", {}).get("hit_miss_p99_ratio")
        if ratio_limit and cur_ratio is not None and cur_ratio > ratio_limit:
            failures.append(
                f"{name}: cache-hit p99 is {cur_ratio:.3f}x of the miss "
                f"p99, above the absolute {ratio_limit:.2f} limit "
                f"(hits must stay >= {1 / ratio_limit:.0f}x faster)"
            )
        # and for the persistent JIT cache: a warm first-launch p50
        # must stay at least 1/limit times below the cold-trace p50
        warm_limit = base.get("metrics", {}).get("warm_cold_limit")
        cur_warm = cur.get("metrics", {}).get("warm_cold_ratio")
        if warm_limit and cur_warm is not None and cur_warm > warm_limit:
            failures.append(
                f"{name}: warm first-launch p50 is {cur_warm:.3f}x of the "
                f"cold p50, above the absolute {warm_limit:.2f} limit "
                f"(warm starts must stay >= {1 / warm_limit:.0f}x faster)"
            )
    return failures


def render(suite: SuiteResult) -> str:
    from repro.util.tables import Table

    table = Table(
        ["hot path", "optimized (s)", "reference (s)", "speedup", "identical"],
        title=f"self-performance suite ({'quick' if suite.quick else 'full'} "
              f"mode, host {suite.loop_score:.1f} Miter/s)",
    )
    for c in suite.cases:
        table.add_row([
            c.name,
            f"{c.optimized_seconds:.4f}",
            "-" if c.reference_seconds is None else f"{c.reference_seconds:.4f}",
            "-" if c.speedup is None else f"{c.speedup:.1f}x",
            {True: "yes", False: "NO", None: "-"}[c.identical],
        ])
    return table.render()
