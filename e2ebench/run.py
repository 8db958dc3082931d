#!/usr/bin/env python3
"""End-to-end benchmark of the Gray-Scott compute -> MPI -> BP5 -> analysis
pipeline. Run from the root of a source checkout::

    python3 e2ebench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads: solve, io_ranks2, serve_mix, virtual (see README.md). With
``--trace 0`` the end-to-end metrics are measured with no instrumentation;
with ``--trace 1`` half the time is measured untraced and then a fixed
amount of work runs with the layer spans of ``layers.py`` installed, giving
the per-layer metrics. Every run first times ``PROBES`` cold starts in
fresh processes for ``setup_s``.

A readable report goes to standard output; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 when the run completed (``correct`` says whether every output check
passed), 1 when the run itself broke, and 2 when the program sources are
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".e2ebench_work"
WORKLOAD_NAMES = ("solve", "io_ranks2", "serve_mix", "virtual")
#: fresh-process cold starts per run; ``setup_s`` is their median
PROBES = 3

#: bytes one cell update must move at least: read U and V, write both (f64)
BYTES_PER_CELL_COMPUTED = 4 * 8

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
)

#: wall seconds are per rank and per unit of work of the traced pass;
#: ``s_modeled`` values are the program's modeled Frontier clock
PER_LAYER = (
    ("stencil.self_s", "s"),
    ("stencil.share", "ratio"),
    ("stencil.mcells_per_s", "Mcell/s"),
    ("stencil.gb_per_s_computed", "GB/s"),
    ("rand.self_s", "s"),
    ("rand.share", "ratio"),
    ("gpu.launch_overhead_us", "us"),
    ("gpu.jit.compile_s", "s"),
    ("gpu.jit.compiles", "count"),
    ("gpu.modeled_kernel_s", "s_modeled"),
    ("gpu.modeled_jit_s", "s_modeled"),
    ("mpi.pack_s", "s"),
    ("mpi.unpack_s", "s"),
    ("mpi.send_s", "s"),
    ("mpi.recv_wait_s", "s"),
    ("mpi.barrier_wait_s", "s"),
    ("mpi.msgs_per_step", "count"),
    ("mpi.bytes_per_step", "B"),
    ("exchange.self_s", "s"),
    ("core.self_s", "s"),
    ("adios.put_s", "s"),
    ("adios.end_step_self_s", "s"),
    ("adios.write_index_s", "s"),
    ("adios.write_index.share", "ratio"),
    ("adios.index_bytes_written", "B"),
    ("adios.append_s", "s"),
    ("adios.data_bytes", "B"),
    ("adios.rank0_share", "ratio"),
    ("analysis.s", "s"),
    ("virtual.vector_s", "s"),
    ("sched.vector.epochs", "count"),
    ("sched.vector.epoch_us", "us"),
    ("sched.engine.run_s", "s"),
    ("sched.engine.events", "count"),
    ("sched.engine.events_per_s", "1/s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.backlog_max", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("serve.goodput_rps", "1/s"),
    ("serve.max_rate_rps", "1/s"),
    ("mcell_steps_per_s", "Mcell/s"),
    ("io.speedup_2r", "ratio"),
    ("virtual.rank_steps_per_s", "1/s"),
    ("virtual.nic_rank_steps_per_s", "1/s"),
    ("setup.import_s", "s"),
    ("setup.first_call_s", "s"),
    ("setup.service_start_s", "s"),
    ("host.ref_ms", "ms"),
    ("unscaled.p50_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("unattributed.share", "ratio"),
    ("fail_frac", "ratio"),
)

ADIOS_LAYERS = ("adios.put", "adios.end_step", "adios.write_index", "adios.append")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (taken modulo 2**31)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="be one cold start: time import + first call, print JSON")
    return parser.parse_args(argv)


def probe(args, work: Path) -> None:
    """One cold start in this fresh process."""
    started = time.perf_counter()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    for module in workload_cls.entry_modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    workload = workload_cls(args.seed, work)
    try:
        extra = workload.probe()
        done = time.perf_counter()
    finally:
        workload.close()
    from host import reference_seconds

    print(json.dumps({"import_s": imported - started,
                      "first_call_s": done - imported,
                      "ref_s": reference_seconds(), **extra}))


def setup_probes(args) -> dict:
    """Median import and first-call seconds over ``PROBES`` cold starts;
    ``setup_s`` is the median of the cold starts, each scaled to the
    nominal host speed by the reference reading its own process took right
    after it (host.py)."""
    from host import NOMINAL_S

    runs = []
    for _ in range(PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    cold = [r["import_s"] + r["first_call_s"] for r in runs]
    setup = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    setup["unscaled_s"] = statistics.median(cold)
    setup["setup_s"] = statistics.median(
        c * NOMINAL_S / r["ref_s"] for c, r in zip(cold, runs))
    return setup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _work(m) -> list[float]:
    return m.work_walls if m.work_walls is not None else m.raw


def end_to_end(m, setup) -> dict:
    from workloads import tail

    return {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": 1e3 * _median(m.latencies),
        "tail_ms": 1e3 * tail(m.latencies)[1],
    }


def per_layer(rec, traced, untraced, setup) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    per = traced.units * traced.nranks

    def self_s(layer):
        return rec.layer_self(layer) / per

    def share(layer):
        if not traced.share_wall:
            return 0.0
        return rec.layer_self(layer, traced.share_threads) / traced.share_wall

    def ratio(a, b):
        return a / b if b else 0.0

    counts, modeled = rec.counts, rec.modeled
    stencil = rec.layer_self("core.stencil")
    steps = counts["core.steps"]
    attributed = sum(rec.thread_self(t) for t in traced.share_threads)
    extras = {**traced.extras}
    for key in ("serve.goodput_rps", "serve.max_rate_rps", "io.speedup_2r",
                "virtual.rank_steps_per_s", "virtual.nic_rank_steps_per_s"):
        extras[key] = untraced.extras.get(key, 0.0)
    attempted = untraced.attempted + traced.attempted
    metrics = {
        "stencil.self_s": self_s("core.stencil"),
        "stencil.share": share("core.stencil"),
        "stencil.mcells_per_s": ratio(counts["core.cell_steps"], stencil) / 1e6,
        "stencil.gb_per_s_computed":
            ratio(counts["core.cell_steps"] * BYTES_PER_CELL_COMPUTED, stencil) / 1e9,
        "rand.self_s": self_s("gpu.rand"),
        "rand.share": share("gpu.rand"),
        "gpu.launch_overhead_us": 1e6 * ratio(rec.layer_self("gpu.launch"),
                                              counts["gpu.launches"]),
        "gpu.jit.compile_s": self_s("gpu.jit"),
        "gpu.jit.compiles": counts["gpu.jit.compiles"] / traced.units,
        "gpu.modeled_kernel_s": modeled["gpu.kernel_s"] / per,
        "gpu.modeled_jit_s": modeled["gpu.jit_s"] / per,
        "mpi.pack_s": self_s("mpi.pack"),
        "mpi.unpack_s": self_s("mpi.unpack"),
        "mpi.send_s": self_s("mpi.send"),
        "mpi.recv_wait_s": self_s("mpi.recv"),
        "mpi.barrier_wait_s": self_s("mpi.barrier"),
        "mpi.msgs_per_step": ratio(counts["mpi.msgs"], steps),
        "mpi.bytes_per_step": ratio(counts["mpi.bytes"], steps),
        "exchange.self_s": self_s("core.exchange"),
        "core.self_s": self_s("core"),
        "adios.put_s": self_s("adios.put"),
        "adios.end_step_self_s": self_s("adios.end_step"),
        "adios.write_index_s": self_s("adios.write_index"),
        "adios.write_index.share": share("adios.write_index"),
        "adios.index_bytes_written": counts["adios.index_bytes"] / traced.units,
        "adios.append_s": self_s("adios.append"),
        "adios.data_bytes": counts["adios.data_bytes"] / traced.units,
        "adios.rank0_share": sum(share(layer) for layer in ADIOS_LAYERS),
        "analysis.s": self_s("analysis"),
        "virtual.vector_s": self_s("virtual.vector"),
        "sched.vector.epochs": counts["sched.vector.epochs"] / traced.units,
        "sched.vector.epoch_us": 1e6 * ratio(rec.layer_self("sched.vector"),
                                             counts["sched.vector.epochs"]),
        "sched.engine.run_s": self_s("sched.engine"),
        "sched.engine.events": counts["sched.engine.events"] / traced.units,
        "sched.engine.events_per_s": ratio(counts["sched.engine.events"],
                                           rec.layer_self("sched.engine")),
        **{name: float(extras.get(name, 0.0)) for name in (
            "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99",
            "serve.exec_ms_p50", "serve.hit_ratio", "serve.coalesced",
            "serve.rejected", "serve.backlog_max", "loadgen.lag_ms_p99",
            "serve.goodput_rps", "serve.max_rate_rps", "io.speedup_2r",
            "virtual.rank_steps_per_s", "virtual.nic_rank_steps_per_s")},
        "mcell_steps_per_s": untraced.mcell_steps_per_s,
        "serve.render_ms": 1e3 * ratio(rec.layer_self("serve.render"),
                                       rec.layer_calls("serve.render")),
        "setup.import_s": setup["import_s"],
        "setup.first_call_s": setup["first_call_s"],
        "setup.service_start_s": setup.get("service_start_s", 0.0),
        "host.ref_ms": 1e3 * _median(untraced.host_refs),
        "unscaled.p50_ms": 1e3 * _median(untraced.raw),
        "trace_overhead": ratio(_median(_work(traced)), _median(_work(untraced))),
        "unattributed.share": 1.0 - ratio(attributed, traced.share_wall),
        "fail_frac": ratio(untraced.failed + traced.failed, attempted),
    }
    return metrics


def report(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units.get(name, '')}")


def bench(args, work: Path) -> dict:
    from host import NOMINAL_S
    from layers import install
    from spans import SpanRecorder
    from workloads import WORKLOADS, tail

    setup = setup_probes(args)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        workload.warm()
        if args.trace == 0:
            m = workload.measure(args.seconds)
            metrics = end_to_end(m, setup)
            units = dict(END_TO_END)
            attempted, failed = m.attempted, m.failed
            q, _ = tail(m.latencies)
            print(f"{args.workload}: {len(m.latencies)} timed operations, "
                  f"tail_ms is the {q:g}th percentile")
            print(f"host reference kernel {1e3 * _median(m.host_refs):.2f} ms "
                  f"(nominal {1e3 * NOMINAL_S:g} ms); unscaled "
                  f"p50 {1e3 * _median(m.raw):.1f} ms, tail "
                  f"{1e3 * tail(m.raw)[1]:.1f} ms, unscaled setup "
                  f"{setup['unscaled_s']:.3f} s (kernel in the probes "
                  f"{1e3 * setup['ref_s']:.2f} ms)")
            report("workload figures", {"mcell_steps_per_s": m.mcell_steps_per_s, **m.extras},
                   dict(PER_LAYER))
        else:
            untraced = workload.measure(args.seconds / 2)
            rec = SpanRecorder()
            traced = workload.traced(args.seconds / 2, functools.partial(install, rec))
            metrics = per_layer(rec, traced, untraced, setup)
            units = dict(PER_LAYER)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            wall = {k: v for k, v in metrics.items() if units[k] != "s_modeled"}
            modeled = {k: v for k, v in metrics.items() if units[k] == "s_modeled"}
            report("per-layer, wall clock", wall, units)
            report("per-layer, modeled clock (never added to wall time)", modeled, units)
    finally:
        workload.close()
    if args.trace == 0:
        report("end-to-end", metrics, units)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2**31
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.probe:
            probe(args, work)
            return 0
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left for a concurrent run
            WORKDIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
