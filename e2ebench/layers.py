"""Where each layer of the pipeline is entered, as its callers see it.

Every entry names a function or method by the namespace its caller reads
it from, so that replacing it there catches every call on the workloads'
user paths. The program is not edited; :func:`install` wraps, and the
returned :class:`~spans.Patches` undoes the wrapping.

Layers that no workload's user path runs (``repro.ir``, ``lint``,
``observe``, ``par``, ``cluster`` and ``bench``) are not listed; see
README.md.
"""

from __future__ import annotations

import weakref

import numpy as np

from spans import Patches, SpanRecorder


def _on_step(rec, args, kwargs, result):
    sim = args[0]
    rec.count("core.cell_steps", int(np.prod(sim.domain.count)))
    if sim.cart is None or sim.cart.rank == 0:
        rec.count("core.steps")


def _on_launch(rec, args, kwargs, result):
    rec.count("gpu.launches")
    rec.model("gpu.kernel_s", result.seconds)


def _on_compile(rec, args, kwargs, result):
    _, seconds = result
    if seconds > 0.0:
        rec.count("gpu.jit.compiles")
        rec.model("gpu.jit_s", seconds)


def _on_message(rec, args, kwargs, result):
    rec.count("mpi.msgs")
    rec.count("mpi.bytes", result[1])


def _on_index(rec, args, kwargs, result):
    from repro.adios.bp5 import INDEX_FILE

    rec.count("adios.index_bytes", (args[0] / INDEX_FILE).stat().st_size)


def _on_append(rec, args, kwargs, result):
    rec.count("adios.data_bytes", sum(memoryview(p).nbytes for p in args[2]))


def _on_epoch(rec, args, kwargs, result):
    rec.count("sched.vector.epochs")


class _EventDelta:
    """Counts events an engine processed since its last ``run`` returned."""

    def __init__(self):
        self._seen = weakref.WeakKeyDictionary()

    def __call__(self, rec, args, kwargs, result):
        engine = args[0]
        total = engine.events_processed
        rec.count("sched.engine.events", total - self._seen.get(engine, 0))
        self._seen[engine] = total


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every measured layer entry point; returns the undo handle."""
    patches = Patches(recorder)
    table = [
        # core: the workflow loop, one time step, the ghost exchange
        ("repro.core.workflow:Workflow.run", "core", None),
        ("repro.core.simulation:Simulation.step", "core", _on_step),
        ("repro.core.simulation:Simulation.exchange", "core.exchange", None),
        ("repro.core.workflow:Workflow._analyze", "analysis", None),
        # core.stencil: the CPU backend calls it from simulation, the GPU
        # kernel's fast path from the stencil module's own globals
        ("repro.core.simulation:step_vectorized", "core.stencil", None),
        ("repro.core.stencil:step_vectorized", "core.stencil", None),
        ("repro.core.stencil:uniform_field", "gpu.rand", None),
        # gpu: launch (kernel body is the stencil child span) and JIT
        ("repro.gpu.memory:Device.launch", "gpu.launch", _on_launch),
        ("repro.gpu.jit:JitCompiler.compile", "gpu.jit", _on_compile),
        # mpi: halo pack/unpack as the exchange sees them, p2p, barrier
        ("repro.core.exchange:pack", "mpi.pack", None),
        ("repro.core.exchange:unpack", "mpi.unpack", None),
        ("repro.mpi.comm:Comm.isend", "mpi.send", None),
        ("repro.mpi.comm:Comm.recv", "mpi.recv", None),
        ("repro.mpi.comm:Comm.barrier", "mpi.barrier", None),
        ("repro.mpi.comm:_freeze_payload", None, _on_message),
        # adios: the engine's step protocol and the two on-disk writes
        ("repro.adios.engines:BP5Writer.put", "adios.put", None),
        ("repro.adios.engines:BP5Writer.end_step", "adios.end_step", None),
        ("repro.adios.bp5:write_index", "adios.write_index", _on_index),
        ("repro.adios.bp5:append_blocks", "adios.append", _on_append),
        # core.virtual + sched
        ("repro.core.virtual:VirtualWorkflow._run_epochs", "virtual.vector", None),
        ("repro.core.virtual:VirtualWorkflow._run_serial", "virtual.generator", None),
        ("repro.sched.vector:simulate_epoch", "sched.vector", _on_epoch),
        ("repro.sched.engine:Engine.run", "sched.engine", _EventDelta()),
        # serve: the worker-side unit of work and its one-time render
        ("repro.serve.service:execute_and_render", "serve.exec", None),
        ("repro.core.present:render_result", "serve.render", None),
    ]
    try:
        for target, layer, after in table:
            patches.wrap(target, layer, after)
    except BaseException:
        patches.restore()
        raise
    return patches

