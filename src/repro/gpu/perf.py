"""Roofline timing of kernel launches.

The Gray-Scott stencil is memory-bound (Section 3.2: 7 reads + 1 write
per variable per cell), so a launch's modeled duration is

    duration = modeled_traffic_bytes / (HBM peak x backend efficiency)

where the traffic comes from the TCC working-set model fed with the
stencil offsets the tracing JIT recovered, and the efficiency is the
backend's calibrated codegen factor (Tables 2-3). Both of the paper's
bandwidth metrics fall out (Eq. 5a/5b):

- ``effective_bandwidth`` — Eq. 4 minimal data movement / duration,
- ``total_bandwidth`` — modeled FETCH_SIZE + WRITE_SIZE / duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.frontier import GcdSpec
from repro.gpu.backends import BackendProfile
from repro.gpu.cache import (
    StencilTrafficModel,
    TrafficEstimate,
    effective_fetch_cells,
    effective_write_cells,
    seven_point_offsets,
)
from repro.gpu.jit import CompiledKernel
from repro.gpu.kernel import LaunchConfig
from repro.util.errors import GpuError


@dataclass(frozen=True)
class LaunchCost:
    """Everything the performance model concluded about one launch."""

    kernel_name: str
    seconds: float
    fetch_bytes: float
    write_bytes: float
    effective_fetch_bytes: float
    effective_write_bytes: float
    tcc_hits: float
    tcc_misses: float
    flops: float

    @property
    def total_bytes(self) -> float:
        return self.fetch_bytes + self.write_bytes

    @property
    def effective_bytes(self) -> float:
        return self.effective_fetch_bytes + self.effective_write_bytes

    @property
    def total_bandwidth(self) -> float:
        """Eq. 5b: rocprof-style bandwidth, bytes/s."""
        return self.total_bytes / self.seconds

    @property
    def effective_bandwidth(self) -> float:
        """Eq. 5a: effective (minimal-movement) bandwidth, bytes/s."""
        return self.effective_bytes / self.seconds


class RooflineModel:
    """Memory-bound launch costing for one device + backend.

    ``counter_mode`` selects how TCC counters are produced:

    - ``"analytic"`` (default) — the working-set model; works at any
      problem size and is what Frontier-scale results use;
    - ``"trace"`` — exact trace-driven cache simulation of the access
      stream (:meth:`TraceCacheSim.multi_sweep`); only viable at mini
      scale (the access count is bounded by ``trace_probe_cap``) and
      used to validate the analytic model inside the executed pipeline.
    """

    #: maximum cells x accesses a trace-mode launch may generate
    trace_probe_cap = 4_000_000

    def __init__(
        self,
        spec: GcdSpec,
        backend: BackendProfile,
        *,
        counter_mode: str = "analytic",
    ):
        if counter_mode not in ("analytic", "trace"):
            raise GpuError(
                f"counter_mode must be 'analytic' or 'trace', got {counter_mode!r}"
            )
        self.spec = spec
        self.backend = backend
        self.counter_mode = counter_mode
        self.traffic_model = StencilTrafficModel(spec)
        # (id(compiled), config, shapes) -> (compiled, LaunchCost); the
        # entry holds ``compiled`` so its id cannot be reused meanwhile
        self._costs: dict[tuple, tuple[CompiledKernel, LaunchCost]] = {}

    def _array_shapes(self, compiled: CompiledKernel, args) -> dict[str, tuple]:
        """Map trace array names to the shapes/itemsizes of launch args."""
        from repro.gpu.memory import DeviceArray

        shapes: dict[str, tuple] = {}
        for position, name in compiled.trace.array_names_by_position.items():
            if position >= len(args):
                raise GpuError(
                    f"kernel {compiled.name} was traced with an array at "
                    f"argument {position} but the launch passed {len(args)} args"
                )
            arg = args[position]
            data = arg.data if isinstance(arg, DeviceArray) else arg
            if not isinstance(data, np.ndarray):
                raise GpuError(
                    f"argument {position} of {compiled.name} must be an array "
                    f"(traced as {name!r}), got {type(arg).__name__}"
                )
            shapes[name] = (tuple(data.shape), data.itemsize)
        return shapes

    def traffic(self, compiled: CompiledKernel, args) -> TrafficEstimate:
        """TCC traffic for this launch's actual array shapes."""
        shapes = self._array_shapes(compiled, args)
        loads = compiled.trace.offsets_by_array()
        stores = compiled.trace.stores_by_array()
        ref_shape = None
        itemsize = 8
        for name in list(loads) + list(stores):
            if name in shapes:
                ref_shape, itemsize = shapes[name]
                break
        if ref_shape is None:
            raise GpuError(f"kernel {compiled.name} accesses no traced arrays")
        if len(ref_shape) != 3:
            raise GpuError(
                f"performance model supports 3D kernels; {compiled.name} "
                f"touches an array of shape {ref_shape}"
            )
        if self.counter_mode == "trace":
            cells = int(np.prod(ref_shape))
            accesses = cells * (
                sum(len(o) for o in loads.values())
                + sum(len(o) for o in stores.values())
            )
            if accesses > self.trace_probe_cap:
                raise GpuError(
                    f"trace counter mode would replay {accesses} accesses "
                    f"(cap {self.trace_probe_cap}); use analytic mode for "
                    f"arrays of shape {ref_shape}"
                )
            from repro.gpu.cache import TraceCacheSim

            sim = TraceCacheSim(
                self.spec.tcc_bytes, line_bytes=self.spec.cache_line_bytes
            )
            return sim.multi_sweep(ref_shape, itemsize, loads, stores)
        return self.traffic_model.estimate(ref_shape, itemsize, loads, stores)

    def effective_sizes(self, compiled: CompiledKernel, args) -> tuple[float, float]:
        """Paper Eq. 4a/4b effective fetch and write bytes for a launch."""
        shapes = self._array_shapes(compiled, args)
        loads = compiled.trace.offsets_by_array()
        stores = compiled.trace.stores_by_array()
        seven = seven_point_offsets()
        fetch = 0.0
        for name, offsets in loads.items():
            shape, itemsize = shapes[name]
            if offsets == seven:
                fetch += effective_fetch_cells(shape) * itemsize
            else:
                # non-stencil arrays (e.g. a lookup table): read once
                fetch += float(np.prod(shape)) * itemsize
        write = 0.0
        for name, offsets in stores.items():
            shape, itemsize = shapes[name]
            if offsets == {(0, 0, 0)}:
                write += effective_write_cells(shape) * itemsize
            else:
                write += len(offsets) * float(np.prod(shape)) * itemsize
        return fetch, write

    def launch_cost(
        self, compiled: CompiledKernel, config: LaunchConfig, args
    ) -> LaunchCost:
        """The modeled cost of one launch.

        The model is a pure function of the compiled kernel's trace, the
        launch config and the arrays' shapes and itemsizes, so the result
        is memoized on exactly those; a repeat launch returns the same
        :class:`LaunchCost` without re-deriving the trace's offsets.
        """
        shapes = self._array_shapes(compiled, args)
        key = (id(compiled), config, tuple(shapes.items()))
        entry = self._costs.get(key)
        if entry is not None and entry[0] is compiled:
            return entry[1]
        cost = self._launch_cost(compiled, config, args)
        self._costs[key] = (compiled, cost)
        return cost

    def _launch_cost(
        self, compiled: CompiledKernel, config: LaunchConfig, args
    ) -> LaunchCost:
        traffic = self.traffic(compiled, args)
        eff_fetch, eff_write = self.effective_sizes(compiled, args)
        efficiency = self.backend.effective_efficiency(compiled.kernel.uses_rand)
        achieved = self.spec.hbm_peak_bytes_per_s * efficiency
        seconds = traffic.total_bytes / achieved
        flops = compiled.trace.flops * config.total_workitems
        return LaunchCost(
            kernel_name=compiled.name,
            seconds=seconds,
            fetch_bytes=traffic.fetch_bytes,
            write_bytes=traffic.write_bytes,
            effective_fetch_bytes=eff_fetch,
            effective_write_bytes=eff_write,
            tcc_hits=traffic.tcc_hits,
            tcc_misses=traffic.tcc_misses,
            flops=flops,
        )
