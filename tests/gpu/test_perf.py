import numpy as np
import pytest

from repro.cluster.frontier import GcdSpec
from repro.core.params import GrayScottParams
from repro.core.stencil import kernel_args, make_gray_scott_kernel, make_laplacian_kernel
from repro.gpu.backends import HIP_BACKEND, JULIA_BACKEND
from repro.gpu.jit import JitCompiler
from repro.gpu.kernel import LaunchConfig
from repro.gpu.perf import RooflineModel
from repro.util.units import GB


def _compiled(backend, kernel, args):
    jit = JitCompiler(backend)
    compiled, _ = jit.compile(kernel, args)
    return compiled


@pytest.fixture
def gs_setup():
    shape = (16, 16, 16)
    u = np.ones(shape, order="F")
    v = np.ones(shape, order="F")
    un = np.zeros(shape, order="F")
    vn = np.zeros(shape, order="F")
    args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0)
    return args


class TestRooflineModel:
    def test_duration_is_traffic_over_achieved(self, gs_setup):
        spec = GcdSpec()
        model = RooflineModel(spec, HIP_BACKEND)
        compiled = _compiled(HIP_BACKEND, make_gray_scott_kernel(), gs_setup)
        cfg = LaunchConfig.for_domain((16, 16, 16), (4, 4, 4))
        cost = model.launch_cost(compiled, cfg, gs_setup)
        achieved = spec.hbm_peak_bytes_per_s * HIP_BACKEND.effective_efficiency(True)
        assert cost.seconds == pytest.approx(cost.total_bytes / achieved)

    def test_julia_slower_than_hip(self, gs_setup):
        cfg = LaunchConfig.for_domain((16, 16, 16), (4, 4, 4))
        kernel = make_gray_scott_kernel()
        julia = RooflineModel(GcdSpec(), JULIA_BACKEND).launch_cost(
            _compiled(JULIA_BACKEND, kernel, gs_setup), cfg, gs_setup
        )
        hip = RooflineModel(GcdSpec(), HIP_BACKEND).launch_cost(
            _compiled(HIP_BACKEND, kernel, gs_setup), cfg, gs_setup
        )
        assert julia.total_bytes == hip.total_bytes  # same algorithm
        assert 1.5 < julia.seconds / hip.seconds < 2.5  # the codegen gap

    def test_effective_sizes_match_eq4(self, gs_setup):
        from repro.gpu.cache import effective_fetch_cells, effective_write_cells

        model = RooflineModel(GcdSpec(), JULIA_BACKEND)
        compiled = _compiled(JULIA_BACKEND, make_gray_scott_kernel(), gs_setup)
        fetch, write = model.effective_sizes(compiled, gs_setup)
        assert fetch == 2 * effective_fetch_cells((16, 16, 16)) * 8
        assert write == 2 * effective_write_cells((16, 16, 16)) * 8

    def test_bandwidth_properties(self, gs_setup):
        model = RooflineModel(GcdSpec(), JULIA_BACKEND)
        compiled = _compiled(JULIA_BACKEND, make_gray_scott_kernel(), gs_setup)
        cfg = LaunchConfig.for_domain((16, 16, 16), (4, 4, 4))
        cost = model.launch_cost(compiled, cfg, gs_setup)
        assert cost.effective_bandwidth < cost.total_bandwidth
        assert cost.total_bandwidth < 1600 * GB

    def test_one_var_kernel(self):
        shape = (16, 16, 16)
        var = np.ones(shape, order="F")
        out = np.zeros(shape, order="F")
        args = (var, out, shape, 0.2, 1.0)
        model = RooflineModel(GcdSpec(), JULIA_BACKEND)
        compiled = _compiled(JULIA_BACKEND, make_laplacian_kernel(), args)
        cfg = LaunchConfig.for_domain(shape, (4, 4, 4))
        cost = model.launch_cost(compiled, cfg, args)
        # 1-var no-random is faster per byte than the app kernel
        assert JULIA_BACKEND.effective_efficiency(False) > JULIA_BACKEND.effective_efficiency(True)
        assert cost.total_bytes > 0


class _MemoFreeRoofline(RooflineModel):
    """The roofline model with the launch-cost memo bypassed."""

    def launch_cost(self, compiled, config, args):
        return self._launch_cost(compiled, config, args)


class TestLaunchCostMemo:
    @staticmethod
    def _modeled_clock(counter_mode, memo_free, shapes):
        from repro.gpu.memory import Device

        device = Device(backend="julia", counter_mode=counter_mode)
        if memo_free:
            device.roofline = _MemoFreeRoofline(
                device.spec, device.backend, counter_mode=counter_mode
            )
        kernel = make_gray_scott_kernel()
        for step, shape in enumerate(shapes):
            u = np.ones(shape, order="F")
            v = np.full(shape, 0.25, order="F")
            args = kernel_args(
                u, v, np.zeros_like(u), np.zeros_like(v), GrayScottParams(),
                seed=1, step=step,
            )
            cfg = LaunchConfig.for_domain(tuple(reversed(shape)), (4, 1, 1))
            device.launch(kernel, cfg.grid, cfg.workgroup, args)
        return device

    @pytest.mark.parametrize("counter_mode", ["analytic", "trace"])
    def test_modeled_clock_bit_identical_to_memo_free(self, counter_mode):
        shapes = [(10, 10, 10)] * 4 + [(8, 10, 12)] * 3 + [(10, 10, 10)] * 2
        memo = self._modeled_clock(counter_mode, False, shapes)
        plain = self._modeled_clock(counter_mode, True, shapes)
        assert memo.clock.now.hex() == plain.clock.now.hex()
        assert memo.clock.now > 0.0

    def test_repeat_launch_is_a_hit_and_shape_change_a_new_entry(self):
        device = self._modeled_clock("analytic", False, [(10, 10, 10)] * 3)
        assert len(device.roofline._costs) == 1
        device = self._modeled_clock(
            "analytic", False, [(10, 10, 10)] * 3 + [(8, 10, 12)]
        )
        assert len(device.roofline._costs) == 2

    def test_memoized_cost_equals_fresh_cost(self, gs_setup):
        model = RooflineModel(GcdSpec(), JULIA_BACKEND)
        compiled = _compiled(JULIA_BACKEND, make_gray_scott_kernel(), gs_setup)
        cfg = LaunchConfig.for_domain((16, 16, 16), (4, 4, 4))
        first = model.launch_cost(compiled, cfg, gs_setup)
        assert model.launch_cost(compiled, cfg, gs_setup) is first
        assert first == model._launch_cost(compiled, cfg, gs_setup)
        other = LaunchConfig.for_domain((16, 16, 16), (8, 2, 2))
        assert model.launch_cost(compiled, other, gs_setup) is not first
