import numpy as np
import pytest

from repro.core import stencil
from repro.core.params import GrayScottParams
from repro.core.stencil import (
    check_ghosted,
    kernel_args,
    laplacian_at,
    laplacian_field,
    make_gray_scott_kernel,
    make_laplacian_kernel,
    step_reference,
    step_vectorized,
)
from repro.gpu.kernel import LaunchConfig
from repro.util.errors import ConfigError


def _fields(n=8, seed=0):
    shape = (n + 2, n + 2, n + 2)
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random(shape))
    v = np.asfortranarray(rng.random(shape))
    return u, v, np.zeros(shape, order="F"), np.zeros(shape, order="F")


INTERIOR = (slice(1, -1),) * 3


class TestLaplacian:
    def test_constant_field_zero(self):
        field = np.full((5, 5, 5), 3.0, order="F")
        assert laplacian_at(field, 2, 2, 2) == 0.0
        assert np.allclose(laplacian_field(field), 0.0)

    def test_linear_field_zero(self):
        """The discrete Laplacian annihilates linear profiles."""
        x = np.arange(6)[:, None, None] * np.ones((6, 6, 6))
        field = np.asfortranarray(x)
        assert abs(laplacian_at(field, 2, 3, 3)) < 1e-14

    def test_point_source(self):
        field = np.zeros((5, 5, 5), order="F")
        field[2, 2, 2] = 6.0
        assert laplacian_at(field, 2, 2, 2) == -6.0
        assert laplacian_at(field, 1, 2, 2) == 1.0

    def test_field_matches_pointwise(self):
        rng = np.random.default_rng(3)
        field = np.asfortranarray(rng.random((6, 7, 8)))
        lap = laplacian_field(field)
        for i in range(1, 5):
            for j in range(1, 6):
                for k in range(1, 7):
                    assert lap[i - 1, j - 1, k - 1] == laplacian_at(field, i, j, k)


class TestCheckGhosted:
    def test_valid(self):
        check_ghosted(np.zeros((4, 4, 4), order="F"))

    def test_wrong_ndim(self):
        with pytest.raises(ConfigError):
            check_ghosted(np.zeros((4, 4), order="F"))

    def test_too_small(self):
        with pytest.raises(ConfigError):
            check_ghosted(np.zeros((2, 4, 4), order="F"))

    def test_c_order_rejected(self):
        with pytest.raises(ConfigError):
            check_ghosted(np.zeros((4, 4, 4), order="C"))


class TestStepImplementations:
    def test_reference_vs_vectorized_bitwise(self):
        u, v, u1, v1 = _fields()
        u2, v2 = np.zeros_like(u1), np.zeros_like(v1)
        p = GrayScottParams()
        step_reference(u, v, u1, v1, p, seed=7, step=3, global_start=(5, 6, 7))
        step_vectorized(u, v, u2, v2, p, seed=7, step=3, global_start=(5, 6, 7))
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])
        assert np.array_equal(v1[INTERIOR], v2[INTERIOR])

    def test_gpu_interpreter_matches_vectorized(self):
        u, v, u1, v1 = _fields(n=6)
        u2, v2 = np.zeros_like(u1), np.zeros_like(v1)
        p = GrayScottParams()
        kernel = make_gray_scott_kernel()
        cfg = LaunchConfig.for_domain(tuple(reversed(u.shape)), (4, 4, 4))
        kernel.execute(cfg, kernel_args(u, v, u1, v1, p, seed=1, step=0),
                       force_interpreter=True)
        kernel.execute(cfg, kernel_args(u, v, u2, v2, p, seed=1, step=0))
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])
        assert np.array_equal(v1[INTERIOR], v2[INTERIOR])

    def test_boundary_untouched(self):
        u, v, u1, v1 = _fields()
        step_vectorized(u, v, u1, v1, GrayScottParams(), seed=0, step=0)
        assert (u1[0] == 0).all() and (u1[-1] == 0).all()

    def test_noise_zero_is_deterministic_dynamics(self):
        u, v, u1, v1 = _fields()
        u2, v2 = np.zeros_like(u1), np.zeros_like(v1)
        p = GrayScottParams(noise=0.0)
        step_vectorized(u, v, u1, v1, p, seed=1, step=0)
        step_vectorized(u, v, u2, v2, p, seed=99, step=5)  # different keys
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])

    def test_noise_decomposition_invariance(self):
        """Split the domain in two: same noise as the full domain."""
        n = 8
        u, v, u_new, v_new = _fields(n)
        p = GrayScottParams()
        step_vectorized(u, v, u_new, v_new, p, seed=4, step=2, global_start=(0, 0, 0))

        # lower half as its own subdomain with ghosts from the full field
        half = n // 2
        sub_u = np.asfortranarray(u[:, :, : half + 2])
        sub_v = np.asfortranarray(v[:, :, : half + 2])
        sub_un = np.zeros_like(sub_u)
        sub_vn = np.zeros_like(sub_v)
        step_vectorized(sub_u, sub_v, sub_un, sub_vn, p, seed=4, step=2,
                        global_start=(0, 0, 0))
        assert np.array_equal(
            sub_un[1:-1, 1:-1, 1:-1], u_new[1:-1, 1:-1, 1: half + 1]
        )

    def test_shape_mismatch_rejected(self):
        u, v, u1, v1 = _fields()
        bad = np.zeros((4, 4, 4), order="F")
        with pytest.raises(ConfigError):
            step_reference(u, v, bad, v1, GrayScottParams(), seed=0, step=0)
        f32 = np.zeros(u.shape, dtype=np.float32, order="F")
        c_order = np.zeros(u.shape, order="C")
        cases = {
            "v shape": (u, bad, u1, v1),
            "u_new shape": (u, v, bad, v1),
            "v_new shape": (u, v, u1, bad),
            "v_new float32 beside float64": (u, v, u1, f32),
            "v float32 beside float64": (u, f32, u1, v1),
            "u_new C-ordered": (u, v, c_order, v1),
            "v C-ordered": (u, np.ascontiguousarray(v), u1, v1),
            "integer fields": tuple(a.astype(np.int64, order="F") for a in (u, v, u1, v1)),
            "float16 fields": tuple(a.astype(np.float16, order="F") for a in (u, v, u1, v1)),
            "output aliases input": (u, v, u, v1),
            "outputs alias each other": (u, v, u1, u1),
        }
        for name, arrays in cases.items():
            with pytest.raises(ConfigError):
                step_vectorized(*arrays, GrayScottParams(), seed=0, step=0)
                pytest.fail(f"{name} was accepted")
        read_only = np.zeros_like(v1)
        read_only.flags.writeable = False
        with pytest.raises(ConfigError, match="writable"):
            step_vectorized(u, v, u1, read_only, GrayScottParams(), seed=0, step=0)

    @pytest.mark.parametrize(
        "keys",
        [
            {"seed": -1, "step": 0},
            {"seed": 2**64, "step": 0},
            {"seed": 0, "step": -1},
            {"seed": 0, "step": 0, "global_start": (0, -1, 0)},
            {"seed": 0, "step": 0, "global_start": (0, 0, 2**64)},
        ],
    )
    def test_keys_outside_u64_rejected(self, keys):
        u, v, u1, v1 = _fields(n=2)
        with pytest.raises(ConfigError, match=r"outside \[0, 2\*\*64\)"):
            step_vectorized(u, v, u1, v1, GrayScottParams(), **keys)

    def test_pure_diffusion_decays_peak_and_conserves_mass(self):
        """Physics sanity: with U=0 and F=k=noise=0, V diffuses only —
        the spike decays and total V mass is conserved."""
        n = 10
        shape = (n + 2,) * 3
        u = np.zeros(shape, order="F")  # no reaction source
        v = np.zeros(shape, order="F")
        v[6, 6, 6] = 1.0
        p = GrayScottParams(F=0.0, k=0.0, noise=0.0, Du=0.0, Dv=0.3)
        v_prev_peak = 1.0
        mass0 = v[INTERIOR].sum()
        u_new, v_new = np.zeros_like(u), np.zeros_like(v)
        for step in range(3):  # front must not reach the ghost layer
            step_vectorized(u, v, u_new, v_new, p, seed=0, step=step)
            # copy interiors back (spike stays far from the boundary)
            u[INTERIOR], v[INTERIOR] = u_new[INTERIOR], v_new[INTERIOR]
            peak = v[INTERIOR].max()
            assert peak < v_prev_peak
            v_prev_peak = peak
        assert v[INTERIOR].sum() == pytest.approx(mass0, rel=1e-12)


@pytest.mark.usefixtures("numpy_fallback")
class TestStepImplementationsNumpyFallback(TestStepImplementations):
    """Every step test again, with the NumPy fallback forced (no compiler)."""

    def test_dispatches_to_numpy(self):
        assert not stencil.native_step.available()


class TestLaplacianKernel:
    def test_matches_explicit_diffusion(self):
        n = 6
        shape = (n + 2,) * 3
        rng = np.random.default_rng(1)
        var = np.asfortranarray(rng.random(shape))
        out1 = np.zeros(shape, order="F")
        out2 = np.zeros(shape, order="F")
        kernel = make_laplacian_kernel()
        cfg = LaunchConfig.for_domain(shape, (4, 4, 4))
        kernel.execute(cfg, (var, out1, shape, 0.2, 1.0), force_interpreter=True)
        kernel.execute(cfg, (var, out2, shape, 0.2, 1.0))
        assert np.array_equal(out1[INTERIOR], out2[INTERIOR])
        expected = var[INTERIOR] + 0.2 * laplacian_field(var) * 1.0
        assert np.array_equal(out2[INTERIOR], expected)
