"""float32 field support: parity and decomposition invariance."""

import numpy as np
import pytest

from repro.core.params import GrayScottParams
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.core.stencil import step_reference, step_vectorized
from repro.mpi.executor import run_spmd

INTERIOR = (slice(1, -1),) * 3


class TestFloat32Stencil:
    def test_reference_vs_vectorized_bitwise_f32(self):
        shape = (8, 8, 8)
        rng = np.random.default_rng(5)
        u = np.asfortranarray(rng.random(shape, dtype=np.float32))
        v = np.asfortranarray(rng.random(shape, dtype=np.float32))
        u1 = np.zeros(shape, dtype=np.float32, order="F")
        v1 = np.zeros(shape, dtype=np.float32, order="F")
        u2 = np.zeros_like(u1)
        v2 = np.zeros_like(v1)
        p = GrayScottParams()
        step_reference(u, v, u1, v1, p, seed=9, step=2)
        step_vectorized(u, v, u2, v2, p, seed=9, step=2)
        assert np.array_equal(u1[INTERIOR], u2[INTERIOR])
        assert np.array_equal(v1[INTERIOR], v2[INTERIOR])

    def test_f32_differs_from_f64_but_close(self):
        a = Simulation(GrayScottSettings(L=12, noise=0.05, precision="float32"))
        b = Simulation(GrayScottSettings(L=12, noise=0.05, precision="float64"))
        a.run(10)
        b.run(10)
        assert a.u.dtype == np.float32
        assert np.allclose(
            a.interior("u"), b.interior("u").astype(np.float32), atol=1e-4
        )

    def test_f32_parallel_matches_serial_bitwise(self):
        settings = GrayScottSettings(L=12, noise=0.05, precision="float32")
        serial = Simulation(settings)
        serial.run(6)
        expected = serial.gather_global("v")

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(6)
            return sim.gather_global("v")

        got = run_spmd(worker, 4, timeout=120)[0]
        assert got.dtype == np.float32
        assert np.array_equal(expected, got)

    def test_f32_io_roundtrip(self, tmp_path):
        from repro.adios.engines import BP5Reader
        from repro.core.workflow import Workflow

        settings = GrayScottSettings(
            L=12, steps=4, plotgap=2, precision="float32",
            output=str(tmp_path / "f32.bp"),
        )
        Workflow(settings).run(analyze=False)
        reader = BP5Reader(None, settings.output)
        data = reader.read("U", step=1)
        assert data.dtype == np.float32


@pytest.mark.usefixtures("numpy_fallback")
class TestFloat32StencilNumpyFallback(TestFloat32Stencil):
    """Every float32 test again, with the NumPy fallback forced (no compiler)."""
