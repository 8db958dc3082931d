"""The native Gray-Scott step: bit identity, build cache, fallback."""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native, stencil
from repro.core.params import GrayScottParams
from repro.core.stencil import step_numpy, step_reference, step_vectorized

SRC = Path(native.__file__).resolve().parents[2]

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)


def _fields(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    u, v = (np.asfortranarray(rng.random(shape).astype(dtype)) for _ in range(2))
    return u, v


def _outputs(shape, dtype):
    return [np.zeros(shape, dtype=dtype, order="F") for _ in range(2)]


def _step_bytes(step_fn, u, v, params, **keys) -> bytes:
    out = _outputs(u.shape, u.dtype)
    step_fn(u, v, *out, params, **keys)
    return b"".join(a.tobytes() for a in out)


@pytest.fixture
def fresh_step(tmp_path, monkeypatch):
    """A NativeStep with its own cache, installed as the process's step."""
    step = native.NativeStep(step_numpy, cache_root=tmp_path / "native")
    monkeypatch.setattr(stencil, "native_step", step)
    return step


@needs_compiler
class TestNativeIsTheDefault:
    def test_default_step_is_native(self):
        assert stencil.native_step.available()
        assert stencil.native_step.library.suffix == ".so"

    @given(
        shape=st.tuples(*[st.integers(3, 8)] * 3),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**64 - 1),
        step=st.integers(0, 2**64 - 1),
        start=st.tuples(*[st.integers(0, 2**64 - 1)] * 3),
        noise=st.sampled_from([0.0, 0.01, 0.1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_reference_and_numpy(
        self, shape, dtype, seed, step, start, noise
    ):
        u, v = _fields(shape, dtype, seed=seed % 1000)
        params = GrayScottParams(noise=noise)
        keys = dict(seed=seed, step=step, global_start=start)
        got = _step_bytes(step_vectorized, u, v, params, **keys)
        assert got == _step_bytes(step_reference, u, v, params, **keys)
        assert got == _step_bytes(step_numpy, u, v, params, **keys)


class TestFallback:
    def test_no_compiler_same_bytes_and_one_warning(self, fresh_step, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        u, v = _fields((7, 5, 6), np.float64)
        params = GrayScottParams(noise=0.1)
        keys = dict(seed=3, step=4, global_start=(2, 0, 9))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = [_step_bytes(step_vectorized, u, v, params, **keys) for _ in range(3)]
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "no C compiler" in str(runtime[0].message)
        assert fresh_step.library is None
        assert set(got) == {_step_bytes(step_reference, u, v, params, **keys)}

    @needs_compiler
    def test_failed_compile_falls_back(self, fresh_step, monkeypatch):
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-flag"))
        with pytest.warns(RuntimeWarning, match="compile failed"):
            assert not fresh_step.available()
        assert list(fresh_step.cache_root.iterdir()) == []

    @needs_compiler
    def test_self_check_mismatch_falls_back(self, tmp_path):
        def wrong(u, v, u_new, v_new, params, **keys):
            step_numpy(u, v, u_new, v_new, params, **keys)
            u_new[1, 1, 1] += 1.0

        step = native.NativeStep(wrong, cache_root=tmp_path)
        with pytest.warns(RuntimeWarning, match="self-check"):
            assert not step.available()
        assert not list(tmp_path.glob("*.so"))


@needs_compiler
class TestCache:
    def test_built_once_then_reused(self, tmp_path):
        first = native.NativeStep(step_numpy, cache_root=tmp_path)
        assert first.available()
        assert first.compile_seconds > 0.0
        (library,) = tmp_path.iterdir()
        assert library == first.library
        assert library.name == f"{native.library_key(native.find_compiler())}.so"
        second = native.NativeStep(step_numpy, cache_root=tmp_path)
        assert second.available()
        assert second.compile_seconds == 0.0
        assert list(tmp_path.iterdir()) == [library]

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_library_is_rebuilt(self, tmp_path, damage):
        first = native.NativeStep(step_numpy, cache_root=tmp_path)
        assert first.available()
        good = first.library.read_bytes()
        bad = good[:100] if damage == "truncated" else os.urandom(len(good))
        # a new inode: the mapped library of `first` stays intact
        staged = tmp_path / "staged"
        staged.write_bytes(bad)
        os.replace(staged, first.library)
        second = native.NativeStep(step_numpy, cache_root=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert second.available()
        assert second.compile_seconds > 0.0
        assert second.library.stat().st_size == len(good)
        assert list(tmp_path.iterdir()) == [first.library]

    def test_first_use_from_many_threads_builds_once(self, fresh_step, monkeypatch):
        u, v = _fields((9, 7, 8), np.float64)
        params = GrayScottParams(noise=0.1)
        want = _step_bytes(step_numpy, u, v, params, seed=5, step=2)
        results, builds = [], []
        build = fresh_step._build

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(fresh_step, "_build", counted_build)

        def worker():
            results.append(_step_bytes(step_vectorized, u, v, params, seed=5, step=2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 6
        assert len(builds) == 1
        assert [p.suffix for p in fresh_step.cache_root.iterdir()] == [".so"]

    def test_concurrent_builders_both_load(self, tmp_path):
        code = (
            "import sys; from pathlib import Path\n"
            "from repro.core.native import NativeStep\n"
            "from repro.core.stencil import step_numpy\n"
            "step = NativeStep(step_numpy, cache_root=Path(sys.argv[1]))\n"
            "print(step.available(), step.compile_seconds > 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        procs = [
            subprocess.Popen(
                [sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                 str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.split()[0] == "True"
        libraries = list(tmp_path.iterdir())
        assert len(libraries) == 1 and libraries[0].suffix == ".so"
        third = native.NativeStep(step_numpy, cache_root=tmp_path)
        assert third.available() and third.compile_seconds == 0.0
