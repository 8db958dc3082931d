"""Native tier of the Gray-Scott step: one C source, built once per machine.

The paper's compute layer is a compiled kernel (AMDGPU.jl lowers the
Listing 2 body through LLVM). This module plays that part on the host:
``gs_step.c`` fuses both Laplacians, the counter-based noise, the
reaction terms and the store into one pass, and takes the shape,
physics, seed, step and global offset as runtime arguments, so a single
build serves every run and every job.

- **Build.** On the first step, under a lock, the system ``cc``/``gcc``
  compiles the source with :data:`FLAGS` (no fast-math, no FMA
  contraction, no ``-march=native``). The library is cached as
  ``$XDG_CACHE_HOME/repro/native/<key>.so`` (default
  ``~/.cache/repro/native``), where ``key`` is the sha256 of the source,
  the flags and the compiler's ``--version`` text. It is written to a
  temporary name and moved into place with ``os.replace``, so racing
  builders of one key each leave a complete library.
- **Self-check.** After loading, the kernel runs once on a tiny fixed
  grid (both dtypes, non-cubic, nonzero offset) against the NumPy
  reference step, and the output bytes must match. A cached library that
  fails to load or to match is rebuilt once.
- **Fallback.** No compiler, a failed compile or ``dlopen``, or a
  self-check mismatch leaves the step on NumPy, with one
  ``RuntimeWarning`` per :class:`NativeStep`. Nothing selects the path:
  the fallback exists for installs without a compiler.

``ctypes`` releases the GIL for the duration of the call, so threaded
ranks overlap their compute.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.params import GrayScottParams

SOURCE = Path(__file__).with_name("gs_step.c")
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
ENTRY_POINTS = {np.dtype(np.float64): "gs_step_f64", np.dtype(np.float32): "gs_step_f32"}

_ARGTYPES = (
    [ctypes.c_void_p] * 4
    + [ctypes.c_int64] * 3
    + [ctypes.c_double] * 6
    + [ctypes.c_uint64] * 5
)


class NativeUnavailable(Exception):
    """The native step cannot be used here; the reason is the message."""


def find_compiler() -> str | None:
    """The system C compiler, or ``None`` when neither cc nor gcc is on PATH."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro/native``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "native"


def library_key(compiler: str) -> str:
    """sha256 of the source, the flags and ``compiler --version``."""
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, timeout=60, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"{compiler} --version failed: {exc}") from exc
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(FLAGS).encode(), version):
        digest.update(part)
        digest.update(b"\0")
    return digest.hexdigest()


def _bind(path: Path) -> dict:
    """``dlopen`` ``path`` and declare both entry points."""
    try:
        lib = ctypes.CDLL(str(path))
        functions = {dtype: getattr(lib, name) for dtype, name in ENTRY_POINTS.items()}
    except (OSError, AttributeError) as exc:
        raise NativeUnavailable(f"cannot load {path.name}: {exc}") from exc
    for fn in functions.values():
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int
    return functions


def _call(fn, u, v, u_new, v_new, params: GrayScottParams, seed, step, start) -> None:
    n0, n1, n2 = u.shape
    status = fn(
        u.ctypes.data, v.ctypes.data, u_new.ctypes.data, v_new.ctypes.data,
        n0, n1, n2,
        params.Du, params.Dv, params.F, params.k, params.noise, params.dt,
        int(seed), int(step), *(int(g) for g in start),
    )
    if status != 0:
        raise MemoryError("native Gray-Scott step could not allocate its hash buffer")


def _self_check(functions: dict, reference: Callable) -> bool:
    """Run each entry point on a tiny fixed grid; True iff bytes match."""
    shape = (6, 4, 5)
    phase = np.arange(np.prod(shape)).reshape(shape, order="F") * 0.7
    params = GrayScottParams(noise=0.1)
    keys = dict(seed=2**63 + 11, step=7, global_start=(3, 1, 2))
    for dtype, fn in functions.items():
        # irregular fields in [0, 1] (numpy.random would cost an import)
        u, v = (np.asfortranarray(f(phase) ** 2, dtype=dtype) for f in (np.sin, np.cos))
        want = [np.zeros(shape, dtype=dtype, order="F") for _ in range(2)]
        got = [np.zeros(shape, dtype=dtype, order="F") for _ in range(2)]
        reference(u, v, *want, params, **keys)
        _call(fn, u, v, *got, params, keys["seed"], keys["step"], keys["global_start"])
        if any(a.tobytes() != b.tobytes() for a, b in zip(want, got)):
            return False
    return True


class NativeStep:
    """The lazily built, self-checked native Gray-Scott step.

    ``reference`` is the NumPy step the self-check compares against.
    ``cache_root`` overrides :func:`cache_dir` (resolved at build time).
    After the first :meth:`__call__`, ``library`` is the loaded path
    (``None`` on fallback) and ``compile_seconds`` the time this
    instance spent compiling (0.0 when the cached library was used).
    """

    def __init__(self, reference: Callable, *, cache_root: Path | None = None):
        self.reference = reference
        self.cache_root = cache_root
        self.library: Path | None = None
        self.compile_seconds = 0.0
        self._functions: dict | None = None
        self._resolved = False
        self._lock = threading.Lock()

    def available(self) -> bool:
        """Build or load on first use; False means the NumPy step runs."""
        if not self._resolved:
            with self._lock:
                if not self._resolved:
                    try:
                        self._functions = self._load()
                    except (NativeUnavailable, OSError) as exc:
                        warnings.warn(
                            f"native Gray-Scott step unavailable ({exc}); "
                            "using the NumPy step",
                            RuntimeWarning,
                            stacklevel=4,
                        )
                    self._resolved = True
        return self._functions is not None

    def __call__(self, u, v, u_new, v_new, params, seed, step, global_start) -> bool:
        """Run the step natively; False (nothing written) on fallback.

        The arrays must already be validated: same shape, same float32 or
        float64 dtype, Fortran-ordered, outputs writable and disjoint.
        """
        if not self.available():
            return False
        _call(self._functions[u.dtype], u, v, u_new, v_new, params,
              seed, step, global_start)
        return True

    def _load(self) -> dict:
        compiler = find_compiler()
        if compiler is None:
            raise NativeUnavailable("no C compiler (cc or gcc) on PATH")
        directory = self.cache_root if self.cache_root is not None else cache_dir()
        target = directory / f"{library_key(compiler)}.so"
        if target.exists():
            try:
                functions = _bind(target)
            except NativeUnavailable:
                functions = None  # truncated or corrupt: rebuild below
            if functions is not None and _self_check(functions, self.reference):
                self.library = target
                return functions
        return self._build(compiler, target)

    def _build(self, compiler: str, target: Path) -> dict:
        """Compile to a temporary name, check it, then move it into place."""
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
            os.close(fd)
        except OSError as exc:
            raise NativeUnavailable(f"cannot write {target.parent}: {exc}") from exc
        tmp = Path(tmp)
        try:
            started = time.perf_counter()
            try:
                proc = subprocess.run(
                    [compiler, *FLAGS, "-o", str(tmp), str(SOURCE)],
                    capture_output=True, text=True, timeout=300,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                raise NativeUnavailable(f"compile failed: {exc}") from exc
            self.compile_seconds += time.perf_counter() - started
            if proc.returncode != 0:
                raise NativeUnavailable(
                    f"compile failed ({compiler}, exit {proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            # load under the temporary name: a stale library already
            # mapped under the final name would otherwise be reused
            functions = _bind(tmp)
            if not _self_check(functions, self.reference):
                raise NativeUnavailable("self-check against the NumPy step failed")
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.library = target
        return functions
