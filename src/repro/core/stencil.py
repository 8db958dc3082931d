"""Gray-Scott stencil kernels (paper Listing 2 and Eqs. 2-3).

Interchangeable implementations, used at different layers:

- :func:`step_reference` — plain Python loops over interior cells; the
  ground truth for tests (slow, small grids only);
- :func:`step_vectorized` — the production step on the host: the fused
  native kernel of :mod:`repro.core.native`, or :func:`step_numpy` on
  installs with no C compiler;
- :func:`step_numpy` — whole-array NumPy; the fallback, and the oracle
  of the native kernel's load-time self-check. All three perform the
  *same* floating-point operations in the same order, so they agree
  bitwise;
- :func:`make_gray_scott_kernel` / :func:`make_laplacian_kernel` — GPU
  kernels for the simulated device, mirroring the paper's Listing 2:
  scalar per-workitem bodies (with the Listing 2 launch-axis mapping
  x->k, z->i) plus vectorized fast paths.

All fields carry one ghost layer per side (shape ``n + 2`` per axis)
and are Fortran-ordered like Julia arrays. The noise term uses the
counter-based RNG of :mod:`repro.gpu.rand` keyed by *global* cell
coordinates, so results are independent of the domain decomposition and
identical between the scalar and vectorized paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.native import NativeStep
from repro.core.params import GrayScottParams
from repro.gpu.kernel import Kernel, KernelContext
from repro.gpu.rand import counter_uniform, uniform_field
from repro.util.errors import ConfigError

ONE_SIXTH = 1.0 / 6.0


def check_ghosted(field: np.ndarray, name: str = "field") -> None:
    """Validate a ghosted local field (3D, >= 3 cells/axis, F-order)."""
    if field.ndim != 3:
        raise ConfigError(f"{name} must be 3D, got shape {field.shape}")
    if any(s < 3 for s in field.shape):
        raise ConfigError(
            f"{name} of shape {field.shape} too small for one ghost layer per side"
        )
    if not field.flags.f_contiguous:
        raise ConfigError(f"{name} must be Fortran-ordered (column-major, like Julia)")


def check_step_arrays(u, v, u_new, v_new) -> None:
    """Validate the four arrays of a step before any is read or written.

    All must share one shape and one dtype (float64 or float32) and be
    Fortran-ordered; the outputs must be writable and overlap neither the
    inputs nor each other.
    """
    check_ghosted(u, "u")
    if u.dtype not in (np.float64, np.float32):
        raise ConfigError(f"u dtype must be float64 or float32, got {u.dtype}")
    for name, arr in (("v", v), ("u_new", u_new), ("v_new", v_new)):
        if not isinstance(arr, np.ndarray):
            raise ConfigError(f"{name} must be a numpy array, got {type(arr).__name__}")
        if arr.shape != u.shape:
            raise ConfigError(f"{name} shape {arr.shape} != u shape {u.shape}")
        if arr.dtype != u.dtype:
            raise ConfigError(f"{name} dtype {arr.dtype} != u dtype {u.dtype}")
        if not arr.flags.f_contiguous:
            raise ConfigError(f"{name} must be Fortran-ordered (column-major, like Julia)")
    for name, arr in (("u_new", u_new), ("v_new", v_new)):
        if not arr.flags.writeable:
            raise ConfigError(f"{name} must be writable")
    for a, b in ((u_new, u), (u_new, v), (u_new, v_new), (v_new, u), (v_new, v)):
        if np.may_share_memory(a, b):
            raise ConfigError("step outputs must not overlap the inputs or each other")


def laplacian_at(var, i: int, j: int, k: int):
    """The paper's ``_laplacian``: normalized 7-point operator (Eq. 3)."""
    l = (
        var[i - 1, j, k]
        + var[i + 1, j, k]
        + var[i, j - 1, k]
        + var[i, j + 1, k]
        + var[i, j, k - 1]
        + var[i, j, k + 1]
        - 6.0 * var[i, j, k]
    )
    return l * ONE_SIXTH


def laplacian_field(var: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 3 over the interior of a ghosted field.

    Term order matches :func:`laplacian_at` exactly (bitwise parity).
    """
    c = var[1:-1, 1:-1, 1:-1]
    l = (
        var[:-2, 1:-1, 1:-1]
        + var[2:, 1:-1, 1:-1]
        + var[1:-1, :-2, 1:-1]
        + var[1:-1, 2:, 1:-1]
        + var[1:-1, 1:-1, :-2]
        + var[1:-1, 1:-1, 2:]
        - 6.0 * c
    )
    return l * ONE_SIXTH


def step_reference(
    u: np.ndarray,
    v: np.ndarray,
    u_new: np.ndarray,
    v_new: np.ndarray,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """Ground-truth interior update by explicit loops (Eqs. 2a/2b).

    ``global_start`` is the global coordinate of the first *interior*
    cell of this subdomain; it keys the decomposition-invariant noise.
    """
    check_step_arrays(u, v, u_new, v_new)
    Du, Dv, F, K = params.Du, params.Dv, params.F, params.k
    noise, dt = params.noise, params.dt
    g0, g1, g2 = global_start
    n0, n1, n2 = u.shape
    # arithmetic is float64 regardless of storage precision; the single
    # rounding happens at the store (same contract as step_vectorized)
    u = u.astype(np.float64, copy=False)
    v = v.astype(np.float64, copy=False)
    for k in range(1, n2 - 1):
        for j in range(1, n1 - 1):
            for i in range(1, n0 - 1):
                u_ijk = u[i, j, k]
                v_ijk = v[i, j, k]
                r = counter_uniform(
                    seed, step, i - 1 + g0, j - 1 + g1, k - 1 + g2
                )
                du = (
                    Du * laplacian_at(u, i, j, k)
                    - u_ijk * (v_ijk * v_ijk)
                    + F * (1.0 - u_ijk)
                    + noise * r
                )
                dv = (
                    Dv * laplacian_at(v, i, j, k)
                    + u_ijk * (v_ijk * v_ijk)
                    - (F + K) * v_ijk
                )
                u_new[i, j, k] = u_ijk + du * dt
                v_new[i, j, k] = v_ijk + dv * dt


def step_vectorized(
    u: np.ndarray,
    v: np.ndarray,
    u_new: np.ndarray,
    v_new: np.ndarray,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """The production interior update; bitwise-matches :func:`step_reference`.

    Runs the native kernel, or :func:`step_numpy` where none could be
    built (see :mod:`repro.core.native`).
    """
    check_step_arrays(u, v, u_new, v_new)
    if len(global_start) != 3:
        raise ConfigError(f"global_start must have 3 coordinates, got {global_start}")
    for name, key in (("seed", seed), ("step", step), *(("global_start", g) for g in global_start)):
        if not 0 <= key < 2**64:
            raise ConfigError(f"{name} {key} outside [0, 2**64)")
    if not native_step(u, v, u_new, v_new, params, seed, step, global_start):
        step_numpy(
            u, v, u_new, v_new, params,
            seed=seed, step=step, global_start=global_start,
        )


def step_numpy(
    u: np.ndarray,
    v: np.ndarray,
    u_new: np.ndarray,
    v_new: np.ndarray,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> None:
    """Whole-array NumPy interior update; bitwise-matches :func:`step_reference`.

    The fallback of :func:`step_vectorized` and the oracle the native
    kernel's load-time self-check compares against.
    """
    check_ghosted(u, "u")
    Du, Dv, F, K = params.Du, params.Dv, params.F, params.k
    noise, dt = params.noise, params.dt
    interior = tuple(s - 2 for s in u.shape)

    # arithmetic in float64 (one rounding, at the store below) so
    # float32 runs agree bitwise with the scalar reference
    u64 = u.astype(np.float64, copy=False)
    v64 = v.astype(np.float64, copy=False)
    uc = u64[1:-1, 1:-1, 1:-1]
    vc = v64[1:-1, 1:-1, 1:-1]
    r = uniform_field(seed, step, interior, global_start)
    reaction = uc * (vc * vc)
    du = Du * laplacian_field(u64) - reaction + F * (1.0 - uc) + noise * r
    dv = Dv * laplacian_field(v64) + reaction - (F + K) * vc
    u_new[1:-1, 1:-1, 1:-1] = uc + du * dt
    v_new[1:-1, 1:-1, 1:-1] = vc + dv * dt


#: the process's native step; built on first use, checked against step_numpy
native_step = NativeStep(step_numpy)


# ---------------------------------------------------------------------------
# GPU-simulator kernels (Listing 2)
# ---------------------------------------------------------------------------


def _gs_body(
    ctx: KernelContext,
    u, v, u_temp, v_temp,
    sizes, Du, Dv, F, K, noise, dt,
    seed, step, g0, g1, g2,
):
    """Scalar body of the application kernel, as in Listing 2.

    The launch's fastest dimension x maps to the *last* array index k
    (and z to the first index i), the paper's AMDGPU.jl mapping.
    """
    x, y, z = ctx.global_idx()
    k, j, i = x, y, z
    if (
        k == 0 or k >= sizes[2] - 1
        or j == 0 or j >= sizes[1] - 1
        or i == 0 or i >= sizes[0] - 1
    ):
        return
    u_ijk = u[i, j, k]
    v_ijk = v[i, j, k]
    r = counter_uniform(seed, step, i - 1 + g0, j - 1 + g1, k - 1 + g2)
    du = (
        Du * laplacian_at(u, i, j, k)
        - u_ijk * (v_ijk * v_ijk)
        + F * (1.0 - u_ijk)
        + noise * r
    )
    dv = (
        Dv * laplacian_at(v, i, j, k)
        + u_ijk * (v_ijk * v_ijk)
        - (F + K) * v_ijk
    )
    u_temp[i, j, k] = u_ijk + du * dt
    v_temp[i, j, k] = v_ijk + dv * dt


def _gs_vectorized(
    extent,
    u, v, u_temp, v_temp,
    sizes, Du, Dv, F, K, noise, dt,
    seed, step, g0, g1, g2,
):
    params = GrayScottParams(Du=Du, Dv=Dv, F=F, k=K, noise=noise, dt=dt)
    step_vectorized(
        u, v, u_temp, v_temp, params,
        seed=seed, step=step, global_start=(g0, g1, g2),
    )


def make_gray_scott_kernel() -> Kernel:
    """The 2-variable application kernel (Table 2/3 'application')."""
    return Kernel(
        "_kernel_gray_scott",
        _gs_body,
        vectorized=_gs_vectorized,
        uses_rand=True,
        flops_per_workitem=33,
    )


def _lap_body(ctx: KernelContext, var, var_temp, sizes, D, dt):
    """1-variable diffusion kernel, no randomness (Table 2/3 middle column)."""
    x, y, z = ctx.global_idx()
    k, j, i = x, y, z
    if (
        k == 0 or k >= sizes[2] - 1
        or j == 0 or j >= sizes[1] - 1
        or i == 0 or i >= sizes[0] - 1
    ):
        return
    var_temp[i, j, k] = var[i, j, k] + D * laplacian_at(var, i, j, k) * dt


def _lap_vectorized(extent, var, var_temp, sizes, D, dt):
    c = var[1:-1, 1:-1, 1:-1]
    var_temp[1:-1, 1:-1, 1:-1] = c + D * laplacian_field(var) * dt


def make_laplacian_kernel() -> Kernel:
    """The 1-variable no-random diagnostic kernel."""
    return Kernel(
        "_kernel_laplacian_1var",
        _lap_body,
        vectorized=_lap_vectorized,
        uses_rand=False,
        flops_per_workitem=10,
    )


def kernel_args(
    u, v, u_temp, v_temp,
    params: GrayScottParams,
    *,
    seed: int,
    step: int,
    global_start: tuple[int, int, int] = (0, 0, 0),
) -> tuple:
    """Assemble the Listing 2 argument tuple for the application kernel."""
    shape = getattr(u, "shape")
    return (
        u, v, u_temp, v_temp,
        tuple(shape),
        params.Du, params.Dv, params.F, params.k, params.noise, params.dt,
        seed, step, *global_start,
    )
