"""Ghost-cell exchange (paper Listing 3).

Per axis, every rank sends its high interior layer "up" and its low
interior layer "down", receiving into the opposite ghost layers, via
the strided face datatypes of :mod:`repro.core.domain`. The exchange
runs axis-by-axis with faces spanning ghost corners, so after three
passes the 26-neighbourhood is consistent; since Gray-Scott's stencil
only needs face neighbours, this is one pass more general than strictly
required — the same choice GrayScott.jl makes.

As in the paper, exchange happens from CPU-allocated memory: the GPU
path copies faces D2H before and H2D after (accounted by the device's
transfer model), since the study "did not experiment with GPU-aware
MPI" (Section 3.3).

The exchange is declared once, as data: :func:`halo_schedule` lists
one rank's operations in program order. :func:`exchange_ghosts` runs
that list on a :class:`~repro.mpi.cart.CartComm`, and
:func:`repro.lint.mpiplan.halo_exchange_plan` feeds the same list to
the deadlock and matching checker, so ``grayscott lint`` checks the
order the solver executes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.core.domain import FaceSpec
from repro.mpi.cart import CartComm
from repro.mpi.comm import PROC_NULL
from repro.mpi.datatypes import pack, unpack

#: exchange modes: ``settings.exchange`` selects one
MODES = ("sequential", "overlapped")


#: tag space for ghost messages: (axis, direction) -> tag
def _face_tag(axis: int, direction: int) -> int:
    return 100 + axis * 2 + (0 if direction < 0 else 1)


class HaloOp(NamedTuple):
    """One operation of one rank's ghost exchange.

    ``side`` names the face the operation touches: a send packs the
    interior layer on that side and goes to the neighbour there; a
    receive (or the wait that completes it) fills the ghost layer on
    that side from the neighbour there.
    """

    kind: str  # "send" | "recv" | "wait"
    axis: int
    side: int  # -1 (low face) or +1 (high face)
    peer: int
    tag: int
    blocking: bool


def halo_schedule(
    shift: Callable[[int], tuple[int, int]], ndims: int, mode: str = "sequential"
) -> list[HaloOp]:
    """One rank's ghost-exchange operations, in program order.

    ``shift(axis)`` returns the ``(source, dest)`` pair of
    ``MPI_Cart_shift`` (:meth:`CartComm.shift` or a partial
    :func:`~repro.mpi.cart.cart_shift`); operations on PROC_NULL peers
    are dropped.

    - ``"sequential"`` — per axis: send up, send down, receive from
      down, receive from up, all blocking. Sends are buffered, so both
      messages are en route before either receive posts, which also
      handles self-neighbours (periodic axes of extent 1 or 2); faces
      span ghost corners, so the axis-by-axis order makes edges and
      corners consistent too.
    - ``"overlapped"`` — post every receive, send every face, then wait
      in posting order. All six faces are packed from the pre-exchange
      state, so edge/corner ghosts are NOT made consistent: correct for
      the Gray-Scott stencil, which reads face neighbours only.
    """
    if mode not in MODES:
        raise ValueError(f"exchange mode must be one of {MODES}, got {mode!r}")
    blocking = mode == "sequential"
    posted, ops = [], []
    for axis in range(ndims):
        down, up = shift(axis)
        # a message sent up is the upper neighbour's low ghost layer
        up_tag, down_tag = _face_tag(axis, +1), _face_tag(axis, -1)
        sends = [
            HaloOp("send", axis, +1, up, up_tag, blocking),
            HaloOp("send", axis, -1, down, down_tag, blocking),
        ]
        recvs = [
            HaloOp("recv", axis, -1, down, up_tag, blocking),
            HaloOp("recv", axis, +1, up, down_tag, blocking),
        ]
        if blocking:
            ops += sends + recvs
        else:
            ops += sends
            posted += recvs
    waits = [op._replace(kind="wait") for op in posted]
    return [op for op in posted + ops + waits if op.peer != PROC_NULL]


def exchange_ghosts(
    cart: CartComm,
    field: np.ndarray,
    face_specs: dict[tuple[int, int], FaceSpec],
    mode: str = "sequential",
) -> None:
    """One full ghost exchange of ``field``: runs :func:`halo_schedule`."""
    pending = {}
    for op in halo_schedule(cart.shift, 3, mode):
        spec = face_specs[(op.axis, op.side)]
        if op.kind == "send":
            wire = pack(field, spec.datatype, offset_elements=spec.send_offset)
            if op.blocking:
                cart.send(wire, op.peer, op.tag)
            else:
                cart.isend(wire, op.peer, op.tag)
        elif op.kind == "wait":
            msg = pending.pop((op.axis, op.side)).wait(cart.job.timeout)
            unpack(field, spec.datatype, msg.payload, offset_elements=spec.recv_offset)
        elif op.blocking:
            wire, _ = cart.recv(op.peer, op.tag)
            unpack(field, spec.datatype, wire, offset_elements=spec.recv_offset)
        else:
            pending[(op.axis, op.side)] = cart.irecv(op.peer, op.tag)
