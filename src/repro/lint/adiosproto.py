"""ADIOS step-protocol verifier: state machine + selection coverage.

A :class:`WriterScript` is the symbolic program of a parallel writer:
per-rank sequences of ``begin_step`` / ``put`` / ``end_step`` /
``close`` operations plus the declared global shape of every variable.
:func:`check_writer_script` executes it against the same state machine
:class:`repro.adios.engines.BP5Writer` enforces at runtime — but
statically, before any byte is written:

- protocol violations (**ADIOS-PUT-OUTSIDE-STEP**, **ADIOS-NESTED-
  BEGIN**, **ADIOS-END-UNOPENED**, **ADIOS-CLOSE-IN-STEP**,
  **ADIOS-UNCLOSED-STEP**) mirror the writer's
  :class:`~repro.util.errors.EngineStateError` conditions;
- **ADIOS-STEP-SKEW** catches ranks completing different step counts —
  the collective ``end_step`` would hang or corrupt the index;
- per-step selection coverage over the global shape: blocks outside
  the shape (**ADIOS-OOB-BLOCK**), overlapping blocks
  (**ADIOS-OVERLAP**), and uncovered cells (**ADIOS-GAP**), verified
  cell-exactly via an occupancy grid for shapes up to
  :data:`OCCUPANCY_LIMIT` cells and by volume accounting above it.

:func:`writer_script_for` derives the script the Gray-Scott workflow
would execute from a settings object alone (decomposition via
``dims_create`` + :class:`~repro.core.domain.LocalDomain`, one
``U``/``V``/``step`` put per output step), so ``grayscott lint``
verifies the real writer plan end-to-end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.lint import diagnostics as D
from repro.lint.diagnostics import LintReport
from repro.util.errors import LintError

#: largest global-shape volume checked cell-exactly (8M cells ~ 8 MB)
OCCUPANCY_LIMIT = 1 << 23

BEGIN_STEP = "begin_step"
PUT = "put"
END_STEP = "end_step"
CLOSE = "close"


@dataclass(frozen=True)
class WriterOp:
    """One symbolic writer call."""

    op: str
    var: str = ""
    start: tuple[int, ...] = ()
    count: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.op == PUT:
            return f"put({self.var}, start={self.start}, count={self.count})"
        return f"{self.op}()"


@dataclass
class WriterScript:
    """Per-rank writer programs + declared variable shapes."""

    nranks: int
    #: variable -> global shape; () declares a scalar (no coverage check)
    shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    ops: dict[int, list[WriterOp]] = field(default_factory=dict)

    def _rank(self, rank: int) -> list[WriterOp]:
        if not 0 <= rank < self.nranks:
            raise LintError(
                f"writer op on rank {rank} outside {self.nranks} ranks"
            )
        return self.ops.setdefault(rank, [])

    def begin_step(self, rank: int) -> "WriterScript":
        self._rank(rank).append(WriterOp(BEGIN_STEP))
        return self

    def put(self, rank: int, var: str, start=(), count=()) -> "WriterScript":
        self._rank(rank).append(
            WriterOp(PUT, var, tuple(int(s) for s in start),
                     tuple(int(c) for c in count))
        )
        return self

    def end_step(self, rank: int) -> "WriterScript":
        self._rank(rank).append(WriterOp(END_STEP))
        return self

    def close(self, rank: int) -> "WriterScript":
        self._rank(rank).append(WriterOp(CLOSE))
        return self


def writer_script_for(settings) -> WriterScript:
    """The script the Gray-Scott workflow would run for ``settings``."""
    from repro.core.domain import LocalDomain
    from repro.mpi.cart import dims_create

    nranks = max(int(settings.ranks), 1)
    dims = dims_create(nranks, 3)
    shape = settings.shape
    script = WriterScript(
        nranks=nranks,
        shapes={"U": shape, "V": shape, "step": ()},
    )
    nsteps_out = settings.steps // settings.plotgap
    for rank in range(nranks):
        coords = _coords_rowmajor(rank, dims)
        domain = LocalDomain.for_coords(shape, dims, coords)
        for _ in range(nsteps_out):
            script.begin_step(rank)
            script.put(rank, "U", domain.start, domain.count)
            script.put(rank, "V", domain.start, domain.count)
            script.put(rank, "step")
            script.end_step(rank)
        script.close(rank)
    return script


def _coords_rowmajor(rank: int, dims) -> tuple[int, ...]:
    out = []
    for dim in reversed(dims):
        out.append(rank % dim)
        rank //= dim
    return tuple(reversed(out))


# -- the checker ------------------------------------------------------------


def check_writer_script(
    script: WriterScript, *, report: LintReport | None = None
) -> LintReport:
    report = report if report is not None else LintReport()
    #: (var, step) -> list of (rank, WriterOp)
    blocks: dict[tuple[str, int], list[tuple[int, WriterOp]]] = {}
    steps_completed: dict[int, int] = {}

    for rank in range(script.nranks):
        where = f"rank{rank}"
        in_step = False
        closed = False
        step = -1
        for op in script.ops.get(rank, []):
            if closed:
                report.add(
                    D.ADIOS_PUT_OUTSIDE_STEP, where,
                    f"{op.describe()} after close()",
                    hint="no calls are legal on a closed writer",
                )
                continue
            if op.op == BEGIN_STEP:
                if in_step:
                    report.add(
                        D.ADIOS_NESTED_BEGIN, where,
                        f"begin_step while step {step} is still open",
                        hint="end_step before opening the next step",
                    )
                    continue
                in_step = True
                step += 1
            elif op.op == PUT:
                if not in_step:
                    report.add(
                        D.ADIOS_PUT_OUTSIDE_STEP, where,
                        f"{op.describe()} outside begin_step/end_step",
                        hint="wrap puts in a begin_step/end_step pair",
                    )
                    continue
                _check_put(script, rank, step, op, report, where)
                blocks.setdefault((op.var, step), []).append((rank, op))
            elif op.op == END_STEP:
                if not in_step:
                    report.add(
                        D.ADIOS_END_UNOPENED, where,
                        "end_step without begin_step",
                        hint="every end_step needs a begin_step",
                    )
                    continue
                in_step = False
            elif op.op == CLOSE:
                if in_step:
                    report.add(
                        D.ADIOS_CLOSE_IN_STEP, where,
                        f"close() inside open step {step}",
                        hint="call end_step before close",
                    )
                    in_step = False
                closed = True
            else:
                raise LintError(f"unknown writer op {op.op!r}")
        if in_step:
            report.add(
                D.ADIOS_UNCLOSED_STEP, where,
                f"program ends with step {step} still open",
                hint="end_step (and close) before the program ends",
            )
        steps_completed[rank] = step + (0 if in_step else 1)

    counts = set(steps_completed.values())
    if len(counts) > 1:
        detail = ", ".join(
            f"rank{r}={n}" for r, n in sorted(steps_completed.items())
        )
        report.add(
            D.ADIOS_STEP_SKEW, f"ranks 0..{script.nranks - 1}",
            f"ranks complete different step counts ({detail})",
            hint="end_step is collective; every rank must step in lockstep",
        )

    for (var, step), entries in sorted(blocks.items()):
        shape = script.shapes.get(var)
        if not shape:  # scalars and unknown vars: no coverage semantics
            continue
        _check_coverage(var, step, shape, entries, report)

    report.record_fact("adios.script.nranks", script.nranks)
    report.record_fact(
        "adios.script.steps", max(steps_completed.values(), default=0)
    )
    return report


def _check_put(script, rank, step, op, report, where) -> None:
    if op.var not in script.shapes:
        report.add(
            D.ADIOS_UNKNOWN_VAR, where,
            f"step {step}: {op.describe()} has no declared global shape",
            hint="declare the variable (define_variable) before putting it",
        )
        return
    shape = script.shapes[op.var]
    if not shape:
        return  # scalar put: no selection
    if len(op.start) != len(shape) or len(op.count) != len(shape):
        report.add(
            D.ADIOS_BAD_SELECTION, where,
            f"step {step}: {op.describe()} does not match "
            f"{op.var!r} shape {shape}",
            hint="start/count must have one entry per global dimension",
        )
        return
    for axis, (s, c, n) in enumerate(zip(op.start, op.count, shape)):
        if s < 0 or c <= 0 or s + c > n:
            report.add(
                D.ADIOS_OOB_BLOCK, where,
                f"step {step}: {op.describe()} leaves the global shape "
                f"{shape} on axis {axis} (cells [{s}, {s + c}))",
                hint="clamp the block to the variable's global shape",
            )
            return


def _intersects(a: WriterOp, b: WriterOp) -> bool:
    return all(
        sa < sb + cb and sb < sa + ca
        for sa, ca, sb, cb in zip(a.start, a.count, b.start, b.count)
    )


def _check_coverage(var, step, shape, entries, report) -> None:
    where = f"{var}/step{step}"
    valid = [
        (rank, op) for rank, op in entries
        if len(op.start) == len(shape)
        and len(op.count) == len(shape)
        and all(
            s >= 0 and c > 0 and s + c <= n
            for s, c, n in zip(op.start, op.count, shape)
        )
    ]
    total = math.prod(shape)
    if total <= OCCUPANCY_LIMIT:
        occupancy = np.zeros(shape, dtype=np.int16)
        for _, op in valid:
            sel = tuple(slice(s, s + c) for s, c in zip(op.start, op.count))
            occupancy[sel] += 1
        overlapped = int((occupancy > 1).sum())
        uncovered = int((occupancy == 0).sum())
    else:  # volume accounting only, for enormous shapes
        volume = sum(math.prod(op.count) for _, op in valid)
        overlapped = 0
        for i, (_, a) in enumerate(valid):
            if any(_intersects(a, b) for _, b in valid[i + 1:]):
                overlapped = 1
                break
        uncovered = max(0, total - volume) if not overlapped else 0
    if overlapped:
        pairs = [
            (ra, rb)
            for i, (ra, a) in enumerate(valid)
            for rb, b in (e for e in valid[i + 1:])
            if _intersects(a, b)
        ]
        report.add(
            D.ADIOS_OVERLAP, where,
            f"blocks overlap on {overlapped or 'some'} cell(s) "
            f"(writer rank pairs {sorted(set(pairs))[:4]})",
            hint="readback order over overlapping blocks is undefined; "
                 "make per-rank selections disjoint",
        )
    if uncovered:
        report.add(
            D.ADIOS_GAP, where,
            f"{uncovered} of {total} cells are never written this step",
            hint="gaps read back as zeros; cover the full global shape "
                 "or shrink it",
        )
