"""Two traced runs of the same work count exactly the same events."""

from layers import install
from spans import SpanRecorder
from workloads import settings


def _traced_counts(tmp_path):
    from repro.core.execute import JobSpec, execute_job

    rec = SpanRecorder()
    base = settings(L=12, steps=6, plotgap=1, seed=7)
    with install(rec):
        execute_job(JobSpec(base.with_overrides(ranks=2, output=str(tmp_path / "r2.bp"))))
        execute_job(JobSpec(base, mode="virtual", virtual_ranks=256, overlap=True))
        execute_job(JobSpec(base, mode="virtual", virtual_ranks=64, nic_contention=True))
    return rec


def test_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    assert dict(first.counts) == dict(second.counts)
    assert dict(first.modeled) == dict(second.modeled)
    for name in ("mpi.msgs", "mpi.bytes", "sched.engine.events",
                 "sched.vector.epochs", "gpu.jit.compiles", "core.steps",
                 "adios.index_bytes", "adios.data_bytes"):
        assert first.counts[name] > 0, name
    # one compile per rank's device for the one kernel specialization
    assert first.counts["gpu.jit.compiles"] == 2


def test_install_restores_the_program(tmp_path):
    import repro.core.stencil as stencil
    from repro.gpu.memory import Device

    before = (stencil.step_vectorized, Device.__dict__["launch"])
    with install(SpanRecorder()):
        assert stencil.step_vectorized is not before[0]
    assert (stencil.step_vectorized, Device.__dict__["launch"]) == before
