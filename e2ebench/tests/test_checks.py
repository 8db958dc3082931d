"""The output checks pass on good outputs and fail on corrupted ones."""

import pytest

from workloads import check_digest, check_same_steps, field_digest, settings


def _run(**overrides):
    from repro.core.execute import JobSpec, execute_job

    return execute_job(JobSpec(settings(L=12, steps=4, plotgap=1, seed=3, **overrides)))


def _flip_byte(path, offset=100):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.fixture
def pair(tmp_path):
    serial, ranks2 = tmp_path / "serial.bp", tmp_path / "ranks2.bp"
    _run(output=str(serial))
    _run(output=str(ranks2), ranks=2)
    return serial, ranks2


def test_two_rank_output_matches_serial(pair):
    assert check_same_steps(*pair)


def test_flipped_subfile_byte_fails_the_bitwise_check(pair):
    serial, ranks2 = pair
    _flip_byte(ranks2 / "data.0")
    assert not check_same_steps(serial, ranks2)


def test_flipped_subfile_byte_fails_the_digest_check(pair):
    serial, _ = pair
    digest = field_digest(serial)
    assert check_digest(serial, digest)
    last_block = (serial / "data.0").stat().st_size - 50
    _flip_byte(serial / "data.0", last_block)
    assert not check_digest(serial, digest)


def test_flipped_stored_digest_fails(pair):
    serial, _ = pair
    digest = field_digest(serial)
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert not check_digest(serial, flipped)


def test_virtual_check_passes_and_fails_on_a_changed_stored_value(tmp_path):
    from workloads import Virtual

    workload = Virtual(5, tmp_path)
    assert workload._op({})[1]
    elapsed, events = workload.expected["nic"]
    workload.expected["nic"] = [elapsed, events + 1]
    assert not workload._op({})[1]


def test_shipped_solve_digest_matches_this_checkout(tmp_path):
    """The stored reference holds for a shipped seed (one seed, for time)."""
    from repro.core.execute import execute_job
    from workloads import Solve, load_expected

    spec = Solve.spec_for(5, tmp_path)
    execute_job(spec)
    assert check_digest(spec.settings.output, load_expected()["solve"]["5"])


def test_serve_check_refuses_changed_bytes_and_repeat_executions(tmp_path):
    from types import SimpleNamespace

    from workloads import ServeMix

    workload = ServeMix(1, tmp_path)
    try:
        key = "ab" * 32
        workload.cold[key[:16]] = "cold bytes"

        def request(rendered):
            record = SimpleNamespace(ok=True, rendered=rendered, key=key,
                                     cached=True, coalesced=False)
            return SimpleNamespace(record=record)

        assert workload._check(request("cold bytes"))
        assert not workload._check(request("cold bytes, changed"))
        workload.executions.update({key[:16]: 2, "other": 1})
        assert workload._repeats() == 1
    finally:
        workload.close()
