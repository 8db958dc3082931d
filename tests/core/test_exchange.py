import numpy as np
import pytest

from repro.core.domain import LocalDomain, serial_wrap_ghosts
from repro.core.exchange import exchange_ghosts, halo_schedule
from repro.mpi.comm import PROC_NULL
from repro.mpi.executor import run_spmd


def _global_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.random(shape))


def _parallel_exchange(global_shape, dims, nranks, seed=0):
    """Run one ghost exchange; each rank returns its full ghosted field."""
    reference = _global_field(global_shape, seed)

    def worker(comm):
        cart = comm.create_cart(dims, periods=(True,) * 3)
        domain = LocalDomain.for_coords(global_shape, dims, cart.coords())
        field = domain.allocate_field()
        domain.interior(field)[...] = reference[domain.global_slices()]
        exchange_ghosts(cart, field, domain.face_specs())
        return domain, field

    return reference, run_spmd(worker, nranks, timeout=60)


@pytest.mark.parametrize(
    "dims,nranks",
    [((2, 1, 1), 2), ((1, 2, 1), 2), ((1, 1, 2), 2), ((2, 2, 2), 8), ((1, 2, 4), 8)],
)
class TestExchangeCorrectness:
    def test_ghosts_match_periodic_neighbors(self, dims, nranks):
        shape = (8, 8, 8)
        reference, results = _parallel_exchange(shape, dims, nranks)
        padded = np.pad(reference, 1, mode="wrap")
        for domain, field in results:
            s = domain.start
            c = domain.count
            expected = np.asfortranarray(
                padded[s[0]: s[0] + c[0] + 2,
                       s[1]: s[1] + c[1] + 2,
                       s[2]: s[2] + c[2] + 2]
            )
            # faces (not edges/corners) must match after one exchange;
            # our full-extent face exchange also fixes edges and corners
            assert np.array_equal(field, expected), (domain.coords,)


class TestExchangeSpecialCases:
    def test_single_rank_parallel_matches_serial_wrap(self):
        shape = (6, 6, 6)
        reference = _global_field(shape, 3)

        def worker(comm):
            cart = comm.create_cart((1, 1, 1), periods=(True,) * 3)
            domain = LocalDomain.for_coords(shape, (1, 1, 1), cart.coords())
            field = domain.allocate_field()
            domain.interior(field)[...] = reference
            exchange_ghosts(cart, field, domain.face_specs())
            return field

        parallel_field = run_spmd(worker, 1, timeout=30)[0]

        serial_field = np.zeros((8, 8, 8), order="F")
        serial_field[1:-1, 1:-1, 1:-1] = reference
        serial_wrap_ghosts(serial_field)
        # faces must agree (serial wrap handles faces; corners too by
        # sequential per-axis copies)
        assert np.array_equal(parallel_field, serial_field)

    def test_two_rank_axis_both_neighbors_same_peer(self):
        """dims=2 along one axis: both shifts point at the same rank."""
        shape = (8, 8, 8)
        reference, results = _parallel_exchange(shape, (2, 1, 1), 2, seed=5)
        domain, field = results[0]
        # low ghost of rank 0 must be rank 1's high interior layer
        assert np.array_equal(
            field[0, 1:-1, 1:-1], reference[7, :, :]
        )
        assert np.array_equal(
            field[-1, 1:-1, 1:-1], reference[4, :, :]
        )

    def test_uneven_blocks(self):
        shape = (10, 8, 8)
        reference, results = _parallel_exchange(shape, (2, 1, 1), 2, seed=9)
        padded = np.pad(reference, 1, mode="wrap")
        for domain, field in results:
            s, c = domain.start, domain.count
            expected = np.asfortranarray(
                padded[s[0]: s[0] + c[0] + 2,
                       s[1]: s[1] + c[1] + 2,
                       s[2]: s[2] + c[2] + 2]
            )
            assert np.array_equal(field, expected)


class TestNonblockingExchange:
    def test_faces_match_blocking_variant(self):
        """Face ghosts agree with the blocking exchange; the Gray-Scott
        stencil never reads the edge/corner ghosts where they differ."""
        shape = (8, 8, 8)
        dims, nranks = (2, 2, 2), 8
        reference = _global_field(shape, seed=11)

        def worker(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords(shape, dims, cart.coords())
            blocking = domain.allocate_field()
            overlapped = domain.allocate_field()
            for field in (blocking, overlapped):
                domain.interior(field)[...] = reference[domain.global_slices()]
            specs = domain.face_specs()
            exchange_ghosts(cart, blocking, specs)
            exchange_ghosts(cart, overlapped, specs, mode="overlapped")
            # compare face ghosts only (strip the 12 edges + 8 corners)
            m = blocking.shape
            same = True
            same &= np.array_equal(blocking[0, 1:-1, 1:-1], overlapped[0, 1:-1, 1:-1])
            same &= np.array_equal(blocking[-1, 1:-1, 1:-1], overlapped[-1, 1:-1, 1:-1])
            same &= np.array_equal(blocking[1:-1, 0, 1:-1], overlapped[1:-1, 0, 1:-1])
            same &= np.array_equal(blocking[1:-1, -1, 1:-1], overlapped[1:-1, -1, 1:-1])
            same &= np.array_equal(blocking[1:-1, 1:-1, 0], overlapped[1:-1, 1:-1, 0])
            same &= np.array_equal(blocking[1:-1, 1:-1, -1], overlapped[1:-1, 1:-1, -1])
            return same

        assert all(run_spmd(worker, nranks, timeout=60))

    def test_simulation_correct_with_nonblocking_faces(self):
        """A solver stepping with the overlapped exchange matches the
        serial solution bitwise (the kernel only reads face ghosts)."""
        from repro.core.settings import GrayScottSettings
        from repro.core.simulation import Simulation

        settings = GrayScottSettings(L=12, steps=0, noise=0.05)
        serial = Simulation(settings)
        serial.run(5)
        expected = serial.gather_global("u")

        def worker(comm):
            sim = Simulation(settings.with_overrides(exchange="overlapped"), comm)
            sim.run(5)
            return sim.gather_global("u")

        got = run_spmd(worker, 8, timeout=120)[0]
        assert np.array_equal(expected, got)


class TestScheduleMatchesLintPlan:
    """The MPI calls the exchange makes are the plan ``grayscott lint``
    checks: same peers, tags, blocking and order on every rank."""

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "neumann"])
    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 1, 1), (2, 2, 2)])
    def test_runtime_calls_equal_plan(self, monkeypatch, dims, periodic, mode):
        import math
        import threading

        from repro.lint import halo_exchange_plan
        from repro.mpi.comm import Comm

        nranks = math.prod(dims)
        calls = {rank: [] for rank in range(nranks)}
        inside = threading.local()  # send/recv call isend/irecv: log the outer call

        def spy(name, kind, blocking):
            real = getattr(Comm, name)

            def wrapper(self, *args, **kwargs):
                depth = getattr(inside, "depth", 0)
                if depth == 0:  # the exchange passes (..., peer, tag) positionally
                    calls[self.rank].append((kind, *args[-2:], blocking))
                inside.depth = depth + 1
                try:
                    return real(self, *args, **kwargs)
                finally:
                    inside.depth = depth

            return wrapper

        monkeypatch.setattr(Comm, "send", spy("send", "send", True))
        monkeypatch.setattr(Comm, "isend", spy("isend", "send", False))
        monkeypatch.setattr(Comm, "recv", spy("recv", "recv", True))
        monkeypatch.setattr(Comm, "irecv", spy("irecv", "recv", False))

        shape = (8, 8, 8)
        periods = (periodic,) * 3

        def worker(comm):
            cart = comm.create_cart(dims, periods=periods)
            domain = LocalDomain.for_coords(shape, dims, cart.coords())
            field = domain.allocate_field()
            exchange_ghosts(cart, field, domain.face_specs(), mode=mode)

        run_spmd(worker, nranks, timeout=60)
        plan = halo_exchange_plan(dims, periods, mode=mode)
        for rank in range(nranks):
            expected = [
                (op.kind, op.peer, op.tag, op.blocking) for op in plan.program(rank)
            ]
            assert calls[rank] == expected, rank


class TestHaloSchedule:
    @staticmethod
    def _shift(axis):
        return 10 + axis, 20 + axis  # (source below, dest above)

    def test_sequential_order(self):
        ops = halo_schedule(self._shift, 1, "sequential")
        assert [(op.kind, op.side, op.peer, op.tag, op.blocking) for op in ops] == [
            ("send", +1, 20, 101, True),
            ("send", -1, 10, 100, True),
            ("recv", -1, 10, 101, True),
            ("recv", +1, 20, 100, True),
        ]

    def test_overlapped_order(self):
        ops = halo_schedule(self._shift, 2, "overlapped")
        assert [(op.kind, op.axis, op.side) for op in ops] == [
            ("recv", 0, -1), ("recv", 0, +1), ("recv", 1, -1), ("recv", 1, +1),
            ("send", 0, +1), ("send", 0, -1), ("send", 1, +1), ("send", 1, -1),
            ("wait", 0, -1), ("wait", 0, +1), ("wait", 1, -1), ("wait", 1, +1),
        ]
        assert not any(op.blocking for op in ops if op.kind != "wait")

    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    def test_proc_null_peers_dropped(self, mode):
        ops = halo_schedule(lambda axis: (PROC_NULL, 1), 3, mode)
        assert ops and all(op.peer == 1 and op.side == +1 for op in ops)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            halo_schedule(self._shift, 3, "eager")
