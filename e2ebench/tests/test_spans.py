"""Self time of nested spans, per thread, and the wrapper's undo."""

import threading
import types

import pytest

from spans import Patches, SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time_excludes_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    outer = rec.enter("core")
    clock.now = 2.0
    inner = rec.enter("core.stencil")
    clock.now = 3.0
    leaf = rec.enter("gpu.rand")
    clock.now = 4.5
    rec.exit(leaf)
    clock.now = 5.0
    rec.exit(inner)
    clock.now = 6.0
    second = rec.enter("core.stencil")
    clock.now = 7.0
    rec.exit(second)
    clock.now = 10.0
    assert rec.exit(outer) == 10.0
    assert rec.layer_self("core") == pytest.approx(10.0 - 3.0 - 1.0)
    assert rec.layer_self("core.stencil") == pytest.approx(3.0 - 1.5 + 1.0)
    assert rec.layer_self("gpu.rand") == pytest.approx(1.5)
    # self times partition the outermost span: nothing counted twice
    assert rec.thread_self("MainThread") == pytest.approx(10.0)
    assert rec.layer_calls("core.stencil") == 2


def test_out_of_order_exit_is_refused():
    rec = SpanRecorder()
    outer = rec.enter("a")
    rec.enter("b")
    with pytest.raises(RuntimeError):
        rec.exit(outer)


def test_threads_keep_separate_stacks():
    rec = SpanRecorder()
    ready = threading.Barrier(2)

    def work(name):
        frame = rec.enter("outer")
        ready.wait(timeout=5)
        inner = rec.enter(name)
        rec.exit(inner)
        rec.exit(frame)

    threads = [threading.Thread(target=work, args=(f"inner{i}",), name=f"rank-{i}")
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert {t for t, _ in rec.self_s} == {"rank-0", "rank-1"}
    assert rec.layer_calls("outer") == 2
    assert rec.layer_calls("inner0", {"rank-0"}) == 1
    assert rec.layer_calls("inner0", {"rank-1"}) == 0


def test_patches_wrap_functions_methods_and_staticmethods(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Engine:
        def run(self, x):
            return module.helper(x) + 1

        @staticmethod
        def analyze(x):
            return x * 2

    def helper(x):
        return x * 10

    module.helper = helper
    module.Engine = Engine
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)

    rec = SpanRecorder()
    seen = []
    with Patches(rec) as patches:
        patches.wrap("fake_layer:helper", "inner",
                     after=lambda r, a, k, result: seen.append(result))
        patches.wrap("fake_layer:Engine.run", "outer")
        patches.wrap("fake_layer:Engine.analyze", "analysis")
        assert Engine().run(2) == 21
        assert Engine.analyze(3) == 6 and Engine().analyze(4) == 8
    assert seen == [20]
    assert rec.layer_calls("outer") == 1 and rec.layer_calls("inner") == 1
    assert rec.layer_calls("analysis") == 2
    # restored: no further spans
    Engine().run(1)
    assert module.helper is helper and rec.layer_calls("outer") == 1
    assert isinstance(Engine.__dict__["analyze"], staticmethod)
