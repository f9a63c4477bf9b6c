import sys
import types

import pytest

from perfbench.trace import Boundary, SpanRecorder, install, self_times


def test_nested_spans_subtract_only_direct_children():
    # root [0, 100) > child [10, 30) > grandchild [15, 20)
    start = [0, 10, 15]
    end = [100, 30, 20]
    parent = [-1, 0, 1]
    assert self_times(start, end, parent) == [80, 15, 5]


def test_sibling_spans_each_subtract_from_the_parent():
    # root [0, 100) with children [10, 30) and [40, 60)
    start = [0, 10, 40]
    end = [100, 30, 60]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent) == [60, 20, 20]


def test_overlapping_children_count_their_union_once():
    start = [0, 10, 20]
    end = [100, 30, 50]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent)[0] == 60


def test_children_are_clipped_to_the_parent_interval():
    start = [10, 0, 90]
    end = [100, 20, 120]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent)[0] == 90 - 10 - 10


def test_separate_roots_are_independent():
    start = [0, 5, 100, 110]
    end = [50, 15, 200, 120]
    parent = [-1, 0, -1, 2]
    assert self_times(start, end, parent) == [40, 10, 90, 10]


class _Service:
    def outer(self, value):
        return self.inner(value) + _Service.build(value)

    def inner(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return value + 1


@pytest.fixture
def toy_modules():
    package = types.ModuleType("perfbench_toy")

    def helper(value):
        return value - 1

    package.helper = helper
    user = types.ModuleType("perfbench_toy.user")
    user.helper = helper
    package.Service = _Service
    sys.modules["perfbench_toy"] = package
    sys.modules["perfbench_toy.user"] = user
    yield package, user
    del sys.modules["perfbench_toy"], sys.modules["perfbench_toy.user"]


def test_install_times_methods_classmethods_and_imported_functions(
        toy_modules):
    package, user = toy_modules
    original_helper = package.helper
    original_outer = _Service.__dict__["outer"]
    seen = []

    def observe(args):
        def finish(result, duration):
            seen.append((args[1], result, duration))
        return finish

    bounds = [Boundary("toy", "outer", "perfbench_toy:Service.outer"),
              Boundary("toy", "inner", "perfbench_toy:Service.inner",
                       observe),
              Boundary("toy", "build", "perfbench_toy:Service.build"),
              Boundary("toy", "helper", "perfbench_toy:helper")]
    recorder = SpanRecorder([bound.name for bound in bounds])
    patches = install(bounds, recorder)
    try:
        assert _Service().outer(3) == 10   # not recording: no spans
        assert len(recorder) == 0
        recorder.active = True
        recorder.op_id = 7
        assert _Service().outer(3) == 10
        assert user.helper(3) == 2
        recorder.active = False
    finally:
        patches.remove()

    names = [recorder.names[name_id] for name_id in recorder.name]
    assert names == ["outer", "inner", "build", "helper"]
    assert list(recorder.parent) == [-1, 0, 0, -1]
    assert set(recorder.op) == {7}
    assert all(end >= start for start, end
               in zip(recorder.start, recorder.end))
    assert seen and seen[0][:2] == (3, 6) and seen[0][2] >= 0
    assert package.helper is original_helper
    assert user.helper is original_helper
    assert _Service.__dict__["outer"] is original_outer
    assert isinstance(_Service.__dict__["build"], classmethod)
