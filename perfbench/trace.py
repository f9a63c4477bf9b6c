"""Wall-clock spans recorded from outside the program.

:class:`SpanRecorder` keeps every span in memory as parallel arrays
(name, start, end, parent, operation id) and writes them out once,
when the run ends. :func:`install` wraps the public functions named by
a list of :class:`Boundary` entries so each call opens and closes one
span; :meth:`Patches.remove` puts the originals back. Nothing in the
program is edited: the wrappers replace class attributes and
module-level names at run time.

A span's *self time* is its duration minus the part of its interval
covered by its children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``observe(args)`` runs before the wrapped call and returns a
#: finisher ``finish(result, duration_ns)`` run after it returns.
Observer = Callable[[tuple], Callable[[object, int], None]]


@dataclass(frozen=True)
class Boundary:
    """One public function timed as a span.

    Attributes:
        layer: The layer the span's self time is charged to.
        name: Span name (unique across boundaries).
        target: ``"module:Class.attribute"`` or ``"module:function"``.
        observe: Optional hook that reads arguments and the result.
    """

    layer: str
    name: str
    target: str
    observe: Optional[Observer] = None


class SpanRecorder:
    """In-memory span store for one single-threaded process."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.active = False
        self.op_id = -1
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> int:
        now = time.perf_counter_ns()
        self.end[index] = now
        self._stack.pop()
        return now - self.start[index]

    def write(self, path: str) -> None:
        """Write every span to ``path`` as an uncompressed ``.npz``."""
        import numpy
        numpy.savez(path, names=numpy.array(self.names),
                    name=numpy.frombuffer(self.name, dtype=numpy.int32),
                    start=numpy.frombuffer(self.start, dtype=numpy.int64),
                    end=numpy.frombuffer(self.end, dtype=numpy.int64),
                    parent=numpy.frombuffer(self.parent, dtype=numpy.int32),
                    op=numpy.frombuffer(self.op, dtype=numpy.int32))


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> List[int]:
    """Per-span self time: duration minus the union of the child
    intervals, each clipped to the parent's interval.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a
    root.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for index, owner in enumerate(parent):
        if owner >= 0:
            children.setdefault(owner, []).append((start[index], end[index]))
    result = [end[index] - start[index] for index in range(len(start))]
    for owner, intervals in children.items():
        low, high = start[owner], end[owner]
        covered = 0
        reach = low
        for child_start, child_end in sorted(intervals):
            child_start = max(child_start, reach)
            child_end = min(child_end, high)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[owner] -= covered
    return result


def _timed(function: Callable, recorder: SpanRecorder, name_id: int,
           observe: Optional[Observer]) -> Callable:
    @functools.wraps(function)
    def timed(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        finish = observe(args) if observe is not None else None
        index = recorder.open(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            duration = recorder.close(index)
        if finish is not None:
            finish(result, duration)
        return result
    return timed


class Patches:
    """The attribute replacements made by :func:`install`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, value: object,
                original: object) -> None:
        setattr(owner, attribute, value)
        self._undo.append((owner, attribute, original))

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install(boundaries: Sequence[Boundary],
            recorder: SpanRecorder) -> Patches:
    """Wrap every boundary; span ``i`` is named ``recorder.names[i]``.

    A method is replaced on its class, so every instance (and every
    subclass that does not override it) is timed. A module-level
    function is replaced in its defining module and in every loaded
    module that imported it by name.
    """
    patches = Patches()
    for name_id, boundary in enumerate(boundaries):
        module_name, _, path = boundary.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_timed(raw.__func__, recorder, name_id,
                                           boundary.observe))
            else:
                wrapped = _timed(raw, recorder, name_id, boundary.observe)
            patches.replace(owner, attribute, wrapped, raw)
            continue
        original = getattr(module, path)
        wrapped = _timed(original, recorder, name_id, boundary.observe)
        package = module_name.split(".")[0]
        for loaded in list(sys.modules.values()):
            if loaded is None or not loaded.__name__.startswith(package):
                continue
            if getattr(loaded, path, None) is original:
                patches.replace(loaded, path, wrapped, original)
    return patches
