"""Spans recorded around the package's functions, installed from outside.

The package modules look their collaborators up as module globals at call
time (``evolve.run`` calls ``virial_series``, ``cli`` calls
``groundstate.solve_shooting``), so replacing a module attribute with a
timing wrapper puts a span at that layer boundary without editing a line of
the package.  Spans are ``[name, start, end, parent]`` lists kept in memory;
``parent`` is the index of the enclosing span, or -1.  A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# package modules that are benchmark layers; helpers of inlslab.extended are
# not wrapped, so their time counts as self time of the exponents layer
LAYERS = ("cli", "params", "exponents", "grid", "groundstate", "functionals", "evolve")


class Tracer:
    """Installs timing wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: dict = {}  # last return value of each captured span name
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, capture: bool = False) -> None:
        original = getattr(owner, attr)
        spans, stack, results, clock = self.spans, self._stack, self.results, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if capture:
                results[name] = result
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, targets, capture=()) -> None:
        for owner, attr, name in targets:
            self.wrap(owner, attr, name, capture=name in capture)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def root(self, name: str):
        """A harness span; yields its index so the caller can slice its subtree."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield index
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def package_targets(modules: dict) -> list[tuple]:
    """(owner, attribute, span name) for every public package function that
    each module in `modules` looks up, plus the stepper and the ODE shots.

    A function imported into another module is wrapped under both names, so
    calls are seen whichever namespace they go through; the span is named
    after the module that defines the function.
    """
    targets = []
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("inlslab.") and layer in LAYERS:
                targets.append((mod, attr, f"{layer}.{obj.__name__}"))
    evolver = modules["evolve"].Evolver
    targets.append((evolver, "step_values", "evolve.step"))
    targets.append((evolver, "__init__", "evolve.Evolver.init"))
    targets.append((modules["groundstate"], "solve_ivp", "groundstate.shot"))
    return targets


class Subtree:
    """Aggregates of the spans recorded inside one harness root span."""

    def __init__(self, spans: list[list], root: int, end: int):
        self.spans = spans
        self.root = root
        self.end = end
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.layer_self: dict[str, float] = defaultdict(float)
        child_time = defaultdict(float)
        for i in range(end - 1, root - 1, -1):  # children before parents
            name, start, stop, parent = spans[i]
            self.durations[name].append(stop - start)
            self.layer_self[name.partition(".")[0]] += (stop - start) - child_time[i]
            child_time[parent] += stop - start
        self.wall = spans[root][2] - spans[root][1]

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def mean(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def indices(self, name: str) -> list[int]:
        return [i for i in range(self.root, self.end) if self.spans[i][0] == name]

    def children(self, index: int) -> list[int]:
        """Indices of the direct children of span `index`, in call order."""
        return [i for i in range(index + 1, self.end) if self.spans[i][3] == index]

    def nested(self) -> bool:
        """Whether every span lies inside its parent's interval."""
        spans = self.spans
        return all(
            spans[i][1] <= spans[i][2]
            and (spans[i][3] < self.root
                 or spans[spans[i][3]][1] <= spans[i][1] and spans[i][2] <= spans[spans[i][3]][2])
            for i in range(self.root, self.end)
        )

    def count_within(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans called `name` whose parent (or, unless direct, any ancestor)
        is a span called `ancestor`."""
        spans, n = self.spans, 0
        for i in range(self.root, self.end):
            if spans[i][0] != name:
                continue
            parent = spans[i][3]
            while parent >= self.root:
                if spans[parent][0] == ancestor:
                    n += 1
                    break
                if direct:
                    break
                parent = spans[parent][3]
        return n
