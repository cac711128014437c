"""Spans around calls into emgforge's layers, recorded from outside.

A `Tracer` wraps chosen public functions by rebinding every name under
which an emgforge module looks them up (`from .tensor import conv1d_causal`
in `model`, `dsp.preprocess_emg` through the `signal` module, and so on).
Each call becomes a span: name, start, end and the id of the enclosing
span. Spans stay in memory until `write_jsonl` at the end of the run.
Nothing under `src/` is changed; `uninstall` puts every name back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "emgforge"
_DONE = object()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def rebind(target, replacement) -> list:
    """Point every name in emgforge's modules bound to `target` at `replacement`.

    Returns the (module, attribute, old value) triples that `restore` takes.
    """
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                patched.append((mod, attr, value))
                setattr(mod, attr, replacement)
    if not patched:
        raise LookupError(f"no module in {PACKAGE} binds {target!r}")
    return patched


def restore(patched: list) -> None:
    for mod, attr, value in reversed(patched):
        setattr(mod, attr, value)


class Tracer:
    """Records spans for wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list = []

    # -- spans ----------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        ids = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(*ids, name, start)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens in next(), between the caller's
            # own steps, so each next() is its own span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        item = next(it, _DONE)
                    if item is _DONE:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self, layers: dict) -> None:
        """Wrap each `{span name: function}`; wrappers record only while enabled."""
        for name, fn in layers.items():
            self._patched += rebind(fn, self._wrap(fn, name))

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")


def busy_s(spans: list[Span], name: str) -> float:
    """Wall time inside spans named `name`, nested repeats counted once."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        nested = False
        while p is not None:
            if by_id[p].name == name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            total += s.end - s.start
    return total


def self_s(spans: list[Span], name: str) -> float:
    """Time inside spans named `name` that none of their child spans cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return sum(
        (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans if s.name == name
    )


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)
