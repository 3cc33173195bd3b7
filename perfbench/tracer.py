"""Spans around calls into the library, recorded from outside it.

The tracer replaces each public function of every selberg_gas module, at
every module namespace that holds a reference to it (its defining module
and each import site), with a timing wrapper.  Calls made inside a module
look the name up in that module's globals, so they are caught too.  No
file under src/ changes; `uninstall` restores the originals.

Spans live in memory as tuples and are reduced after the run.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import namedtuple
from typing import Callable, Optional

PACKAGE = "selberg_gas"

# Private functions worth a span of their own: the Fourier-coefficient
# stage of the Toeplitz engine (for its share of the call).
EXTRA_PRIVATE = ("fisherhartwig._toeplitz_fourier_coeffs",)


Span = namedtuple("Span", "name scope duration self_time parent reentrant probe")


class Tracer:
    """Records one span per wrapped call while `enabled` is true.

    `scope` labels the spans with the request class that caused them.
    `probes` maps a span name to a function of the bound call arguments
    returning a small summary kept with the span (never the arguments
    themselves, which may be large arrays).
    """

    def __init__(self, probes: Optional[dict] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.enabled = True
        self.scope = None
        self.spans: list = []
        self.probes = dict(probes or {})
        self.wrapped: set = set()
        self._clock = clock
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            reentrant = any(frame[2] == name for frame in stack)
            summary = None
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                summary = probe(bound.arguments)
            index = len(tracer.spans)
            tracer.spans.append(None)  # filled in when the span closes
            frame = [index, 0.0, name]
            stack.append(frame)
            start = tracer._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer._clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = Span(name, tracer.scope, duration,
                                           duration - frame[1], parent,
                                           reentrant, summary)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the package's loaded modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        targets = {}
        for mod_name, mod in modules.items():
            short = mod_name[len(PACKAGE) + 1:]
            if not short:
                continue
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod_name
                        and (not attr.startswith("_") or qual in EXTRA_PRIVATE)):
                    targets[id(obj)] = (obj, self.wrap(qual, obj), qual)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        self.wrapped = {qual for _, _, qual in targets.values()}

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds to a call of a trivial function."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration.noop", noop)
    timings = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def ancestors(spans: list, span: Span):
    """Yield the spans enclosing `span`, innermost first."""
    parent = span.parent
    while parent is not None:
        outer = spans[parent]
        yield outer
        parent = outer.parent


def self_seconds(spans: list, module: str, scopes=None) -> float:
    """Total self time of a module's spans, optionally within some scopes."""
    return sum(s.self_time for s in spans
               if module_of(s.name) == module and (scopes is None or s.scope in scopes))


def calls_and_seconds(spans: list, name: str):
    """(calls, inclusive seconds) of one function, counting only outermost
    calls so recursion is neither double counted nor double timed."""
    calls, seconds = 0, 0.0
    for s in spans:
        if s.name == name and not s.reentrant:
            calls += 1
            seconds += s.duration
    return calls, seconds
