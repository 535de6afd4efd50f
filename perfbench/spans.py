"""In-memory spans around the package's public functions.

A `Tracer` replaces each public function of the traced modules with a
wrapper that records one span per call: name, start, end, parent span
and run id. The wrapper is installed on every name that binds the
function in any traced module, because modules bind their imports
(`spotting.encoder_backward` and `grounding.encoder_backward` are the
same object as `nn.encoder_backward`, but separate names). Nothing under
`src/` is edited; `uninstall` puts the originals back.

Spans stay in memory until the caller writes them out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass

TRACED_MODULES = (
    "nn", "spotting", "grounding", "evaluation", "data", "npyio", "checkpoint", "cli", "synth",
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another.
    """
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Records spans for calls into the traced spotground modules.

    `counters` maps a span name to fn(args, kwargs, result) -> dict of
    counts, evaluated after the call and stored on the span.
    """

    def __init__(self, counters: dict | None = None):
        self.counters = counters or {}
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = self.counters.get(name)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = Span(sid, stack[-1] if stack else None, name, clock(), 0.0, self.run)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"spotground.{m}") for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "start": s.start,
                    "end": s.end, "run": s.run, "counts": s.counts,
                }) + "\n")
