"""Spans around calls into svopt's public functions, recorded from outside.

A Tracer replaces a module attribute with a wrapper that records one
span per call: id, parent span, name, start, end, the workload's current
mode and the run id. Spans stay in memory and are written as JSON lines
when the run ends, apart from the run's deterministic artifacts.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ID, PARENT, NAME, START, END, MODE = range(6)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.mode = None
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, perf_counter(), None, self.mode]
        self.spans.append(record)
        self._stack.append(record[ID])
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, module, attr: str, name: str, on_result=None, before=None) -> None:
        """Record a span per call of module.attr.

        before() runs ahead of the span and on_result(args, result) after it.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def named(self, name: str, mode=None) -> list[list]:
        return [s for s in self.spans if s[NAME] == name and (mode is None or s[MODE] == mode)]

    def self_times(self) -> dict[tuple[str, object], float]:
        """Seconds per (name, mode): span durations minus their children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(float)
        for s in self.spans:
            out[(s[NAME], s[MODE])] += s[END] - s[START] - child[s[ID]]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                    "start": s[START], "end": s[END], "mode": s[MODE],
                }) + "\n")


def total(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans)
