"""Span tracing from outside the program.

``Tracer.wrap`` swaps a timing wrapper onto a module attribute through which
one projlens layer reaches the next (for example ``projlens.gaussmix.chisq_cdf``)
and ``restore`` puts the originals back. Each call then records a span: name,
start, end, parent span, the round it ran in, and counts taken from the call's
arguments and result. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

# keys every span has; any other key of a span is a work count
_SPAN_FIELDS = {"id", "name", "parent", "round", "thread", "start", "end"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.round = "setup"
        self.spans: list[dict] = []
        self._stacks = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``counts(args, kwargs, result)`` returns a dict of work counts.
        """
        orig = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            stack = tracer._stack()
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "round": tracer.round,
                "thread": threading.get_ident(),
            }
            tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def aggregate(self, rounds) -> dict:
        """Per span name: calls, summed counts, total time "s" and self time
        "self_s" (duration minus the time covered by direct children), over
        the spans of the given rounds."""
        wanted = set(rounds)
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict = {}
        for span in self.spans:
            if span["round"] not in wanted:
                continue
            agg = out.setdefault(span["name"], defaultdict(float))
            dur = span["end"] - span["start"]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time[span["id"]]
            for key, value in span.items():
                if key not in _SPAN_FIELDS:
                    agg[key] += value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

