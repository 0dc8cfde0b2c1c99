"""In-memory span recorder for the traced repetition.

The harness measures layers from outside: it wraps public callables of
the objects it constructs (``SpanRecorder.wrap``) and opens/closes spans
from ``EventBus`` events (``open``/``close``).  One process, one thread,
so a plain stack gives every span its parent.  Spans stay in memory and
are written out once, after the timed region.

A span's *self* time is its duration minus its children's durations, so
the self times of a repetition's spans sum to the root span's duration
exactly — that is what lets the layer table add up to the wall clock.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    def __init__(self):
        #: ``[name, start, end, parent_id, step]``; a span's id is its index.
        self.spans: List[list] = []
        #: Extra per-name work counts (rows predicted, ops executed, ...).
        self.units: Dict[str, int] = defaultdict(int)
        #: Step (window round / op block) that new spans are tagged with.
        self.step: Optional[int] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        span_id = len(self.spans) - 1
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        end = time.perf_counter()
        if not self._stack or self._stack[-1] != span_id:
            raise RuntimeError(
                f"span {self.spans[span_id][0]!r} closed out of order"
            )
        self._stack.pop()
        self.spans[span_id][2] = end

    def close_all(self) -> None:
        while self._stack:
            self.close(self._stack[-1])

    @contextmanager
    def span(self, name: str):
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    def wrap(
        self,
        obj,
        attr: str,
        name: str,
        units: Optional[Callable[[tuple, object], int]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``units(args, result)`` adds to ``self.units[name]`` per call.
        The wrapper is an instance attribute, so only this object is
        traced — and it cannot be pickled, so it never crosses into a
        worker process.
        """
        fn = getattr(obj, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if units is not None:
                self.units[name] += units(args, result)
            return result

        setattr(obj, attr, traced)

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> Dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "step": step,
                        }
                    )
                    + "\n"
                )
