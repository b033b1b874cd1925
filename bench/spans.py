"""Benchmark-side span recording for the traced pass.

The benchmark times layers from outside: each call into a layer's
public function is wrapped in :meth:`SpanRecorder.span`.  A span keeps
its name, start, end, parent span and the id of the request it belongs
to.  Spans stay in memory until the pass ends; then they are reduced to
per-layer self times and written out as one Chrome trace.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Name of the root span around one request.
REQUEST = "request"


class SpanRecorder:
    """Thread-aware in-memory span log (one stack per thread)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id, thread id]
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        """Time the enclosed block.  ``request`` defaults to the
        enclosing span's request id."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        entry = [name, 0.0, 0.0, parent, request, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(entry)
        stack.append(index)
        entry[1] = perf_counter()
        try:
            yield
        finally:
            entry[2] = perf_counter()
            stack.pop()

    def wall(self, name: str = REQUEST) -> float:
        """Total duration of every span called ``name``."""
        return sum(end - start for n, start, end, *_ in self.spans
                   if n == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans
        cover.  Children nest inside their parent on one thread, so the
        covered time is the sum of their durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
        return out

    def chrome_trace(self) -> Dict[str, object]:
        """Trace Event JSON (complete events, microseconds), one lane
        per thread; ``args`` carry the request id and parent span."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(start for _n, start, *_ in self.spans)
        lanes: Dict[int, int] = {}
        events = []
        for name, start, end, parent, request, thread in self.spans:
            lane = lanes.setdefault(thread, len(lanes) + 1)
            events.append({
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": lane,
                "args": {
                    "request": request,
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
