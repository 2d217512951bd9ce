"""Outside-in span recording for the traced benchmark run.

The recorder wraps public boundaries of the simulator at class level
(``setattr`` on the class, restored by :meth:`SpanRecorder.uninstall`),
so the program itself carries no tracing code.  Each call through a
wrapped boundary becomes one span: name, start, end, parent span and
the benchmark request it belongs to.  Spans live in flat typed arrays
(36 bytes each) because a traced pass records over a million of them;
self times are computed from the arrays after the run, and the spans
are written as Chrome trace-event JSON that Perfetto opens.

Only per-cycle and coarser boundaries are wrapped.  Per-flit calls
(energy meter events, NI offer/eject) are left alone: wrapping them
costs more than the work they do and distorts every self time.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Records spans of wrapped calls; single-threaded, in-process."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._request = [-1]
        self._stack = [-1]
        self._patches: List[Tuple[type, str, object]] = []

    @property
    def current_request(self) -> int:
        """Request id stamped on spans opened from now on (-1: none)."""
        return self._request[0]

    @current_request.setter
    def current_request(self, value: int) -> None:
        self._request[0] = value

    def __len__(self) -> int:
        return len(self.start)

    def wrap(
        self,
        owner: type,
        attr: str,
        on_return: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record spans of ``owner.attr``; ``on_return`` gets the call's
        first argument (``self``) after the original returns."""
        original = owner.__dict__[attr]
        label = f"{owner.__name__}.{attr}"
        label_id = self._label_ids.setdefault(label, len(self.labels))
        if label_id == len(self.labels):
            self.labels.append(label)
        stack = self._stack
        name_append = self.name.append
        parent_append = self.parent.append
        request_append = self.request.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        clock = time.perf_counter
        request = self._request

        def traced(*args, **kwargs):
            index = len(end)
            name_append(label_id)
            parent_append(stack[-1])
            request_append(request[0])
            end_append(0.0)
            stack.append(index)
            start_append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args[0])
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__qualname__ = getattr(original, "__qualname__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Per label: (span count, self seconds).  A span's self time is
        its duration minus the durations of its direct children."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        children = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += end[i] - start[i]
        counts = [0] * len(self.labels)
        selfs = [0.0] * len(self.labels)
        name = self.name
        for i in range(n):
            k = name[i]
            counts[k] += 1
            selfs[k] += end[i] - start[i] - children[i]
        return {
            label: (counts[k], selfs[k]) for k, label in enumerate(self.labels)
        }

    def write_chrome_trace(
        self, path: str, metadata: dict, max_events: int
    ) -> int:
        """Write the first ``max_events`` spans as Chrome trace-event
        JSON (complete ``X`` events, microseconds from the first span);
        returns how many were written.  ``metadata`` goes to
        ``otherData`` together with the total and written counts."""
        n = len(self.start)
        written = min(n, max_events)
        origin = self.start[0] if n else 0.0
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": "perfbench traced pass"},
            }
        ]
        for i in range(written):
            events.append(
                {
                    "name": self.labels[self.name[i]],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((self.start[i] - origin) * 1e6, 3),
                    "dur": round((self.end[i] - self.start[i]) * 1e6, 3),
                    "args": {
                        "span": i,
                        "parent": self.parent[i],
                        "request": self.request[i],
                    },
                }
            )
        other = dict(metadata, spans_total=n, spans_written=written)
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": other,
                },
                fh,
            )
        return written
