"""In-memory span recorder used by the traced runs.

Spans are recorded from the benchmark's own files, around calls into the
package's public functions.  Each span keeps its request id, so the spans
of one request can be summed into that request's per-layer times.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict


class Trace:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float]] = []
        self.request = 0

    def new_request(self) -> int:
        self.request += 1
        return self.request

    def call(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((self.request, name, t0, time.perf_counter()))
        return out

    def per_request(self, requests) -> dict[str, list[float]]:
        """For each span name, its summed duration in each of ``requests``."""
        wanted = set(requests)
        sums: dict[int, dict[str, float]] = {r: defaultdict(float) for r in wanted}
        for req, name, t0, t1 in self.spans:
            if req in wanted:
                sums[req][name] += t1 - t0
        names = sorted({name for s in sums.values() for name in s})
        return {name: [sums[r][name] for r in sorted(wanted)] for name in names}

    def request_totals(self, requests) -> list[float]:
        """Summed span seconds of each of ``requests``."""
        per = self.per_request(requests)
        return [sum(v) for v in zip(*per.values())]

    def medians(self, requests) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.per_request(requests).items()}
