"""Spans around the benchmark's calls into each layer of ``repro``.

A span is a name, a start, an end and the span that was open when it
started.  Names are dotted and begin with the module they call into
(``ngramstore.reader.get``), so the layer of a span is its name without the
last part.  Spans stay in memory until :meth:`Tracer.write` puts them in a
JSON-lines file.  A layer's self time is its spans' durations minus the part
their child spans cover.  Spans inside ``src/`` are a later issue.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple


class Tracer:
    """Records spans; with ``enabled=False`` every span is a no-op."""

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        # One row per span: [name, start_ns, end_ns, parent index or None]
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        row = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """Per layer: ``(spans, total seconds, self seconds)``."""
        children_ns: Dict[int, int] = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children_ns[parent] += end - start
        layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            layer = layers[name.rpartition(".")[0]]
            layer[0] += 1
            layer[1] += (end - start) / 1e9
            layer[2] += (end - start - children_ns[index]) / 1e9
        return {name: (int(row[0]), row[1], row[2]) for name, row in sorted(layers.items())}

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in the order they started."""
        return [(end - start) / 1e9 for span, start, end, _ in self.spans if span == name]

    def table(self) -> str:
        """The per-layer table of span counts, total time and self time."""
        lines = [f"{'layer':<28} {'spans':>8} {'total_s':>10} {'self_s':>10}"]
        for layer, (count, total_s, self_s) in self.self_times().items():
            lines.append(f"{layer:<28} {count:>8} {total_s:>10.4f} {self_s:>10.4f}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = {
                    "workload": self.workload,
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                handle.write(json.dumps(row) + "\n")
