"""Task contexts passed to mappers, combiners and reducers.

A context exposes ``emit`` and the task's :class:`~repro.mapreduce.counters.Counters`
plus read-only access to the job-wide :class:`~repro.mapreduce.cache.DistributedCache`.

Emissions stream through a *sink* — any object with ``append(key, value)``
— or, for a context built without one (probes, tests), buffer in the
context until drained.  The runner always supplies a sink; sinks are how
the engine keeps task output off the heap: reduce output streams into shard
files, combiner-less map output straight into the shuffle, and map output
with a combiner into the bounded
:class:`~repro.mapreduce.shuffle.CombineBuffer`.  :class:`CountingSink` is
the shared adapter that forwards emissions to a callable while keeping the
record/byte accounting the runner reports.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.mapreduce.counters import Counters
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.serialization import record_size


class CountingSink:
    """Forwards emissions to ``output`` while counting records and bytes.

    ``serialized_bytes`` uses the compact-encoding :func:`record_size`
    accounting, matching the shuffle counters; ``output`` is any
    ``(key, value, size)`` callable (``shuffle.add``, a list collector, ...)
    — the size measured here travels with the record, so a budgeted shuffle
    downstream does not measure it a second time.
    """

    def __init__(self, output: Callable[[Any, Any, int], None]) -> None:
        self._output = output
        self.num_records = 0
        self.serialized_bytes = 0

    def append(self, key: Any, value: Any) -> None:
        size = record_size(key, value)
        self.serialized_bytes += size
        self.num_records += 1
        self._output(key, value, size)


class TaskContext:
    """Execution context handed to user map/reduce code.

    With a ``sink`` — any object with an ``append(key, value)`` method —
    every emission streams straight into it (a shard file, the shuffle), so
    the task never materialises its output; every task the runner executes
    has one.  Without a sink, the context buffers emitted records in
    :attr:`output` for the caller to :meth:`drain` (running a mapper by
    hand, as probes and tests do).
    """

    def __init__(
        self,
        counters: Optional[Counters] = None,
        cache: Optional[DistributedCache] = None,
        sink: Optional[Any] = None,
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.cache = cache if cache is not None else DistributedCache()
        self.sink = sink
        self.output: List[Tuple[Any, Any]] = []
        if sink is not None:
            # Emission is the innermost call of every task: bind it straight
            # to the sink instead of dispatching through ``emit`` per record.
            self.emit = sink.append

    def emit(self, key: Any, value: Any) -> None:
        """Emit one key-value pair (buffered; a sink replaces this binding)."""
        self.output.append((key, value))

    def increment(self, counter: str, amount: int = 1, group: str = "task") -> None:
        """Increment a user counter."""
        self.counters.increment(counter, amount, group=group)

    def drain(self) -> List[Tuple[Any, Any]]:
        """Return and clear the buffered output records."""
        records = self.output
        self.output = []
        return records
