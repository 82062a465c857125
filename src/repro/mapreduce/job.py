"""The MapReduce programming contract: mappers, reducers, partitioners.

A job is described by a :class:`JobSpec` that wires together user-supplied
classes, mirroring how a Hadoop job configuration names a mapper class, a
reducer class, an optional combiner, a partitioner and a sort comparator.
The classes are instantiated per task by the runner, so instance attributes
are task-local state (exactly the property the SUFFIX-σ reducer relies on for
its two stacks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.exceptions import MapReduceError
from repro.util.hashing import stable_hash


class Emitter:
    """Target of ``context.emit`` calls; implemented by the runner contexts."""

    def emit(self, key: Any, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Mapper:
    """Base class for map functions.

    Subclasses override :meth:`map`; :meth:`setup` and :meth:`cleanup` are
    invoked once per map task, before the first and after the last input
    record respectively.
    """

    def setup(self, context: "TaskContext") -> None:
        """Hook called once before any input record of the task."""

    def map(self, key: Any, value: Any, context: "TaskContext") -> None:
        """Process one input record, emitting any number of key-value pairs."""
        raise NotImplementedError

    def cleanup(self, context: "TaskContext") -> None:
        """Hook called once after the last input record of the task."""


class Reducer:
    """Base class for reduce functions.

    The runner instantiates one reducer per partition and calls
    :meth:`reduce` once per distinct key, in the order determined by the
    job's sort comparator.  State kept on ``self`` therefore persists across
    keys of the same partition — the property SUFFIX-σ exploits.
    """

    def setup(self, context: "TaskContext") -> None:
        """Hook called once before the first key of the partition."""

    def reduce(self, key: Any, values: Iterable[Any], context: "TaskContext") -> None:
        """Process one key group, emitting any number of key-value pairs."""
        raise NotImplementedError

    def cleanup(self, context: "TaskContext") -> None:
        """Hook called once after the last key of the partition."""


class Combiner(Reducer):
    """Map-side local aggregation; same contract as a reducer."""


class Partitioner:
    """Assigns each map output key to one of ``num_partitions`` reducers."""

    def partition(self, key: Any, num_partitions: int) -> int:
        """Return the partition index in ``[0, num_partitions)`` for ``key``."""
        return stable_hash(key) % num_partitions


def identity_key(key: Any) -> Any:
    """The natural-order sort key; the shuffle recognises it by identity.

    A comparator returning exactly this function from
    :meth:`SortComparator.sort_key_function` lets the shuffle sort and group
    records on their keys with C-level calls only.
    """
    return key


class SortComparator:
    """Total order on map output keys within each partition.

    The default orders keys by Python's natural ordering.  Jobs such as
    SUFFIX-σ install a custom comparator (reverse lexicographic order of
    suffixes, Algorithm 4 of the paper).
    """

    def compare(self, left: Any, right: Any) -> int:
        """Return negative / zero / positive like a classic comparator."""
        if left < right:
            return -1
        if left > right:
            return 1
        return 0

    def sort_key_function(self) -> Optional[Callable[[Any], Any]]:
        """Optional key function equivalent to :meth:`compare`.

        When a comparator can express its order as a key extraction (the
        analogue of Hadoop's raw comparators, Section V of the paper), the
        shuffle uses it instead of a comparison-based sort, which is
        substantially faster in CPython.  The base class compares by natural
        ordering, so it can return the identity key; subclasses that override
        :meth:`compare` without overriding this method automatically fall
        back to the comparator.
        """
        if type(self) is SortComparator:
            return identity_key
        return None


class IdentityMapper(Mapper):
    """Mapper that forwards its input records unchanged."""

    def map(self, key: Any, value: Any, context: "TaskContext") -> None:
        context.emit(key, value)


class IdentityReducer(Reducer):
    """Reducer that forwards every value of every key unchanged."""

    def reduce(self, key: Any, values: Iterable[Any], context: "TaskContext") -> None:
        for value in values:
            context.emit(key, value)


@dataclass
class JobSpec:
    """Complete description of a single MapReduce job.

    Attributes
    ----------
    name:
        Human-readable job name (appears in metrics and pipeline reports).
    mapper_factory / reducer_factory:
        Zero-argument callables returning fresh :class:`Mapper` /
        :class:`Reducer` instances.  Factories (rather than classes with
        required constructor arguments) keep per-task instantiation explicit.
    combiner_factory:
        Optional combiner applied to each map task's output.
    partitioner / sort_comparator:
        Shuffle customisation; defaults reproduce Hadoop's hash partitioning
        and natural key order.
    num_reducers:
        Number of reduce partitions (``R`` in the paper's partition function).
    num_map_tasks:
        Number of map tasks the input is divided into; ``None`` lets the
        runner pick one map task per input split.
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    combiner_factory: Optional[Callable[[], Combiner]] = None
    partitioner: Partitioner = field(default_factory=Partitioner)
    sort_comparator: SortComparator = field(default_factory=SortComparator)
    num_reducers: int = 1
    num_map_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise MapReduceError(f"job {self.name!r}: num_reducers must be >= 1")
        if self.num_map_tasks is not None and self.num_map_tasks < 1:
            raise MapReduceError(f"job {self.name!r}: num_map_tasks must be >= 1")

    def make_mapper(self) -> Mapper:
        """Instantiate a fresh mapper for one map task."""
        mapper = self.mapper_factory()
        if not isinstance(mapper, Mapper):
            raise MapReduceError(
                f"job {self.name!r}: mapper_factory returned {type(mapper).__name__}, "
                "expected a Mapper"
            )
        return mapper

    def make_reducer(self) -> Reducer:
        """Instantiate a fresh reducer for one reduce partition."""
        reducer = self.reducer_factory()
        if not isinstance(reducer, Reducer):
            raise MapReduceError(
                f"job {self.name!r}: reducer_factory returned {type(reducer).__name__}, "
                "expected a Reducer"
            )
        return reducer

    def make_combiner(self) -> Optional[Combiner]:
        """Instantiate the combiner, or return ``None`` when not configured."""
        if self.combiner_factory is None:
            return None
        combiner = self.combiner_factory()
        if not isinstance(combiner, Combiner):
            raise MapReduceError(
                f"job {self.name!r}: combiner_factory returned {type(combiner).__name__}, "
                "expected a Combiner"
            )
        return combiner


# Imported late to avoid a circular import at module load time; TaskContext is
# defined by the runner module but referenced in type hints above.
from repro.mapreduce.context import TaskContext  # noqa: E402  (re-export for typing)

__all__ = [
    "Combiner",
    "Emitter",
    "IdentityMapper",
    "IdentityReducer",
    "JobSpec",
    "Mapper",
    "Partitioner",
    "Reducer",
    "SortComparator",
    "TaskContext",
    "identity_key",
]
