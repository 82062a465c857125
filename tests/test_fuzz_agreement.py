"""Randomized cross-backend fuzz/property harness for the execution layer.

Every execution-layer knob — backend, materialisation mode, shard/spill
codec, spill budget, combiner — is required to be *byte-transparent*: the
final statistics a counting run produces must be identical to the
sequential in-memory reference, whatever combination is configured.  This
harness pins that contract down on seeded random corpora and seeded random
configuration sweeps, so a future execution-layer change that breaks
byte-identity in some corner of the matrix fails here first.

What may legitimately vary and what may not:

* statistics, final job outputs, ``MAP_OUTPUT_*`` totals: never;
* ``COMBINE_*`` / ``SHUFFLE_RECORDS`` / ``SHUFFLE_BYTES``: fixed by the
  task boundaries and the spill budget, so identical across *backends*
  for one configuration (combine-per-spill changes them versus the
  no-budget run, which is the point of the combine buffer);
* spill counters (``SHUFFLE_SPILLS``, ``SPILLED_*``): backend-specific
  once a budget is set — the process backend spills per worker map task,
  the sequential one spills one global shuffle.
"""

import random

import pytest

from repro.algorithms import make_counter
from repro.config import ExecutionConfig, NGramJobConfig
from repro.corpus.collection import DocumentCollection
from repro.mapreduce.counters import SHUFFLE_SPILLS, SPILLED_BYTES, SPILLED_RECORDS
from repro.util.codecs import available_codecs

SEEDS = (11, 23, 37, 41, 59)

ALGORITHMS = ("NAIVE", "APRIORI-SCAN", "SUFFIX-SIGMA")

#: Counters that legitimately differ between backends once a spill budget
#: is configured (worker-side spills vs one global shuffle).
SPILL_COUNTERS = (SHUFFLE_SPILLS, SPILLED_RECORDS, SPILLED_BYTES)

#: Runs sampled from the configuration matrix per seed (on top of the
#: reference runs).
RUNS_PER_SEED = 5


def _random_collection(rng):
    """A small synthetic corpus with enough repetition to exercise τ."""
    vocabulary = [f"t{index}" for index in range(rng.randint(4, 9))]
    vocabulary += ["α-token", "βeta"]  # non-ASCII flows through every codec
    token_lists = []
    timestamps = []
    for _ in range(rng.randint(6, 16)):
        length = rng.randint(1, 22)
        token_lists.append([rng.choice(vocabulary) for _ in range(length)])
        timestamps.append(rng.randint(1990, 2009) if rng.random() < 0.5 else None)
    return DocumentCollection.from_token_lists(token_lists, timestamps=timestamps)


def _random_job_config(rng, use_combiner):
    return NGramJobConfig(
        min_frequency=rng.randint(2, 4),
        max_length=rng.choice((2, 3, 4)),
        num_reducers=rng.randint(1, 4),
        use_combiner=use_combiner,
    )


def _sample_execution(rng):
    """One random cell of the backend × materialize × codec × budget matrix."""
    runner = rng.choice(("local", "processes"))
    kwargs = {
        "runner": runner,
        "materialize": rng.choice(("memory", "disk")),
        "shard_codec": rng.choice(available_codecs()),
        "retention": "all",
    }
    if runner != "local":
        kwargs["max_workers"] = 2
    budget = rng.choice((None, "bytes", "records"))
    if budget == "bytes":
        kwargs["spill_threshold_bytes"] = rng.choice((256, 2048))
    elif budget == "records":
        kwargs["spill_threshold_records"] = rng.choice((8, 64))
    return ExecutionConfig(**kwargs)


def _without_spill_counters(counters):
    as_dict = counters.as_dict()
    task_group = dict(as_dict.get("task", {}))
    for name in SPILL_COUNTERS:
        task_group.pop(name, None)
    as_dict["task"] = task_group
    return as_dict


def _job_outputs(result):
    return [job.output for job in result.pipeline.job_results]


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_configurations_match_in_memory_reference(seed):
    """Seeded sweep: every sampled configuration is byte-identical."""
    rng = random.Random(seed)
    collection = _random_collection(rng)
    algorithm = rng.choice(ALGORITHMS)

    references = {}

    def reference(use_combiner):
        if use_combiner not in references:
            config = _random_job_config(random.Random(seed), use_combiner)
            counter = make_counter(
                algorithm, config, execution=ExecutionConfig(retention="all")
            )
            references[use_combiner] = counter.run(collection)
        return references[use_combiner]

    for round_index in range(RUNS_PER_SEED):
        use_combiner = rng.random() < 0.5
        execution = _sample_execution(rng)
        config = _random_job_config(random.Random(seed), use_combiner)
        result = make_counter(algorithm, config, execution=execution).run(collection)
        expected = reference(use_combiner)
        label = f"seed={seed} round={round_index} {algorithm} {execution}"

        assert result.statistics.as_dict() == expected.statistics.as_dict(), label
        assert _job_outputs(result) == _job_outputs(expected), label
        assert result.map_output_records == expected.map_output_records, label
        assert result.map_output_bytes == expected.map_output_bytes, label
        budgeted = (
            execution.spill_threshold_bytes is not None
            or execution.spill_threshold_records is not None
        )
        if not budgeted:
            # Without a budget the combine buffer degenerates to
            # combine-per-task and nothing spills: the *complete* counter
            # set must match the reference.
            assert (
                result.pipeline.counters.as_dict()
                == expected.pipeline.counters.as_dict()
            ), label


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_share_counter_semantics_under_one_budget(seed):
    """For one budgeted configuration, backends agree on everything but
    the spill counters — including the combine-per-spill counters."""
    rng = random.Random(seed * 7919)
    collection = _random_collection(rng)
    config = NGramJobConfig(min_frequency=2, max_length=3, use_combiner=True)

    results = {}
    for runner in ("local", "processes"):
        execution = ExecutionConfig(
            runner=runner,
            max_workers=None if runner == "local" else 2,
            spill_threshold_records=16,
            retention="all",
        )
        results[runner] = make_counter("NAIVE", config, execution=execution).run(
            collection
        )

    expected = results["local"]
    assert len(expected.statistics) > 0
    for runner, result in results.items():
        assert result.statistics.as_dict() == expected.statistics.as_dict(), runner
        assert _job_outputs(result) == _job_outputs(expected), runner
        assert _without_spill_counters(result.pipeline.counters) == (
            _without_spill_counters(expected.pipeline.counters)
        ), runner
        # The budget engaged on every backend.
        assert result.pipeline.counters.get(SHUFFLE_SPILLS) > 0, runner


def test_combine_budget_changes_counters_but_never_results():
    """Combine-per-spill may split aggregates; outputs must not move."""
    rng = random.Random(987)
    collection = _random_collection(rng)
    config = NGramJobConfig(min_frequency=2, max_length=3, use_combiner=True)
    unbudgeted = make_counter(
        "NAIVE", config, execution=ExecutionConfig(retention="all")
    ).run(collection)
    budgeted = make_counter(
        "NAIVE",
        config,
        execution=ExecutionConfig(spill_threshold_records=4, retention="all"),
    ).run(collection)

    assert budgeted.statistics.as_dict() == unbudgeted.statistics.as_dict()
    assert _job_outputs(budgeted) == _job_outputs(unbudgeted)
    assert budgeted.map_output_records == unbudgeted.map_output_records
    assert budgeted.map_output_bytes == unbudgeted.map_output_bytes
    # A tiny budget forces more combine rounds, hence more (smaller)
    # partial aggregates reaching the shuffle.
    budgeted_combined = budgeted.pipeline.counters.get("COMBINE_OUTPUT_RECORDS")
    unbudgeted_combined = unbudgeted.pipeline.counters.get("COMBINE_OUTPUT_RECORDS")
    assert budgeted_combined >= unbudgeted_combined
