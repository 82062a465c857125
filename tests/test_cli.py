"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.harness.export import read_measurements_json
from repro.harness.figures import available_worker_counts


@pytest.fixture()
def corpus_dir(tmp_path):
    directory = str(tmp_path / "corpus")
    exit_code = main(
        [
            "generate",
            "--dataset",
            "nyt",
            "--documents",
            "15",
            "--seed",
            "3",
            "--output",
            directory,
            "--shards",
            "2",
        ]
    )
    assert exit_code == 0
    return directory


class TestGenerate:
    def test_creates_corpus_files(self, corpus_dir, capsys):
        files = os.listdir(corpus_dir)
        assert "dictionary.txt" in files
        assert any(name.startswith("part-") for name in files)

    def test_web_dataset(self, tmp_path):
        directory = str(tmp_path / "web")
        assert main(["generate", "--dataset", "cw", "--documents", "10", "--output", directory]) == 0
        assert os.path.exists(os.path.join(directory, "dictionary.txt"))


class TestStats:
    def test_prints_table1_rows(self, corpus_dir, capsys):
        assert main(["stats", "--input", corpus_dir]) == 0
        output = capsys.readouterr().out
        assert "# documents" in output
        assert "sentence length (mean)" in output


class TestCount:
    def test_basic_count(self, corpus_dir, capsys):
        assert main(["count", "--input", corpus_dir, "--tau", "3", "--sigma", "3"]) == 0
        output = capsys.readouterr().out
        assert "SUFFIX-SIGMA" in output
        assert "n-grams" in output

    def test_count_with_naive(self, corpus_dir, capsys):
        assert (
            main(["count", "--input", corpus_dir, "--tau", "5", "--sigma", "2", "--algorithm", "NAIVE"])
            == 0
        )
        assert "NAIVE" in capsys.readouterr().out

    def test_count_maximal(self, corpus_dir, capsys):
        assert main(["count", "--input", corpus_dir, "--tau", "3", "--sigma", "3", "--maximal"]) == 0
        assert "SUFFIX-SIGMA-MAXIMAL" in capsys.readouterr().out

    def test_count_closed_writes_output_file(self, corpus_dir, tmp_path, capsys):
        output_file = str(tmp_path / "ngrams.tsv")
        assert (
            main(
                [
                    "count",
                    "--input",
                    corpus_dir,
                    "--tau",
                    "3",
                    "--sigma",
                    "3",
                    "--closed",
                    "--output",
                    output_file,
                ]
            )
            == 0
        )
        with open(output_file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert lines
        assert all("\t" in line for line in lines)

    def test_maximal_and_closed_conflict(self, corpus_dir, capsys):
        assert (
            main(["count", "--input", corpus_dir, "--maximal", "--closed"]) == 2
        )

    def test_document_frequency_flag(self, corpus_dir, capsys):
        assert (
            main(["count", "--input", corpus_dir, "--tau", "2", "--sigma", "2", "--document-frequency"])
            == 0
        )

    def test_export_json_with_out_of_core_map_side(self, corpus_dir, tmp_path, capsys):
        """The fully out-of-core configuration: corpus streamed from disk,
        disk materialisation, combine buffer + worker-side spills."""
        report = str(tmp_path / "reports" / "count.json")
        assert (
            main(
                [
                    "count",
                    "--input",
                    corpus_dir,
                    "--tau",
                    "2",
                    "--sigma",
                    "3",
                    "--algorithm",
                    "NAIVE",
                    "--runner",
                    "processes",
                    "--workers",
                    "2",
                    "--materialize",
                    "disk",
                    "--spill-threshold",
                    "64r",
                    "--track-memory",
                    "--export-json",
                    report,
                ]
            )
            == 0
        )
        import json

        with open(report, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["algorithm"] == "NAIVE"
        assert payload["num_ngrams"] > 0
        assert payload["peak_memory_bytes"] > 0
        assert payload["counters"]["task"]["SHUFFLE_SPILLS"] > 0
        # The streamed and the materialised corpus compute the same thing.
        capsys.readouterr()
        assert (
            main(
                [
                    "count",
                    "--input",
                    corpus_dir,
                    "--tau",
                    "2",
                    "--sigma",
                    "3",
                    "--algorithm",
                    "NAIVE",
                    "--materialize-corpus",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert f"{payload['num_ngrams']} n-grams" in output


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "NYT-like" in output
        assert "# term occurrences" in output

    def test_extensions(self, capsys):
        assert main(["experiment", "extensions", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "maximal" in output

    def test_ablations_with_export(self, tmp_path, capsys):
        export_path = str(tmp_path / "ablations.csv")
        assert main(["experiment", "ablations", "--scale", "0.08", "--export", export_path]) == 0
        assert os.path.exists(export_path)
        with open(export_path, "r", encoding="utf-8") as handle:
            header = handle.readline()
        assert "algorithm" in header
        assert "records" in header

    @pytest.mark.parametrize("name", ["ablations", "fig7"])
    def test_track_memory_reaches_the_export(self, name, tmp_path, capsys):
        export_path = str(tmp_path / f"{name}.json")
        args = ["experiment", name, "--scale", "0.05", "--track-memory"]
        assert main(args + ["--export-json", export_path]) == 0
        rows = read_measurements_json(export_path)
        assert rows
        assert all(type(row["peak_mem_bytes"]) is int for row in rows)

    @pytest.mark.parametrize(
        "name, x, flags",
        [
            ("fig3", "sigma", []),
            ("fig4", "tau", []),
            ("fig5", "sigma", []),
            ("fig6", "fraction_pct", ["--fractions", "0.5,1"]),
            # fig7 picks its runner and workers but keeps these settings.
            ("fig7", "workers", ["--spill-threshold", "500r", "--materialize", "disk", "--shard-codec", "gzip"]),
        ],
    )
    def test_export_rows_carry_their_x_axis(self, name, x, flags, tmp_path, capsys):
        export_path = str(tmp_path / f"{name}.json")
        args = ["experiment", name, "--scale", "0.05", "--export-json", export_path]
        assert main(args + flags) == 0
        assert "wallclock_s" in capsys.readouterr().out
        rows = read_measurements_json(export_path)
        assert rows and all(row[x] is not None for row in rows)
        cells = [(row["dataset"], row["algorithm"], row[x]) for row in rows]
        assert len(set(cells)) == len(cells)
        if name == "fig6":
            assert {row["fraction_pct"] for row in rows} == {50, 100}
        if name == "fig7":
            assert {row["workers"] for row in rows} == set(available_worker_counts())

    @pytest.mark.parametrize("flags", [["--runner", "processes"], ["--workers", "2"]])
    def test_fig7_refuses_runner_and_workers(self, flags):
        with pytest.raises(SystemExit, match="not supported for fig7"):
            main(["experiment", "fig7", "--scale", "0.05"] + flags)


class TestApplicationCommands:
    def test_coderivatives(self, corpus_dir, capsys):
        assert main(["coderivatives", "--input", corpus_dir, "--min-length", "6", "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "longest shared n-gram" in output or "no co-derivative" in output

    def test_coderivatives_none_found(self, corpus_dir, capsys):
        assert main(["coderivatives", "--input", corpus_dir, "--min-length", "500"]) == 0
        assert "no co-derivative" in capsys.readouterr().out

    def test_trends(self, corpus_dir, capsys):
        assert main(["trends", "--input", corpus_dir, "--tau", "3", "--sigma", "2", "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "rising n-grams" in output
        assert "declining n-grams" in output


class TestStoreAndQueryCommands:
    @pytest.fixture()
    def store_dir(self, corpus_dir, tmp_path):
        directory = str(tmp_path / "store")
        exit_code = main(
            [
                "count",
                "--input",
                corpus_dir,
                "--tau",
                "3",
                "--sigma",
                "3",
                "--algorithm",
                "APRIORI-SCAN",
                "--materialize",
                "disk",
                "--spill-threshold",
                "500r",
                "--shard-codec",
                "gzip",
                "--store-dir",
                directory,
                "--store-codec",
                "gzip",
                "--store-partitions",
                "3",
            ]
        )
        assert exit_code == 0
        return directory

    def test_count_writes_store_layout(self, store_dir, capsys):
        files = os.listdir(store_dir)
        assert "store.json" in files
        assert "dictionary.txt" in files
        assert sum(1 for name in files if name.endswith(".ngt")) == 3

    def test_query_stats(self, store_dir, capsys):
        assert main(["query", store_dir, "--stats"]) == 0
        output = capsys.readouterr().out
        assert "APRIORI-SCAN" in output
        assert "partitions" in output

    def test_query_top_k(self, store_dir, capsys):
        assert main(["query", store_dir, "--top-k", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        frequencies = [int(line.split()[0]) for line in lines]
        assert frequencies == sorted(frequencies, reverse=True)

    def test_query_get_and_prefix(self, store_dir, capsys):
        assert main(["query", store_dir, "--top-k", "1"]) == 0
        top_term = capsys.readouterr().out.split(None, 1)[1].strip()
        assert main(["query", store_dir, "--get", top_term]) == 0
        assert top_term in capsys.readouterr().out
        assert main(["query", store_dir, "--prefix", top_term, "--limit", "3"]) == 0
        assert "n-grams with prefix" in capsys.readouterr().out

    def test_query_missing_ngram_exit_code(self, store_dir, capsys):
        assert main(["query", store_dir, "--get", "7777777", "--ids"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_query_unknown_term_is_not_found(self, store_dir, capsys):
        """An out-of-vocabulary word is a not-found result, not a store error."""
        assert main(["query", store_dir, "--get", "zz-not-a-word"]) == 1
        assert "not found" in capsys.readouterr().out
        assert main(["query", store_dir, "--prefix", "zz-not-a-word"]) == 0
        assert "0 n-grams with prefix" in capsys.readouterr().out

    def test_query_bad_store(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nowhere"), "--stats"]) == 2

    def test_invalid_spill_threshold_rejected(self, corpus_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "count",
                    "--input",
                    corpus_dir,
                    "--spill-threshold",
                    "10frogs",
                ]
            )
