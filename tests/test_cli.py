"""Tests for the command-line interface."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


def run_module(*args, cwd):
    """Run ``python -m <args>`` against this checkout's ``repro``."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def one_error_line(result):
    """The single ``error: …`` line a ``ReproError`` exit prints, asserted."""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: ")
    return lines[0]


@pytest.fixture(scope="module")
def crawl_db(tmp_path_factory):
    db = tmp_path_factory.mktemp("cli") / "run.sqlite"
    code = main(
        ["crawl", "--db", str(db), "--seed", "5",
         "--sites-per-bucket", "1", "--pages-per-site", "3"]
    )
    assert code == 0
    return str(db)


class TestCrawl:
    def test_db_created(self, crawl_db):
        from repro.crawler import MeasurementStore

        with MeasurementStore(crawl_db) as store:
            assert store.visit_count() > 0
            assert len(store.profiles()) == 5

    def test_non_sqlite_db_is_an_error_line(self, tmp_path):
        text_file = tmp_path / "notes.txt"
        text_file.write_text("not a database\n")
        result = run_module(
            "repro", "crawl", "--db", str(text_file), "--sites-per-bucket", "1",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert one_error_line(result) == (
            f"error: cannot open store {text_file}: file is not a database"
        )
        assert text_file.read_text() == "not a database\n"

    def test_second_crawl_into_same_db_is_an_error_line(self, crawl_db, tmp_path):
        db = tmp_path / "again.sqlite"
        shutil.copyfile(crawl_db, db)
        result = run_module(
            "repro", "crawl", "--db", str(db), "--seed", "5",
            "--sites-per-bucket", "1", "--pages-per-site", "3",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert one_error_line(result).startswith("error: duplicate visit id 1 in visits")
        assert result.stdout == ""


class TestAnalyze:
    def test_selected_experiment(self, crawl_db, capsys):
        code = main(
            ["analyze", "--db", crawl_db, "--seed", "5", "--experiments", "table2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[table2]" in out
        assert "Table 2" in out

    def test_unknown_experiment(self, crawl_db, capsys):
        code = main(
            ["analyze", "--db", crawl_db, "--seed", "5", "--experiments", "bogus"]
        )
        assert code == 2

    def test_seed_mismatch_still_runs(self, crawl_db, capsys):
        # A different seed regenerates a different EasyList; the analysis
        # still completes (tracking classification simply differs).
        code = main(
            ["analyze", "--db", crawl_db, "--seed", "999", "--experiments", "table2"]
        )
        assert code == 0


    def test_missing_db_is_not_created(self, tmp_path):
        # A read path opens existing stores only: a missing --db fails
        # with a StorageError naming it, instead of creating an empty
        # store that then fails analysis with a misleading error.
        missing = tmp_path / "missing.sqlite"
        result = run_module(
            "repro", "analyze", "--db", str(missing), "--experiments", "table2",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert one_error_line(result).startswith(f"error: cannot open store {missing}")
        assert "AnalysisError" not in result.stderr
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []

    def test_non_sqlite_db_is_a_storage_error(self, tmp_path):
        text_file = tmp_path / "notes.txt"
        text_file.write_text("not a database\n")
        result = run_module(
            "repro", "analyze", "--db", str(text_file), "--experiments", "table2",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert one_error_line(result) == (
            f"error: {text_file} is not a measurement store: file is not a database"
        )
        assert text_file.read_text() == "not a database\n"


@pytest.mark.parametrize(
    "command", [["repro", "crawl", "--db", "run.sqlite"], ["repro.experiments"]]
)
@pytest.mark.parametrize("count", ["0", "-2"])
def test_sites_per_bucket_below_one_is_a_usage_error(tmp_path, command, count):
    result = run_module(*command, "--sites-per-bucket", count, cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("usage:")
    assert f"--sites-per-bucket: must be at least 1, got {count}" in result.stderr
    assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


class TestExport:
    @pytest.mark.parametrize("what", ["visits", "requests", "cookies", "nodes"])
    def test_csv_exports(self, crawl_db, tmp_path, what):
        out = tmp_path / f"{what}.csv"
        code = main(
            ["export", "--db", crawl_db, "--seed", "5", "--what", what,
             "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) > 1  # header + data
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_trees_jsonl(self, crawl_db, tmp_path):
        out = tmp_path / "trees.jsonl"
        code = main(
            ["export", "--db", crawl_db, "--seed", "5", "--what", "trees",
             "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            lines = handle.read().splitlines()
        assert lines
        document = json.loads(lines[0])
        assert set(document) == {"page", "site", "rank", "profiles"}
        assert len(document["profiles"]) == 5


class TestBundleSource:
    @pytest.fixture(scope="class")
    def bundle_path(self, crawl_db, tmp_path_factory):
        from repro.bundle import record_from_store
        from repro.crawler import MeasurementStore

        out = tmp_path_factory.mktemp("cli-bundle") / "crawl"
        with MeasurementStore(crawl_db) as store:
            record_from_store(store, seed=5, path=out)
        return str(out)

    def test_analyze_from_bundle(self, bundle_path, capsys):
        code = main(
            ["analyze", "--from-bundle", bundle_path, "--experiments", "table2"]
        )
        assert code == 0
        assert "[table2]" in capsys.readouterr().out

    def test_export_from_bundle_matches_db(self, crawl_db, bundle_path, tmp_path):
        db_out = tmp_path / "db.csv"
        bundle_out = tmp_path / "bundle.csv"
        assert main(
            ["export", "--db", crawl_db, "--seed", "5",
             "--what", "requests", "--out", str(db_out)]
        ) == 0
        assert main(
            ["export", "--from-bundle", bundle_path,
             "--what", "requests", "--out", str(bundle_out)]
        ) == 0
        assert db_out.read_bytes() == bundle_out.read_bytes()

    def test_both_sources_rejected(self, crawl_db, bundle_path):
        with pytest.raises(SystemExit, match="not both"):
            main(["analyze", "--db", crawl_db, "--from-bundle", bundle_path])

    def test_no_source_rejected(self):
        with pytest.raises(SystemExit, match="required"):
            main(["analyze"])

    def test_contradicting_seed_rejected(self, bundle_path):
        with pytest.raises(SystemExit, match="contradicts"):
            main(["analyze", "--from-bundle", bundle_path, "--seed", "7"])

    def test_matching_seed_accepted(self, bundle_path, tmp_path):
        out = tmp_path / "visits.csv"
        code = main(
            ["export", "--from-bundle", bundle_path, "--seed", "5",
             "--what", "visits", "--out", str(out)]
        )
        assert code == 0


class TestIncludePartialFlag:
    def test_export_include_partial_flag(self, crawl_db, tmp_path):
        # Seed 5's tiny crawl may have no partials; the contract here is
        # that the flag parses and the partial column is always present.
        out = tmp_path / "requests.csv"
        code = main(
            ["export", "--db", crawl_db, "--seed", "5", "--what", "requests",
             "--include-partial", "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            header = next(csv.reader(handle))
        assert header[-1] == "partial"


class TestInspect:
    def test_renders_tree(self, capsys):
        code = main(["inspect", "--seed", "5", "--rank", "1", "--visit", "2"])
        if code == 0:
            out = capsys.readouterr().out
            assert "nodes" in out
            assert "|--" in out or "`--" in out
        else:
            # The simulated visit can fail (timeout model); retry another id.
            assert main(["inspect", "--seed", "5", "--rank", "1", "--visit", "3"]) in (0, 1)

    def test_profile_selection(self, capsys):
        code = main(
            ["inspect", "--seed", "5", "--rank", "1", "--profile", "NoAction",
             "--visit", "4"]
        )
        assert code in (0, 1)


class TestEasylist:
    def test_prints_list(self, capsys):
        assert main(["easylist", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[Adblock Plus 2.0]")

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "list.txt"
        assert main(["easylist", "--seed", "5", "--out", str(out)]) == 0
        assert out.read_text().startswith("[Adblock Plus 2.0]")
