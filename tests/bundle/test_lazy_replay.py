"""Lazy bundle replay reads exactly what an eager replay would.

``Bundle.replay()`` fills each table on the first statement that names
it, and ``AnalysisDataset.from_bundle`` builds the trees from the archived
request rows instead of the store.  The checks here:

* every store read, made first on a fresh replay, made after the dataset
  build, and made on a fully materialized replay, returns the same value;
* the dataset build leaves ``http_requests`` out of SQLite, and a later
  read of it still sees every row;
* the bundle-built dataset equals ``AnalysisDataset.from_store`` over a
  fully replayed store: the same pickle bytes per page comparison and the
  same URL-normalizer statistics;
* a corrupt member fails the read that needs it, every time.
"""

from __future__ import annotations

import dataclasses
import pickle
import shutil
import zlib

import pytest

from repro.analysis import AnalysisDataset
from repro.analysis import dataset as dataset_module
from repro.bundle import Bundle, record_from_store
from repro.bundle.bundle import decode_table, encode_table
from repro.crawler import MeasurementStore
from repro.errors import BundleError
from repro.experiments.runner import ExperimentContext
from repro.trees.builder import TreeBuilder


@pytest.fixture(scope="module")
def bundle(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("lazy") / "crawl"
    return record_from_store(store, seed=99, path=path)


def materialized(bundle):
    """A replay with every table filled (each read names one table)."""
    store = bundle.replay()
    for table in store.table_names():
        store.table_row_count(table)
    return store


def visit_ids(bundle):
    return sorted(row[0] for row in bundle.table_rows("visits"))


#: One entry per store read: name → function of (store, visit ids).
READS = {
    **{
        f"iter_table_rows[{table}]": (
            lambda store, ids, table=table: list(store.iter_table_rows(table))
        )
        for table in MeasurementStore.table_names()
    },
    "requests_for_visit": lambda store, ids: [
        store.requests_for_visit(visit_id) for visit_id in ids
    ],
    "request_count": lambda store, ids: store.request_count(),
    "document_response": lambda store, ids: [
        store.document_response(visit_id) for visit_id in ids
    ],
    "cookies_for_visit": lambda store, ids: [
        store.cookies_for_visit(visit_id) for visit_id in ids
    ],
    "visit_count": lambda store, ids: (
        store.visit_count(),
        store.visit_count(success_only=True),
    ),
}


@pytest.fixture(scope="module")
def expected(bundle):
    ids = visit_ids(bundle)
    with materialized(bundle) as store:
        return {name: read(store, ids) for name, read in READS.items()}


class TestReads:
    @pytest.mark.parametrize("name", sorted(READS))
    def test_first_read_of_a_fresh_replay(self, bundle, expected, name):
        with bundle.replay() as store:
            assert READS[name](store, visit_ids(bundle)) == expected[name]

    def test_eager_reference_is_the_recorded_store(self, bundle, expected, store):
        for table in store.table_names():
            assert expected[f"iter_table_rows[{table}]"] == list(
                store.iter_table_rows(table)
            )

    def test_reads_after_the_dataset_build(self, bundle, expected, monkeypatch):
        filled = []
        insert = MeasurementStore.insert_table_rows

        def spy(store, table, rows):
            filled.append(table)
            return insert(store, table, rows)

        monkeypatch.setattr(MeasurementStore, "insert_table_rows", spy)
        with bundle.replay() as store:
            dataset = AnalysisDataset.from_bundle(bundle, store=store)
            assert len(dataset) > 0
            assert filled == ["visits"]
            for name in sorted(READS):
                assert READS[name](store, visit_ids(bundle)) == expected[name], name
        assert sorted(filled) == sorted(MeasurementStore.table_names())

    def test_context_reads_after_the_build(self, bundle, expected):
        ctx = ExperimentContext.from_bundle(bundle)
        try:
            assert len(ctx.dataset) > 0
            for name in sorted(READS):
                assert READS[name](ctx.store, visit_ids(bundle)) == expected[name], name
        finally:
            ctx.store.close()

    def test_replay_to_disk_is_complete(self, bundle, expected, tmp_path):
        path = str(tmp_path / "replayed.sqlite")
        bundle.replay(path).close()
        with MeasurementStore.open_readonly(path) as store:
            for name in sorted(READS):
                assert READS[name](store, visit_ids(bundle)) == expected[name], name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_snapshot_for_pool_workers_is_complete(self, bundle, jobs):
        with materialized(bundle) as eager, bundle.replay() as lazy:
            from_eager = AnalysisDataset.from_store(eager, jobs=jobs)
            from_lazy = AnalysisDataset.from_store(lazy, jobs=jobs)
        assert comparison_bytes(from_lazy) == comparison_bytes(from_eager)


def comparison_bytes(dataset):
    return [
        (entry.site, entry.site_rank, pickle.dumps(entry.comparison))
        for entry in dataset
    ]


class TestDatasetEquivalence:
    def build(self, monkeypatch, make):
        builders = []

        class RecordingBuilder(TreeBuilder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                builders.append(self)

        monkeypatch.setattr(dataset_module, "TreeBuilder", RecordingBuilder)
        dataset = make()
        assert len(builders) == 1
        return dataset, dataclasses.asdict(builders[0].normalizer.stats)

    def test_streamed_equals_fully_replayed(self, bundle, filter_list, monkeypatch):
        with materialized(bundle) as store:
            reference, reference_stats = self.build(
                monkeypatch,
                lambda: AnalysisDataset.from_store(store, filter_list=filter_list),
            )
        streamed, streamed_stats = self.build(
            monkeypatch,
            lambda: AnalysisDataset.from_bundle(bundle, filter_list=filter_list),
        )
        assert len(streamed) == len(reference) > 0
        assert streamed.profiles == reference.profiles
        assert comparison_bytes(streamed) == comparison_bytes(reference)
        assert streamed_stats == reference_stats
        assert streamed_stats["total"] > 0


class TestCorruptMember:
    def test_read_fails_every_time(self, bundle, tmp_path):
        root = tmp_path / "corrupt"
        shutil.copytree(bundle.path, root)
        corrupt = Bundle.open(root)
        entry = corrupt.manifest.member("tables/javascript_cookies.json")
        (root / "objects" / entry.digest).write_bytes(zlib.compress(b"[]"))
        with corrupt.replay() as store:
            assert store.visit_count() > 0
            for _ in range(2):
                with pytest.raises(BundleError, match="digest check"):
                    store.cookies_for_visit(1)


class TestRowDecoding:
    @pytest.mark.parametrize(
        "rows",
        [[], [[1]], [[1, "a],[b", None, 2.5], [2, '[["x", "y"]]', True, -0.0]]],
    )
    def test_round_trip(self, rows):
        assert list(decode_table(encode_table(rows))) == [tuple(row) for row in rows]

    @pytest.mark.parametrize(
        "payload", [b"{}", b"[[1], [2]]", b"[[1],[2]]x", b"[[1],", b"[[1]", b"[[1]["]
    )
    def test_non_canonical_member_rejected(self, payload):
        with pytest.raises(BundleError):
            list(decode_table(payload))
