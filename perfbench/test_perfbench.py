"""Self-tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import os

import pytest

import run
import tracing
from worker import normalize_stdout

HERE = os.path.dirname(os.path.abspath(__file__))

#   A [0, 10]           root
#   ├─ B [1, 4]
#   │  └─ C [2, 3]
#   └─ B [5, 9]
#   D [11, 12]          root
SPANS = [
    ("A", 0.0, 10.0, -1),
    ("B", 1.0, 4.0, 0),
    ("C", 2.0, 3.0, 1),
    ("B", 5.0, 9.0, 0),
    ("D", 11.0, 12.0, -1),
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(SPANS) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_outermost_time_skips_spans_nested_in_the_same_family():
    assert tracing.outermost_time(SPANS, ["B", "C"]) == 7.0
    assert tracing.outermost_time(SPANS, ["C"]) == 1.0
    assert tracing.outermost_time(SPANS, ["A", "B"]) == 10.0
    assert tracing.outermost_time(SPANS, ["missing"]) == 0.0


def test_layer_metrics_unattributed_share_counts_root_spans():
    metrics = tracing.layer_metrics(SPANS, {}, {}, 0, wall_s=14.0)
    assert metrics["trace.unattributed_share"] == (3.0 / 14.0, "ratio")


def test_recorder_links_parents_and_splits_generator_resumptions():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    def numbers():
        yield 1
        yield 2

    inner = recorder.timed("inner", lambda: sum(numbers_wrapped()))
    numbers_wrapped = recorder.timed_iter("gen", numbers)
    outer = recorder.timed("outer", inner)

    assert outer() == 3
    names = [(name, parent) for name, _start, _end, parent in recorder.spans]
    assert names == [
        ("outer", -1),
        ("inner", 0),
        ("gen", 1),
        ("gen", 1),
        ("gen", 1),
    ]
    assert recorder.calls == {"outer": 1, "inner": 1, "gen": 1}
    assert all(end > start for _n, start, end, _p in recorder.spans)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert tracing.percentile(values, 0.50) == 50.0
    assert tracing.percentile(values, 0.99) == 99.0
    assert tracing.percentile([7.0], 0.99) == 7.0
    assert tracing.percentile([], 0.5) == 0.0


@pytest.mark.parametrize(
    "raw, expected",
    [
        (
            "crawled 10 sites, 250 visits, 38 comparable pages (4.8s)\n",
            "crawled 10 sites, 250 visits, 38 comparable pages\n",
        ),
        (
            "crawled 10 sites, 250 visits, 38 comparable pages (12s)\n",
            "crawled 10 sites, 250 visits, 38 comparable pages\n",
        ),
        # Only that line's suffix goes; other parentheses stay.
        ("[table2]\nvisits (4.8s)\n", "[table2]\nvisits (4.8s)\n"),
    ],
)
def test_stdout_normaliser(raw, expected):
    assert normalize_stdout(raw) == expected


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert tuple(item["name"] for item in spec["end_to_end"]) == run.END_TO_END
    traced = tracing.layer_metrics([], {}, {}, 0, wall_s=1.0)
    printed = set(traced) | {"bundle.record_s", "trace.overhead"}
    assert {item["name"] for item in spec["per_layer"]} == printed
    units = {item["name"]: item["unit"] for item in spec["per_layer"]}
    assert all(units[name] == unit for name, (_v, unit) in traced.items())
