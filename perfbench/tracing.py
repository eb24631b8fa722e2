"""Span recorder for the benchmark's traced run, and the per-layer metrics.

The recorder wraps the public calls into each ``repro`` layer from the
outside (nothing under ``src/`` knows it is being traced).  Each wrapped
call appends one span ``(name, start, end, parent)`` to an in-memory list;
``parent`` is the index of the innermost span open when the call began,
or -1.  Spans are written out as JSONL when the run ends and
:func:`layer_metrics` turns them into the ``per_layer`` metrics named in
``BENCHMARK.json``.

Layers and the calls wrapped for them:

=============  ==========================================================
``web``        ``WebGenerator.__init__``, ``WebGenerator.site``
``rng``        ``child_rng`` (counted only: ~500 calls per visit)
``browser``    ``BrowserEngine.visit``
``crawler``    ``Commander.run`` (plus visits/successes of its summary)
``storage``    writes: ``store_visits``, ``insert_table_rows``, ``flush``;
               reads: the public read methods in :data:`STORAGE_READS`
``bundle``     ``Bundle.replay``, ``Bundle.read_member``
``blocklist``  ``build_filter_list``, ``FilterList.from_text``,
               ``FilterList.is_tracking``
``trees``      ``TreeBuilder.build``
``analysis``   ``AnalysisDataset.from_store``, ``PageComparison(...)``,
               ``HorizontalAnalyzer.analyze_page``,
               ``VerticalAnalyzer.analyze_page``
``experiments``  each experiment module's ``run`` and ``render``
=============  ==========================================================
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

#: One span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]

#: Every experiment of ``python -m repro.experiments``, in its order.  The
#: per-layer metric names are fixed, so this list is the benchmark's own.
EXPERIMENT_IDS = (
    "table2",
    "figure1",
    "figure2",
    "table3",
    "figure3",
    "table4",
    "figure4",
    "figure5",
    "table5",
    "table6",
    "case_unique",
    "case_cookies",
    "case_tracking",
    "table7",
    "figure7",
    "figure8",
    "variance",
    "security_headers",
    "replication",
    "implicit_trust",
    "study_comparability",
    "ablations",
    "ablation_timeout",
    "ablation_blocklist",
)
#: Experiments that re-crawl or rebuild trees instead of reading the
#: main pipeline's data.
REWORK_EXPERIMENTS = (
    "replication",
    "study_comparability",
    "ablation_timeout",
    "ablations",
    "ablation_blocklist",
)

#: Every public ``MeasurementStore`` read method; generator methods get one
#: span per resumption so consumer time between items is not counted.
STORAGE_READS = (
    "visit",
    "visits_for_page",
    "visit_count",
    "pages_per_site_cap",
    "outcome_counts",
    "profiles",
    "profiles_in_crawl_order",
    "pages",
    "sites",
    "site_rank",
    "pages_crawled_by_all",
    "successful_visits_for_page",
    "recovered_counts",
    "requests_for_visit",
    "responses_for_visit",
    "document_response",
    "redirects_for_visit",
    "cookies_for_visit",
    "request_count",
    "table_row_count",
)
STORAGE_READ_ITERATORS = ("iter_visits", "iter_table_rows")
STORAGE_WRITES = ("store_visits", "insert_table_rows", "flush")

#: The modules that do ``from ..rng import child_rng``.
CHILD_RNG_IMPORTERS = (
    "repro.web.sitegen",
    "repro.web.dynamics",
    "repro.web.entities",
    "repro.web.faults",
    "repro.browser.engine",
    "repro.crawler.client",
    "repro.crawler.commander",
    "repro.crawler.tranco",
    "repro.analysis.variance",
)


class Recorder:
    """In-memory spans plus call counts, for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        #: Counts taken from call results (visits, rows, visit ids).
        self.tally: Counter = Counter()
        self.visit_ids: set = set()
        self._stack: List[int] = []

    def timed(self, name: str, func: Callable, after: Callable = None) -> Callable:
        """Wrap ``func``: count the call and record one span around it.

        ``after(args, result)`` runs once the span is closed, so what it
        costs is not charged to the layer.
        """
        calls = self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            opened = self._open()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_iter(self, name: str, func: Callable) -> Callable:
        """Wrap a generator function: one call, one span per resumption."""
        calls = self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return self._resumptions(name, func(*args, **kwargs))

        return wrapper

    def _resumptions(self, name: str, iterator: Iterator) -> Iterator:
        while True:
            opened = self._open()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(name, *opened)
            yield item

    def _open(self) -> Tuple[int, int, float]:
        """Reserve the next span slot; the span's parent is the open one."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, self.clock()

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def counted(self, name: str, func: Callable) -> Callable:
        """Wrap ``func``: count calls only (for calls too frequent to span)."""
        calls = self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def read_jsonl(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


# -- installing the wrappers ----------------------------------------------


def _patch_method(cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def _patch_function(original: Callable, wrapper: Callable) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded ``repro`` module.

    ``from ..rng import child_rng`` binds the function into the importing
    module at import time, so patching only its home module would miss
    every such caller.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls."""
    import importlib

    import repro.rng

    # Every module that binds ``child_rng`` by name must be loaded before
    # it is rebound (see :func:`_patch_function`).
    for module_name in CHILD_RNG_IMPORTERS:
        importlib.import_module(module_name)
    from repro.analysis import AnalysisDataset, HorizontalAnalyzer, VerticalAnalyzer
    from repro.analysis.comparison import PageComparison
    from repro.blocklist import FilterList, build_filter_list
    from repro.browser.engine import BrowserEngine
    from repro.bundle import Bundle
    from repro.crawler import Commander, MeasurementStore
    from repro.experiments import ALL_EXPERIMENTS
    from repro.trees.builder import TreeBuilder
    from repro.web import WebGenerator

    tally = recorder.tally

    def crawl_summary(args, summary) -> None:
        tally["crawler.visits"] += summary.total_visits
        tally["crawler.successes"] += sum(summary.successes.values())

    def rows_written(args, rows) -> None:
        tally["storage.write.rows"] += rows or 0

    def visit_built(args, tree) -> None:
        recorder.visit_ids.add(args[1].visit_id)

    def timed(name, after=None):
        return lambda func: recorder.timed(name, func, after)

    _patch_method(WebGenerator, "__init__", timed("web.generator_init"))
    _patch_method(WebGenerator, "site", timed("web.site"))
    _patch_function(
        repro.rng.child_rng, recorder.counted("rng.child_rng", repro.rng.child_rng)
    )
    _patch_method(BrowserEngine, "visit", timed("browser.visit"))
    _patch_method(Commander, "run", timed("crawler.run", crawl_summary))
    for attr in STORAGE_WRITES:
        _patch_method(MeasurementStore, attr, timed("storage.write", rows_written))
    for attr in STORAGE_READS:
        _patch_method(MeasurementStore, attr, timed("storage.read"))
    for attr in STORAGE_READ_ITERATORS:
        _patch_method(
            MeasurementStore,
            attr,
            lambda func: recorder.timed_iter("storage.read", func),
        )
    _patch_method(Bundle, "replay", timed("bundle.replay"))
    _patch_method(Bundle, "read_member", timed("bundle.read_member"))
    _patch_function(
        build_filter_list, recorder.timed("blocklist.build", build_filter_list)
    )
    _patch_method(FilterList, "from_text", timed("blocklist.build"))
    _patch_method(FilterList, "is_tracking", timed("blocklist.is_tracking"))
    _patch_method(TreeBuilder, "build", timed("trees.build", visit_built))
    _patch_method(AnalysisDataset, "from_store", timed("analysis.dataset"))
    _patch_method(PageComparison, "__init__", timed("analysis.compare"))
    _patch_method(HorizontalAnalyzer, "analyze_page", timed("analysis.horizontal"))
    _patch_method(VerticalAnalyzer, "analyze_page", timed("analysis.vertical"))
    for experiment_id, module in ALL_EXPERIMENTS.items():
        name = f"experiments.{experiment_id}"
        module.run = recorder.timed(name, module.run)
        module.render = recorder.timed(name, module.render)


# -- span arithmetic -------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_n, start, end, _p) in enumerate(spans)]


def outermost_time(spans: Sequence[Span], names: Iterable[str]) -> float:
    """Total duration of spans in ``names`` not nested in another of them.

    A parent's index is always below its child's (spans are appended when
    they open), so one forward pass knows whether an ancestor matched.
    """
    names = frozenset(names)
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] in names
        if name in names and not inside[i]:
            total += end - start
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    calls: Dict[str, int],
    tally: Dict[str, int],
    distinct_visits_built: int,
    wall_s: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics (name → (value, unit)) of one traced run.

    Every workload reports the same names; a layer or experiment the
    workload does not run reads 0.
    """
    selfs = self_times(spans)
    self_s: Counter = Counter()
    durations: Dict[str, List[float]] = {}
    for (name, start, end, _parent), own in zip(spans, selfs):
        self_s[name] += own
        durations.setdefault(name, []).append(end - start)

    def total(*names: str) -> float:
        return outermost_time(spans, names)

    def p_ms(name: str, q: float) -> float:
        return percentile(durations.get(name, []), q) * 1000.0

    visits = calls.get("browser.visit", 0)
    crawled = tally.get("crawler.visits", 0)
    builds = calls.get("trees.build", 0)
    covered = sum(end - start for _n, start, end, parent in spans if parent < 0)
    metrics: Dict[str, Tuple[float, str]] = {
        "web.generator_init_s": (total("web.generator_init"), "s"),
        "web.site.calls": (calls.get("web.site", 0), "count"),
        "web.site.self_s": (self_s["web.site"], "s"),
        "rng.child_rng.calls": (calls.get("rng.child_rng", 0), "count"),
        "rng.child_rng.calls_per_visit": (
            _ratio(calls.get("rng.child_rng", 0), visits),
            "ratio",
        ),
        "browser.visit.calls": (visits, "count"),
        "browser.visit.self_s": (self_s["browser.visit"], "s"),
        "browser.visit.p50_ms": (p_ms("browser.visit", 0.50), "ms"),
        "browser.visit.p99_ms": (p_ms("browser.visit", 0.99), "ms"),
        "crawler.run.calls": (calls.get("crawler.run", 0), "count"),
        "crawler.run.self_s": (self_s["crawler.run"], "s"),
        "crawler.visits": (crawled, "count"),
        "crawler.success_share": (
            _ratio(tally.get("crawler.successes", 0), crawled),
            "ratio",
        ),
        "storage.write.calls": (calls.get("storage.write", 0), "count"),
        "storage.write.rows": (tally.get("storage.write.rows", 0), "count"),
        "storage.write_s": (total("storage.write"), "s"),
        "storage.read.calls": (calls.get("storage.read", 0), "count"),
        "storage.read_s": (total("storage.read"), "s"),
        "bundle.replay_s": (total("bundle.replay"), "s"),
        "bundle.read_member.calls": (calls.get("bundle.read_member", 0), "count"),
        "bundle.read_member_s": (total("bundle.read_member"), "s"),
        "blocklist.build_s": (total("blocklist.build"), "s"),
        "blocklist.is_tracking.calls": (
            calls.get("blocklist.is_tracking", 0),
            "count",
        ),
        "blocklist.is_tracking_s": (total("blocklist.is_tracking"), "s"),
        "trees.build.calls": (builds, "count"),
        "trees.build.self_s": (self_s["trees.build"], "s"),
        "trees.build.p50_ms": (p_ms("trees.build", 0.50), "ms"),
        "trees.build.p99_ms": (p_ms("trees.build", 0.99), "ms"),
        "trees.builds_per_visit": (_ratio(builds, distinct_visits_built), "ratio"),
        "analysis.dataset.calls": (calls.get("analysis.dataset", 0), "count"),
        "analysis.dataset.self_s": (self_s["analysis.dataset"], "s"),
        "analysis.compare.calls": (calls.get("analysis.compare", 0), "count"),
        "analysis.compare_s": (total("analysis.compare"), "s"),
        "analysis.horizontal_s": (total("analysis.horizontal"), "s"),
        "analysis.vertical_s": (total("analysis.vertical"), "s"),
    }
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment_id}.s"] = (
            total(f"experiments.{experiment_id}"),
            "s",
        )
    rework = total(*(f"experiments.{item}" for item in REWORK_EXPERIMENTS))
    metrics["experiments.rework_share"] = (_ratio(rework, wall_s), "ratio")
    metrics["trace.unattributed_share"] = (
        _ratio(max(0.0, wall_s - covered), wall_s),
        "ratio",
    )
    return metrics
