"""The analyze experiments share each page's analyses instead of redoing them.

The experiment list is the benchmark's own ``analyze`` workload
(``perfbench/worker.py``), imported rather than copied, so the guard
follows whatever that workload runs.
"""

import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import HorizontalAnalyzer, VerticalAnalyzer
from repro.analysis.horizontal import page_child_similarity
from repro.bundle import record_from_store
from repro.experiments import run_pipeline

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("reuse") / "bundle"
    record_from_store(store, seed=99, path=path)
    return str(path)


@pytest.fixture
def analyze_experiments(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "worker", raising=False)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import worker

    experiments = worker.analyze_experiments()
    assert len(experiments) == 19
    return experiments


def run_all(ctx, experiments):
    for _experiment_id, module in experiments:
        assert module.render(module.run(ctx)).strip()


def test_default_horizontal_pass_runs_once_per_page(
    bundle_dir, analyze_experiments, monkeypatch
):
    passes = Counter()
    run_pass = HorizontalAnalyzer._pass

    def counted(analyzer, comparison):
        passes[comparison.page_url, analyzer.include_static_leaves] += 1
        return run_pass(analyzer, comparison)

    monkeypatch.setattr(HorizontalAnalyzer, "_pass", counted)
    ctx = run_pipeline(from_bundle=bundle_dir)
    run_all(ctx, analyze_experiments)
    pages = [entry.comparison.page_url for entry in ctx.dataset]
    assert len(pages) == len(set(pages)) > 0
    assert {page: passes[page, False] for page in pages} == dict.fromkeys(pages, 1)
    assert set(passes) == {(page, False) for page in pages}


def test_pickles_do_not_depend_on_analyses_run(bundle_dir, analyze_experiments):
    ctx = run_pipeline(from_bundle=bundle_dir)
    comparisons = [entry.comparison for entry in ctx.dataset]
    before = [pickle.dumps(comparison) for comparison in comparisons]
    run_all(ctx, analyze_experiments)
    for comparison in comparisons:
        HorizontalAnalyzer(include_static_leaves=True).analyze_page(comparison)
        page_child_similarity(comparison)
        VerticalAnalyzer().analyze_page(comparison)
        for node in comparison.nodes():
            node.child_similarity()
            node.parent_similarity()
    assert [pickle.dumps(comparison) for comparison in comparisons] == before
    restored = pickle.loads(before[0])
    assert restored.horizontal_passes == {}
    assert [node.parent_similarity() for node in restored.nodes()] == [
        node.parent_similarity() for node in comparisons[0].nodes()
    ]
