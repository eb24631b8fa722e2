"""One measured process of the benchmark (started by ``run.py``).

Modes:

``--mode probe``    import ``repro`` and report the set-up time only.
``--mode record``   crawl at ``--seed`` and record the bundle that the
                    ``analyze`` workload replays (preparation, untimed).
``--mode measure``  run one iteration of ``--workload`` and check its
                    output; ``--trace`` wraps the layers first and writes
                    the spans to ``spans.jsonl`` in ``--tmp``.

Set-up time runs from ``--t0`` (the parent's ``CLOCK_MONOTONIC`` reading
just before it started this process) until ``repro`` is imported.  The
result is written as JSON to ``result.json`` in ``--tmp``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import os
import re
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

from tracing import EXPERIMENT_IDS, REWORK_EXPERIMENTS

#: ``python -m repro.experiments`` scale of the ``reproduce`` workload.
REPRODUCE_SCALE = {"sites_per_bucket": 2, "pages_per_site": 5}
#: ``Commander`` scale of the ``crawl`` workload (and the analyzed crawl).
CRAWL_PER_BUCKET = 4
CRAWL_PAGES_PER_SITE = 10

_TIMING_SUFFIX = re.compile(
    r"^(crawled .* comparable pages) \(\d+(?:\.\d+)?s\)$", re.MULTILINE
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def normalize_stdout(text: str) -> str:
    """Drop the only run-dependent text of ``repro.experiments`` output.

    That is the ``(N.Ns)`` elapsed-time suffix of the
    ``crawled … comparable pages`` line.
    """
    return _TIMING_SUFFIX.sub(r"\1", text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_digest(store) -> tuple:
    """sha256 over every table's rows, and the row count of each table.

    Reads go through the program's own method, not a traced run's wrapper
    (``inspect.unwrap``): the benchmark's checks are not program work.
    """
    iter_rows = inspect.unwrap(type(store).iter_table_rows)
    digest = hashlib.sha256()
    counts = {}
    for table in store.table_names():
        digest.update(f"[{table}]\n".encode("utf-8"))
        counts[table] = 0
        for row in iter_rows(store, table):
            digest.update(repr(row).encode("utf-8") + b"\n")
            counts[table] += 1
    return digest.hexdigest(), counts


def _crawl(seed: int, path: str):
    from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
    from repro.web import WebGenerator

    generator = WebGenerator(seed)
    store = MeasurementStore(path)
    commander = Commander(generator, store, max_pages_per_site=CRAWL_PAGES_PER_SITE)
    summary = commander.run(sample_paper_buckets(seed, per_bucket=CRAWL_PER_BUCKET))
    store.flush()
    return generator, store, summary


class Outcome:
    """What one iteration did: operations, output digest, checks."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = 0
        self.digest = ""
        self.counts = {"visits": 0, "pages": 0, "experiments": 0}
        self.problems = []

    def fail_all(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = self.attempted


def run_reproduce(outcome: Outcome, seed: int, tmp: str, bundle: str) -> None:
    from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, run_pipeline
    from repro.experiments.__main__ import main

    outcome.attempted = len(ALL_EXPERIMENTS)
    argv = ["--seed", str(seed)]
    for key, value in REPRODUCE_SCALE.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    text = normalize_stdout(buffer.getvalue())
    outcome.digest = sha256(text)
    sections = re.findall(r"^\[(\w+)\]$", text, re.MULTILINE)
    # The pipeline is cached per config: this returns the run's context.
    ctx = run_pipeline(ExperimentConfig(seed=seed, **REPRODUCE_SCALE))
    outcome.counts.update(
        visits=ctx.summary.total_visits,
        pages=len(ctx.dataset),
        experiments=len(sections),
    )
    if status != 0:
        outcome.fail_all(f"repro.experiments exited {status}")
    elif sections != list(ALL_EXPERIMENTS):
        outcome.fail_all(f"rendered sections {sections} are not all experiments")
    elif not ctx.dataset:
        outcome.fail_all("no comparable pages")


def run_crawl(outcome: Outcome, seed: int, tmp: str, bundle: str) -> None:
    _generator, store, summary = _crawl(seed, os.path.join(tmp, "crawl.sqlite"))
    try:
        outcome.attempted = max(1, summary.total_visits)
        outcome.digest, rows = store_digest(store)
    finally:
        store.close()
    outcome.counts.update(visits=summary.total_visits, pages=summary.pages_discovered)
    if rows["visits"] != summary.total_visits or not summary.total_visits:
        outcome.fail_all(
            f"store holds {rows['visits']} visits, crawl reports "
            f"{summary.total_visits}"
        )


def analyze_experiments():
    """The experiments that read only the replayed crawl (19 of 24)."""
    from repro.experiments import ALL_EXPERIMENTS

    return [
        (experiment_id, ALL_EXPERIMENTS[experiment_id])
        for experiment_id in EXPERIMENT_IDS
        if experiment_id not in REWORK_EXPERIMENTS
    ]


def run_analyze(outcome: Outcome, seed: int, tmp: str, bundle: str) -> None:
    from repro.experiments import run_pipeline

    experiments = analyze_experiments()
    outcome.attempted = len(experiments)
    ctx = run_pipeline(from_bundle=bundle)
    rendered = []
    for experiment_id, module in experiments:
        try:
            text = module.render(module.run(ctx))
        except Exception:
            traceback.print_exc()
            outcome.failed += 1
            outcome.problems.append(f"{experiment_id} raised")
            continue
        if not text.strip():
            outcome.failed += 1
            outcome.problems.append(f"{experiment_id} rendered nothing")
        rendered.append(f"[{experiment_id}]\n{text}\n")
    outcome.digest = sha256("".join(rendered))
    outcome.counts.update(
        visits=inspect.unwrap(type(ctx.store).visit_count)(ctx.store),
        pages=len(ctx.dataset),
        experiments=len(rendered),
    )
    if not ctx.dataset:
        outcome.fail_all("no comparable pages")


WORKLOADS = {"reproduce": run_reproduce, "crawl": run_crawl, "analyze": run_analyze}


def record_bundle(seed: int, tmp: str) -> dict:
    """Crawl and record the bundle ``analyze`` replays."""
    from repro.bundle import record_from_store

    generator, store, summary = _crawl(seed, os.path.join(tmp, "recorded.sqlite"))
    path = os.path.join(tmp, "bundle")
    try:
        start = now()
        record_from_store(store, seed, path, generator=generator)
        record_s = now() - start
    finally:
        store.close()
    return {"bundle": path, "record_s": record_s, "visits": summary.total_visits}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("probe", "record", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--bundle", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.bundle  # noqa: F401  (set-up: the imports a user pays for)
    import repro.experiments  # noqa: F401

    setup_s = now() - args.t0
    if args.mode == "probe":
        result = {"setup_s": setup_s}
    elif args.mode == "record":
        result = record_bundle(args.seed, args.tmp)
    else:
        recorder = None
        if args.trace:
            from tracing import Recorder, install

            recorder = Recorder()
            install(recorder)
        # A crawl that raises before its summary counts as one failed
        # operation: how many visits it would have made is unknown.
        outcome = Outcome(1)
        start = now()
        try:
            WORKLOADS[args.workload](outcome, args.seed, args.tmp, args.bundle)
        except Exception:
            traceback.print_exc()
            outcome.fail_all(f"{args.workload} raised")
        wall_s = now() - start
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": _peak_rss_mb(),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "digest": outcome.digest,
            "counts": outcome.counts,
            "problems": outcome.problems,
        }
        if recorder is not None:
            recorder.write_jsonl(os.path.join(args.tmp, "spans.jsonl"))
            result.update(
                calls=dict(recorder.calls),
                tally=dict(recorder.tally),
                distinct_visits_built=len(recorder.visit_ids),
            )
    with open(os.path.join(args.tmp, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
