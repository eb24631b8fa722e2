"""Run every experiment and print the paper-style output.

Usage::

    python -m repro.experiments [--seed N] [--sites-per-bucket N]
                                [--pages-per-site N] [--only ID[,ID...]]
"""

from __future__ import annotations

import argparse
import sys

from ..cli import positive_int
from ..devtools.clock import Clock, Stopwatch
from ..obs import (
    NULL_OBS,
    EventStream,
    Monitor,
    ObsContext,
    RunLedger,
    default_expected_failure_rate,
    render_alerts,
)
from . import ALL_EXPERIMENTS
from .runner import ExperimentConfig, run_pipeline


def main(argv=None, clock: "Clock" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--sites-per-bucket", type=positive_int, default=3)
    parser.add_argument("--pages-per-site", type=int, default=4)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="crawl worker processes (output is identical at any count)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="tree-building processes (output is identical at any count)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="overlap crawling with analysis (repro.pipeline.stream); "
        "byte-identical outputs, better wall-clock at scale",
    )
    parser.add_argument(
        "--only",
        type=str,
        default="",
        help="comma-separated experiment ids (default: all); "
        f"known: {', '.join(ALL_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--trace", default="", help="write a span trace of the run (JSONL)"
    )
    parser.add_argument(
        "--metrics-out", default="", help="write the run's metrics (JSON)"
    )
    parser.add_argument(
        "--ledger",
        default="",
        help="append the pipeline's run record to this ledger directory",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="stream the crawl through the live anomaly monitor",
    )
    parser.add_argument(
        "--monitor-gate",
        action="store_true",
        help="with --monitor semantics, exit 1 when a critical alert fired",
    )
    args = parser.parse_args(argv)
    selected = (
        [item.strip() for item in args.only.split(",") if item.strip()]
        if args.only
        else list(ALL_EXPERIMENTS)
    )
    unknown = [item for item in selected if item not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    config = ExperimentConfig(
        seed=args.seed,
        sites_per_bucket=args.sites_per_bucket,
        pages_per_site=args.pages_per_site,
        workers=args.workers,
        jobs=args.jobs,
        stream=args.stream,
    )
    monitoring = args.monitor or args.monitor_gate
    obs = (
        ObsContext.create(
            seed=args.seed,
            clock=clock,
            ledger=RunLedger(args.ledger) if args.ledger else None,
            stream=EventStream() if monitoring else None,
        )
        if (args.trace or args.metrics_out or args.ledger or monitoring)
        else NULL_OBS
    )
    monitor = None
    if monitoring:
        monitor = Monitor.for_crawl(
            expected_rate=default_expected_failure_rate(),
            on_alert=lambda alert: print(f"! {alert.format()}"),
        )
        obs.attach_monitor(monitor)
    watch = Stopwatch(clock)
    mode = " (streamed)" if config.stream else ""
    print(
        f"running pipeline: seed={config.seed}, "
        f"{config.sites_per_bucket} sites/bucket, "
        f"{config.pages_per_site} pages/site{mode}"
    )
    ctx = run_pipeline(config, obs=obs)
    print(
        f"crawled {ctx.summary.sites_crawled} sites, {ctx.summary.total_visits} visits, "
        f"{len(ctx.dataset)} comparable pages ({watch.elapsed():.1f}s)\n"
    )
    for experiment_id in selected:
        module = ALL_EXPERIMENTS[experiment_id]
        with obs.tracer.span(
            "experiment", key=f"experiment:{experiment_id}", id=experiment_id
        ):
            result = module.run(ctx)
        print("=" * 72)
        print(f"[{experiment_id}]")
        print("=" * 72)
        print(module.render(result))
        print()
    if args.trace:
        count = obs.tracer.write_jsonl(args.trace)
        print(f"wrote {count} spans to {args.trace}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_json() + "\n")
        print(f"wrote {len(obs.metrics)} metrics to {args.metrics_out}")
    if obs.ledger is not None:
        entries = obs.ledger.entries()
        if entries:
            print(f"ledger: run {entries[-1].run_id[:12]} -> {obs.ledger.root}")
    if monitor is not None:
        print(render_alerts(monitor.alerts))
        if args.monitor_gate and monitor.has_critical:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
