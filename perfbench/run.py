"""The repo benchmark: serial ``reproduce``, ``crawl`` and ``analyze`` runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crawl --seed 2023 --seconds 30 --trace 0

Each iteration is a fresh Python process (``worker.py``), so every run
pays interpreter start-up and imports, and ``run_pipeline``'s in-process
cache starts cold, as it does for a user.  Iterations repeat until
``--seconds`` have passed (at least one runs); timings are medians.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced iteration.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Stores and bundles live in a temporary directory inside the checkout,
removed before exit.  See ``perfbench/README.md`` for the metrics and the
reasons behind each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: Set-up-only processes per untraced run, for a median ``setup_s``.
SETUP_PROBES = 5
#: A worker that takes longer than this is treated as hung.
WORKER_TIMEOUT_S = 170
#: The end-to-end metrics of the JSON result, as named in BENCHMARK.json.
#: ``wall_s``, ``visits_per_s`` and ``failed_share`` are printed as well.  On
#: ``analyze``, wall time follows how many comparable pages the seed yields,
#: so the per-page rate is the one steady enough to gate.
END_TO_END = ("pages_per_s", "setup_s", "peak_rss_mb")
#: Operations per workload's ``failed_share`` (see worker.py).
OPERATION = {"reproduce": "experiments", "crawl": "visits", "analyze": "experiments"}

sys.path.insert(0, HERE)

import tracing  # noqa: E402
from worker import WORKLOADS, now  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def run_worker(mode: str, tmp: str, args, **extra) -> dict:
    """Start one worker process in a fresh directory and return its result."""
    workdir = tempfile.mkdtemp(dir=tmp)
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--mode",
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--tmp",
        workdir,
    ]
    for key, value in extra.items():
        if value is True:
            command.append(f"--{key}")
        elif value:
            command += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONPATH=SOURCE, TMPDIR=workdir)
    command += ["--t0", repr(now())]
    completed = subprocess.run(
        command, cwd=workdir, env=env, timeout=WORKER_TIMEOUT_S, check=False
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"worker {mode} exited {completed.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    spans_path = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans_path):
        result["spans"] = tracing.read_jsonl(spans_path)
    if mode != "record":
        shutil.rmtree(workdir)
    return result


def environment(args) -> str:
    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()} seed={args.seed} "
        "workers=1 jobs=1 stream=off obs=off"
    )


def load_reference(seed: int, workload: str):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle).get(str(seed), {}).get(workload)


def _stop(signum, _frame) -> None:
    # Unwinding (rather than dying) lets subprocess.run kill the running
    # worker and main() remove the temporary directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        report = measure(args, tmp)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report))
    return 0


def measure(args, tmp: str) -> dict:
    print(environment(args))
    record_s = 0.0
    bundle = ""
    recorded_visits = None
    if args.workload == "analyze":
        prep = run_worker("record", tmp, args)
        bundle, record_s, recorded_visits = prep["bundle"], prep["record_s"], prep["visits"]

    runs = []
    start = now()
    while not runs or now() - start < args.seconds:
        runs.append(run_worker("measure", tmp, args, bundle=bundle))
    traced = run_worker("measure", tmp, args, bundle=bundle, trace=True) if args.trace else None
    setup = [run["setup_s"] for run in runs]
    if not args.trace:
        setup += [run_worker("probe", tmp, args)["setup_s"] for _ in range(SETUP_PROBES)]

    checked = runs + ([traced] if traced else [])
    problems = [problem for run in checked for problem in run["problems"]]
    digests = {run["digest"] for run in checked}
    if len(digests) != 1:
        problems.append(f"output differs between iterations: {sorted(digests)}")
    digest = runs[0]["digest"]
    reference = load_reference(args.seed, args.workload)
    if reference is None:
        against = "none"
    elif digest == reference["digest"]:
        against = "match"
    else:
        against = "mismatch"
        problems.append(f"digest {digest} != reference {reference['digest']}")
    counts = runs[0]["counts"]
    if recorded_visits is not None and counts["visits"] != recorded_visits:
        problems.append(
            f"replayed {counts['visits']} visits, recorded {recorded_visits}"
        )
    attempted = sum(run["attempted"] for run in checked)
    failed = sum(run["failed"] for run in checked)
    if problems:
        # A failed output check fails every operation of the run.
        failed = attempted
    for problem in problems:
        print(f"check failed: {problem}")
    print(
        f"workload={args.workload} seed={args.seed} iterations={len(runs)} "
        f"digest={digest} reference={against}"
    )
    print(
        "counts: "
        + " ".join(f"{key}={value}" for key, value in counts.items())
        + f" operations={runs[0]['attempted']} ({OPERATION[args.workload]})"
    )

    walls = [run["wall_s"] for run in runs]
    wall_s = statistics.median(walls)
    print("wall_s per iteration: " + " ".join(f"{w:.3f}" for w in walls))
    if traced is None:
        shown = {
            "wall_s": (wall_s, "s"),
            "visits_per_s": (
                statistics.median(counts["visits"] / w for w in walls),
                "visits/s",
            ),
            "pages_per_s": (
                statistics.median(counts["pages"] / w for w in walls),
                "pages/s",
            ),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                statistics.median(run["peak_rss_mb"] for run in runs),
                "MB",
            ),
            "failed_share": (failed / attempted, "ratio"),
        }
        metrics = {name: shown[name] for name in END_TO_END}
    else:
        metrics = tracing.layer_metrics(
            traced["spans"],
            traced["calls"],
            traced["tally"],
            traced["distinct_visits_built"],
            traced["wall_s"],
        )
        metrics["bundle.record_s"] = (record_s, "s")
        metrics["trace.overhead"] = (traced["wall_s"] / wall_s, "ratio")
        shown = metrics
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
