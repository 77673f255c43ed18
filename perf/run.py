"""Host-wall benchmark of the KPM library: four workloads, end to end and per layer.

    python perf/run.py --seed 0                  # end-to-end metrics, all workloads
    python perf/run.py --seed 0 --trace          # per-layer metrics and tracing overhead
    python perf/run.py --workload paper-dos --seed 3 --seconds 25 --trace 0

Each workload run happens in fresh worker processes (``worker.py``),
one after another, each a single closed-loop client with one BLAS
thread.  An untraced run starts four set-up-only workers and one full
worker and reports the median of the five set-up times.  A traced run
starts one worker that traces every other operation; the median times
of traced and untraced operations give the tracing overhead.  Every metric
is printed with its unit; the last line of standard output is the
result as JSON, and ``--out`` (default ``perf/out/``) keeps all of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SETUP_SAMPLES = 5
#: Every workload run, all its workers included, ends within this.
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    """A worker process failed, timed out or produced no samples."""


def spawn(workload: str, seed: int, deadline: float, *, seconds=None, ops=None,
          trace_dir=None, setup_only=False) -> dict:
    """Run one worker to completion and return its parsed result.

    With ``trace_dir`` the worker traces every other timed operation and
    writes the Chrome trace and per-layer totals there.
    """
    command = [sys.executable, str(PERF / "worker.py"), workload, "--seed", str(seed)]
    command += ["--ops", str(ops)] if ops is not None else ["--seconds", repr(seconds)]
    if trace_dir is not None:
        command += ["--traced", "--out-dir", str(trace_dir)]
    command += ["--setup-only"] * setup_only
    try:
        process = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker did not finish in time") from exc
    if process.returncode != 0 or not process.stdout.strip():
        raise WorkerError(f"{workload}: worker exited with code {process.returncode}")
    result = json.loads(process.stdout.strip().splitlines()[-1])
    if not setup_only and not result["op_s"]:
        raise WorkerError(f"{workload}: no operation succeeded")
    return result


def run_workload(name: str, args, trace_dir: Path) -> dict:
    """One run of one workload: its metrics and op counts."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if not args.trace:
        setups = [
            spawn(name, args.seed, deadline, ops=1, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        main = spawn(name, args.seed, deadline, seconds=args.seconds, ops=args.ops)
        workers = [main]
        values = metrics.end_to_end(main, setups + [main["setup_s"]])
    else:
        traced = spawn(
            name, args.seed, deadline, seconds=args.seconds, ops=args.ops, trace_dir=trace_dir
        )
        workers = [traced]
        values = metrics.per_layer(traced)
    return {
        "metrics": values,
        "ops": sum(len(w["op_s"]) + len(w["traced_op_s"]) for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "errors": [e for w in workers for e in w["errors"]],
    }


def _print_workload(name: str, runs: list[dict], summary: dict, specs: dict) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(
        f"{name}: {len(runs)} run(s), {sum(r['ops'] for r in runs)} timed ops, "
        f"{attempted} attempted, {failed} failed"
    )
    for metric, value in summary.items():
        print(f"  {metric:<28} {value:<14.6g} {specs[metric]['unit']}")
    for error in (e for r in runs for e in r["errors"]):
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    benchmark = metrics.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--ops", type=int, help="timed ops per workload, overriding --seconds")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", type=Path, help="JSON report (default: perf/out/)")
    args = parser.parse_args(argv)
    if args.trace and args.ops is not None and args.ops < 2:
        parser.error("a traced run needs --ops 2 or more (traced and untraced ops alternate)")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    wanted = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    specs = metrics.metric_specs(benchmark)
    selected = [args.workload] if args.workload else names
    report = {
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "ops": args.ops,
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    out = args.out or PERF / "out" / f"run-seed{args.seed}{'-trace' if args.trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    result_metrics = {}
    attempted = failed = 0
    for name in selected:
        try:
            runs = [run_workload(name, args, out.parent) for _ in range(args.repeat)]
        except WorkerError as exc:
            print(exc, file=sys.stderr)
            return 1
        summary = {
            metric: statistics.median(r["metrics"][metric] for r in runs)
            for metric in runs[0]["metrics"]
        }
        _print_workload(name, runs, summary, specs)
        report["workloads"][name] = {
            "runs": [r["metrics"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]],
        }
        attempted += report["workloads"][name]["attempted"]
        failed += report["workloads"][name]["failed"]
        for metric in wanted:
            key = metric if len(selected) == 1 else f"{name}/{metric}"
            result_metrics[key] = {"value": summary[metric], "unit": specs[metric]["unit"]}

    out.write_text(json.dumps(report, indent=1))
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
