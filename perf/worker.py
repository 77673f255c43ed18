"""Run one workload in this (fresh) process and print its raw samples.

``run.py`` starts one worker per workload run; the last line of standard
output is a JSON object with the samples.  By hand::

    python perf/worker.py paper-dos --seed 0 --ops 2 [--traced] [--setup-only]

Set-up time runs from before ``import repro`` to the end of the first
(cold) operation, minus input generation.  Three warm-up operations,
the first of them that cold one, precede the timed ones.  Between
operations the garbage collector runs, untimed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

PERF = Path(__file__).resolve().parent
SRC = PERF.parent / "src"
WARMUP = 3
#: A timed loop still running after this many times ``--seconds`` stops early.
SLOWDOWN_LIMIT = 2.0
#: Tracebacks printed to standard error per run.
MAX_TRACEBACKS = 3


def _timed(function, inputs, span):
    """Call ``function(inputs)`` inside ``span``; return ``(output, seconds, error)``."""
    try:
        with span:
            start = time.perf_counter()
            output = function(inputs)
            seconds = time.perf_counter() - start
    except Exception:
        return None, None, traceback.format_exc()
    return output, seconds, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=PERF / "out")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()

    if args.ops is not None:
        ops, budget = args.ops, None
    else:
        scale = args.seconds / workloads.REFERENCE_SECONDS
        ops, budget = max(1, round(workload.ops * scale)), SLOWDOWN_LIMIT * args.seconds
    tracer = None
    if args.traced:
        from layers import LayerTracer

        tracer = LayerTracer()
    gen_s = 0.0
    setup_s = None
    op_s: list[float] = []
    traced_op_s: list[float] = []
    reference_op_s: list[float] = []
    observations: dict[str, list[float]] = {}
    errors: list[str] = []
    attempted = failed = 0
    loop_start = None

    for index in range(WARMUP + ops):
        if index == WARMUP:
            loop_start = time.perf_counter()
        elif budget is not None and index > WARMUP:
            if time.perf_counter() - loop_start > budget:
                print(f"{args.workload}: stopped after {index - WARMUP} ops", file=sys.stderr)
                break
        mark = time.perf_counter()
        inputs = workload.generate(index)
        gen_s += time.perf_counter() - mark
        # A traced worker traces every other timed op; the ops between
        # run with every binding restored and give the overhead baseline.
        traced = tracer is not None and index >= WARMUP and (index - WARMUP) % 2 == 0
        if traced:
            tracer.install()
        gc.collect()
        span = tracer.op(index) if traced else nullcontext()
        output, seconds, error = _timed(workload.run, inputs, span)
        reference = reference_seconds = None
        every = workload.reference_every
        if error is None and every and (index - WARMUP) % every == 0:
            gc.collect()
            span = tracer.op(index, "op.numpy") if traced else nullcontext()
            reference, reference_seconds, error = _timed(workload.reference, inputs, span)
        if traced:
            tracer.end_op()
            tracer.uninstall()
        if index == 0:
            setup_s = time.perf_counter() - start - gen_s
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0

        attempted += 1
        problems = [error] if error else workload.check(index, inputs, output, reference)
        if problems:
            failed += 1
            errors.append(f"op {index}: {problems[0].strip().splitlines()[-1]}")
            if len(errors) <= MAX_TRACEBACKS:
                print(f"{args.workload} op {index}:\n" + "\n".join(problems), file=sys.stderr)
            continue
        observed = workload.observe(output)
        if index < WARMUP:
            continue
        (traced_op_s if traced else op_s).append(seconds)
        if reference_seconds is not None:
            reference_op_s.append(reference_seconds)
        for key, value in observed.items():
            observations.setdefault(key, []).append(value)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "gen_s": gen_s,
        "op_s": op_s,
        "traced_op_s": traced_op_s,
        "reference_op_s": reference_op_s,
        "observations": observations,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        args.out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(
            args.out_dir / f"{stem}-chrome.json", args.out_dir / f"{stem}-layers.json"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
