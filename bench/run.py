#!/usr/bin/env python3
"""Benchmark of the four studies the postman toolkit runs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
`src/`, not from an installed copy. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end figures (`ops_per_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer figures, which are
also written with the first round's spans to `bench/out/`. See
bench/README.md for the workloads and what each figure means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing   # stdlib only; the script's directory is first on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 15  # set-ups per run, spread over it, each with a fresh `import postman`
# A typical time of `calibrate()` on the reference host (2-core Xeon VM, Python 3.11).
CALIBRATION_REF_S = 0.0140
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def clear_program_caches() -> None:
    """Empty every functools cache in the package, so each round starts cold
    the way a fresh `postman` invocation would."""
    for name, module in list(sys.modules.items()):
        if name == "postman" or name.startswith("postman."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed.

    The host's speed swings by 10-20 % over tens of seconds as other load
    comes and goes. `ops_per_s` and `setup_s` are scaled by the median of the
    calibrations taken before the import and after every round over
    CALIBRATION_REF_S, so they report the program's speed on the reference
    host at its typical speed rather than the host's load during the run.
    The raw figures and the host's speed go to stderr.
    """
    start = time.perf_counter()
    total = 0
    counts: dict[int, int] = {}
    for i in range(100_000):
        total += (i * 7) % 13
        if i % 8 == 0:
            counts[i & 255] = counts.get(i & 255, 0) + 1
    return time.perf_counter() - start


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import postman, postman.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of `import postman` in a fresh interpreter.

    A module imports once per process, so every set-up after the first times
    its import in a child process (interpreter start is not counted).
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_ENV:    # must precede the first numpy import
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    calibration_before = calibrate()
    start = time.perf_counter()
    try:
        import postman
    except ImportError as exc:
        print(f"error: cannot import postman from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import postman.cli  # noqa: F401  (the CLI module is part of what a user loads)
    import_s = time.perf_counter() - start
    if not Path(postman.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: postman was imported from {postman.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = BENCH / "out" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload.choose(run_dir / "inputs")    # untimed: the checker's work is not set-up
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(capture=workload.capture)
            tracer.install()
        return _measure(args, workload, tracer, import_s, calibration_before, run_dir)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, workload, tracer, import_s, calibration_before, run_dir: Path) -> int:
    setup_times = []   # import plus the workload's set-up, one per repetition

    def set_up() -> None:
        k = len(setup_times)
        imported = import_s if k == 0 else import_seconds()
        clear_program_caches()
        if tracer:
            tracer.begin("setup")
        t = time.perf_counter()
        workload.setup(run_dir / f"setup{k}")
        setup_times.append(imported + time.perf_counter() - t)
        if tracer:
            tracer.end()

    # The set-ups are spread evenly over the timed rounds, so that they and
    # the rounds see the host at the same speeds.
    calibrations = [calibration_before]   # and one after every round
    rounds = []        # (operations, seconds, output or None)
    timed = 0.0
    while not rounds or timed < args.seconds:
        if timed >= len(setup_times) * args.seconds / SETUP_REPEATS:
            set_up()
        clear_program_caches()
        directory = run_dir / f"round{len(rounds)}"
        directory.mkdir()
        if tracer:
            tracer.begin("round")
        t = time.perf_counter()
        ops, output = workload.round(directory)
        seconds = time.perf_counter() - t
        if tracer:
            tracer.end()
        calibrations.append(calibrate())
        rounds.append((ops, seconds, output))
        timed += seconds
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    slowness = median(calibrations) / CALIBRATION_REF_S   # above 1 on a slow host

    attempted = sum(ops for ops, _, _ in rounds)
    failed = sum(ops for ops, _, output in rounds if output is None)
    outputs = [output for _, _, output in rounds if output is not None]
    errors = []
    if outputs:
        if any(output != outputs[0] for output in outputs):
            errors.append("rounds with the same seed gave different outputs")
        errors += workload.check(outputs[0], tracer.captures if tracer else None)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    rates = [ops / seconds for ops, seconds, output in rounds if output is not None]
    raw_rate = median(rates) if rates else 0.0
    ops_per_s = raw_rate * slowness
    print("figures " + json.dumps({"slowness": slowness, "ops_per_s_raw": raw_rate,
                                   "setup_s_raw": median(setup_times), "setup_times": setup_times}), file=sys.stderr)

    if tracer:
        tracer.uninstall()
        values, absent = tracer.metrics()
        for name in absent:
            print(f"note: per-layer metric {name} is absent (its function is gone)", file=sys.stderr)
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in values.items()}
        _write_trace(args, tracer, values, absent, ops_per_s, rounds, workload.notes)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": median(setup_times) / slowness, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors and bool(outputs), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_trace(args, tracer, values, absent, ops_per_s, rounds, notes) -> None:
    out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [
        {"id": i, "parent": parent, "name": name, "start": start, "end": end}
        for i, parent, name, start, end in tracer.spans
    ]
    out.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "rounds": len(rounds),
        "traced_ops_per_s": ops_per_s,
        "metrics": values,
        "absent": absent,
        "checks": notes,
        "first_round_spans": spans,
    }, indent=1) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
