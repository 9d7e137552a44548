"""gridfactor benchmark: run one workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload screen_grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload runs in this single fresh process as a closed loop with one
client: the next op is issued when the previous one has returned.  The
loop runs whole passes over the workload's seeded op pool until
``--seconds`` have gone by, and checks every result against the numpy
reference in ``ref.py``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps gridfactor's public functions and prints the per-layer
table instead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

#: BLAS threads: one, so the single client is also a single thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from calibrate import REFERENCE_S, Calibrator, local_units  # noqa: E402
from spans import COUNTS, TRACED, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 3
#: Fewest timed ops in a run, so that p90 has at least ten samples beyond it.
MIN_SAMPLES = 100
#: Op id of the warm-up pass.  One untimed pass over the pool comes first, so
#: that lazy imports and the program's own caches reach the state every
#: later pass sees.
WARMUP = -2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units["traced.ops_per_s"] = "1/s"
    return units


def probe_setup(workload: str, files: dict) -> tuple[float, float]:
    """One fresh-process set-up: raw seconds and seconds at the reference speed."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, json.dumps(files)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, unit = map(float, done.stdout.split()[-2:])
    return elapsed, elapsed * REFERENCE_S / unit


def run_loop(gf, workload, plan, state, seconds: float, recorder: Recorder | None):
    """Closed loop over whole passes of the pool, for at least ``seconds`` and MIN_SAMPLES ops.

    Returns the (start, end, ok) of every op, the calibration samples with
    their times, and the number of passes.  Checking a result and sampling
    the calibration unit happen between ops, outside every op's span.
    """
    if recorder is not None:
        recorder.op = WARMUP
    for item in plan.pool:
        with contextlib.suppress(Exception):
            workload.op(gf, state, item)
    calibrator = Calibrator()
    sample_times, samples = [perf_counter()], [calibrator.sample()]
    ops: list[tuple[float, float, bool]] = []
    passes = 0
    start = perf_counter()
    while passes == 0 or len(ops) < MIN_SAMPLES or perf_counter() - start < seconds:
        for index, item in enumerate(plan.pool):
            if recorder is not None:
                recorder.op = passes * len(plan.pool) + index
            began = perf_counter()
            try:
                result = workload.op(gf, state, item)
                ended = perf_counter()
                ok = workload.check(item, result)
            except Exception:
                ended = perf_counter()
                ok = False
                traceback.print_exc(file=sys.stderr)
            if not ok:
                print(f"op failed: {item[:-1]}", file=sys.stderr)
            ops.append((began, ended, ok))
            sample_times.append(perf_counter())
            samples.append(calibrator.sample())
        passes += 1
    return ops, sample_times, samples, passes


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = workload.prepare(args.seed, workdir)
        setups = [] if args.trace else [probe_setup(args.workload, plan.files)
                                        for _ in range(SETUP_SAMPLES)]

        sys.path.insert(0, str(SRC))
        import gridfactor as gf
        import gridfactor.cli  # noqa: F401

        recorder = Recorder() if args.trace else None
        if recorder is not None:
            recorder.install()
        state = workload.setup(gf, plan.files)
        ops, sample_times, samples, passes = run_loop(
            gf, workload, plan, state, args.seconds, recorder
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = len(ops)
    failed = sum(not ok for _, _, ok in ops)
    units = local_units(sample_times, samples, [(began, ended) for began, ended, _ in ops])
    scaled = [(ended - began) * REFERENCE_S / unit for (began, ended, _), unit in zip(ops, units)]
    latencies = [value for value, (_, _, ok) in zip(scaled, ops) if ok]
    raw = [ended - began for began, ended, ok in ops if ok]
    # The op loop's wall time less the benchmark's own checking and
    # calibration between ops is the sum of the op spans.
    ops_per_s = len(latencies) / sum(scaled)
    print(f"workload {args.workload}: seed {args.seed}, {passes} passes of {len(plan.pool)} ops, "
          f"{attempted} attempted, {failed} failed, ops_failed_frac {failed / attempted:g}")
    print(f"calibration unit: median {statistics.median(samples) * 1e3:.4f} ms over "
          f"{len(samples)} samples; times are rescaled to a {REFERENCE_S * 1e3:g} ms unit")
    if recorder is not None:
        scale = REFERENCE_S / statistics.median(samples)
        metric_units = per_layer_units()
        values = {name: value * scale if metric_units[name] == "s" else value
                  for name, value in recorder.table(passes, COUNTS).items()}
        values["traced.ops_per_s"] = ops_per_s
    else:
        deciles = statistics.quantiles(latencies, n=10)
        print(f"latency samples {len(latencies)}, beyond p90: "
              f"{sum(v > deciles[8] for v in latencies)}")
        print(f"raw: setup_s {statistics.median(s for s, _ in setups):.6g}, "
              f"ops_per_s {len(raw) / sum(e - b for b, e, _ in ops):.6g}, "
              f"op_p50_ms {statistics.median(raw) * 1e3:.6g}, "
              f"op_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.6g}")
        values = {
            "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metric_units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, each in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gridfactor" / "__init__.py").is_file():
        print(f"gridfactor sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
