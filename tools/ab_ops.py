"""Time two gridfactor trees on one perfbench workload, alternating in one process.

    python3 tools/ab_ops.py PARENT_SRC CHANGE_SRC --workload screen_grid [--seed 3] [--seconds 20]

Separate processes of one commit spread wider than a change of a few percent
moves the metrics (``perfbench/run.py``'s ``screen_grid`` p90 among them), so
this tool runs both trees in one process on the same inputs instead.  Each
tree's ``gridfactor`` package is copied into a temporary directory under a
name of its own (``gridfactor_parent``, ``gridfactor_change``) and imported
from there; the directory is removed on exit.  ``perfbench/workloads.py``
draws the op pool once (``prepare``, its files in the same directory), each
side runs ``setup`` once and an untimed warm-up pass, and then timed passes
over the whole pool alternate between the sides, the side that goes first
swapping from one pair to the next, with a garbage collection before each
pass.  Every result of every pass is checked with the workload's ``check``;
a failed check exits 1.  After each op's check the tool runs one sample of
``perfbench/calibrate.py``'s calibration unit, outside the op's time, as
``perfbench/run.py`` does after every op, so each op starts from the caches
the benchmark leaves it.  Passes continue until ``--seconds`` have gone by
and at least MIN_PAIRS pairs are done.

Without that unit between ops, the ops run back to back with warm caches and
overstate a saving on a hot path: one change read 0.769 on ``screen_grid``
(seed 3) without the unit, 0.866 with it, and 0.855 in ten separate-process
``perfbench/run.py`` pairs (1 / the ops_per_s ratio).  The samples only touch
the caches; no time is rescaled by them, since the pairs already share the
machine's drift.

The report gives each side's median ms per op over its passes, and the
median and quartiles of the paired ratio change / parent (below 1: the
change is faster).  When every pool item starts with its op kind, a string
(``cli_blocktree``'s subcommand), the same ratio is also given per kind, over
each pass's time in that kind's ops, so a report shows where a saving sits.
When the items carry no such kind but each ends in an expected cascade
(``cascade_blocktree``), they are grouped by its number of connected stages
(1, 2, 3+, read from ``expected["flows"]``), so a report shows whether a
saving scales with the stages.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, as perfbench/run.py uses, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ or either tree

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from calibrate import Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
#: Fewest timed pairs of passes, so the ratio's quartiles rest on enough samples.
#: 20 pairs of ``cli_blocktree`` passes read 1.07 [1.00..1.15] and 0.99 [0.95..1.03]
#: for the same two trees; 60 resolve a move of a few percent on every workload.
MIN_PAIRS = 60


def load(src: Path, name: str, folder: Path):
    """The gridfactor package in ``src``, copied into ``folder`` and imported as ``name``."""
    shutil.copytree(src / "gridfactor", folder / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")  # the cli workload reads gf.cli
    return package


def timed_pass(side: str, gf, workload, state, pool, calibrator: Calibrator) -> list[float]:
    """Seconds each op of one pass took, a calibration unit run after each; exits when a result fails its check."""
    elapsed = []
    for item in pool:
        began = perf_counter()
        result = workload.op(gf, state, item)
        elapsed.append(perf_counter() - began)
        if not workload.check(item, result):
            raise SystemExit(f"{side}: op failed its check: {item[:-1]}")
        calibrator.sample()
    return elapsed


def paired_ratios(times: dict[str, list[list[float]]], ops) -> list[float]:
    """change / parent of the time each pair of passes spent in the ops at the positions ``ops``."""
    return [sum(change[k] for k in ops) / sum(parent[k] for k in ops)
            for parent, change in zip(times["parent"], times["change"])]


def op_kinds(pool) -> list[str] | None:
    """Each item's op kind: its first entry, or its cascade's connected stages; None when items have neither."""
    if all(isinstance(item[0], str) for item in pool):
        return [item[0] for item in pool]
    if all(isinstance(item[-1], dict) and "flows" in item[-1] for item in pool):
        stages = [sum(flow is not None for flow in item[-1]["flows"]) for item in pool]
        return [f"{k} stage{'s' * (k > 1)}" if k < 3 else "3+ stages" for k in stages]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="directory holding the parent's gridfactor package")
    parser.add_argument("change_src", type=Path, help="directory holding the changed gridfactor package")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    times: dict[str, list[list[float]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_ops-") as folder:
        folder = Path(folder)
        sys.path.insert(0, str(folder))
        plan = workload.prepare(args.seed, folder)
        packages = {side: load(src.resolve(), f"gridfactor_{side}", folder)
                    for side, src in zip(SIDES, (args.parent_src, args.change_src))}
        states = {side: workload.setup(gf, plan.files) for side, gf in packages.items()}
        calibrator = Calibrator()
        for side in SIDES:
            timed_pass(side, packages[side], workload, states[side], plan.pool, calibrator)
        start = perf_counter()
        while len(times["change"]) < MIN_PAIRS or perf_counter() - start < args.seconds:
            for side in SIDES if len(times["change"]) % 2 == 0 else SIDES[::-1]:
                gc.collect()
                times[side].append(timed_pass(side, packages[side], workload, states[side], plan.pool, calibrator))

    every = range(len(plan.pool))
    ratios = paired_ratios(times, every)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"workload {args.workload}: seed {args.seed}, {len(ratios)} pairs of passes "
          f"of {len(plan.pool)} ops, every result checked, a calibration unit after each")
    for side in SIDES:
        print(f"{side}: median {statistics.median(sum(p) for p in times[side]) / len(every) * 1e3:.4f} ms/op")
    print(f"change/parent ratio: median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
    kinds = op_kinds(plan.pool)
    if kinds is not None:
        for kind in sorted(set(kinds)):
            ops = [k for k in every if kinds[k] == kind]
            q1, median, q3 = statistics.quantiles(paired_ratios(times, ops), n=4)
            print(f"  {kind} ({len(ops)} per pass): median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
