"""Compare the gridfactor CLI's output, run for run, between two source trees.

    python3 tools/stdout_compare.py PARENT_SRC CHANGE_SRC

Each tree runs the corpus of ``tools/stdout_digest.py`` in a process of its
own.  Every number with a decimal point or an exponent is a float; the rest
of a run's output, integers (ids, counts) included, is its text.  The report
prints every run whose exit code or text differs, then for each subcommand
(and each demo) the worst numeric drift of its runs: the largest
|parent - change| over a run's floats divided by max(1, max|value|) over both
sides of that run, and how many of its runs differ at all.  Beside that
summary it lists every run whose floats differ: its drift, how many of its
floats moved and its argv.  It also counts, over the subcommand's runs, the
floats that became exact zeros and the exact zeros that stopped being zero,
and lists each such entry: its run, its index among that run's floats and
both values as printed.  It exits 1 when some run's exit code or text
differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent

FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")

_DUMP = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import stdout_digest; "
    "json.dump(list(stdout_digest.outputs(sys.argv[2])), sys.stdout)"
)


def outputs(src: str) -> list[tuple[str, int, str, str]]:
    """(label, exit code, stdout, stderr) of every corpus run on the tree ``src``."""
    proc = subprocess.run([sys.executable, "-c", _DUMP, str(TOOLS), str(Path(src).resolve())],
                          capture_output=True, text=True, check=True)
    return [tuple(record) for record in json.loads(proc.stdout)]


def split(text: str) -> tuple[str, list[str]]:
    """The text with each float replaced by ``#``, and the floats as printed, in order."""
    return FLOAT.sub("#", text), FLOAT.findall(text)


def drift(a: np.ndarray, b: np.ndarray) -> float:
    """max|parent - change| / max(1, max|value|) over the floats of one run."""
    if not a.size:
        return 0.0
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a)), np.max(np.abs(b))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="directory holding the parent's gridfactor package")
    parser.add_argument("change_src", help="directory holding the changed gridfactor package")
    args = parser.parse_args(argv)
    parent, change = outputs(args.parent_src), outputs(args.change_src)
    if [run[0] for run in parent] != [run[0] for run in change]:
        raise SystemExit("the two trees ran different corpora")

    text_differs = 0
    # subcommand -> [worst drift, its run, runs whose floats differ, new zeros, lost zeros]
    worst: dict[str, list] = {}
    drifted = []  # one line per run whose floats differ
    zeros = []  # one line per float that became, or stopped being, an exact zero
    for (label, code_a, out_a, err_a), (_, code_b, out_b, err_b) in zip(parent, change):
        text_a, values_a = split(out_a + "\x00" + err_a)
        text_b, values_b = split(out_b + "\x00" + err_b)
        if code_a != code_b or text_a != text_b:
            text_differs += 1
            print(f"differs: {label}: exit {code_a} -> {code_b}")
            for stream, before, after in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                if split(before)[0] != split(after)[0]:
                    print(f"  {stream} parent: {before.strip()[-300:]!r}")
                    print(f"  {stream} change: {after.strip()[-300:]!r}")
            continue
        entry = worst.setdefault(label.split()[0], [0.0, "", 0, 0, 0])
        a, b = (np.array(values, dtype=float) for values in (values_a, values_b))
        size = drift(a, b)
        if size > entry[0]:
            entry[:2] = size, label
        if values_a != values_b:
            entry[2] += 1
            moved = sum(x != y for x, y in zip(values_a, values_b))
            drifted.append(f"  {size:.1e}  {moved} of {len(values_a)} floats  {label}")
        gained, lost = (a != 0.0) & (b == 0.0), (a == 0.0) & (b != 0.0)
        entry[3] += int(np.count_nonzero(gained))
        entry[4] += int(np.count_nonzero(lost))
        for k in np.flatnonzero(gained | lost).tolist():
            kind = "new zero" if gained[k] else "zero lost"
            zeros.append(f"  {kind}: {label}: float {k}: {values_a[k]} -> {values_b[k]}")

    print(f"{len(parent)} runs; {text_differs} differ in exit code or text")
    print("worst numeric drift per subcommand, over the runs with equal text:")
    for group, (size, label, count, gained, lost) in sorted(worst.items()):
        print(f"  {group:32s} {size:.1e}  {count} runs differ  {gained} new zeros"
              f"  {lost} zeros lost  {label}")
    if drifted:
        print("every run whose floats differ (drift, floats that moved, argv):")
        print("\n".join(drifted))
    if zeros:
        print("every float that became, or stopped being, an exact zero (parent -> change):")
        print("\n".join(zeros))
    return 1 if text_differs else 0


if __name__ == "__main__":
    sys.exit(main())
