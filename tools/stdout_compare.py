"""Compare the gridfactor CLI's output, run for run, between two source trees.

    python3 tools/stdout_compare.py PARENT_SRC CHANGE_SRC

Each tree runs the corpus of ``tools/stdout_digest.py`` in a process of its
own.  Every number with a decimal point or an exponent is a float; the rest
of a run's output, integers (ids, counts) included, is its text.  The report
prints every run whose exit code or text differs, then for each subcommand
(and each demo) the worst numeric drift of its runs: the largest
|parent - change| over a run's floats divided by max(1, max|value|) over both
sides of that run, and how many of its runs differ at all.  It exits 1 when
some run's exit code or text differs, else 0.
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


def drift(parent: list[str], change: list[str]) -> float:
    """max|parent - change| / max(1, max|value|) over the floats of one run."""
    a, b = (np.array(values, dtype=float) for values in (parent, change))
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
    worst: dict[str, list] = {}  # subcommand -> [worst drift, its run, runs whose floats differ]
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
        entry = worst.setdefault(label.split()[0], [0.0, "", 0])
        size = drift(values_a, values_b)
        if size > entry[0]:
            entry[:2] = size, label
        entry[2] += values_a != values_b

    print(f"{len(parent)} runs; {text_differs} differ in exit code or text")
    print("worst numeric drift per subcommand, over the runs with equal text:")
    for group, (size, label, count) in sorted(worst.items()):
        print(f"  {group:32s} {size:.1e}  {count} runs differ  {label}")
    return 1 if text_differs else 0


if __name__ == "__main__":
    sys.exit(main())
