"""Digest the gridfactor CLI's output over a fixed corpus of runs.

Each run prints one line: the sha256 of its stdout and stderr, its exit
code and its argv.  Two source trees are compared by diffing their digests:

    python3 tools/stdout_digest.py --src src > change.txt
    python3 tools/stdout_digest.py --src /path/to/other/src > other.txt
    diff other.txt change.txt

The corpus covers every subcommand and output format, all four ``glodf``
methods, ``localize`` with and without ``--perturb``, bridge, cut-set and
bad-input refusals, cascades and ``verify``.  Its networks are the test
fixtures of ``tests/conftest.py`` and the ``perfbench/gen.py`` block trees
and oracle grids for seeds 2 and 7.  Runs share one process, as a caller of
``gridfactor.cli.run`` would.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import shlex
import sys
import tempfile
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (2, 7)


def _bridges(doc: dict) -> list[int]:
    """Line ids whose removal disconnects the network, by one search per line."""
    edges = [(int(e["from"]), int(e["to"])) for e in doc["edges"]]
    nodes = {v for pair in edges for v in pair}
    found = []
    for skip in range(len(edges)):
        adjacency = {v: [] for v in nodes}
        for k, (a, b) in enumerate(edges):
            if k != skip:
                adjacency[a].append(b)
                adjacency[b].append(a)
        start = edges[0][0]
        seen, queue = {start}, deque([start])
        while queue:
            for other in adjacency[queue.popleft()]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if len(seen) < len(nodes):
            found.append(skip + 1)
    return found


def _isolating_lines(doc: dict) -> list[int]:
    """Every line at the lowest-degree bus: an outage that islands that bus."""
    degree: dict[int, list[int]] = {}
    for k, e in enumerate(doc["edges"]):
        for v in (int(e["from"]), int(e["to"])):
            degree.setdefault(v, []).append(k + 1)
    return min(degree.values(), key=lambda lines: (len(lines), lines))


def _runs(name: str, doc: dict, small: bool) -> list[list[str]]:
    bridges = _bridges(doc)
    inner = [k for k in range(1, len(doc["edges"]) + 1) if k not in bridges]
    one = str(inner[0])
    two = f"{inner[0]},{inner[-1]}"
    three = ",".join(str(v) for v in inner[:3])
    cut = ",".join(str(v) for v in _isolating_lines(doc))
    runs = [
        ["blocks", name],
        ["flow", name],
        ["ptdf", name],
        ["ptdf", name, "--format", "csv"],
        ["lodf", name, "--line", one],
        ["lodf", name, "--line", str(inner[-1]), "--reference", "1"],
        ["glodf", name, "--lines", cut],
        ["glodf", name, "--lines", two, "--format", "csv"],
        ["localize", name, "--lines", one],
        ["localize", name, "--lines", three],
        ["localize", name, "--lines", two, "--perturb", "--trials", "5", "--seed", "3"],
        ["localize", name, "--lines", cut],
        ["localize", name, "--lines", one, "--perturb", "--trials", "0"],
        ["cascade", name, "--trip", one],
        ["cascade", name, "--trip", two, "--max-stages", "2"],
        ["cascade", name, "--trip", cut],
        ["influence", name],
        ["influence", name, "--format", "dot", "--threshold", "0.05"],
        ["lodf", name, "--line", str(len(doc["edges"]) + 1)],
    ]
    for method in ("pre_contingency", "post_contingency", "via_stack", "cross_check"):
        runs.append(["glodf", name, "--lines", two, "--method", method])
        runs.append(["glodf", name, "--lines", three, "--method", method])
    if bridges:
        runs.append(["lodf", name, "--line", str(bridges[0])])
        runs.append(["glodf", name, "--lines", str(bridges[0])])
    runs.append(["verify", name])
    if small:  # small enough for the oracle to finish, so a strict --tol fails the check
        runs.append(["verify", name, "--tol", "1e-30"])
    return runs


def _write_csv(doc: dict, folder: Path) -> None:
    folder.mkdir()
    with open(folder / "edges.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["from", "to", "b", "cap"])
        for e in doc["edges"]:
            writer.writerow([e["from"], e["to"], e["b"], e.get("cap", "")])
    with open(folder / "injections.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "p"])
        writer.writerows(doc["injections"].items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the gridfactor package")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests"), str(ROOT / "perfbench")]

    import conftest
    import gen
    from gridfactor.cli import run

    networks = {
        "triangle.json": (conftest.triangle_doc(), True),
        "fig2.json": (conftest.fig2_doc(), True),
        "k4.json": (conftest.k4_doc(), True),
        "grid3.json": (conftest.grid_doc(3), True),
    }
    for seed in SEEDS:
        networks[f"block_tree_{seed}.json"] = (gen.block_tree(seed)[0], False)
        networks[f"oracle_grid_{seed}.json"] = (gen.oracle_grid(seed), True)

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        corpus = []
        for name, (doc, small) in networks.items():
            gen.write(doc, Path(name))
            corpus += _runs(name, doc, small)
        _write_csv(conftest.triangle_doc(), Path("triangle_csv"))
        corpus += [["flow", "triangle_csv"], ["flow", "triangle_csv/edges.csv"], ["blocks", "missing.json"]]

        for run_argv in corpus:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(run_argv)
            digest = hashlib.sha256()
            for stream in (out.getvalue(), err.getvalue()):
                data = stream.encode()
                digest.update(len(data).to_bytes(8, "big") + data)
            print(digest.hexdigest(), code, shlex.join(run_argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
