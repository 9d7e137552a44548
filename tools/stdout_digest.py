"""Digest the gridfactor CLI's output over a fixed corpus of runs, and each demo's.

Each run prints one line: the sha256 of its stdout and stderr, its exit
code and its argv (for a demo, its path).  Two source trees are compared by
diffing their digests:

    python3 tools/stdout_digest.py --src src > change.txt
    python3 tools/stdout_digest.py --src /path/to/other/src > other.txt
    diff other.txt change.txt

or, naming each run whose text differs and the size of the numeric drift,
by ``tools/stdout_compare.py``, which runs the same corpus through
:func:`outputs`.

The corpus covers every subcommand and output format, all four ``glodf``
methods, ``localize`` with and without ``--perturb`` (an out-of-range
``--trials`` with and without it), bridge, cut-set and
bad-input refusals (parallel lines and a malformed reference among them, and
``localize --eps``, a flag it does not take),
one refusal per validation code and per loader parse error (integers past
float range among them), files the loader cannot read as text or as numbers
(a JSON file and an ``edges.csv`` that are not UTF-8, a JSON ``b`` of 5000
digits), documents whose ids are not JSON ints (float and text ids), one with bad values in two fields of two lines, usage and range
errors, a connected network too stiff to factor, a line
that is not a bridge yet too stiff for its outage factors (its ``glodf``
in JSON, which prints the stacked factors and is refused, and in CSV,
which is not; its ``localize``; and a cascade from it, whose stage fails
the GLODF update's certificate and is re-solved), cascades run to the end
from one and two lines (two of them, on the seed-2 and seed-7 block trees,
propagate and settle, ending ``converged`` after 2 and 3 stages; they run
again with bus 1, the first in node order, as reference), ``localize
--perturb`` at its default 100 trials on a non-cut pair inside one meshed
block of the seed-2 block tree (its refined trial columns span several
solve chunks), and ``verify``.  Its networks are the test fixtures
of ``tests/conftest.py``, the ``perfbench/gen.py`` block trees and
oracle grids for seeds 2 and 7, its 30×30 grid for ``blocks`` and the
20×20 grid of the ``screen_grid`` workload (``glodf`` ``pre_contingency`` and
``cross_check`` and ``localize`` of one three-line outage, so the GLODF
kernel runs on 757 rows; ``glodf`` ``cross_check`` of one eight-line outage,
so a change of the BLAS build that solves the kernel's 8×8 coupling shows as
drift; and, with m=760 lines in one block, more than one
column batch of D: ``ptdf`` in JSON and CSV, ``glodf`` in CSV and
``influence`` in JSON and dot, so a slip at a batch boundary moves a digest); two
more ``verify`` runs take the seed-2 oracle grid with weights that are
decimal tenths and with rough floats (square roots), whose exact weight
sums are not the sums of small dyadic rationals the other grids give; a
third takes it with every weight times 2^-30, whose A (entries of order 2^30)
misses RTOL in absolute terms, so its identity checks fail (exit 2).  Three
more take the parallel-line triangle (which the loader refuses), the seed-2
oracle grid with the centre bus as reference, and four buses whose lines all
weigh 1e200, so that the spanning-tree weight is past float range.  Four
more take the 4×4 unit grid (100,352 spanning trees, the largest network
the oracle takes), two buses joined by one line (a 1×1 reduced
Laplacian), the stiff triangle (refused by ``lodf_single``, exit 2) and a
40-bus ring with one chord (few trees, many buses).  One more takes a 54-bus
path whose tree weight is a float but a first minor is not (refused, exit 2),
and one two buses joined by a line of b=1e-320, whose 1×1 reduced Laplacian
factors but has an infinite float inverse (refused, exit 2).  The subnormal triangle,
three lines of b=1e-310 that the loader takes but whose factor meets a pivot
that is not finite, runs ``lodf --line 1``, ``ptdf`` and ``verify``.  Runs
share one process, as a caller of ``gridfactor.cli.run`` would.  The
``demos/*.py`` scripts of the checkout that holds ``--src`` (its ``demos``
directory, beside ``src``) then run in the same process through
``runpy``, so each tree runs the demos written for its own API; they
reach library calls no CLI run makes (``apply_outage``,
``adversarial_capacity``), and their exit code is 0, or 1 when one raises.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import runpy
import shlex
import sys
import tempfile
import traceback
from collections import deque
from collections.abc import Iterator
from pathlib import Path

# One BLAS thread, set before numpy loads: threaded BLAS sums in another
# order, which moves the last bits of some results and so their digests.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (2, 7)
#: A non-cut three-line outage of the 20×20 screening grid, ``gen.grid(20, 3)``.
SCREEN_OUTAGE = "200,571,591"
#: A non-cut eight-line outage of the same grid: an 8×8 coupling, where LAPACK builds can part in the last bits.
WIDE_OUTAGE = "10,100,200,300,400,500,571,591"


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


def _ring_with_chord(n: int, chord_to: int) -> dict:
    """Line k runs from bus k to k % n + 1, its b drawn from ``random.Random(1)``; then a chord 1–``chord_to``."""
    rng = random.Random(1)
    edges = [{"from": k, "to": k % n + 1, "b": round(rng.uniform(0.5, 3), 4)} for k in range(1, n + 1)]
    return {"nodes": list(range(1, n + 1)), "edges": edges + [{"from": 1, "to": chord_to, "b": 1.2345}]}


def _runs(name: str, doc: dict) -> list[list[str]]:
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
        ["localize", name, "--lines", one, "--trials", "0"],
        ["cascade", name, "--trip", one],
        ["cascade", name, "--trip", two],
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
    return runs


def _loader_documents(triangle: dict) -> dict[str, tuple[str, dict]]:
    """The triangle with one defect each: a file name, the subcommand to run and the document.

    One refusal per validation code and per parse error, an integer past
    float range as a ``b``, a ``cap`` and an injection, capacities the
    loader accepts (null, "Infinity"), two accepted documents whose ids are
    not JSON ints (2.0, "2"), so their id fields are parsed value by value,
    and a ``b`` and a ``from`` both bad, on lines 1 and 2, which pins which
    field the loader refuses first.
    """
    def edited(edge=None, **fields):
        doc = {**triangle, "edges": [dict(e) for e in triangle["edges"]], **fields}
        if edge:
            doc["edges"][edge[0] - 1].update(edge[1])
        return doc

    float_ids = [{**e, "from": float(e["from"]), "to": float(e["to"])} for e in triangle["edges"]]
    text_ids = [{**e, "from": str(e["from"]), "to": str(e["to"])} for e in triangle["edges"]]
    two_bad = [{**e, **bad} for e, bad in zip(triangle["edges"], ({"b": "x"}, {"from": "y"}, {}))]
    return {
        "bool_b.json": ("flow", edited((1, {"b": True}))),
        "text_id.json": ("flow", edited((1, {"from": "x"}))),
        "fraction_id.json": ("blocks", edited((2, {"to": 2.5}))),
        "null_cap.json": ("flow", edited((1, {"cap": None}))),
        "infinity_cap.json": ("flow", edited((3, {"cap": "Infinity"}))),
        "zero_cap.json": ("blocks", edited((2, {"cap": 0}))),
        "self_loop.json": ("blocks", edited((3, {"to": 1}))),
        "unknown_endpoint.json": ("blocks", edited((2, {"to": 9}))),
        "duplicate_nodes.json": ("flow", edited(nodes=[1, 2, 3, 3])),
        "nodes_not_1_n.json": ("blocks", edited(nodes=[1, 2, 3, 5])),
        "nan_b.json": ("flow", edited((1, {"b": float("nan")}))),
        "negative_b.json": ("blocks", edited((3, {"b": -0.5}))),
        "disconnected.json": ("blocks", {"nodes": [1, 2, 3, 4], "edges": [{"from": 1, "to": 2, "b": 1.0},
                                                                         {"from": 3, "to": 4, "b": 1.0}]}),
        "unknown_injection.json": ("flow", edited(injections={**triangle["injections"], "9": 0.0})),
        "non_object_edge.json": ("blocks", edited(edges=[triangle["edges"][0], [2, 3, 1.0]])),
        "missing_edges.json": ("blocks", {"nodes": [1, 2, 3]}),
        "missing_b.json": ("blocks", edited(edges=[{"from": 1, "to": 2, "cap": 1.0}])),
        "edges_not_list.json": ("blocks", edited(edges={"1": triangle["edges"][0]})),
        "nodes_not_list.json": ("blocks", edited(nodes="1,2,3")),
        "text_in_nodes.json": ("blocks", edited(nodes=[1, 2, "three"])),
        "injections_not_object.json": ("flow", edited(injections=[1.0, -1.0, 0.0])),
        "text_injection.json": ("flow", edited(injections={"1": "one", "2": -1.0, "3": 0.0})),
        "not_an_object.json": ("blocks", [triangle]),
        "no_edges.json": ("blocks", {"nodes": [1], "edges": []}),
        "unknown_reference.json": ("flow", edited(reference=9)),
        "float_ids.json": ("flow", edited(edges=float_ids)),
        "text_ids.json": ("flow", edited(edges=text_ids)),
        "huge_b.json": ("flow", edited((1, {"b": 10**400}))),
        "huge_cap.json": ("flow", edited((2, {"cap": 10**400}))),
        "huge_injection.json": ("flow", edited(injections={**triangle["injections"], "2": 10**400})),
        "bad_b_and_from.json": ("flow", edited(edges=two_bad)),
    }


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


def outputs(src) -> Iterator[tuple[str, int, str, str]]:
    """Run the corpus on the gridfactor package in ``src``, then the demos beside ``src``.

    Yields each run's label, exit code, stdout and stderr, in corpus order;
    a demo's label is ``demos/<name>`` whichever tree it comes from.
    ``src`` must be the first gridfactor this process imports: a second
    tree needs a process of its own.
    """
    src = Path(src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "perfbench")]

    import conftest
    import gen
    from gridfactor.cli import run

    networks = {
        "triangle.json": conftest.triangle_doc(),
        "fig2.json": conftest.fig2_doc(),
        "k4.json": conftest.k4_doc(),
        "grid3.json": conftest.grid_doc(3),
    }
    for seed in SEEDS:
        networks[f"block_tree_{seed}.json"] = gen.block_tree(seed)[0]
        networks[f"oracle_grid_{seed}.json"] = gen.oracle_grid(seed)

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        corpus = []
        for name, doc in networks.items():
            gen.write(doc, Path(name))
            corpus += _runs(name, doc)
        _write_csv(conftest.triangle_doc(), Path("triangle_csv"))
        corpus += [["flow", "triangle_csv"], ["flow", "triangle_csv/edges.csv"], ["blocks", "missing.json"]]
        gen.write(conftest.stiff_leaf_doc(), Path("stiff_leaf.json"))
        gen.write(conftest.parallel_lines_doc(reverse=True), Path("parallel.json"))
        gen.write(conftest.stiff_triangle_doc(), Path("stiff_triangle.json"))
        gen.write({**conftest.triangle_doc(), "reference": "x"}, Path("bad_reference.json"))
        corpus += [["flow", "stiff_leaf.json"], ["blocks", "parallel.json"], ["flow", "bad_reference.json"]]
        tenths = [0.1, 0.2, 0.3, 0.7, 1.1, 0.9, 0.3, 0.6, 0.1, 0.4, 1.3, 0.7]
        for name, weights in (("tenths_grid.json", tenths), ("rough_grid.json", [math.sqrt(k + 2) for k in range(12)])):
            doc = gen.oracle_grid(2)
            doc["edges"] = [{**edge, "b": weight} for edge, weight in zip(doc["edges"], weights, strict=True)]
            gen.write(doc, Path(name))
            corpus.append(["verify", name])
        doc = gen.oracle_grid(2)
        doc["edges"] = [{**edge, "b": edge["b"] * 2.0**-30} for edge in doc["edges"]]
        gen.write(doc, Path("tiny_grid.json"))  # A of order 2**30: its absolute error fails RTOL, exit 2
        corpus.append(["verify", "tiny_grid.json"])
        gen.write(conftest.huge_weight_doc(), Path("huge_weight.json"))
        corpus += [  # parallel lines (refused), another reference, a tree weight past float range
            ["verify", "parallel.json"],
            ["verify", "oracle_grid_2.json", "--reference", "5"],
            ["verify", "huge_weight.json"],
        ]
        gen.write(conftest.grid_doc(4), Path("grid4.json"))
        gen.write({"edges": [{"from": 1, "to": 2, "b": 0.3}]}, Path("two_bus.json"))
        gen.write(_ring_with_chord(40, 20), Path("ring40.json"))
        corpus += [["verify", name] for name in ("grid4.json", "two_bus.json", "stiff_triangle.json", "ring40.json")]
        gen.write(conftest.overflowing_minor_doc(), Path("path54.json"))
        corpus.append(["verify", "path54.json"])
        gen.write({"nodes": [1, 2], "edges": [{"from": 2, "to": 1, "b": 1e-320}]}, Path("subnormal_pair.json"))
        corpus.append(["verify", "subnormal_pair.json"])  # its float inverse is inf: refused, exit 2
        gen.write(gen.grid(30, 2)[0], Path("grid30.json"))  # one block: a search far deeper than the block trees
        corpus.append(["blocks", "grid30.json"])
        gen.write(gen.grid(20, 3)[0], Path("screen.json"))  # screen_grid's network: the GLODF kernel at 757 rows
        for method in ("pre_contingency", "cross_check"):
            corpus.append(["glodf", "screen.json", "--lines", SCREEN_OUTAGE, "--method", method])
        corpus.append(["localize", "screen.json", "--lines", SCREEN_OUTAGE])
        corpus.append(["glodf", "screen.json", "--lines", WIDE_OUTAGE, "--method", "cross_check"])
        corpus += [  # D read in several column batches
            ["ptdf", "screen.json"],
            ["ptdf", "screen.json", "--format", "csv"],
            ["glodf", "screen.json", "--lines", SCREEN_OUTAGE, "--format", "csv"],
            ["influence", "screen.json"],
            ["influence", "screen.json", "--format", "dot"],
        ]
        for name, (command, doc) in _loader_documents(conftest.triangle_doc()).items():
            gen.write(doc, Path(name))
            corpus.append([command, name])
        triangle_text = json.dumps(conftest.triangle_doc())
        Path("long_b.json").write_text(triangle_text.replace('"b": 1.0', '"b": 1' + "0" * 4999, 1))
        Path("not_utf8.json").write_bytes(b"\xff" + triangle_text.encode())
        Path("not_utf8_csv").mkdir()
        Path("not_utf8_csv/edges.csv").write_bytes(b"from,to,b\n1,2,1.0\n2,3,1.0\n1,3,\xe9\n")
        corpus += [["flow", "long_b.json"], ["flow", "not_utf8.json"], ["flow", "not_utf8_csv"]]
        corpus += [
            ["lodf", "stiff_triangle.json", "--line", "1"],
            ["glodf", "stiff_triangle.json", "--lines", "1"],  # JSON reads k_stack: refused
            ["glodf", "stiff_triangle.json", "--lines", "1", "--format", "csv"],
            ["glodf", "stiff_triangle.json", "--lines", "1", "--method", "post_contingency"],
            ["glodf", "stiff_triangle.json", "--lines", "1", "--method", "post_contingency",
             "--format", "csv"],
            ["localize", "stiff_triangle.json", "--lines", "1"],
            ["influence", "stiff_triangle.json"],
            ["cascade", "stiff_triangle.json", "--trip", "1"],
        ]
        gen.write(conftest.subnormal_triangle_doc(), Path("subnormal_triangle.json"))
        corpus += [
            ["lodf", "subnormal_triangle.json", "--line", "1"],
            ["ptdf", "subnormal_triangle.json"],
            ["verify", "subnormal_triangle.json"],
        ]
        corpus += [  # cascades that propagate and settle: converged after 2 and after 3 stages,
            ["cascade", "block_tree_2.json", "--trip", "7"],
            ["cascade", "block_tree_7.json", "--trip", "130"],
            # and the same two with bus 1, the first in node order, as the reference
            ["cascade", "block_tree_2.json", "--trip", "7", "--reference", "1"],
            ["cascade", "block_tree_7.json", "--trip", "130", "--reference", "1"],
        ]
        # the default 100 trials of a non-cut pair in one meshed block: 200 refined columns, seven solve chunks
        corpus.append(["localize", "block_tree_2.json", "--lines", "2,9", "--perturb"])
        corpus += [  # options a subcommand does not take, and out-of-range values
            ["blocks", "triangle.json", "--format", "csv"],
            ["ptdf", "triangle.json", "--format", "dot"],
            ["flow", "triangle.json", "--tol", "1e-6"],
            ["lodf", "triangle.json"],
            ["influence", "triangle.json", "--threshold", "-1"],
            ["cascade", "triangle.json", "--trip", "1", "--max-stages", "0"],
            ["localize", "k4.json", "--lines", "1", "--perturb", "--eps", "0"],
        ]

        for run_argv in corpus:
            yield (shlex.join(run_argv), *_capture(lambda: run(run_argv)))
        for demo in sorted((src.parent / "demos").glob("*.py")):
            yield (f"demos/{demo.name}", *_capture(lambda: _run_demo(demo)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the gridfactor package")
    args = parser.parse_args(argv)
    for label, code, out, err in outputs(args.src):
        digest = hashlib.sha256()
        for stream in (out, err):
            data = stream.encode()
            digest.update(len(data).to_bytes(8, "big") + data)
        print(digest.hexdigest(), code, label, flush=True)
    return 0


def _run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def _capture(call) -> tuple[int, str, str]:
    """Run ``call`` with its output captured; return the exit code, stdout and stderr.

    The exit code is the one a process running ``call`` would end with: its
    return value, the code of a ``SystemExit`` it raises (as a parser that
    exits on a usage error does), or 1 after any other exception, whose
    traceback is part of the captured stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    sys.exit(main())
