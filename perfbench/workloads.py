"""The benchmark's workloads: inputs, set-up, one op, and the op's check.

``prepare`` runs before gridfactor is imported.  It generates the network
documents from the seed, writes them to disk, draws the op pool and
computes every expected result with the numpy reference.  ``setup`` and
``op`` are the only code that calls gridfactor; they reach it through
module attributes at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import ref

#: Cascade inputs where some |flow| lies this close to its capacity are
#: redrawn, because rounding alone could decide whether such a line trips.
TIE_RTOL = 1e-6
#: Draws of initial outages before a missing deep-cascade quota is relaxed.
DRAW_LIMIT = 2000


@dataclass
class Plan:
    files: dict[str, str]
    pool: list
    meta: dict


def _non_cut_sets(rng: random.Random, net: ref.RefNet, lines: list[int], size: int, count: int):
    found: list[list[int]] = []
    while len(found) < count:
        outage = sorted(rng.sample(lines, size))
        if outage not in found and net.connected(net.alive(outage)):
            found.append(outage)
    return found


def _cascade_inputs(rng: random.Random, net: ref.RefNet, lines: list[int], quota: dict[int, int]):
    """Non-cut 1- and 2-line initial outages with their reference cascades.

    ``quota`` fixes how many cascades re-solve the grid once, twice and at
    least three times (keys 1, 2, 3), so every seed gets the same mix of
    short and long cascades and only the grid itself varies.  A grid where
    deep cascades stay rare after DRAW_LIMIT draws fills their quota with
    the next shorter kind.
    """
    left = dict(quota)
    found: list[tuple[list[int], dict]] = []
    draws = 0
    while any(left.values()):
        draws += 1
        if draws % DRAW_LIMIT == 0:
            deepest = max(k for k, v in left.items() if v)
            if deepest > 1:
                left[deepest - 1] = left.get(deepest - 1, 0) + left.pop(deepest)
        initial = sorted(rng.sample(lines, 1 + len(found) % 2))
        if any(initial == seen for seen, _ in found) or not net.connected(net.alive(initial)):
            continue
        expected = ref.cascade(net, initial)
        solves = min(3, sum(flow is not None for flow in expected["flows"]))
        if left.get(solves) and ref.tightest_margin(net, expected) > TIE_RTOL:
            left[solves] -= 1
            found.append((initial, expected))
    rng.shuffle(found)
    return found


# -- screen_grid -------------------------------------------------------------

def screen_prepare(seed: int, workdir: Path) -> Plan:
    doc, meta = gen.grid(20, seed)
    path = gen.write(doc, workdir / "grid.json")
    net = ref.RefNet(doc)
    rng = random.Random(f"screen_grid-{seed}")
    lines = list(range(1, net.m + 1))
    pool = []
    for size in (1, 2, 3):
        for outage in _non_cut_sets(rng, net, lines, size, 12):
            pool.append((outage, net.flows(net.alive(outage))))
    rng.shuffle(pool)
    return Plan({"net": str(path)}, pool, meta)


def screen_setup(gf, files):
    net = gf.load_network(files["net"])
    bundle = gf.build_laplacian(net)
    ptdf = gf.ptdf_matrix(bundle, net)
    base = gf.solve_flow(bundle, net, net.injections).flows
    return net, bundle, ptdf, base, net.capacities()


def screen_op(gf, state, item):
    net, bundle, ptdf, base, caps = state
    outage = gf.OutageSet(net, item[0])
    result = gf.glodf(bundle, ptdf, net, outage, method="pre_contingency")
    post = base[outage.surviving_idx] + result.k_matrix @ base[outage.outaged_idx]
    overloaded = np.nonzero(np.abs(post) > caps[outage.surviving_idx])[0]
    return outage.surviving_idx, post, overloaded


def screen_check(item, result) -> bool:
    surviving_idx, post, _ = result
    full = np.zeros(item[1].shape)
    full[surviving_idx] = post
    return ref.close(full, item[1])


# -- cascade_blocktree -------------------------------------------------------

def cascade_prepare(seed: int, workdir: Path) -> Plan:
    doc, meta = gen.block_tree(seed)
    path = gen.write(doc, workdir / "blocktree.json")
    net = ref.RefNet(doc)
    rng = random.Random(f"cascade_blocktree-{seed}")
    bridges = set(meta["bridges"])
    lines = [line for line in range(1, net.m + 1) if line not in bridges]
    return Plan({"net": str(path)}, _cascade_inputs(rng, net, lines, {1: 39, 2: 18, 3: 3}), meta)


def cascade_setup(gf, files):
    net = gf.load_network(files["net"])
    return net, net.injections


def cascade_op(gf, state, item):
    net, p = state
    return gf.run_cascade(net, p, item[0])


def _same_cascade(stages, status, islanded_at, flows, expected) -> bool:
    if stages != expected["stages"] or status != expected["status"]:
        return False
    if islanded_at != expected["islanded_at_stage"]:
        return False
    for got, want in zip(flows, expected["flows"]):
        if (got is None) != (want is None) or (want is not None and not ref.close(got, want)):
            return False
    return True


def cascade_check(item, trace) -> bool:
    return _same_cascade(
        [sorted(stage.tripped) for stage in trace.stages],
        trace.status,
        trace.islanded_at_stage,
        [None if stage.flow is None else stage.flow.flows for stage in trace.stages],
        item[1],
    )


# -- cli_blocktree -----------------------------------------------------------

#: One pass of the op pool: each subcommand and how many times it appears.
#: Once the program's caches are warm, the perturbation runs are the slowest
#: sixth of the latencies and localize the band around the middle, so p90
#: and p50 each fall inside a band of one kind of op, not on an edge.
CLI_MIX = (
    ("localize_perturb", 4), ("ptdf", 1), ("verify", 1), ("cascade", 2), ("glodf", 2),
    ("localize", 5), ("influence", 2), ("lodf", 3), ("flow", 2), ("blocks", 2),
)
INFLUENCE_THRESHOLD = 0.005


def cli_prepare(seed: int, workdir: Path) -> Plan:
    doc, meta = gen.block_tree(seed)
    path = str(gen.write(doc, workdir / "blocktree.json"))
    oracle = str(gen.write(gen.oracle_grid(seed), workdir / "oracle.json"))
    net = ref.RefNet(doc)
    D = net.ptdf()
    base = net.flows()
    rng = random.Random(f"cli_blocktree-{seed}")
    meshed = [block for block in meta["blocks"] if len(block) > 1]
    lines = [line for block in meshed for line in block]
    cascades = _cascade_inputs(rng, net, lines, {1: 1, 2: 1})

    def expected_for(kind):
        if kind == "blocks":
            return ["blocks", path], meta
        if kind == "flow":
            return ["flow", path], base
        if kind == "lodf":
            line = rng.choice(lines)
            return ["lodf", path, "--line", str(line)], (line, D[:, line - 1] / (1 - D[line - 1, line - 1]))
        if kind == "glodf":
            outage = _non_cut_sets(rng, net, rng.choice(meshed), 2, 1)[0]
            return (["glodf", path, "--lines", ",".join(map(str, outage)), "--method", "cross_check"],
                    (outage, base, net.flows(net.alive(outage))))
        if kind in ("localize", "localize_perturb"):
            first, second = rng.sample(meshed, 2)
            outage = sorted([rng.choice(first), rng.choice(second)])
            argv = ["localize", path, "--lines", ",".join(map(str, outage))]
            if kind == "localize_perturb":
                argv += ["--perturb", "--trials", "5", "--seed", str(rng.randrange(1000))]
            return argv, meta
        if kind == "cascade":
            initial, expected = cascades.pop()
            return ["cascade", path, "--trip", ",".join(map(str, initial))], expected
        if kind == "influence":
            return ["influence", path], _influence_pairs(D, meshed)
        if kind == "ptdf":
            return ["ptdf", path], D
        return ["verify", oracle], None

    pool = [(kind, *expected_for(kind)) for kind, count in CLI_MIX for _ in range(count)]
    rng.shuffle(pool)
    return Plan({"net": path, "oracle": oracle}, pool, meta)


def _influence_pairs(D: np.ndarray, blocks) -> dict:
    """Reference influence pairs, plus the pairs too close to the threshold to call."""
    gaps = 1.0 - np.diag(D)
    sure, unsure = set(), set()
    for block in blocks:
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                value = max(abs(D[b - 1, a - 1] / gaps[a - 1]), abs(D[a - 1, b - 1] / gaps[b - 1]))
                if abs(value - INFLUENCE_THRESHOLD) <= ref.REL_TOL:
                    unsure.add((a, b))
                elif value >= INFLUENCE_THRESHOLD:
                    sure.add((a, b))
    return {"sure": sure, "unsure": unsure}


def cli_setup(gf, files):
    return None


def cli_op(gf, state, item):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gf.cli.run(item[1])
    return code, out.getvalue()


def _by_line(mapping: dict, m: int) -> np.ndarray:
    values = np.zeros(m)
    for key, value in mapping.items():
        values[int(key) - 1] = value
    return values


def cli_check(item, result) -> bool:
    kind, argv, expected = item
    code, text = result
    if code != 0:
        return False
    out = json.loads(text)
    if kind == "blocks":
        return (sorted(out["blocks"]) == expected["blocks"]
                and out["bridges"] == expected["bridges"]
                and out["cut_vertices"] == expected["cut_vertices"])
    if kind == "flow":
        return ref.close(_by_line(out["flows"], expected.size), expected)
    if kind == "lodf":
        line, column = expected
        got = _by_line(out["factors"], column.size)
        want = column.copy()
        want[line - 1] = 0.0
        return out["outaged"] == line and len(out["factors"]) == column.size - 1 and ref.close(got, want)
    if kind == "glodf":
        outage, base, post = expected
        if out["outaged"] != outage or max(out["residuals"].values()) > ref.REL_TOL:
            return False
        surviving = np.array(out["surviving"]) - 1
        moved = base[surviving] + np.array(out["k"]) @ base[np.array(outage) - 1]
        return surviving.size == base.size - len(outage) and ref.close(moved, post[surviving])
    if kind in ("localize", "localize_perturb"):
        tol = ref.REL_TOL * max(1.0, out["matrix_scale"])
        ok = out["cross_block_max"] <= tol and all(
            b["reassembly_err_direct"] <= tol and b["reassembly_err_parts"] <= tol
            for b in out["blocks"]
        )
        if kind == "localize_perturb":
            ok = ok and not any(out["perturbation"]["cross_block"].values())
        return ok
    if kind == "cascade":
        m = expected["flows"][0].size
        return _same_cascade(
            [stage["tripped"] for stage in out["stages"]],
            out["status"],
            out["islanded_at_stage"],
            [None if stage["flow"] is None else _by_line(stage["flow"]["flows"], m)
             for stage in out["stages"]],
            expected,
        )
    if kind == "influence":
        got = {tuple(pair) for pair in out["pairs"]}
        return got - expected["unsure"] == expected["sure"]
    if kind == "ptdf":
        return (out["rows"] == list(range(1, expected.shape[0] + 1))
                and ref.close(out["values"], expected))
    return out["pass"] is True


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, Path], Plan]
    setup: Callable
    op: Callable
    check: Callable[..., bool]


WORKLOADS = {
    "screen_grid": Workload(screen_prepare, screen_setup, screen_op, screen_check),
    "cascade_blocktree": Workload(cascade_prepare, cascade_setup, cascade_op, cascade_check),
    "cli_blocktree": Workload(cli_prepare, cli_setup, cli_op, cli_check),
}
