"""Self-test of the benchmark: stable inputs, and wrong results counted as failed.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gridfactor  # noqa: E402
import gridfactor.cli  # noqa: E402,F401

import gen  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bytes(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


@pytest.mark.parametrize("make", [
    lambda seed: gen.grid(20, seed)[0],
    lambda seed: gen.block_tree(seed)[0],
    gen.oracle_grid,
])
def test_generators_are_byte_stable(make):
    assert _bytes(make(7)) == _bytes(make(7))
    assert _bytes(make(7)) != _bytes(make(8))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_tree_structure_matches_gridfactor(seed):
    doc, meta = gen.block_tree(seed)
    assert (meta["n"], meta["m"]) == (257, 392)
    decomposition = gridfactor.block_decomposition(gridfactor.load_network(doc))
    assert sorted(sorted(block) for block in decomposition.blocks) == meta["blocks"]
    assert sorted(decomposition.bridges) == meta["bridges"]
    assert sorted(decomposition.cut_vertices) == meta["cut_vertices"]


def _corrupt_screen(result):
    surviving_idx, post, overloaded = result
    return surviving_idx, post + 1e-6 * np.abs(post).max(), overloaded


def _corrupt_cascade(trace):
    return dataclasses.replace(trace, status="converged" if trace.status != "converged" else "islanded")


def _nudge(value):
    if isinstance(value, float):
        return value * (1 + 1e-6) + 1e-6
    if isinstance(value, list):
        return [_nudge(v) for v in value]
    if isinstance(value, dict):
        return {k: _nudge(v) for k, v in value.items()}
    return value


def _corrupt_cli(result):
    code, text = result
    return code, json.dumps(_nudge(json.loads(text)))


@pytest.mark.parametrize("name, corrupt", [
    ("screen_grid", _corrupt_screen),
    ("cascade_blocktree", _corrupt_cascade),
    ("cli_blocktree", _corrupt_cli),
])
def test_corrupted_results_count_as_failed(tmp_path, monkeypatch, name, corrupt):
    monkeypatch.setattr(run, "MIN_SAMPLES", 0)
    workload = WORKLOADS[name]
    plan = workload.prepare(5, tmp_path)
    if name == "cli_blocktree":
        plan.pool = [item for item in plan.pool if item[0] in ("flow", "lodf", "glodf", "cascade")]
    plan.pool = plan.pool[:4]
    state = workload.setup(gridfactor, plan.files)

    ops, _, _, passes = run.run_loop(gridfactor, workload, plan, state, 0.0, None)
    assert passes == 1 and [ok for _, _, ok in ops] == [True] * 4

    def broken(gf, st, item):
        return corrupt(workload.op(gf, st, item))

    liar = dataclasses.replace(workload, op=broken)
    ops, _, _, _ = run.run_loop(gridfactor, liar, plan, state, 0.0, None)
    assert [ok for _, _, ok in ops] == [False] * 4


def test_cli_exit_codes_and_unparsable_output_count_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 0)
    workload = WORKLOADS["cli_blocktree"]
    plan = workload.prepare(5, tmp_path)
    plan.pool = [item for item in plan.pool if item[0] == "blocks"][:1]
    for broken_result in ((1, "{}"), (0, "{not json")):
        liar = dataclasses.replace(workload, op=lambda gf, st, item, r=broken_result: r)
        ops, _, _, _ = run.run_loop(gridfactor, liar, plan, None, 0.0, None)
        assert [ok for _, _, ok in ops] == [False]


def test_spans_nest_and_uninstall(tmp_path):
    workload = WORKLOADS["screen_grid"]
    plan = workload.prepare(5, tmp_path)
    original = gridfactor.glodf
    recorder = Recorder()
    uninstall = recorder.install()
    try:
        assert gridfactor.glodf is not original
        state = workload.setup(gridfactor, plan.files)
        recorder.op = 0
        workload.op(gridfactor, state, plan.pool[0])
    finally:
        uninstall()
    assert gridfactor.glodf is original and gridfactor.factors.glodf is original
    table = recorder.table(1)
    m = plan.meta["m"]
    assert table["net_model.edge_index.calls"] == m
    assert table["factors.OutageSet.s"] >= table["net_model.edge_index.s"]
    assert table["factors.OutageSet.self_s"] == pytest.approx(
        table["factors.OutageSet.s"] - table["net_model.edge_index.s"], abs=1e-9)
    assert table["factors.glodf.self_s"] <= table["factors.glodf.s"]
    assert table["graph_algos.is_cut_set.calls"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
