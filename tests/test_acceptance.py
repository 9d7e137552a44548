"""Acceptance suite: one test per criterion, each printing a pass line.

Random corpora are fixed-seed so every run exercises the same instances.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gridfactor import (
    BridgeError,
    OutageSet,
    PerturbationSpec,
    adversarial_capacity,
    a_entry_via_forests,
    almost_sure_nonzero_test,
    apply_outage,
    block_decomposition,
    block_structure_report,
    build_laplacian,
    effective_reactance,
    glodf,
    lodf_single,
    lodf_via_forests,
    matrix_tree_check,
    ptdf_via_forests,
    run_cascade,
    solve_flow,
)

from conftest import (
    build,
    detect_islanding,
    fig2_doc,
    is_cut_set,
    k4_doc,
    random_balanced_injection,
    random_network,
    sample_non_cut_outage,
    triangle_doc,
    with_capacities,
)

MTT_CORPUS_SEED = 8011
OUTAGE_CORPUS_SEED = 8012
FACTOR_CORPUS_SEED = 8013
INDEPENDENCE_SEED = 8014


@pytest.fixture(scope="module")
def mtt_corpus():
    rng = np.random.default_rng(MTT_CORPUS_SEED)
    return [random_network(rng, max_nodes=8) for _ in range(200)]


@pytest.fixture(scope="module")
def outage_instances():
    rng = np.random.default_rng(OUTAGE_CORPUS_SEED)
    instances = []
    while len(instances) < 200:
        net = random_network(rng, max_nodes=10, min_extra=1)
        outage_ids = sample_non_cut_outage(rng, net, max_size=3)
        if outage_ids is None:
            continue
        outage = OutageSet(net, outage_ids)
        result = glodf(None, None, None, outage, method="cross_check")
        instances.append((net, outage, result))
    return instances


def test_criterion_01_matrix_tree_identity(mtt_corpus):
    started = time.monotonic()
    for net in mtt_corpus:
        report = matrix_tree_check(net)
        assert report.determinant_rel_err <= 1e-9
        assert report.minor_max_rel_err <= 1e-9
        assert report.passed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 1 (matrix tree identity, 200 graphs in {elapsed:.1f}s): PASS")


def test_criterion_02_spectral_representation(mtt_corpus):
    worst = 0.0
    for net in mtt_corpus:
        bundle = build_laplacian(net)
        for i in net.nodes:
            for j in net.nodes:
                dense = float(bundle.A[net.node_index(i), net.node_index(j)])
                oracle = a_entry_via_forests(net, i, j)
                err = abs(dense - oracle) / max(1.0, abs(dense), abs(oracle))
                worst = max(worst, err)
                assert err <= 1e-9
    print(f"criterion 2 (spectral representation, worst rel err {worst:.2e}): PASS")


def test_criterion_03_forest_factor_equivalence():
    rng = np.random.default_rng(FACTOR_CORPUS_SEED)
    worst = 0.0
    for _ in range(25):
        net = random_network(rng, max_nodes=8)
        ptdf = net.sensitivity
        decomposition = block_decomposition(net)
        for line in net.ids:
            for other, source, target in zip(net.ids, net.sources, net.targets):
                oracle = ptdf_via_forests(net, line, source, target)
                value = ptdf.columns([net.edge_index(other)])[net.edge_index(line), 0]
                err = abs(value - oracle) / max(1.0, abs(value), abs(oracle))
                worst = max(worst, err)
                assert err <= 1e-9
        for outaged in net.ids:
            if outaged in decomposition.bridges:
                continue
            column = lodf_single(net, outaged)
            for line, value in column.items():
                oracle = lodf_via_forests(net, line, outaged)
                err = abs(value - oracle) / max(1.0, abs(value), abs(oracle))
                worst = max(worst, err)
                assert err <= 1e-9
    print(f"criterion 3 (forest factor equivalence, worst rel err {worst:.2e}): PASS")


def test_criterion_04_glodf_triple_agreement(outage_instances):
    worst = 0.0
    rng = np.random.default_rng(41104)
    for net, outage, result in outage_instances:
        scale = max(1.0, float(np.max(np.abs(result.k_matrix))))
        residual = max(result.residuals.values())
        worst = max(worst, residual / scale)
        assert residual <= 1e-9 * scale

        p = random_balanced_injection(rng, net.n)
        pre, post = apply_outage(p, outage)
        predicted = (
            pre.flows[outage.surviving_idx] + result.k_matrix @ pre.flows[outage.outaged_idx]
        )
        flow_scale = max(1.0, float(np.max(np.abs(pre.flows))))
        gap = float(np.max(np.abs(post.flows[outage.surviving_idx] - predicted)))
        assert gap <= 1e-9 * flow_scale
    print(f"criterion 4 (GLODF triple agreement on 200 outages, worst {worst:.2e}): PASS")


def test_criterion_05_localization_zero_structure(outage_instances):
    for net, outage, result in outage_instances:
        report = block_structure_report(outage)
        scale = max(1.0, report.matrix_scale)
        assert report.cross_block_max < 1e-9 * scale
        for block in report.blocks:
            assert block.reassembly_err_direct <= 1e-9 * scale
            assert block.reassembly_err_parts <= 1e-9 * scale
    print("criterion 5 (cross-block zeros and per-block reassembly): PASS")


def test_criterion_06_almost_sure_converse():
    k4 = build(k4_doc())

    # Unperturbed: non-adjacent line pairs vanish by symmetry.
    column = lodf_single(k4, 1)
    disjoint = [
        line
        for line, source, target in zip(k4.ids, k4.sources, k4.targets)
        if line != 1 and not ({source, target} & {1, 2})
    ]
    assert disjoint
    for other in disjoint:
        assert abs(column[other]) < 1e-12

    stats = almost_sure_nonzero_test(
        OutageSet(k4, [1]),
        PerturbationSpec(relative_magnitude=1e-3, trials=100, seed=4242),
    )
    assert stats.trials == 100
    assert min(stats.within_block.values()) == 100
    assert not stats.cross_block
    print("criterion 6 (perturbed symmetry zeros nonzero in 100/100 trials): PASS")


def test_criterion_07_triangle_ground_truth():
    triangle = build(triangle_doc())
    ptdf = triangle.sensitivity

    column = lodf_single(triangle, 1)
    assert abs(column[3] - 1.0) < 1e-12
    assert abs(column[2] + 1.0) < 1e-12
    assert abs(lodf_via_forests(triangle, 3, 1) - 1.0) < 1e-12
    assert abs(lodf_via_forests(triangle, 2, 1) + 1.0) < 1e-12

    for line, source, target in zip(triangle.ids, triangle.sources, triangle.targets):
        assert abs(ptdf.columns([triangle.edge_index(line)])[triangle.edge_index(line), 0] - 2.0 / 3.0) < 1e-12
        assert abs(ptdf_via_forests(triangle, line, source, target) - 2.0 / 3.0) < 1e-12

    report = effective_reactance(triangle, 1)
    assert abs(report.effective - 2.0 / 3.0) < 1e-12
    print("criterion 7 (triangle ground truth at 1e-12): PASS")


def test_criterion_08_bridge_behavior():
    rng = np.random.default_rng(8008)
    nets = [
        build(triangle_doc()),
        build(fig2_doc()),
        build({
            "nodes": [1, 2, 3],
            "edges": [{"from": 1, "to": 2, "b": 1.0}, {"from": 2, "to": 3, "b": 1.0}],
        }),
    ]
    while len(nets) < 8:
        net = random_network(rng, max_nodes=6, max_extra=4)
        if net.m <= 10:
            nets.append(net)

    for net in nets:
        decomposition = block_decomposition(net)
        for bridge in decomposition.bridges:
            assert abs(net.sensitivity.columns([net.edge_index(bridge)])[net.edge_index(bridge), 0] - 1.0) < 1e-12
            with pytest.raises(BridgeError):
                lodf_single(net, bridge)
        ids = net.ids
        for size in (1, 2):
            if size >= net.m:
                continue
            for subset in itertools.combinations(ids, size):
                assert detect_islanding(OutageSet(net, subset)) == is_cut_set(
                    net, subset
                )
    print("criterion 8 (bridge diagonals, bridge errors, islanding detector): PASS")


def test_criterion_09_adversarial_cascade():
    triangle = build(triangle_doc())
    bundle = build_laplacian(triangle)
    instance = adversarial_capacity(triangle, 1, 3)

    pre = solve_flow(bundle, triangle, instance.injections)
    assert np.all(np.abs(pre.flows) <= instance.capacities + 1e-15)

    armed = with_capacities(triangle, instance.capacities)
    trace = run_cascade(armed, instance.injections, [1])
    assert trace.stages[1].tripped == frozenset({3})
    assert trace.status == "islanded"
    assert trace.islanded_at_stage == 2
    print("criterion 9 (adversarial capacities drive the predicted cascade): PASS")


def test_criterion_10_injection_independence():
    rng = np.random.default_rng(INDEPENDENCE_SEED)
    instances = 0
    while instances < 30:
        net = random_network(rng, max_nodes=8, min_extra=1)
        decomposition = block_decomposition(net)
        non_bridges = [line for line in net.ids if line not in decomposition.bridges]
        if not non_bridges:
            continue
        tripped = int(rng.choice(non_bridges))
        column = lodf_single(net, tripped)
        outage = OutageSet(net, [tripped])
        for _ in range(10):
            p = random_balanced_injection(rng, net.n)
            pre, post = apply_outage(p, outage)
            f_hat = pre.flows[net.edge_index(tripped)]
            if abs(f_hat) <= 1e-6:
                continue
            for line, factor in column.items():
                idx = net.edge_index(line)
                empirical = (post.flows[idx] - pre.flows[idx]) / f_hat
                assert abs(empirical - factor) < 1e-8
        instances += 1
    print("criterion 10 (empirical flow ratios match factors to 1e-8): PASS")


def test_criterion_11_cli_determinism(tmp_path):
    triangle_path = tmp_path / "triangle.json"
    triangle_path.write_text(json.dumps(triangle_doc()))
    fig2_path = tmp_path / "fig2.json"
    fig2_path.write_text(json.dumps(fig2_doc()))

    def capture(args):
        proc = subprocess.run(
            [sys.executable, "-m", "gridfactor", *args],
            capture_output=True,
            check=True,
        )
        return proc.stdout

    verify_runs = {capture(["verify", str(triangle_path)]) for _ in range(2)}
    assert len(verify_runs) == 1

    localize_args = [
        "localize", str(fig2_path), "--lines", "1", "--perturb", "--seed", "42",
    ]
    localize_runs = {capture(localize_args) for _ in range(2)}
    assert len(localize_runs) == 1
    print("criterion 11 (byte-identical verify and seeded localize runs): PASS")
