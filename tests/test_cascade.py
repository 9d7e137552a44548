import math

import numpy as np
import pytest

from gridfactor import (
    MaxStagesError,
    OutageSet,
    UnknownEdgeError,
    ValidationError,
    adversarial_capacity,
    block_decomposition,
    build_laplacian,
    glodf,
    incidence_matrix,
    influence_graph,
    injection_vector,
    ptdf_matrix,
    run_cascade,
    solve_flow,
)

from conftest import random_balanced_injection, random_network, sample_non_cut_outage


def armed_triangle(triangle):
    bundle = build_laplacian(triangle)
    instance = adversarial_capacity(bundle, triangle, 1, 3)
    return triangle.with_capacities(instance.capacities), instance


def test_adversarial_trace(triangle):
    armed, instance = armed_triangle(triangle)
    trace = run_cascade(armed, instance.injections, [1])
    assert trace.status == "islanded"
    assert trace.islanded_at_stage == 2
    assert [sorted(stage.tripped) for stage in trace.stages] == [[1], [3]]
    assert trace.stages[0].flow is not None
    assert trace.stages[1].flow is None
    assert trace.cumulative_outage() == frozenset({1, 3})


def test_infinite_capacities_stop_after_initial_outage(triangle):
    trace = run_cascade(triangle, injection_vector(triangle), [1])
    assert trace.status == "no_initial_overload"
    assert len(trace.stages) == 1
    assert trace.stages[0].tripped == frozenset({1})


def test_bridge_initial_outage_islands_immediately(path3):
    trace = run_cascade(path3, injection_vector(path3), [1])
    assert trace.status == "islanded"
    assert trace.islanded_at_stage == 0
    assert trace.stages[0].flow is None


def test_unknown_initial_line(triangle):
    with pytest.raises(UnknownEdgeError):
        run_cascade(triangle, injection_vector(triangle), [42])


def test_max_stages_error(triangle):
    armed, instance = armed_triangle(triangle)
    with pytest.raises(MaxStagesError) as info:
        run_cascade(armed, instance.injections, [1], max_stages=1)
    assert len(info.value.stages) == 1


@pytest.mark.parametrize("max_stages", [0, -3])
def test_max_stages_below_one_is_refused(triangle, max_stages):
    armed, instance = armed_triangle(triangle)
    with pytest.raises(ValidationError, match="max_stages"):
        run_cascade(armed, instance.injections, [1], max_stages=max_stages)


def test_flow_conservation_each_stage():
    rng = np.random.default_rng(211)
    ran = 0
    while ran < 10:
        net = random_network(rng, min_extra=1)
        outage = sample_non_cut_outage(rng, net, max_size=1)
        if outage is None:
            continue
        p = random_balanced_injection(rng, net.n)
        caps = np.abs(solve_flow(build_laplacian(net), net, p).flows) * 1.05 + 1e-6
        armed = net.with_capacities(caps)
        try:
            trace = run_cascade(armed, p, outage)
        except MaxStagesError:
            continue
        C = incidence_matrix(net)
        scale = max(1.0, float(np.max(np.abs(p))))
        seen = set()
        for stage in trace.stages:
            assert not (stage.tripped & seen)
            seen |= stage.tripped
            if stage.flow is None:
                continue
            surviving = [k for k, e in enumerate(net.edges) if e.id not in seen]
            residual = C[:, surviving] @ stage.flow.flows[surviving] - p
            assert np.max(np.abs(residual)) < 1e-9 * scale
        ran += 1


def test_first_stage_matches_glodf_prediction():
    rng = np.random.default_rng(223)
    ran = 0
    while ran < 10:
        net = random_network(rng, min_extra=1)
        outage_ids = sample_non_cut_outage(rng, net)
        if outage_ids is None:
            continue
        bundle = build_laplacian(net)
        p = random_balanced_injection(rng, net.n)
        base = solve_flow(bundle, net, p)
        trace = run_cascade(net, p, outage_ids)
        outage = OutageSet(net, outage_ids)
        result = glodf(bundle, ptdf_matrix(bundle, net), net, outage)
        predicted = base.flows[outage.surviving_idx] + result.k_matrix @ base.flows[outage.outaged_idx]
        actual = trace.stages[0].flow.flows[outage.surviving_idx]
        scale = max(1.0, float(np.max(np.abs(base.flows))))
        assert np.max(np.abs(actual - predicted)) < 1e-9 * scale
        ran += 1


def test_influence_graph_triangle(triangle):
    bundle = build_laplacian(triangle)
    ptdf = ptdf_matrix(bundle, triangle)
    decomposition = block_decomposition(triangle)
    assert influence_graph(ptdf, decomposition, 0.005) == ((1, 2), (1, 3), (2, 3))
    assert influence_graph(ptdf, decomposition, 2.0) == ()


@pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
def test_influence_graph_refuses_bad_threshold(triangle, threshold):
    ptdf = ptdf_matrix(build_laplacian(triangle), triangle)
    with pytest.raises(ValidationError, match="threshold"):
        influence_graph(ptdf, block_decomposition(triangle), threshold)


def test_influence_graph_never_crosses_blocks(fig2):
    bundle = build_laplacian(fig2)
    ptdf = ptdf_matrix(bundle, fig2)
    decomposition = block_decomposition(fig2)
    pairs = influence_graph(ptdf, decomposition, 0.0)
    block_of = decomposition.block_of
    assert pairs
    for a, b in pairs:
        assert block_of[a] == block_of[b]
        assert a not in decomposition.bridges
        assert b not in decomposition.bridges


def test_influence_graph_threshold_zero_covers_all_block_pairs(k4):
    bundle = build_laplacian(k4)
    ptdf = ptdf_matrix(bundle, k4)
    decomposition = block_decomposition(k4)
    pairs = influence_graph(ptdf, decomposition, 0.0)
    assert len(pairs) == 15  # C(6, 2): every pair of K4 lines shares the block
