import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    LaplacianBundle,
    OutageSet,
    SingularError,
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
from gridfactor import factors
from gridfactor.dcpf import surviving_flow
from gridfactor.factors import _outage_flow
from gridfactor.net_model import RTOL, scaled_tolerance

from conftest import (
    build,
    exact_flows,
    k4_doc,
    random_balanced_injection,
    random_network,
    sample_non_cut_outage,
    stiff_triangle_doc,
    with_capacities,
    with_susceptances,
)


def armed_triangle(triangle):
    instance = adversarial_capacity(triangle, 1, 3)
    return with_capacities(triangle, instance.capacities), instance


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
        armed = with_capacities(net, caps)
        trace = run_cascade(armed, p, outage)
        assert all(stage.tripped for stage in trace.stages)
        assert len(trace.stages) <= net.m - len(outage) + 1
        C = incidence_matrix(net)
        scale = max(1.0, float(np.max(np.abs(p))))
        seen = set()
        for stage in trace.stages:
            assert not (stage.tripped & seen)
            seen |= stage.tripped
            if stage.flow is None:
                continue
            surviving = [k for k, line in enumerate(net.ids) if line not in seen]
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
    assert influence_graph(ptdf, 0.005) == ((1, 2), (1, 3), (2, 3))
    assert influence_graph(ptdf, 2.0) == ()


@pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
def test_influence_graph_refuses_bad_threshold(triangle, threshold):
    ptdf = ptdf_matrix(build_laplacian(triangle), triangle)
    with pytest.raises(ValidationError, match="threshold"):
        influence_graph(ptdf, threshold)


def test_influence_graph_never_crosses_blocks(fig2):
    bundle = build_laplacian(fig2)
    ptdf = ptdf_matrix(bundle, fig2)
    decomposition = block_decomposition(fig2)
    pairs = influence_graph(ptdf, 0.0)
    block_at = decomposition.block_at
    assert pairs
    for a, b in pairs:
        assert block_at[fig2.edge_index(a)] == block_at[fig2.edge_index(b)]
        assert a not in decomposition.bridges
        assert b not in decomposition.bridges


def test_influence_graph_threshold_zero_covers_all_block_pairs(k4):
    bundle = build_laplacian(k4)
    ptdf = ptdf_matrix(bundle, k4)
    pairs = influence_graph(ptdf, 0.0)
    assert len(pairs) == 15  # C(6, 2): every pair of K4 lines shares the block


@pytest.fixture
def count_factors(monkeypatch):
    """A list whose length is the number of LaplacianBundle factors built since the fixture ran."""
    built = []
    init = LaplacianBundle.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaplacianBundle, "__init__", counting)
    return built


def test_cascades_on_one_network_share_its_factor(count_factors):
    # Trips line 2, then line 4, then settles: three connected stages, none a cut.
    armed = with_capacities(build(k4_doc()), [0.3, 0.3, 1.0, 0.3, 0.6, 0.6])
    p = [1.0, 0.5, -0.5, -1.0]
    assert run_cascade(armed, p, [1]).tripped_by_stage() == ({1}, {2}, {4})
    assert len(count_factors) == 1
    assert run_cascade(armed, p, [1]).tripped_by_stage() == ({1}, {2}, {4})
    assert run_cascade(armed, p, [3]).stages[0].flow is not None
    assert len(count_factors) == 1 and count_factors[0] is armed.factor


def test_a_network_too_stiff_to_factor_whole_still_cascades():
    # The b=1e13 line makes the whole triangle singular; without it the grid factors.
    doc = {**stiff_triangle_doc(), "edges": [{"from": 1, "to": 2, "b": 1e13},
                                             {"from": 2, "to": 3, "b": 1.0},
                                             {"from": 1, "to": 3, "b": 1.0}]}
    net = build(doc)
    with pytest.raises(SingularError):
        net.factor
    state = run_cascade(net, net.injections, [1]).stages[0].flow
    reference = surviving_flow(net, net.injections, [0])
    assert np.array_equal(state.flows, reference.flows) and np.array_equal(state.theta, reference.theta)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_every_stage_balances_and_matches_the_re_solve(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=10, min_extra=2)
    outage = sample_non_cut_outage(rng, net)
    if outage is None:
        return
    p = random_balanced_injection(rng, net.n)
    base = solve_flow(build_laplacian(net), net, p).flows
    armed = with_capacities(net, np.abs(base) * rng.uniform(1.0, 1.5, net.m) + 1e-3)
    trace = run_cascade(armed, p, outage)
    source, target = net.endpoints
    out = []
    for stage in trace.stages:
        out += net.edge_positions(stage.tripped).tolist()
        if stage.flow is None:
            continue
        flows = stage.flow.flows
        bound = scaled_tolerance(float(np.max(np.abs(flows))))
        imbalance = np.bincount(source, flows, net.n) - np.bincount(target, flows, net.n) - p
        assert np.max(np.abs(imbalance)) <= bound
        assert np.max(np.abs(flows - surviving_flow(net, p, out).flows)) <= bound
        assert np.array_equal(flows[out], np.zeros(len(out)))


def test_stiff_stages_are_exact_or_re_solved():
    """Log-uniform susceptances over 1e-6..1e6: the certificate lets no inexact update through."""
    rng = np.random.default_rng(0)
    updated = re_solved = 0
    for _ in range(300):
        net = random_network(rng)
        net = with_susceptances(net, 10.0 ** rng.uniform(-6, 6, net.m))
        p = random_balanced_injection(rng, net.n)
        bridges = block_decomposition(net).bridges
        for k, line in enumerate(net.ids):
            if line in bridges:
                continue
            try:
                state = run_cascade(net, p, [line]).stages[0].flow
            except SingularError:
                with pytest.raises(SingularError):
                    surviving_flow(net, p, [k])
                continue
            reference = surviving_flow(net, p, [k])
            if np.array_equal(state.flows, reference.flows) and np.array_equal(state.theta, reference.theta):
                re_solved += 1
                continue
            tripped = [0.0 if j == k else b for j, b in enumerate(net.b)]
            exact = np.array([float(flow) for flow in exact_flows(net, p, tripped)[0]])
            assert np.max(np.abs(state.flows - exact)) <= RTOL * max(1.0, float(np.max(np.abs(exact))))
            updated += 1
    assert updated and re_solved  # the sweep reaches both outcomes


@pytest.mark.parametrize("line", [1, 2, 3])
def test_stiff_triangle_stages_are_re_solved(count_factors, line):
    net = build(stiff_triangle_doc())
    state = run_cascade(net, net.injections, [line]).stages[0].flow
    assert len(count_factors) == 2  # the network's factor, then the re-solve's
    reference = surviving_flow(net, net.injections, [line - 1])
    assert np.array_equal(state.flows, reference.flows) and np.array_equal(state.theta, reference.theta)


def test_empty_initial_outage_is_refused(triangle):
    with pytest.raises(ValidationError, match="initial outage must be nonempty"):
        run_cascade(triangle, injection_vector(triangle), [])


def test_a_stage_whose_update_is_singular_is_re_solved(monkeypatch):
    # The kernel turns numpy's LinAlgError into the SingularError stubbed below.
    with pytest.raises(SingularError, match="I - D_FF is numerically singular"):
        factors._glodf_kernel(np.ones((2, 1)), np.ones((1, 1)))
    kernel_calls = []

    def singular(*args):
        kernel_calls.append(args)
        raise SingularError("I - D_FF is numerically singular")

    monkeypatch.setattr(factors, "_glodf_kernel", singular)
    rng = np.random.default_rng(11)
    stages = 0
    for _ in range(40):
        net = random_network(rng, max_nodes=10, max_extra=10, min_extra=2)
        outage = sample_non_cut_outage(rng, net)
        if outage is None:
            continue
        p = random_balanced_injection(rng, net.n)
        base = solve_flow(build_laplacian(net), net, p).flows
        armed = with_capacities(net, np.abs(base) * rng.uniform(1.0, 1.5, net.m) + 1e-3)
        out = []
        for stage in run_cascade(armed, p, outage).stages:
            out += net.edge_positions(stage.tripped).tolist()
            if stage.flow is not None:
                reference = surviving_flow(net, p, out)
                assert np.array_equal(stage.flow.flows, reference.flows)
                assert np.array_equal(stage.flow.theta, reference.theta)
                stages += 1
    assert len(kernel_calls) == stages > 40  # every connected stage tried the update first


def test_an_update_that_is_not_finite_is_re_solved(triangle):
    p = injection_vector(triangle)
    base = solve_flow(triangle.factor, triangle, p)
    broken = type(base)(theta=np.full(triangle.n, np.nan), flows=base.flows)
    state = _outage_flow(triangle, p, broken, np.array([0]))
    assert np.array_equal(state.flows, surviving_flow(triangle, p, [0]).flows)
