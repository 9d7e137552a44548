import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    LaplacianBundle,
    OutageSet,
    SingularError,
    UnbalancedInjectionError,
    UnknownEdgeError,
    ValidationError,
    adversarial_capacity,
    apply_outage,
    block_decomposition,
    build_laplacian,
    glodf,
    influence_graph,
    injection_vector,
    run_cascade,
    solve_flow,
)
from gridfactor import cascade, dcpf, factors, net_model
from gridfactor.dcpf import FlowState, surviving_flow
from gridfactor.factors import _outage_flow
from gridfactor.net_model import RTOL, incidence_columns, scaled_tolerance

from conftest import (
    build,
    exact_flows,
    grid_doc,
    incidence_matrix,
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
    assert frozenset().union(*(stage.tripped for stage in trace.stages)) == frozenset({1, 3})


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
        result = glodf(None, None, None, outage)
        predicted = base.flows[outage.surviving_idx] + result.k_matrix @ base.flows[outage.outaged_idx]
        actual = trace.stages[0].flow.flows[outage.surviving_idx]
        scale = max(1.0, float(np.max(np.abs(base.flows))))
        assert np.max(np.abs(actual - predicted)) < 1e-9 * scale
        ran += 1


def test_influence_graph_triangle(triangle):
    assert influence_graph(triangle, 0.005) == ((1, 2), (1, 3), (2, 3))
    assert influence_graph(triangle, 2.0) == ()


@pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
def test_influence_graph_refuses_bad_threshold(triangle, threshold):
    with pytest.raises(ValidationError, match="threshold"):
        influence_graph(triangle, threshold)


def test_influence_graph_never_crosses_blocks(fig2):
    decomposition = block_decomposition(fig2)
    pairs = influence_graph(fig2, 0.0)
    block_at = decomposition.block_at
    assert pairs
    for a, b in pairs:
        assert block_at[fig2.edge_index(a)] == block_at[fig2.edge_index(b)]
        assert a not in decomposition.bridges
        assert b not in decomposition.bridges


def test_influence_graph_threshold_zero_covers_all_block_pairs(k4):
    pairs = influence_graph(k4, 0.0)
    assert len(pairs) == 15  # C(6, 2): every pair of K4 lines shares the block


def _dense_ptdf(net):
    """D = B C^T A C from the dense incidence matrix and np.linalg.inv of the reduced Laplacian."""
    C, b = incidence_matrix(net), net.susceptances()
    keep = np.delete(np.arange(net.n), net.reference_index())
    A = np.zeros((net.n, net.n))
    A[np.ix_(keep, keep)] = np.linalg.inv(((C * b) @ C.T)[np.ix_(keep, keep)])
    return b[:, None] * (C.T @ A @ C)


def _whole_block_pairs(net, D, threshold):
    """Each block's pairs i < j with max(|K_ij|, |K_ji|) >= threshold, from the block's whole K and its transpose."""
    pairs = []
    for members in net.decomposition.blocks:
        if len(members) < 2:
            continue
        ordered = sorted(members)
        positions = net.edge_positions(ordered)
        d = D[np.ix_(positions, positions)]
        k = d / (1.0 - np.diag(d))
        rows, cols = np.nonzero(np.triu(np.maximum(np.abs(k), np.abs(k.T)) >= threshold, 1))
        pairs += [(ordered[i], ordered[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    return tuple(sorted(pairs))


@pytest.mark.parametrize("threshold", [0.0, 0.005, 0.05, 0.2, 0.9])
def test_influence_graph_in_batches_is_the_dense_pair_set(threshold):
    net = build(grid_doc(20))  # one block of 760 lines: many column batches
    assert len(net.decomposition.blocks) == 1 and net.m > 2 * factors._BATCH
    reference = _whole_block_pairs(net, _dense_ptdf(net), threshold)
    assert influence_graph(net, threshold) == reference
    net.sensitivity.matrix
    assert influence_graph(net, threshold) == reference  # sliced from the held matrix


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([0.0, 0.01, 0.1, 0.5]))
def test_influence_graph_is_its_whole_block_rule_at_every_batch_size(seed, batch, threshold):
    net = random_network(np.random.default_rng(seed), max_nodes=10, max_extra=8)
    D = replace(net).sensitivity.matrix  # an equal network's: net's own D holds no matrix
    with mock.patch.object(factors, "_BATCH", batch):
        assert influence_graph(net, threshold) == _whole_block_pairs(net, D, threshold)


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
    assert [stage.tripped for stage in run_cascade(armed, p, [1]).stages] == [{1}, {2}, {4}]
    assert len(count_factors) == 1
    assert [stage.tripped for stage in run_cascade(armed, p, [1]).stages] == [{1}, {2}, {4}]
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
    # The kernel turns dgesv's zero pivot into the SingularError stubbed below.
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


def same_bits(a: FlowState, b: FlowState) -> bool:
    return a.theta.tobytes() == b.theta.tobytes() and a.flows.tobytes() == b.flows.tobytes()


def test_a_sweep_under_one_injection_vector_solves_the_base_once(monkeypatch):
    net = random_network(np.random.default_rng(5), max_nodes=10, max_extra=10, min_extra=4)
    p = random_balanced_injection(np.random.default_rng(6), net.n)
    base_solves = []
    solve = dcpf.solve_flow

    def counting(bundle, network, values):
        base_solves.append(bundle is net.factor)  # a re-solve of a surviving grid has a factor of its own
        return solve(bundle, network, values)

    monkeypatch.setattr(dcpf, "solve_flow", counting)
    bridges = block_decomposition(net).bridges
    for line in net.ids:
        run_cascade(net, p.tolist(), [line])  # a new list each time, the same bytes once validated
        if line not in bridges:
            apply_outage(p, OutageSet(net, [line]))
    assert sum(base_solves) == 1
    run_cascade(net, -p, [net.ids[0]])
    assert sum(base_solves) == 2


class CountingSolves:
    """A stand-in for a factor's SuperLU object that counts its solves."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs)


def test_a_connected_stage_costs_one_solve_on_the_network_factor(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stage built a dense incidence block")

    for module in (net_model, dcpf, factors):
        monkeypatch.setattr(module, "incidence_columns", refuse, raising=False)
    rng = np.random.default_rng(53)  # 10 buses, 15 lines: two bridges, and cascades of up to four stages
    net = random_network(rng, max_nodes=12, max_extra=10, min_extra=4)
    p = random_balanced_injection(rng, net.n)
    base = solve_flow(build_laplacian(net), net, p).flows
    net = replace(with_capacities(net, np.abs(base) * rng.uniform(1.0, 1.3, net.m) + 1e-3), injections=tuple(p))
    net.factor._factor = counting = CountingSolves(net.factor._factor)
    stages, solved, expected = [], set(), 2  # one base solve per injection vector
    for vector in (net.injections, -p):  # the network's own column, then an array of the caller's
        before = counting.calls
        for line in net.ids:
            trace = run_cascade(net, vector, [line])
            stages.append(sum(stage.flow is not None for stage in trace.stages))
            out = set()
            for stage in trace.stages:
                out |= stage.tripped
                if stage.flow is not None:  # a stage solves once when its outage holds a line not solved yet
                    expected += not out <= solved
                    solved |= out
        if vector is not net.injections:  # the same overloads under -p: every outage column is held
            assert counting.calls == before + 1
    assert max(stages) >= 3 and min(stages) == 0  # deep cascades, and bridges that island at once
    assert sum(stages) > expected - 2 > 0 and counting.calls == expected


def test_alternating_injection_vectors_read_each_their_own_base(monkeypatch):
    net = build(k4_doc())
    rng = np.random.default_rng(8)
    vectors = [random_balanced_injection(rng, net.n) for _ in range(2)]
    bases = []

    def recording(network, p, base, tripped):
        bases.append(base)
        return _outage_flow(network, p, base, tripped)

    monkeypatch.setattr(cascade, "_outage_flow", recording)
    p = np.empty(net.n)  # one array written over between calls: the kept state must not follow it
    for step in range(6):
        p[:] = vectors[step % 2]
        fresh = solve_flow(net.factor, net, p.copy())
        run_cascade(net, p, [1])
        pre, post = apply_outage(p, OutageSet(net, [1]))
        assert same_bits(bases[-1], fresh) and same_bits(pre, fresh)
        assert bases[-1] is pre is net.flow(p)[1]
        assert same_bits(post, _outage_flow(net, p, fresh, np.array([0])))


def test_the_kept_base_state_is_read_only_and_outside_equality(triangle):
    p, state = triangle.flow()
    for kept in (p, state.theta, state.flows, *triangle._reals, injection_vector(triangle)):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1.0
    triangle.susceptances()[0] = triangle.capacities()[0] = 0.0  # copies, free to write
    assert triangle.susceptances()[0] == triangle.b[0] and triangle.capacities()[0] == triangle.cap[0]
    twin = replace(triangle)
    assert twin == triangle and hash(twin) == hash(triangle) and repr(twin) == repr(triangle)
    assert "_flow" in vars(triangle) and "_flow" not in vars(twin)


def test_a_refused_injection_or_a_singular_factor_keeps_nothing(triangle):
    kept = triangle.flow()
    with pytest.raises(UnbalancedInjectionError):
        triangle.flow([1.0, 0.0, 0.0])
    assert triangle.flow() is kept
    stiff = build({**stiff_triangle_doc(), "edges": [{"from": 1, "to": 2, "b": 1e13},
                                                     {"from": 2, "to": 3, "b": 1.0},
                                                     {"from": 1, "to": 3, "b": 1.0}]})
    with pytest.raises(SingularError):
        stiff.flow()
    assert "_flow" not in vars(stiff)


def outage_flow_by_all_rows(network, p, base, tripped):
    """The outage flow from the dense incidence block, D_FF read from the branch flows on every line.

    A C_F is solved from C[:, F] gathered to the factor's n - 1 rows and scattered
    back to node order, and D_FF is sliced from every line's flow to the tripped rows.
    """
    bundle = network.factor
    keep = np.delete(np.arange(network.n), network.reference_index())
    x_f = np.zeros((network.n, len(tripped)))
    x_f[keep] = bundle._factor.solve(incidence_columns(network, tripped)[keep])
    try:
        theta = base.theta + factors._glodf_kernel(x_f, bundle.branch_flows(x_f)[tripped]) @ base.flows[tripped]
    except SingularError:
        return surviving_flow(network, p, tripped)
    flows = bundle.branch_flows(theta)
    flows[tripped] = 0.0
    n = network.n
    imbalance = np.bincount(bundle.source, flows, n) - np.bincount(bundle.target, flows, n) - p
    if np.abs(imbalance).sum() <= scaled_tolerance(float(np.max(np.abs(flows)))):
        return FlowState(theta=theta, flows=flows)
    return surviving_flow(network, p, tripped)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_outage_flow_reads_d_ff_from_the_tripped_rows_bit_for_bit(seed, spread):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=10, min_extra=2)
    net = replace(net, reference=int(rng.choice(net.nodes)))  # the reference's row anywhere in node order
    if spread:  # log-uniform over 1e-6..1e6, where the certificate often fails and the re-solve runs
        net = with_susceptances(net, 10.0 ** rng.uniform(-6, 6, net.m))
    outage = sample_non_cut_outage(rng, net)
    p = random_balanced_injection(rng, net.n)
    try:
        base = solve_flow(net.factor, net, p)
        expected = outage_flow_by_all_rows(net, p, base, tripped := net.edge_positions(outage or []))
    except SingularError:
        return
    if outage is not None:
        for _ in ("cold", "warm"):  # the outage columns solved, then read from the factor's store
            assert same_bits(_outage_flow(net, p, base, tripped), expected)
            assert list(net.factor._columns) == tripped.tolist()
