"""The network's line ids (each line's position plus 1), its topology index and the callers that rely on them."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    Network,
    CutSetError,
    OutageSet,
    UnknownEdgeError,
    block_decomposition,
    a_entry_via_forests,
    build_laplacian,
    effective_reactance,
    glodf,
    lodf_single,
    lodf_via_forests,
    run_cascade,
    solve_flow,
)

from gridfactor import net_model
from gridfactor.net_model import scaled_tolerance

from conftest import (
    build,
    grid_doc,
    incidence_matrix,
    is_cut_set,
    kept_lines,
    random_balanced_injection,
    random_network,
    sample_non_cut_outage,
    triangle_doc,
    with_capacities,
    with_susceptances,
    without_edges,
)


def _use_and_forget(doc):
    net = build(doc)
    net.edge_index(2)
    glodf(None, None, None, OutageSet(net, [1]))
    block_decomposition(net)
    run_cascade(net, net.injections, [1])
    a_entry_via_forests(net, 1, 2)
    lodf_via_forests(net, 2, 1)
    effective_reactance(net, 1)
    return weakref.ref(net)


def test_network_is_collected_after_use():
    ref = _use_and_forget(triangle_doc())
    gc.collect()
    assert ref() is None


def test_a_network_that_read_its_factor_dies_with_its_last_reference():
    gc.disable()  # freed by reference counting alone: the factor does not point back
    try:
        net = build(triangle_doc())
        run_cascade(net, net.injections, [1])
        net.decomposition
        net.oracle
        net.sensitivity.matrix
        assert {"factor", "decomposition", "oracle", "sensitivity"} <= vars(net).keys()
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        gc.enable()


def test_index_is_not_part_of_equality(triangle):
    fresh = build(triangle_doc())
    triangle.edge_index(1)
    triangle.node_index(1)
    assert triangle == fresh
    assert hash(triangle) == hash(fresh)
    assert repr(triangle) == repr(fresh)


def test_factor_is_kept_per_instance_outside_equality(triangle):
    fresh = build(triangle_doc())
    factor = triangle.factor
    assert triangle.factor is factor and fresh.factor is not factor
    assert triangle == fresh and hash(triangle) == hash(fresh) and repr(triangle) == repr(fresh)
    heavier = with_susceptances(triangle, [2.0, 3.0, 4.0])
    assert heavier.factor.b.tolist() == [2.0, 3.0, 4.0] and factor.b.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("call", [
    pytest.param(lambda net, ids: OutageSet(net, ids), id="OutageSet"),
    pytest.param(lambda net, ids: without_edges(net, ids), id="without_edges"),
    pytest.param(lambda net, ids: is_cut_set(net, ids), id="is_cut_set"),
    pytest.param(lambda net, ids: run_cascade(net, net.injections, ids), id="run_cascade"),
])
def test_unknown_ids_are_all_named(triangle, call):
    with pytest.raises(UnknownEdgeError, match=r"unknown edge ids \[0, 7, 9\]"):
        call(triangle, [9, 1, 7, 0])


def test_line_ids_are_looked_up_not_truncated(triangle):
    for call in (lambda ids: OutageSet(triangle, ids), lambda ids: run_cascade(triangle, triangle.injections, ids)):
        with pytest.raises(UnknownEdgeError, match=r"unknown edge ids \[1\.5\]"):
            call([1.5])
    outage = OutageSet(triangle, [np.int64(2), 1.0])
    assert outage.outaged == (1, 2) and {type(line) for line in outage.outaged} == {int}
    assert run_cascade(triangle, triangle.injections, [2.0]).initial_outage == {2}
    for line in (2.0, np.int64(2)):
        assert triangle.edge_index(line) == 1 and type(triangle.edge_index(line)) is int
        assert lodf_single(triangle, line) == lodf_single(triangle, 2)
    for bad in (1.5, 0, -1, triangle.m + 1, 2**61 + 1):  # the last hashes to 2, as line 2 does
        for call in (triangle.edge_index, lambda line: lodf_single(triangle, line)):
            with pytest.raises(UnknownEdgeError, match=rf"^unknown edge id {bad}$"):
                call(bad)


def test_screening_builds_no_surviving_network(monkeypatch):
    net = build(grid_doc(20))
    net.sensitivity.matrix

    def refuse(*args, **kwargs):
        raise AssertionError("a whole-network pass ran")

    monkeypatch.setattr(net_model, "depth_first_order", refuse)
    monkeypatch.setattr(Network, "__init__", refuse)
    # Three of the four lines at the centre bus 211, then both lines at corner bus 1.
    outage = OutageSet(net, [200, 571, 591])
    for method in ("pre_contingency", "via_stack"):
        assert glodf(None, None, None, outage, method=method).k_matrix.shape == (757, 3)
    corner = OutageSet(net, [1, 381])
    with pytest.raises(CutSetError):
        glodf(None, None, None, corner)


def test_parameter_copies_share_the_topology_index(triangle):
    assert not is_cut_set(triangle, [1])
    for copy in (with_susceptances(triangle, [2.0, 3.0, 4.0]),
                 with_capacities(triangle, [1.0, 1.0, 1.0])):
        for name in ("_node_lookup", "_cycle_labels", "_connected"):
            assert getattr(copy, name) == getattr(triangle, name)
        assert all(map(np.array_equal, copy.endpoints, triangle.endpoints))
        assert (copy._graph != triangle._graph).nnz == 0
    reduced = without_edges(triangle, [1])
    assert reduced.endpoints is not triangle.endpoints
    assert reduced._graph[[0]].nnz == 1


def _loop_embedded(network, cumulative, p):
    surviving = without_edges(network, cumulative)
    state = solve_flow(build_laplacian(surviving), surviving, p)
    flows = np.zeros(network.m)
    for k, position in enumerate(np.flatnonzero(kept_lines(network, cumulative))):
        flows[position] = state.flows[k]
    return state.theta, flows


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_positions_and_cascade_flows_match_per_id_loops(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=10, min_extra=3)
    outage = sample_non_cut_outage(rng, net)
    if outage is None:
        return

    split = OutageSet(net, outage)
    positions = np.concatenate([split.outaged_idx, split.surviving_idx])
    assert sorted(positions.tolist()) == list(range(net.m))
    assert split.outaged_idx.tolist() == [net.edge_index(v) for v in split.outaged]
    assert split.surviving_idx.tolist() == [net.edge_index(v) for v in split.surviving]
    assert set(split.surviving).isdisjoint(split.outaged)

    p = random_balanced_injection(rng, net.n)
    bundle = build_laplacian(net)
    C = incidence_matrix(net)
    keep = np.delete(np.arange(net.n), net.reference_index())
    weights = net.susceptances()
    for zeroed in ([], split.outaged_idx[:1]):  # a zero weight is a line that is out
        weights[zeroed] = 0.0
        expected = (C @ np.diag(weights) @ C.T)[np.ix_(keep, keep)]
        assert np.max(np.abs(build_laplacian(net, weights).reduced.toarray() - expected)) <= 1e-12
    state = solve_flow(bundle, net, p)
    dense = bundle.A @ p
    assert np.max(np.abs(state.theta - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))
    base = state.flows
    armed = with_capacities(net, np.abs(base) * rng.uniform(1.0, 2.0, net.m) + 1e-3)
    trace = run_cascade(armed, p, outage)
    cumulative = set()
    for stage, following in zip(trace.stages, trace.stages[1:] + (None,)):
        cumulative |= stage.tripped
        if stage.flow is None:
            continue
        theta, flows = _loop_embedded(armed, cumulative, p)
        # A stage is the GLODF update on the base factor, not a fresh factor's bits.
        for got, reference in ((stage.flow.theta, theta), (stage.flow.flows, flows)):
            assert np.max(np.abs(got - reference)) <= scaled_tolerance(float(np.max(np.abs(reference))))
        overloaded = {
            line for line, capacity in zip(armed.ids, armed.cap)
            if line not in cumulative
            and abs(flows[armed.edge_index(line)]) > capacity
        }
        assert overloaded == (set() if following is None else set(following.tripped))
