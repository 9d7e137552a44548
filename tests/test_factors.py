import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    BridgeOutageError,
    CutSetError,
    OutageSet,
    SingularError,
    UnknownEdgeError,
    ValidationError,
    adversarial_capacity,
    apply_outage,
    block_decomposition,
    build_laplacian,
    characteristic_injection_flow,
    detect_islanding,
    glodf,
    influence_graph,
    injection_vector,
    is_cut_set,
    lodf_single,
    lodf_stack,
    lodf_via_forests,
    ptdf_matrix,
    ptdf_via_forests,
    solve_flow,
)

from gridfactor import factors
from gridfactor.net_model import scaled_tolerance

from conftest import (
    build,
    grid_doc,
    random_balanced_injection,
    random_network,
    sample_non_cut_outage,
    stiff_triangle_doc,
)


@pytest.fixture
def triangle_setup(triangle):
    bundle = build_laplacian(triangle)
    return triangle, bundle, ptdf_matrix(bundle, triangle)


def test_ptdf_triangle_values(triangle_setup):
    triangle, _, ptdf = triangle_setup
    assert np.max(np.abs(np.diag(ptdf.matrix) - 2.0 / 3.0)) < 1e-12
    assert ptdf.entry(3, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ptdf.entry(3, 1) == pytest.approx(
        ptdf_via_forests(triangle, 3, 1, 2), abs=1e-12
    )


def test_ptdf_path_is_identity(path3):
    bundle = build_laplacian(path3)
    ptdf = ptdf_matrix(bundle, path3)
    assert np.max(np.abs(ptdf.matrix - np.eye(2))) < 1e-12


def test_ptdf_diagonal_range():
    rng = np.random.default_rng(101)
    for _ in range(10):
        net = random_network(rng)
        bundle = build_laplacian(net)
        diag = np.diag(ptdf_matrix(bundle, net).matrix)
        bridges = block_decomposition(net).bridges
        for line in net.ids:
            value = diag[net.edge_index(line)]
            if line in bridges:
                assert value == pytest.approx(1.0, abs=1e-12)
            else:
                assert 0.0 < value < 1.0


def test_lodf_single_triangle(triangle_setup):
    triangle, _, ptdf = triangle_setup
    column = lodf_single(ptdf, 1)
    assert column[3] == pytest.approx(1.0, abs=1e-12)
    assert column[2] == pytest.approx(-1.0, abs=1e-12)
    assert column[3] == pytest.approx(lodf_via_forests(triangle, 3, 1), abs=1e-12)
    assert column[2] == pytest.approx(lodf_via_forests(triangle, 2, 1), abs=1e-12)


def test_lodf_single_four_cycle(four_cycle):
    bundle = build_laplacian(four_cycle)
    ptdf = ptdf_matrix(bundle, four_cycle)
    column = lodf_single(ptdf, 1)
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in column.values())
    # Cross-check against a direct post-contingency re-solve.
    p = random_balanced_injection(np.random.default_rng(5), 4)
    pre, post = apply_outage(p, OutageSet(four_cycle, [1]))
    tripped_flow = pre.flows[0]
    for line, factor in column.items():
        idx = four_cycle.edge_index(line)
        assert post.flows[idx] - pre.flows[idx] == pytest.approx(
            factor * tripped_flow, abs=1e-9
        )


def test_lodf_single_bridge_raises(path3):
    bundle = build_laplacian(path3)
    ptdf = ptdf_matrix(bundle, path3)
    with pytest.raises(BridgeOutageError):
        lodf_single(ptdf, 1)


def test_lodf_single_equals_the_per_line_division():
    net = random_network(np.random.default_rng(29), max_nodes=9, min_extra=3)
    ptdf = ptdf_matrix(build_laplacian(net), net)
    decomposition = block_decomposition(net)
    for tripped in set(net.ids) - set(decomposition.bridges):
        col = net.edge_index(tripped)
        expected = {
            line: float(ptdf.matrix[k, col] / (1.0 - ptdf.matrix[col, col]))
            for k, line in enumerate(ptdf.line_ids)
            if line != tripped
        }
        column = lodf_single(ptdf, tripped)
        assert list(column) == list(expected) and column == expected


def test_lodf_stack_singleton_matches_single(triangle_setup):
    triangle, _, ptdf = triangle_setup
    outage = OutageSet(triangle, [1])
    stack = lodf_stack(ptdf, outage)
    column = lodf_single(ptdf, 1)
    for row, line in enumerate(outage.surviving):
        assert stack[row, 0] == pytest.approx(column[line], abs=1e-15)


def test_lodf_stack_columns_are_single_line_factors(triangle_setup):
    triangle, _, ptdf = triangle_setup
    outage = OutageSet(triangle, [1, 2])
    stack = lodf_stack(ptdf, outage)
    assert stack.shape == (1, 2)
    for col, tripped in enumerate(outage.outaged):
        column = lodf_single(ptdf, tripped)
        for row, line in enumerate(outage.surviving):
            assert stack[row, col] == pytest.approx(column[line], abs=1e-15)


def test_lodf_stack_bridge_raises(path3):
    bundle = build_laplacian(path3)
    ptdf = ptdf_matrix(bundle, path3)
    with pytest.raises(BridgeOutageError):
        lodf_stack(ptdf, OutageSet(path3, [1]))


@pytest.mark.parametrize("caller", ["lodf_single", "lodf_stack", "influence_graph",
                                    "adversarial_capacity"])
def test_stiff_line_that_is_not_a_bridge_is_singular(caller):
    # 1 - D_11 rounds to -1.1e-8 on this triangle, which has no bridges.
    net = build(stiff_triangle_doc())
    bundle = build_laplacian(net)
    ptdf = ptdf_matrix(bundle, net)
    decomposition = block_decomposition(net)
    assert not decomposition.bridges
    call = {
        "lodf_single": lambda: lodf_single(ptdf, 1),
        "lodf_stack": lambda: lodf_stack(ptdf, OutageSet(net, [1])),
        "influence_graph": lambda: influence_graph(ptdf, 0.05),
        "adversarial_capacity": lambda: adversarial_capacity(net, 1, 2),
    }[caller]
    with pytest.raises(SingularError, match="not a bridge"):
        call()


def test_outage_set_validation(triangle):
    with pytest.raises(ValidationError):
        OutageSet(triangle, [])
    with pytest.raises(ValidationError):
        OutageSet(triangle, [1, 2, 3])
    with pytest.raises(UnknownEdgeError):
        OutageSet(triangle, [9])


def test_glodf_singleton_matches_lodf(triangle_setup):
    triangle, bundle, ptdf = triangle_setup
    outage = OutageSet(triangle, [1])
    result = glodf(bundle, ptdf, triangle, outage, method="cross_check")
    column = lodf_single(ptdf, 1)
    for row, line in enumerate(outage.surviving):
        assert result.k_matrix[row, 0] == pytest.approx(column[line], abs=1e-12)
    assert max(result.residuals.values()) < 1e-12


def test_glodf_unknown_method_raises(triangle_setup):
    triangle, bundle, ptdf = triangle_setup
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        glodf(bundle, ptdf, triangle, OutageSet(triangle, [1]), method="nope")


def test_glodf_cut_set_raises(triangle_setup):
    triangle, bundle, ptdf = triangle_setup
    with pytest.raises(CutSetError):
        glodf(bundle, ptdf, triangle, OutageSet(triangle, [1, 2]))


def test_glodf_cross_block_outage_matches_single_lines(fig2):
    # One line tripped in each of two different blocks: the coupled factors
    # collapse to the per-line ones.
    bundle = build_laplacian(fig2)
    ptdf = ptdf_matrix(bundle, fig2)
    outage = OutageSet(fig2, [1, 6])
    result = glodf(bundle, ptdf, fig2, outage, method="cross_check")
    assert np.max(np.abs(result.k_matrix - result.k_stack)) < 1e-9
    assert max(result.residuals.values()) < 1e-9


def test_glodf_same_block_outage_is_not_superposition(k4):
    bundle = build_laplacian(k4)
    ptdf = ptdf_matrix(bundle, k4)
    outage = OutageSet(k4, [1, 2])
    result = glodf(bundle, ptdf, k4, outage, method="cross_check")
    assert np.max(np.abs(result.k_matrix - result.k_stack)) > 0.01
    assert max(result.residuals.values()) < 1e-9


def test_glodf_methods_agree_on_random_instances():
    rng = np.random.default_rng(107)
    tested = 0
    while tested < 25:
        net = random_network(rng, min_extra=1)
        outage_ids = sample_non_cut_outage(rng, net)
        if outage_ids is None:
            continue
        bundle = build_laplacian(net)
        ptdf = ptdf_matrix(bundle, net)
        result = glodf(bundle, ptdf, net, OutageSet(net, outage_ids), method="cross_check")
        scale = max(1.0, float(np.max(np.abs(result.k_matrix))))
        assert max(result.residuals.values()) < 1e-9 * scale
        tested += 1


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_glodf_kernel_matches_the_solve_form(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, min_extra=1)
    lines = sample_non_cut_outage(rng, net)
    if lines is None:
        return
    outage = OutageSet(net, lines)
    d_cols = ptdf_matrix(build_laplacian(net), net).columns(outage.outaged_idx)
    numerator, d_ff = d_cols[outage.surviving_idx], d_cols[outage.outaged_idx]
    zeroed = rng.random(len(numerator)) < 0.3
    numerator[zeroed] = rng.choice([0.0, -0.0], size=(int(zeroed.sum()), 1))
    kernel = factors._glodf_kernel(numerator, d_ff)
    solved = np.linalg.solve((np.eye(outage.size) - d_ff).T, numerator.T).T
    assert np.max(np.abs(kernel - solved)) <= scaled_tolerance(float(np.max(np.abs(solved))))
    # +0.0, never -0.0, so the JSON emit never prints "-0.0" for a line the outage cannot reach.
    assert np.array_equal(kernel[zeroed], numerator[zeroed]) and not np.signbit(kernel[zeroed]).any()


def test_pre_contingency_solves_only_the_outage_coupling(monkeypatch):
    net = build(grid_doc(20))
    bundle = build_laplacian(net)
    ptdf = ptdf_matrix(bundle, net)
    outage = OutageSet(net, [200, 571, 591])
    shapes = []

    def spy(name, call):
        def recorded(*args, **kwargs):
            shapes.extend(np.shape(arg) for arg in args if isinstance(arg, np.ndarray))
            if name == "solve":
                raise AssertionError("np.linalg.solve ran")
            return call(*args, **kwargs)
        return recorded

    with monkeypatch.context() as patched:
        for name in np.linalg.__all__:
            call = getattr(np.linalg, name)
            if callable(call) and not isinstance(call, type):
                patched.setattr(factors.np.linalg, name, spy(name, call))
        result = glodf(bundle, ptdf, net, outage, method="pre_contingency")
    assert result.k_matrix.shape == (net.m - 3, 3)
    assert shapes and set(shapes) == {(3, 3)}


def test_apply_outage_triangle(triangle_setup):
    triangle, _, _ = triangle_setup
    outage = OutageSet(triangle, [1])
    pre, post = apply_outage(injection_vector(triangle), outage)
    assert np.max(np.abs(pre.flows - np.array([2 / 3, -1 / 3, 1 / 3]))) < 1e-12
    assert np.max(np.abs(post.flows - np.array([0.0, -1.0, 1.0]))) < 1e-12


def test_apply_outage_zero_tripped_flow_is_identity(four_cycle):
    # Injection across nodes 2-4 keeps flow on line (1,2) ... not zero; use a
    # symmetric square where opposite injections cancel on one diagonal pair.
    bundle = build_laplacian(four_cycle)
    p = np.array([1.0, -2.0, 1.0, 0.0])
    pre = solve_flow(bundle, four_cycle, p)
    zero_lines = [
        line
        for line in four_cycle.ids
        if abs(pre.flows[four_cycle.edge_index(line)]) < 1e-12
    ]
    if not zero_lines:
        pytest.skip("no zero-flow line in this configuration")
    outage = OutageSet(four_cycle, zero_lines[:1])
    pre2, post = apply_outage(p, outage)
    surviving = outage.surviving_idx
    assert np.max(np.abs(post.flows[surviving] - pre2.flows[surviving])) < 1e-9


def test_apply_outage_matches_glodf_prediction():
    rng = np.random.default_rng(109)
    tested = 0
    while tested < 20:
        net = random_network(rng, min_extra=1)
        outage_ids = sample_non_cut_outage(rng, net)
        if outage_ids is None:
            continue
        bundle = build_laplacian(net)
        ptdf = ptdf_matrix(bundle, net)
        outage = OutageSet(net, outage_ids)
        result = glodf(bundle, ptdf, net, outage)
        p = random_balanced_injection(rng, net.n)
        pre, post = apply_outage(p, outage)
        predicted = pre.flows[outage.surviving_idx] + result.k_matrix @ pre.flows[outage.outaged_idx]
        scale = max(1.0, float(np.max(np.abs(pre.flows))))
        assert np.max(np.abs(post.flows[outage.surviving_idx] - predicted)) < 1e-9 * scale
        # Conservation on the surviving network.
        from gridfactor import incidence_matrix

        C = incidence_matrix(net)
        assert np.max(np.abs(C[:, outage.surviving_idx] @ post.flows[outage.surviving_idx] - p)) < 1e-9 * scale
        tested += 1


def test_apply_outage_cut_set_raises(triangle_setup):
    triangle, _, _ = triangle_setup
    with pytest.raises(CutSetError):
        apply_outage(injection_vector(triangle), OutageSet(triangle, [1, 3]))


def test_characteristic_injection_triangle(triangle_setup):
    triangle, _, _ = triangle_setup
    flows = characteristic_injection_flow(triangle, 1)
    assert flows[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_characteristic_injection_path(path3):
    flows = characteristic_injection_flow(path3, 1)
    assert np.max(np.abs(flows - np.array([1.0, 0.0]))) < 1e-12


def test_characteristic_injection_equals_ptdf_column():
    rng = np.random.default_rng(113)
    for _ in range(10):
        net = random_network(rng)
        bundle = build_laplacian(net)
        ptdf = ptdf_matrix(bundle, net)
        for line in net.ids:
            flows = characteristic_injection_flow(net, line)
            column = ptdf.matrix[:, net.edge_index(line)]
            assert np.max(np.abs(flows - column)) < 1e-9
            assert flows[net.edge_index(line)] > 0.0


def test_detect_islanding_examples(triangle_setup, path3):
    triangle, _, ptdf = triangle_setup
    assert detect_islanding(ptdf, OutageSet(triangle, [1, 3]))
    assert not detect_islanding(ptdf, OutageSet(triangle, [1]))
    path_ptdf = ptdf_matrix(build_laplacian(path3), path3)
    assert detect_islanding(path_ptdf, OutageSet(path3, [1]))


def test_detect_islanding_agrees_with_cut_set_check():
    rng = np.random.default_rng(127)
    for _ in range(10):
        net = random_network(rng, max_nodes=6, max_extra=4)
        if net.m > 10:
            continue
        bundle = build_laplacian(net)
        ptdf = ptdf_matrix(bundle, net)
        ids = net.ids
        for size in (1, 2):
            if size >= net.m:
                continue
            for subset in itertools.combinations(ids, size):
                assert detect_islanding(ptdf, OutageSet(net, subset)) == is_cut_set(
                    net, subset
                )


def test_lodf_is_injection_independent():
    rng = np.random.default_rng(131)
    tested = 0
    while tested < 8:
        net = random_network(rng, min_extra=1)
        bundle = build_laplacian(net)
        ptdf = ptdf_matrix(bundle, net)
        decomposition = block_decomposition(net)
        non_bridges = [line for line in net.ids if line not in decomposition.bridges]
        if not non_bridges:
            continue
        tripped = non_bridges[0]
        column = lodf_single(ptdf, tripped)
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
        tested += 1


def test_glodf_computes_the_stacked_factors_only_when_read(monkeypatch):
    net = build(grid_doc(20))
    bundle = build_laplacian(net)
    ptdf = ptdf_matrix(bundle, net)
    outage = OutageSet(net, [200, 571, 591])

    def refuse(*args):
        raise AssertionError("lodf_stack ran")

    with monkeypatch.context() as patched:
        patched.setattr(factors, "lodf_stack", refuse)
        result = glodf(bundle, ptdf, net, outage, method="pre_contingency")
    assert np.array_equal(result.k_stack, lodf_stack(ptdf, outage))
    assert result.k_stack is result.k_stack
