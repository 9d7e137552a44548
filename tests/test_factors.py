import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    BridgeError,
    CutSetError,
    GlodfResult,
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
    lodf_single,
    lodf_via_forests,
    ptdf_matrix,
    ptdf_via_forests,
    solve_flow,
)

from gridfactor import factors
from gridfactor.net_model import scaled_tolerance

from conftest import (
    build,
    detect_islanding,
    grid_doc,
    incidence_matrix,
    is_cut_set,
    k4_doc,
    random_balanced_injection,
    random_network,
    sample_non_cut_outage,
    stiff_triangle_doc,
    triangle_doc,
)


def test_ptdf_triangle_values(triangle):
    ptdf = triangle.sensitivity
    assert np.max(np.abs(np.diag(ptdf.matrix) - 2.0 / 3.0)) < 1e-12
    entry = ptdf.columns([triangle.edge_index(1)])[triangle.edge_index(3), 0]
    assert entry == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert entry == pytest.approx(ptdf_via_forests(triangle, 3, 1, 2), abs=1e-12)


def test_ptdf_path_is_identity(path3):
    assert np.max(np.abs(path3.sensitivity.matrix - np.eye(2))) < 1e-12


def test_ptdf_diagonal_range():
    rng = np.random.default_rng(101)
    for _ in range(10):
        net = random_network(rng)
        diag = np.diag(net.sensitivity.matrix)
        bridges = block_decomposition(net).bridges
        for line in net.ids:
            value = diag[net.edge_index(line)]
            if line in bridges:
                assert value == pytest.approx(1.0, abs=1e-12)
            else:
                assert 0.0 < value < 1.0


def test_lodf_single_triangle(triangle):
    column = lodf_single(triangle, 1)
    assert column[3] == pytest.approx(1.0, abs=1e-12)
    assert column[2] == pytest.approx(-1.0, abs=1e-12)
    assert column[3] == pytest.approx(lodf_via_forests(triangle, 3, 1), abs=1e-12)
    assert column[2] == pytest.approx(lodf_via_forests(triangle, 2, 1), abs=1e-12)


def test_lodf_single_four_cycle(four_cycle):
    column = lodf_single(four_cycle, 1)
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
    with pytest.raises(BridgeError):
        lodf_single(path3, 1)


def test_lodf_single_equals_the_per_line_division():
    net = random_network(np.random.default_rng(29), max_nodes=9, min_extra=3)
    D = net.sensitivity.matrix
    decomposition = block_decomposition(net)
    for tripped in set(net.ids) - set(decomposition.bridges):
        col = net.edge_index(tripped)
        expected = {
            line: float(D[k, col] / (1.0 - D[col, col]))
            for k, line in enumerate(net.ids)
            if line != tripped
        }
        column = lodf_single(net, tripped)
        assert list(column) == list(expected) and column == expected


def k_stack(outage):
    return GlodfResult(outage, "pre_contingency", outage.network.sensitivity.columns(outage.outaged_idx)).k_stack


def test_lodf_stack_singleton_matches_single(triangle):
    outage = OutageSet(triangle, [1])
    stack = k_stack(outage)
    column = lodf_single(triangle, 1)
    for row, line in enumerate(outage.surviving):
        assert stack[row, 0] == pytest.approx(column[line], abs=1e-15)


def test_lodf_stack_columns_are_single_line_factors(triangle):
    outage = OutageSet(triangle, [1, 2])  # a cut, yet each tripped line alone is not a bridge
    stack = k_stack(outage)
    assert stack.shape == (1, 2)
    for col, tripped in enumerate(outage.outaged):
        column = lodf_single(triangle, tripped)
        for row, line in enumerate(outage.surviving):
            assert stack[row, col] == pytest.approx(column[line], abs=1e-15)


def test_lodf_stack_bridge_raises(path3):
    with pytest.raises(BridgeError):
        lodf_single(path3, 1)
    with pytest.raises(CutSetError):
        glodf(None, None, None, OutageSet(path3, [1]))


@pytest.mark.parametrize("caller", ["lodf_single", "lodf_stack", "influence_graph",
                                    "adversarial_capacity"])
def test_stiff_line_that_is_not_a_bridge_is_singular(caller):
    # 1 - D_11 rounds to -1.1e-8 on this triangle, which has no bridges.
    net = build(stiff_triangle_doc())
    decomposition = block_decomposition(net)
    assert not decomposition.bridges
    call = {
        "lodf_single": lambda: lodf_single(net, 1),
        "lodf_stack": lambda: glodf(None, None, None, OutageSet(net, [1]), method="post_contingency").k_stack,
        "influence_graph": lambda: influence_graph(net, 0.05),
        "adversarial_capacity": lambda: adversarial_capacity(net, 1, 2),
    }[caller]
    with pytest.raises(SingularError, match="not a bridge"):
        call()


def test_matrix_is_its_single_columns_bit_for_bit_across_batches():
    net, twin = build(grid_doc(20)), build(grid_doc(20))  # m = 760: many column batches
    assert net.m > 2 * factors._BATCH and twin == net
    matrix = net.sensitivity.matrix
    columns = np.hstack([twin.sensitivity.columns([k]) for k in range(net.m)])  # twin's D holds no matrix
    assert "matrix" not in twin.sensitivity.__dict__
    assert matrix.flags.f_contiguous
    assert np.array_equal(matrix.view(np.int64), columns.view(np.int64))


def test_ptdf_matrix_holds_little_beyond_the_matrix():
    net = build(grid_doc(20))
    net.sensitivity  # built before tracing, factor and blocks too: only the matrix read is measured
    tracemalloc.start()
    try:
        ptdf = ptdf_matrix(None, net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ptdf is net.sensitivity  # the network's one D, its bundle argument unread
    assert peak < 1.5 * ptdf.matrix.nbytes  # no m x m temporaries beside it


def test_entry_reads_one_column(triangle):
    twin = build(triangle_doc())
    held = triangle.sensitivity
    held.matrix
    col, row = triangle.edge_index(1), triangle.edge_index(3)
    assert twin == triangle and twin.sensitivity.columns([col])[row, 0] == held.columns([col])[row, 0]
    assert "matrix" not in twin.sensitivity.__dict__
    with pytest.raises(UnknownEdgeError, match="unknown edge id 9"):
        twin.sensitivity.columns([twin.edge_index(1)])[twin.edge_index(9), 0]


def test_outage_set_validation(triangle):
    with pytest.raises(ValidationError):
        OutageSet(triangle, [])
    with pytest.raises(ValidationError):
        OutageSet(triangle, [1, 2, 3])
    with pytest.raises(UnknownEdgeError):
        OutageSet(triangle, [9])


def test_glodf_singleton_matches_lodf(triangle):
    outage = OutageSet(triangle, [1])
    result = glodf(None, None, None, outage, method="cross_check")
    column = lodf_single(triangle, 1)
    for row, line in enumerate(outage.surviving):
        assert result.k_matrix[row, 0] == pytest.approx(column[line], abs=1e-12)
    assert max(result.residuals.values()) < 1e-12


def test_glodf_unknown_method_raises(triangle):
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        glodf(None, None, None, OutageSet(triangle, [1]), method="nope")


def test_glodf_cut_set_raises(triangle):
    with pytest.raises(CutSetError):
        glodf(None, None, None, OutageSet(triangle, [1, 2]))


def test_glodf_cross_block_outage_matches_single_lines(fig2):
    # One line tripped in each of two different blocks: the coupled factors
    # collapse to the per-line ones.
    outage = OutageSet(fig2, [1, 6])
    result = glodf(None, None, None, outage, method="cross_check")
    assert np.max(np.abs(result.k_matrix - result.k_stack)) < 1e-9
    assert max(result.residuals.values()) < 1e-9


def test_glodf_same_block_outage_is_not_superposition(k4):
    outage = OutageSet(k4, [1, 2])
    result = glodf(None, None, None, outage, method="cross_check")
    assert np.max(np.abs(result.k_matrix - result.k_stack)) > 0.01
    assert max(result.residuals.values()) < 1e-9


def test_glodf_reads_no_other_networks_ptdf(k4):
    # The same topology under other weights: glodf answers for the outage's network alone.
    doc = k4_doc()
    for edge, b in zip(doc["edges"], np.linspace(1.0, 4.0, len(doc["edges"]))):
        edge["b"] = float(b)
    other = build(doc)
    assert other.ids == k4.ids and other.b != k4.b
    outage = OutageSet(k4, [1])
    for method in factors.GLODF_METHODS:
        own = glodf(build_laplacian(k4), ptdf_matrix(build_laplacian(k4), k4), k4, outage, method)
        mixed = glodf(build_laplacian(other), ptdf_matrix(build_laplacian(other), other), other, outage, method)
        assert np.array_equal(mixed.k_matrix, own.k_matrix), method


def test_glodf_methods_agree_on_random_instances():
    rng = np.random.default_rng(107)
    tested = 0
    while tested < 25:
        net = random_network(rng, min_extra=1)
        outage_ids = sample_non_cut_outage(rng, net)
        if outage_ids is None:
            continue
        result = glodf(None, None, None, OutageSet(net, outage_ids), method="cross_check")
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
    d_cols = net.sensitivity.columns(outage.outaged_idx)
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
    net.sensitivity.matrix  # held, as a screening caller holds it
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
        patched.setattr(factors.lapack, "dgesv", spy("dgesv", factors.lapack.dgesv))  # the kernel's solve
        result = glodf(None, None, None, outage, method="pre_contingency")
    assert result.k_matrix.shape == (net.m - 3, 3)
    assert shapes and set(shapes) == {(3, 3)}


#: Couplings up to this size solve bit for bit as np.linalg.inv does.  numpy and scipy wheels bundle
#: OpenBLAS builds of their own (0.3.31 and 0.3.30 in the ones tested), whose LU factors part in the
#: last bits from 6 x 6 on (about 7% of random 6 x 6 couplings); there the kernel is held to rounding.
SAME_BITS_AS_INV = 5


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(0, 50), st.integers(0, 2**32 - 1))
def test_glodf_kernel_is_the_inverse_product_of_numpy(k, rows, seed):
    rng = np.random.default_rng(seed)
    d_ff = rng.normal(size=(k, k)) * 10.0 ** rng.uniform(-3, 3)
    d_ff[rng.random((k, k)) < 0.3] = 0.0
    numerator = rng.normal(size=(rows, k))
    zeroed = rng.random(rows) < 0.3
    numerator[zeroed] = rng.choice([0.0, -0.0], size=(int(zeroed.sum()), 1))
    if rng.random() < 0.5:
        numerator = np.asfortranarray(numerator)  # the layout of the surviving rows of D[:, F]
    coupling = np.eye(k) - d_ff
    try:
        expected = numerator @ np.linalg.inv(coupling)
    except np.linalg.LinAlgError:
        with pytest.raises(SingularError, match="I - D_FF is numerically singular"):
            factors._glodf_kernel(numerator, d_ff)
        return
    kernel = factors._glodf_kernel(numerator, d_ff)
    if k <= SAME_BITS_AS_INV:
        assert kernel.tobytes() == expected.tobytes()
    else:
        bound = 1e-13 * np.linalg.cond(coupling) * max(1.0, float(np.max(np.abs(expected), initial=0.0)))
        assert np.max(np.abs(kernel - expected), initial=0.0) <= bound


def test_glodf_kernel_refuses_a_singular_coupling_and_takes_an_empty_one():
    with pytest.raises(SingularError) as refused:
        factors._glodf_kernel(np.ones((4, 1)), np.array([[1.0]]))
    assert str(refused.value) == "I - D_FF is numerically singular: Singular matrix"
    assert factors._glodf_kernel(np.zeros((7, 0)), np.zeros((0, 0))).shape == (7, 0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_outage_views_gather_the_surviving_rows_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, min_extra=1)
    lines = sample_non_cut_outage(rng, net)
    if lines is None:
        return
    outage = OutageSet(net, lines)
    result = glodf(None, None, None, outage, method="cross_check")
    rows, cols, d_cols = outage.surviving_idx, outage.outaged_idx, result.d_cols
    post = factors.surviving_factor(net, cols).sensitivity_columns(cols)[rows]
    assert result.pre_contingency.tobytes() == factors._glodf_kernel(d_cols[rows], d_cols[cols]).tobytes()
    assert result.post_contingency.tobytes() == post.tobytes()
    assert result.k_stack.tobytes() == factors._lodf_columns(d_cols[rows], np.diag(d_cols[cols])).tobytes()


def test_apply_outage_triangle(triangle):
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
        outage = OutageSet(net, outage_ids)
        result = glodf(None, None, None, outage)
        p = random_balanced_injection(rng, net.n)
        pre, post = apply_outage(p, outage)
        predicted = pre.flows[outage.surviving_idx] + result.k_matrix @ pre.flows[outage.outaged_idx]
        scale = max(1.0, float(np.max(np.abs(pre.flows))))
        assert np.max(np.abs(post.flows[outage.surviving_idx] - predicted)) < 1e-9 * scale
        # Conservation on the surviving network.
        C = incidence_matrix(net)
        assert np.max(np.abs(C[:, outage.surviving_idx] @ post.flows[outage.surviving_idx] - p)) < 1e-9 * scale
        tested += 1


def test_apply_outage_cut_set_raises(triangle):
    cut = OutageSet(triangle, [1, 3])
    with pytest.raises(UnbalancedInjectionError):  # a bad p is refused before a cut
        apply_outage([1.0, 0.0, 0.0], cut)
    with pytest.raises(CutSetError):
        apply_outage(injection_vector(triangle), cut)


def test_characteristic_injection_triangle(triangle):
    flows = solve_flow(triangle.factor, triangle, incidence_matrix(triangle)[:, 0]).flows
    assert flows[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_characteristic_injection_path(path3):
    flows = solve_flow(path3.factor, path3, incidence_matrix(path3)[:, 0]).flows
    assert np.max(np.abs(flows - np.array([1.0, 0.0]))) < 1e-12


def test_characteristic_injection_equals_ptdf_column():
    rng = np.random.default_rng(113)
    for _ in range(10):
        net = random_network(rng)
        for line in net.ids:
            flows = solve_flow(net.factor, net, incidence_matrix(net)[:, net.edge_index(line)]).flows
            column = net.sensitivity.matrix[:, net.edge_index(line)]
            assert np.max(np.abs(flows - column)) < 1e-9
            assert flows[net.edge_index(line)] > 0.0


def test_detect_islanding_examples(triangle, path3):
    assert detect_islanding(OutageSet(triangle, [1, 3]))
    assert not detect_islanding(OutageSet(triangle, [1]))
    assert detect_islanding(OutageSet(path3, [1]))


def test_detect_islanding_agrees_with_cut_set_check():
    rng = np.random.default_rng(127)
    for _ in range(10):
        net = random_network(rng, max_nodes=6, max_extra=4)
        if net.m > 10:
            continue
        ids = net.ids
        for size in (1, 2):
            if size >= net.m:
                continue
            for subset in itertools.combinations(ids, size):
                assert detect_islanding(OutageSet(net, subset)) == is_cut_set(
                    net, subset
                )


def test_lodf_is_injection_independent():
    rng = np.random.default_rng(131)
    tested = 0
    while tested < 8:
        net = random_network(rng, min_extra=1)
        decomposition = block_decomposition(net)
        non_bridges = [line for line in net.ids if line not in decomposition.bridges]
        if not non_bridges:
            continue
        tripped = non_bridges[0]
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
        tested += 1


def test_glodf_computes_the_stacked_factors_only_when_read(monkeypatch):
    net = build(grid_doc(20))
    outage = OutageSet(net, [200, 571, 591])

    def refuse(*args):
        raise AssertionError("the stacked factors were computed")

    with monkeypatch.context() as patched:
        patched.setattr(factors, "_lodf_columns", refuse)
        result = glodf(None, None, None, outage, method="pre_contingency")
    assert np.array_equal(result.k_stack, k_stack(outage))
    assert result.k_stack is result.k_stack


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_each_method_is_its_view_of_a_cross_check(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8)
    lines = sample_non_cut_outage(rng, net)
    if lines is None:
        return
    outage = OutageSet(net, lines)
    checked = glodf(None, None, None, outage, method="cross_check")
    for method in factors.GLODF_METHODS:
        view = checked.k_matrix if method == "cross_check" else getattr(checked, method)
        k_matrix = glodf(None, None, None, outage, method=method).k_matrix
        assert np.array_equal(k_matrix.view(np.int64), view.view(np.int64)), method


@pytest.mark.parametrize("method", factors.GLODF_METHODS)
def test_glodf_raises_a_singular_coupling_when_called(monkeypatch, method):
    net = build(grid_doc(3))
    outage = OutageSet(net, [1, 12])

    def singular(*args):
        raise SingularError("I - D_FF is numerically singular")

    monkeypatch.setattr(factors, "_glodf_kernel", singular)
    if method == "post_contingency":  # the surviving grid's solve runs no kernel
        assert glodf(None, None, None, outage, method=method).k_matrix.shape == (net.m - 2, 2)
    else:
        with pytest.raises(SingularError):
            glodf(None, None, None, outage, method=method)
