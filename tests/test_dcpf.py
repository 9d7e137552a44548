import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    LaplacianBundle,
    Network,
    OutageSet,
    PerturbationSpec,
    SingularError,
    UnbalancedInjectionError,
    ValidationError,
    almost_sure_nonzero_test,
    apply_outage,
    block_decomposition,
    build_laplacian,
    glodf,
    injection_vector,
    run_cascade,
    solve_flow,
)
from gridfactor import dcpf, factors
from gridfactor.dcpf import surviving_flow
from gridfactor.net_model import PERTURBATION, RTOL, incidence_columns, scaled_tolerance

from conftest import (
    build,
    exact_weight,
    grid_doc,
    incidence_matrix,
    kept_lines,
    random_balanced_injection,
    random_network,
    reference_separates_oracle,
    sample_non_cut_outage,
    scan,
    with_capacities,
    with_susceptances,
    without_edges,
)


def test_triangle_a_matrix(triangle):
    bundle = build_laplacian(triangle)
    expected = np.array([
        [2.0 / 3.0, 1.0 / 3.0, 0.0],
        [1.0 / 3.0, 2.0 / 3.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    assert np.max(np.abs(bundle.A - expected)) < 1e-12


def test_single_edge_a_matrix():
    net = build({"nodes": [1, 2], "edges": [{"from": 1, "to": 2, "b": 5.0}]})
    bundle = build_laplacian(net)
    assert np.max(np.abs(bundle.A - np.array([[0.2, 0.0], [0.0, 0.0]]))) < 1e-15


def test_laplacian_zero_row_sums():
    # Each row of L sums to zero, so a row of the reduced L sums to the
    # weight of the lines joining its node to the reference.
    rng = np.random.default_rng(3)
    for _ in range(15):
        net = random_network(rng)
        reduced = build_laplacian(net).reduced.toarray()
        ref = net.reference_index()
        to_reference = np.zeros(net.n)
        for s, t, b in zip(*net.endpoints, net.b):
            if ref in (s, t):
                to_reference[s + t - ref] += b
        assert np.max(np.abs(reduced @ np.ones(net.n - 1) - np.delete(to_reference, ref))) < 1e-12
        assert np.max(np.abs(reduced - reduced.T)) < 1e-12


def test_a_reference_row_and_column_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = random_network(rng)
        bundle = build_laplacian(net)
        ref = net.reference_index()
        assert np.array_equal(bundle.A[ref, :], np.zeros(net.n))
        assert np.array_equal(bundle.A[:, ref], np.zeros(net.n))


def test_a_entries_nonnegative_zero_iff_reference_separates():
    rng = np.random.default_rng(17)
    for _ in range(12):
        net = random_network(rng, max_nodes=8)
        bundle = build_laplacian(net)
        assert bundle.A.min() > -1e-12
        for i in net.nodes:
            for j in net.nodes:
                value = bundle.A[net.node_index(i), net.node_index(j)]
                if reference_separates_oracle(net, i, j):
                    assert abs(value) < 1e-12
                else:
                    assert value > 1e-12


def test_solve_flow_triangle(triangle):
    bundle = build_laplacian(triangle)
    state = solve_flow(bundle, triangle, injection_vector(triangle))
    assert np.max(np.abs(state.flows - np.array([2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0]))) < 1e-12
    assert state.theta[triangle.reference_index()] == 0.0


def test_solve_flow_zero_injection(triangle):
    bundle = build_laplacian(triangle)
    state = solve_flow(bundle, triangle, np.zeros(3))
    assert np.array_equal(state.theta, np.zeros(3))
    assert np.array_equal(state.flows, np.zeros(3))


def test_solve_flow_path(path3):
    bundle = build_laplacian(path3)
    state = solve_flow(bundle, path3, [1.0, 0.0, -1.0])
    assert np.max(np.abs(state.flows - np.array([1.0, 1.0]))) < 1e-12


def test_solve_flow_satisfies_both_dc_equations():
    rng = np.random.default_rng(29)
    for _ in range(15):
        net = random_network(rng)
        bundle = build_laplacian(net)
        p = random_balanced_injection(rng, net.n)
        state = solve_flow(bundle, net, p)
        C = incidence_matrix(net)
        scale = max(1.0, float(np.max(np.abs(p))))
        assert np.max(np.abs(C @ state.flows - p)) < 1e-9 * scale
        ohm = net.susceptances() * (C.T @ state.theta)
        assert np.max(np.abs(state.flows - ohm)) < 1e-9 * scale


def test_unbalanced_injection_rejected(triangle):
    bundle = build_laplacian(triangle)
    with pytest.raises(UnbalancedInjectionError):
        solve_flow(bundle, triangle, [1.0, 0.0, 0.0])


def test_quadratic_form_identity_between_pseudo_inverse_and_a():
    rng = np.random.default_rng(37)
    for _ in range(10):
        net = random_network(rng)
        C = incidence_matrix(net)
        ldag, A = np.linalg.pinv(C @ np.diag(net.susceptances()) @ C.T), build_laplacian(net).A
        for source, target in zip(net.sources, net.targets):
            i = net.node_index(source)
            j = net.node_index(target)
            lhs = ldag[i, i] + ldag[j, j] - ldag[i, j] - ldag[j, i]
            rhs = A[i, i] + A[j, j] - A[i, j] - A[j, i]
            assert abs(lhs - rhs) < 1e-9


def test_reduced_determinant_matches_tree_weight():
    # At every reference bus: the reduced Laplacian is positive definite, so
    # |product of pivots| is its determinant.
    rng = np.random.default_rng(41)
    for _ in range(12):
        net = random_network(rng)
        total = float(exact_weight(net, scan(net, net.n - 1)))
        for node in net.nodes:
            determinant = build_laplacian(replace(net, reference=node)).reduced_determinant
            assert determinant > 0
            assert abs(determinant - total) < 1e-9 * max(1.0, total)


def test_singular_error_on_disconnected_graph():
    net = Network(nodes=(1, 2, 3, 4), sources=(1, 3), targets=(2, 4),
                  b=(1.0, 1.0), cap=(math.inf, math.inf), reference=4)
    with pytest.raises(SingularError):
        build_laplacian(net)


def test_large_grid_builds_without_overflow_warning():
    # With b=2 the reduced determinant of a 25x25 grid (n=625) is 2^624 times
    # its ~1e297 spanning trees, past float range: it reads +inf, with no
    # warning on every build.
    net = build(grid_doc(25, b=2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bundle = build_laplacian(net)
    assert bundle.reduced_determinant == np.inf


def test_solves_never_build_the_inverse(monkeypatch, k4):
    bundle = build_laplacian(k4)

    def refuse(self):
        raise AssertionError("the dense inverse A was built")

    monkeypatch.setattr(LaplacianBundle, "A", property(refuse), raising=False)
    p = [1.0, 0.5, -0.5, -1.0]
    outage = OutageSet(k4, [1, 2])
    solve_flow(bundle, k4, p)
    apply_outage(p, outage)
    glodf(None, None, None, outage, method="post_contingency")
    # Trips line 2, then line 4, then settles: three re-solves.
    armed = with_capacities(k4, [0.3, 0.3, 1.0, 0.3, 0.6, 0.6])
    assert [stage.tripped for stage in run_cascade(armed, p, [1]).stages] == [{1}, {2}, {4}]


def _copied_network_flow(net, p, tripped_ids):
    """The reference re-solve: factor a copy of the network without the tripped lines."""
    surviving = without_edges(net, tripped_ids)
    state = solve_flow(build_laplacian(surviving), surviving, p)
    flows = np.zeros(net.m)
    flows[kept_lines(net, tripped_ids)] = state.flows
    return state.theta, flows


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_zeroed_weights_match_the_copied_network(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8, min_extra=1)
    net = replace(net, reference=int(rng.choice(net.nodes)))  # the reference's row anywhere in node order
    bundle = build_laplacian(net)
    columns = rng.permutation(net.m)[:rng.integers(1, net.m + 1)]
    by_incidence = bundle.branch_flows(bundle.solve(incidence_columns(net, columns)))
    assert by_incidence.tobytes() == bundle.sensitivity_columns(columns).tobytes()
    lines = sample_non_cut_outage(rng, net)
    if lines is None:
        return
    outage = OutageSet(net, lines)
    p = random_balanced_injection(rng, net.n)

    state = surviving_flow(net, p, outage.outaged_idx)
    theta, flows = _copied_network_flow(net, p, outage.outaged)
    assert np.array_equal(state.theta, theta)
    assert np.array_equal(state.flows, flows)
    assert not np.any(np.signbit(state.flows[outage.outaged_idx]))

    k_matrix = glodf(None, None, None, outage, "post_contingency").k_matrix
    reduced = build_laplacian(without_edges(net, outage.outaged))
    c_out = incidence_columns(net, outage.outaged_idx)
    assert np.array_equal(k_matrix, reduced.branch_flows(reduced.solve(c_out)))


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_ptdf_is_zero_across_blocks_and_its_columns_are_its_matrix(seed, batch):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=12, max_extra=10)
    twin = replace(net)  # an equal network whose D holds no matrix: its columns are solved
    with mock.patch.object(factors, "_BATCH", batch):  # the matrix filled a few columns per solve
        D = net.sensitivity.matrix
    single = np.hstack([twin.sensitivity.columns([k]) for k in range(net.m)])
    assert np.array_equal(D.view(np.int64), single.view(np.int64))
    block = block_decomposition(net).block_at
    across = block[:, None] != block[None, :]
    assert np.array_equal(D[across].view(np.int64), np.zeros(np.count_nonzero(across), dtype=np.int64))
    C = incidence_matrix(net)
    product = net.susceptances()[:, None] * (C.T @ net.factor.A @ C)
    error = np.max(np.abs(D - product)[~across])
    assert error <= scaled_tolerance(float(np.max(np.abs(product))))
    positions = rng.integers(0, net.m, size=int(rng.integers(1, net.m + 1)))
    columns = twin.sensitivity.columns(positions)
    assert "matrix" not in twin.sensitivity.__dict__
    assert np.array_equal(columns.view(np.int64), D[:, positions].view(np.int64))


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_stored_outage_columns_are_the_line_solve_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=12, max_extra=10)
    net = replace(net, reference=int(rng.choice(net.nodes)))  # the reference's row anywhere in node order
    bundle = net.factor
    for _ in range(4):  # overlapping outages, each in an order of its own
        tripped = rng.permutation(net.m)[:rng.integers(1, net.m + 1)]
        stored, solved = bundle.outage_columns(tripped), bundle.line_solve(tripped)
        assert stored.tobytes() == solved.tobytes() and stored.strides == solved.strides
    for column in bundle._columns.values():  # each its own read-only n-vector
        assert column.base is None and column.shape == (net.n,) and not column.flags.writeable


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_reweighted_columns_match_a_factor_of_the_perturbed_weights(seed, trials):
    # up to 40 trials of up to 3 lines: 120 columns, several chunks of _BATCH
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8)
    lines = rng.choice(net.m, int(rng.integers(1, min(3, net.m) + 1)), replace=False)
    draws = [net.susceptances() * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION, net.m)) for _ in range(trials)]
    positions, weights = np.tile(lines, trials), np.repeat(np.column_stack(draws), len(lines), 1)
    chunks = range(0, len(positions), factors._BATCH)
    refined = np.hstack([net.factor.reweighted_columns(positions[start:start + factors._BATCH],
                                                       weights[:, start:start + factors._BATCH])
                         for start in chunks])
    for trial, w in enumerate(draws):
        got = refined[:, trial * len(lines):(trial + 1) * len(lines)]
        want = build_laplacian(net, w).sensitivity_columns(lines)
        assert np.max(np.abs(got - want)) <= RTOL * max(1.0, np.max(np.abs(want)))
        alone = net.factor.reweighted_columns(lines, np.repeat(w[:, None], len(lines), 1))
        assert got.tobytes() == alone.tobytes()  # a column's bits do not depend on its chunk
    flows = refined[:, :len(lines)]
    for j in range(len(lines)):  # the stack's nodal map is each column's, bit for bit
        assert net.factor.injections(flows)[:, j].tobytes() == net.factor.injections(flows[:, j]).tobytes()


def test_the_outage_column_store_drops_the_least_recently_used_past_its_budget(monkeypatch):
    net = build(grid_doc(4))  # n = 16, m = 24
    bundle, k, rng = net.factor, 3, np.random.default_rng(7)
    monkeypatch.setattr(dcpf, "COLUMN_STORE_BYTES", k * 8 * net.n)
    bundle.outage_columns([0, 1, 2])
    bundle.outage_columns([0])
    bundle.outage_columns([3])  # line 1 is the least recently used
    assert list(bundle._columns) == [2, 0, 3]
    model = [2, 0, 3]
    for size in rng.integers(1, 2 * k + 1, 40):  # outages narrower and wider than the store
        tripped = rng.choice(net.m, size, replace=False)
        assert bundle.outage_columns(tripped).tobytes() == bundle.line_solve(tripped).tobytes()
        model = [line for line in model if line not in tripped] + tripped.tolist()
        assert list(bundle._columns) == model[-k:]
        assert sum(column.nbytes for column in bundle._columns.values()) <= dcpf.COLUMN_STORE_BYTES


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
def test_susceptances_of_the_wrong_shape_are_refused(triangle, shape):
    with pytest.raises(ValidationError, match="expected 3 susceptances"):
        build_laplacian(triangle, np.ones(shape))
    with pytest.raises(ValidationError, match="expected 3 susceptances"):
        LaplacianBundle(triangle, np.ones(shape))


def test_given_susceptances_are_copied(triangle):
    weights = np.array([2.0, 3.0, 4.0])
    bundle = build_laplacian(triangle, weights)
    weights[:] = 1.0
    assert bundle.b.tolist() == [2.0, 3.0, 4.0]
    copied = build_laplacian(with_susceptances(triangle, [2.0, 3.0, 4.0]))
    assert np.array_equal(bundle.reduced.toarray(), copied.reduced.toarray())


def test_outage_paths_copy_no_network(monkeypatch):
    net = build(grid_doc(3))
    p = random_balanced_injection(np.random.default_rng(4), net.n)
    armed = with_capacities(net, np.abs(solve_flow(build_laplacian(net), net, p).flows) + 1e-3)
    outage = OutageSet(armed, [1, 12])

    def refuse(*args, **kwargs):
        raise AssertionError("a network copy was built")

    monkeypatch.setattr(Network, "__init__", refuse)
    _, post = apply_outage(p, outage)
    assert np.array_equal(post.flows[outage.outaged_idx], [0.0, 0.0])
    trace = run_cascade(armed, p, [1])
    assert len(trace.stages) > 1 and trace.stages[0].flow is not None
    k_matrix = glodf(None, None, None, outage, method="post_contingency").k_matrix
    assert k_matrix.shape == (armed.m - 2, 2)
    stats = almost_sure_nonzero_test(outage, PerturbationSpec(trials=3))
    assert stats.trials == 3


@pytest.mark.parametrize("weights", [[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [-1.0, 1.0, 1.0]])
def test_nonfinite_or_negative_weights_are_refused(triangle, weights):
    with pytest.raises(ValidationError, match="finite and non-negative"):
        build_laplacian(triangle, weights)


def test_factor_and_solve_hold_no_dense_matrix():
    # n = 1600: one dense n x n array is 20 MB, the sparse factor well under 1 MB.
    net = build(grid_doc(40))
    p = random_balanced_injection(np.random.default_rng(2), net.n)
    net.endpoints  # the network's own topology index, built before tracing
    tracemalloc.start()
    try:
        solve_flow(build_laplacian(net), net, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
