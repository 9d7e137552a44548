import warnings

import numpy as np
import pytest

from gridfactor import (
    Edge,
    LaplacianBundle,
    Network,
    OutageSet,
    SingularError,
    UnbalancedInjectionError,
    apply_outage,
    build_laplacian,
    enumerate_spanning_trees,
    glodf,
    incidence_matrix,
    injection_vector,
    ptdf_matrix,
    pseudo_inverse_flow,
    run_cascade,
    solve_flow,
)

from conftest import (
    build,
    grid_doc,
    random_balanced_injection,
    random_network,
    reference_separates_oracle,
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
    rng = np.random.default_rng(3)
    for _ in range(15):
        net = random_network(rng)
        bundle = build_laplacian(net)
        assert np.max(np.abs(bundle.L @ np.ones(net.n))) < 1e-12
        assert np.max(np.abs(bundle.L - bundle.L.T)) < 1e-12


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
    with pytest.raises(UnbalancedInjectionError):
        pseudo_inverse_flow(bundle, triangle, [1.0, 0.0, 0.0])


def test_pseudo_inverse_flows_match(triangle):
    bundle = build_laplacian(triangle)
    p = injection_vector(triangle)
    assert np.max(np.abs(
        pseudo_inverse_flow(bundle, triangle, p).flows - solve_flow(bundle, triangle, p).flows
    )) < 1e-12


def test_pseudo_inverse_zero_injection(triangle):
    bundle = build_laplacian(triangle)
    assert np.array_equal(pseudo_inverse_flow(bundle, triangle, np.zeros(3)).flows, np.zeros(3))


def test_pseudo_inverse_angles_differ_by_constant():
    rng = np.random.default_rng(31)
    for _ in range(15):
        net = random_network(rng)
        bundle = build_laplacian(net)
        p = random_balanced_injection(rng, net.n)
        pinned = solve_flow(bundle, net, p)
        floating = pseudo_inverse_flow(bundle, net, p)
        assert np.max(np.abs(floating.flows - pinned.flows)) < 1e-9
        shift = floating.theta - pinned.theta
        assert np.max(np.abs(shift - shift[0])) < 1e-9


def test_quadratic_form_identity_between_pseudo_inverse_and_a():
    rng = np.random.default_rng(37)
    for _ in range(10):
        net = random_network(rng)
        bundle = build_laplacian(net)
        ldag, A = bundle.ldag, bundle.A
        for edge in net.edges:
            i = net.node_index(edge.source)
            j = net.node_index(edge.target)
            lhs = ldag[i, i] + ldag[j, j] - ldag[i, j] - ldag[j, i]
            rhs = A[i, i] + A[j, j] - A[i, j] - A[j, i]
            assert abs(lhs - rhs) < 1e-9


def test_reduced_determinant_matches_tree_weight():
    rng = np.random.default_rng(41)
    for _ in range(12):
        net = random_network(rng)
        bundle = build_laplacian(net)
        total = enumerate_spanning_trees(net).weight_sum
        assert abs(bundle.reduced_determinant - total) < 1e-9 * max(1.0, total)


def test_singular_error_on_disconnected_graph():
    net = Network(
        nodes=(1, 2, 3, 4),
        edges=(Edge(1, 1, 2, 1.0), Edge(2, 3, 4, 1.0)),
        reference=4,
    )
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
    ptdf = ptdf_matrix(bundle, k4)

    def refuse(self):
        raise AssertionError("the dense inverse A was built")

    monkeypatch.setattr(LaplacianBundle, "A", property(refuse), raising=False)
    p = [1.0, 0.5, -0.5, -1.0]
    outage = OutageSet(k4, [1, 2])
    solve_flow(bundle, k4, p)
    apply_outage(bundle, k4, p, outage)
    glodf(bundle, ptdf, k4, outage, method="post_contingency")
    # Trips line 2, then line 4, then settles: three re-solves.
    armed = k4.with_capacities([0.3, 0.3, 1.0, 0.3, 0.6, 0.6])
    assert run_cascade(armed, p, [1]).tripped_by_stage() == ({1}, {2}, {4})
