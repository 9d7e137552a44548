import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    BridgeError,
    Edge,
    Network,
    SingularError,
    TooLargeError,
    a_entry_via_forests,
    build_laplacian,
    effective_reactance,
    enumerate_spanning_trees,
    enumerate_two_tree_forests,
    lodf_via_forests,
    matrix_tree_check,
    ptdf_matrix,
    ptdf_via_forests,
)
from gridfactor import forests
from gridfactor.cli import run

from conftest import build, grid_doc, k4_doc, random_network


def test_triangle_spanning_trees(triangle):
    family = enumerate_spanning_trees(triangle)
    assert family.members == ((1, 2), (1, 3), (2, 3))
    assert family.weight_sum == 3.0
    assert family.weight_sum_exact == 3


def test_triangle_trees_restricted(triangle):
    family = enumerate_spanning_trees(triangle, allowed_edges={2, 3})
    assert family.members == ((2, 3),)


def test_path_single_tree(path3):
    family = enumerate_spanning_trees(path3)
    assert family.members == ((1, 2),)
    assert family.weight_sum == 1.0


def test_two_tree_forests_triangle(triangle):
    family = enumerate_two_tree_forests(triangle, {1}, {3})
    assert family.members == ((1,), (2,))
    family = enumerate_two_tree_forests(triangle, {1, 2}, {3})
    assert family.members == ((1,),)


def test_two_tree_forests_overlap_empty(triangle):
    family = enumerate_two_tree_forests(triangle, {1}, {1})
    assert family.members == ()
    assert family.weight_sum == 0.0


def test_two_tree_forest_counts_match_structure():
    rng = np.random.default_rng(43)
    for _ in range(8):
        net = random_network(rng, max_nodes=6)
        family = enumerate_two_tree_forests(net, {net.nodes[0]}, {net.nodes[-1]})
        for member in family.members:
            assert len(member) == net.n - 2


def test_a_entries_triangle(triangle):
    assert a_entry_via_forests(triangle, 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert a_entry_via_forests(triangle, 1, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert a_entry_via_forests(triangle, 1, 3) == 0.0


def test_a_entries_match_dense_inverse():
    rng = np.random.default_rng(47)
    for _ in range(10):
        net = random_network(rng, max_nodes=7)
        bundle = build_laplacian(net)
        for i in net.nodes:
            for j in net.nodes:
                dense = bundle.A[net.node_index(i), net.node_index(j)]
                oracle = a_entry_via_forests(net, i, j)
                assert abs(dense - oracle) < 1e-9 * max(1.0, abs(dense))


def test_ptdf_via_forests_examples(triangle, path3):
    assert ptdf_via_forests(triangle, 1, 1, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ptdf_via_forests(path3, 2, 1, 2) == 0.0
    assert ptdf_via_forests(path3, 1, 1, 2) == 1.0


def test_ptdf_via_forests_matches_algebra_for_node_pairs():
    rng = np.random.default_rng(53)
    for _ in range(6):
        net = random_network(rng, max_nodes=6)
        bundle = build_laplacian(net)
        for edge in net.edges:
            i = net.node_index(edge.source)
            j = net.node_index(edge.target)
            for a in net.nodes:
                for b in net.nodes:
                    if a == b:
                        continue
                    ia, ib = net.node_index(a), net.node_index(b)
                    algebraic = edge.susceptance * (
                        bundle.A[i, ia] + bundle.A[j, ib] - bundle.A[i, ib] - bundle.A[j, ia]
                    )
                    oracle = ptdf_via_forests(net, edge.id, a, b)
                    assert abs(algebraic - oracle) < 1e-9 * max(1.0, abs(algebraic))


def test_lodf_via_forests_triangle(triangle):
    assert lodf_via_forests(triangle, 3, 1) == pytest.approx(1.0, abs=1e-15)
    assert lodf_via_forests(triangle, 2, 1) == pytest.approx(-1.0, abs=1e-15)


def test_lodf_via_forests_ring_is_negative():
    ring6 = build({
        "nodes": [1, 2, 3, 4, 5, 6],
        "edges": [{"from": k, "to": (k % 6) + 1, "b": 1.0} for k in range(1, 7)],
    })
    for s in range(2, 7):
        assert lodf_via_forests(ring6, s, 1) < 0


def test_lodf_via_forests_bridge_raises(path3):
    with pytest.raises(BridgeError):
        lodf_via_forests(path3, 2, 1)


def test_lodf_via_forests_identical_lines(triangle):
    with pytest.raises(ValueError):
        lodf_via_forests(triangle, 1, 1)


def test_adjacent_lines_have_definite_factor_sign():
    # Lines sharing a bus leave one orientation family empty, so the factor
    # sign is fixed: nonnegative when the shared bus occupies the same
    # endpoint slot on both lines, nonpositive when the slots are mismatched.
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(10):
        net = random_network(rng, max_nodes=7, min_extra=1)
        for hat in net.edges:
            others = enumerate_spanning_trees(net, allowed_edges=set(net.edge_ids()) - {hat.id})
            if not others.members:
                continue
            for edge in net.edges:
                if edge.id == hat.id:
                    continue
                shared = {edge.source, edge.target} & {hat.source, hat.target}
                if not shared:
                    continue
                fwd = enumerate_two_tree_forests(
                    net, {edge.source, hat.source}, {edge.target, hat.target}
                )
                rev = enumerate_two_tree_forests(
                    net, {edge.source, hat.target}, {edge.target, hat.source}
                )
                assert not fwd.members or not rev.members
                value = lodf_via_forests(net, edge.id, hat.id)
                same_slot = edge.source == hat.source or edge.target == hat.target
                if same_slot:
                    assert value >= -1e-12
                else:
                    assert value <= 1e-12
                checked += 1
    assert checked > 10


def test_orientation_families_are_disjoint():
    rng = np.random.default_rng(61)
    for _ in range(8):
        net = random_network(rng, max_nodes=6)
        for edge in net.edges:
            for hat in net.edges:
                if edge.id == hat.id:
                    continue
                fwd = enumerate_two_tree_forests(
                    net, {edge.source, hat.source}, {edge.target, hat.target}
                )
                rev = enumerate_two_tree_forests(
                    net, {edge.source, hat.target}, {edge.target, hat.source}
                )
                assert not (set(fwd.members) & set(rev.members))


def test_matrix_tree_triangle(triangle):
    report = matrix_tree_check(triangle)
    assert report.passed
    assert report.determinant == pytest.approx(3.0)
    assert report.forest_weight == 3.0


def test_matrix_tree_path(path3):
    report = matrix_tree_check(path3)
    assert report.passed
    assert report.determinant == pytest.approx(1.0)


def test_matrix_tree_random_graphs():
    rng = np.random.default_rng(67)
    for _ in range(15):
        net = random_network(rng, max_nodes=8)
        assert matrix_tree_check(net).passed


def test_matrix_tree_determinant_is_the_factors(triangle):
    rng = np.random.default_rng(71)
    for net in [triangle] + [random_network(rng, max_nodes=8) for _ in range(12)]:
        assert matrix_tree_check(net).determinant == build_laplacian(net).reduced_determinant


def test_unit_weight_determinant_counts_the_spanning_trees(triangle):
    rng = np.random.default_rng(73)
    nets = [triangle, build(k4_doc()), build(grid_doc(3))]
    nets += [random_network(rng, max_nodes=8, max_extra=10) for _ in range(12)]
    for net in nets:
        count = build_laplacian(net, np.ones(net.m)).reduced_determinant
        assert round(count) == len(enumerate_spanning_trees(net))


def test_disconnected_network_is_refused_by_the_unit_weight_factor():
    net = Network(nodes=(1, 2, 3, 4), edges=(Edge(1, 1, 2, 1.0), Edge(2, 3, 4, 1.0)), reference=4)
    with pytest.raises(SingularError):
        enumerate_spanning_trees(net)


def test_effective_reactance_triangle(triangle):
    report = effective_reactance(triangle, 1)
    assert report.effective == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert report.line_reactance == 1.0
    assert report.line_reactance - report.effective == pytest.approx(
        report.line_reactance * report.reduction_ratio, abs=1e-15
    )


def test_effective_reactance_bridge(path3):
    report = effective_reactance(path3, 1)
    assert report.effective == pytest.approx(report.line_reactance)
    assert report.reduction_ratio == 0.0


def test_effective_reactance_bounds():
    rng = np.random.default_rng(71)
    for _ in range(10):
        net = random_network(rng, max_nodes=7)
        for edge in net.edges:
            report = effective_reactance(net, edge.id)
            assert 0.0 < report.effective <= report.line_reactance + 1e-12


def test_effective_reactance_matches_quadratic_form():
    rng = np.random.default_rng(73)
    for _ in range(8):
        net = random_network(rng, max_nodes=7)
        bundle = build_laplacian(net)
        for edge in net.edges:
            i, j = net.node_index(edge.source), net.node_index(edge.target)
            quad = bundle.A[i, i] + bundle.A[j, j] - 2 * bundle.A[i, j]
            assert effective_reactance(net, edge.id).effective == pytest.approx(quad, abs=1e-9)


def test_enumeration_deterministic(triangle):
    first = enumerate_spanning_trees(triangle).members
    second = enumerate_spanning_trees(triangle).members
    assert first == second == tuple(sorted(first))


def test_exact_mode_only_for_small_rationals():
    nice = build({
        "nodes": [1, 2, 3],
        "edges": [
            {"from": 1, "to": 2, "b": 0.5},
            {"from": 2, "to": 3, "b": 1.5},
            {"from": 1, "to": 3, "b": 2.0},
        ],
    })
    assert enumerate_spanning_trees(nice).weight_sum_exact is not None
    rng = np.random.default_rng(79)
    rough = random_network(rng, max_nodes=5)
    assert enumerate_spanning_trees(rough).weight_sum_exact is None


def test_enumeration_cap():
    # Complete graph on 10 nodes: 10^8 spanning trees, comb(45, 8) candidates.
    nodes = list(range(1, 11))
    doc = {
        "nodes": nodes,
        "edges": [
            {"from": a, "to": b, "b": 1.0}
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
        ],
    }
    k10 = build(doc)
    assert build_laplacian(k10, np.ones(k10.m)).reduced_determinant == pytest.approx(1e8)
    with pytest.raises(TooLargeError):
        enumerate_spanning_trees(k10)
    with pytest.raises(TooLargeError):
        enumerate_two_tree_forests(k10, {1}, {10})


def test_forest_lodf_matches_ptdf_route():
    rng = np.random.default_rng(83)
    for _ in range(6):
        net = random_network(rng, max_nodes=6, min_extra=1)
        bundle = build_laplacian(net)
        ptdf = ptdf_matrix(bundle, net)
        diag = np.diag(ptdf.matrix)
        for hat in net.edges:
            gap = 1.0 - diag[net.edge_index(hat.id)]
            if gap < 1e-9:
                continue
            for edge in net.edges:
                if edge.id == hat.id:
                    continue
                algebraic = ptdf.entry(edge.id, hat.id) / gap
                oracle = lodf_via_forests(net, edge.id, hat.id)
                assert abs(algebraic - oracle) < 1e-9 * max(1.0, abs(algebraic))


def _scanned_forests(net):
    """Every acyclic choice of n - 2 lines, found by scanning all such subsets.

    Maps each forest (ascending line ids) to its node sides: True where a
    node position is outside the tree holding position 0.
    """
    index = {node: k for k, node in enumerate(net.nodes)}
    found = {}
    for combo in itertools.combinations(net.edges, net.n - 2):
        parent = list(range(net.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for edge in combo:
            ru, rv = find(index[edge.source]), find(index[edge.target])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            root = find(0)
            found[tuple(sorted(edge.id for edge in combo))] = [find(k) != root for k in range(net.n)]
    return found


@settings(max_examples=120, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0, 0), (2, 0), (12, 4)]),  # trees, bridge-heavy, meshed
    st.booleans(),
)
def test_derived_forests_match_the_subset_scan(seed, extra, exact):
    max_extra, min_extra = extra
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=7, max_extra=max_extra, min_extra=min_extra)
    if exact:
        net = net.with_susceptances(np.round(net.susceptances() * 8) / 8)
    scanned = _scanned_forests(net)
    oracle = forests._oracle(net)
    derived = oracle.forests

    assert derived.members == tuple(sorted(scanned))
    assert oracle.far.tolist() == [scanned[member] for member in derived.members]
    weights = {edge.id: edge.susceptance for edge in net.edges}
    for k, member in enumerate(derived.members):
        beta = 1.0
        for eid in member:
            beta *= weights[eid]
        assert derived.betas[k] == beta
        if exact:
            product = Fraction(1)
            for eid in member:
                product *= Fraction(weights[eid])
            assert Fraction(derived.numerators[k], derived.denominator) == product
        else:
            assert derived.numerators is None


def test_verify_enumerates_the_spanning_trees_once(monkeypatch, tmp_path, capsys):
    calls = []
    original = forests._enumerate_tree_sets

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(forests, "_enumerate_tree_sets", counted)
    # Susceptance 1.25 keeps this grid apart from the networks other tests build.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_doc(3, b=1.25)))
    assert run(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(calls) == 1
