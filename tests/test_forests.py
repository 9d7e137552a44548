import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    BridgeError,
    Network,
    SingularError,
    TooLargeError,
    ValidationError,
    a_entry_via_forests,
    build_laplacian,
    effective_reactance,
    lodf_via_forests,
    matrix_tree_check,
    ptdf_via_forests,
)
from gridfactor import forests

from conftest import (
    build,
    exact_angles,
    exact_flows,
    exact_weight,
    grid_doc,
    k4_doc,
    random_network,
    scan,
    subnormal_triangle_doc,
    with_susceptances,
)


def _separating(net, found, group_a, group_b):
    """The scanned two-tree forests with ``group_a`` whole in one tree and ``group_b`` whole in the other."""
    a, b = ([net.node_index(v) for v in group] for group in (group_a, group_b))
    return [forest for forest, far in found.items() if len({far[k] for k in a} | {not far[k] for k in b}) == 1]


def test_triangle_spanning_trees(triangle):
    trees = scan(triangle, 2)
    assert list(trees) == [(1, 2), (1, 3), (2, 3)]
    assert exact_weight(triangle, trees) == 3 == triangle.oracle.adjugate[1]
    assert matrix_tree_check(triangle).forest_weight == 3.0


def test_triangle_trees_restricted(triangle):
    assert [tree for tree in scan(triangle, 2) if 1 not in tree] == [(2, 3)]
    assert triangle.oracle.avoiding(triangle.edge_index(1)) == 1


def test_path_single_tree(path3):
    trees = scan(path3, 2)
    assert list(trees) == [(1, 2)]
    assert exact_weight(path3, trees) == 1 == path3.oracle.adjugate[1]


def test_two_tree_forests_triangle(triangle):
    found = scan(triangle, 1)
    assert _separating(triangle, found, {1}, {3}) == [(1,), (2,)]
    assert _separating(triangle, found, {1, 2}, {3}) == [(1,)]
    adjugate = triangle.oracle.adjugate[0]  # the reference is bus 3
    assert adjugate[0, 0] == 2 and adjugate[0, 1] == 1


def test_two_tree_forests_overlap_empty(triangle):
    found = scan(triangle, 1)
    assert _separating(triangle, found, {1}, {1}) == _separating(triangle, found, {1, 2}, {2, 3}) == []


def test_two_tree_forest_counts_match_structure():
    """The forests separating two buses number the unit-weight G_ii - 2 G_ij + G_jj."""
    rng = np.random.default_rng(43)
    for _ in range(8):
        net = random_network(rng, max_nodes=6)
        unit = with_susceptances(net, np.ones(net.m)).oracle
        first, last = net.node_index(net.nodes[0]), net.node_index(net.nodes[-1])
        separated = _separating(net, scan(net, net.n - 2), {net.nodes[0]}, {net.nodes[-1]})
        adjugate = unit.adjugate[0]
        assert len(separated) == adjugate[first, first] - 2 * adjugate[first, last] + adjugate[last, last]


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
        for line, source, target, weight in zip(net.ids, net.sources, net.targets, net.b):
            i = net.node_index(source)
            j = net.node_index(target)
            for a in net.nodes:
                for b in net.nodes:
                    if a == b:
                        continue
                    ia, ib = net.node_index(a), net.node_index(b)
                    algebraic = weight * (
                        bundle.A[i, ia] + bundle.A[j, ib] - bundle.A[i, ib] - bundle.A[j, ia]
                    )
                    oracle = ptdf_via_forests(net, line, a, b)
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


def test_unknown_node_is_refused(triangle):
    with pytest.raises(ValidationError, match="unknown node 99"):
        a_entry_via_forests(triangle, 99, 1)


def test_adjacent_lines_have_definite_factor_sign():
    # Lines sharing a bus leave one orientation family empty, so the factor
    # sign is fixed: nonnegative when the shared bus occupies the same
    # endpoint slot on both lines, nonpositive when the slots are mismatched.
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(10):
        net = random_network(rng, max_nodes=7, min_extra=1)
        lines = list(zip(net.ids, net.sources, net.targets))
        trees, found = scan(net, net.n - 1), scan(net, net.n - 2)
        for hat, hat_source, hat_target in lines:
            if all(hat in tree for tree in trees):
                continue
            for line, source, target in lines:
                if line == hat:
                    continue
                shared = {source, target} & {hat_source, hat_target}
                if not shared:
                    continue
                fwd = _separating(net, found, {source, hat_source}, {target, hat_target})
                rev = _separating(net, found, {source, hat_target}, {target, hat_source})
                assert not fwd or not rev
                value = lodf_via_forests(net, line, hat)
                same_slot = source == hat_source or target == hat_target
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
        lines = list(zip(net.ids, net.sources, net.targets))
        found = scan(net, net.n - 2)
        for line, source, target in lines:
            for hat, hat_source, hat_target in lines:
                if line == hat:
                    continue
                fwd = _separating(net, found, {source, hat_source}, {target, hat_target})
                rev = _separating(net, found, {source, hat_target}, {target, hat_source})
                assert not (set(fwd) & set(rev))


def test_matrix_tree_triangle(triangle):
    report = matrix_tree_check(triangle)
    assert report.passed
    assert report.determinant == pytest.approx(3.0)
    assert report.forest_weight == 3.0


def test_matrix_tree_path(path3):
    report = matrix_tree_check(path3)
    assert report.passed
    assert report.determinant == pytest.approx(1.0)


def test_matrix_tree_fails_when_a_minor_is_nan(monkeypatch, triangle):
    exact = forests._Oracle.adjugate.func
    monkeypatch.setattr(forests._Oracle, "adjugate",
                        property(lambda oracle: (np.full_like(exact(oracle)[0], math.nan), exact(oracle)[1])))
    report = matrix_tree_check(triangle)
    assert report.passed is False
    assert math.isnan(report.minor_max_rel_err) and report.determinant_rel_err == 0.0


def test_matrix_tree_fails_on_a_planted_minor_error(monkeypatch):
    exact = forests._Oracle.adjugate.func

    def planted(oracle):
        adjugate, det = exact(oracle)
        adjugate = adjugate.copy()
        adjugate[0, 2] = adjugate[2, 0] = adjugate[0, 2] * (1 + 1e-6)  # buses 1 and 3, either side of the reference
        return adjugate, det

    monkeypatch.setattr(forests._Oracle, "adjugate", property(planted))
    report = matrix_tree_check(with_susceptances(build({**k4_doc(), "reference": 2}), [1.0, 2.0, 0.5, 3.0, 1.5, 0.25]))
    assert report.passed is False
    assert report.minor_max_rel_err >= 1e-7 and report.determinant_rel_err < 1e-15


def test_matrix_tree_takes_one_dense_determinant_and_one_inverse(monkeypatch, k4):
    det, inv, calls = np.linalg.det, np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append("det") or det(a))
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append("inv") or inv(a))
    assert matrix_tree_check(k4).passed
    assert sorted(calls) == ["det", "inv"]


@pytest.mark.parametrize("b", [2.0, 49.0, 1e-3])
def test_matrix_tree_two_buses(b):
    report = matrix_tree_check(build({"nodes": [1, 2], "edges": [{"from": 1, "to": 2, "b": b}]}))
    assert report.passed and report.forest_weight == b


def test_matrix_tree_random_graphs():
    rng = np.random.default_rng(67)
    for _ in range(15):
        net = random_network(rng, max_nodes=8)
        for reference in net.nodes:  # a minor's sign follows its row and column in the reduced L
            assert matrix_tree_check(replace(net, reference=reference)).passed


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
        assert round(count) == len(scan(net, net.n - 1))


def test_disconnected_network_is_refused_by_the_unit_weight_factor():
    net = Network(nodes=(1, 2, 3, 4), ids=(1, 2), sources=(1, 3), targets=(2, 4),
                  b=(1.0, 1.0), cap=(math.inf, math.inf), reference=4)
    with pytest.raises(SingularError):
        a_entry_via_forests(net, 1, 2)
    with pytest.raises(SingularError):
        effective_reactance(net, 1)


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
        for line in net.ids:
            report = effective_reactance(net, line)
            assert 0.0 < report.effective <= report.line_reactance + 1e-12


def test_effective_reactance_matches_quadratic_form():
    rng = np.random.default_rng(73)
    for _ in range(8):
        net = random_network(rng, max_nodes=7)
        bundle = build_laplacian(net)
        for line, source, target in zip(net.ids, net.sources, net.targets):
            i, j = net.node_index(source), net.node_index(target)
            quad = bundle.A[i, i] + bundle.A[j, j] - 2 * bundle.A[i, j]
            assert effective_reactance(net, line).effective == pytest.approx(quad, abs=1e-9)


def test_weight_sums_are_exact_for_every_float():
    """On rough floats, det(L_r) is the scanned trees' exact weight and each adj(L_r) entry (i, j) that of
    the scanned forests holding i and j in the tree without the reference."""
    rng = np.random.default_rng(79)
    for _ in range(6):
        net = random_network(rng, max_nodes=6, min_extra=2)
        rough = with_susceptances(net, 10.0 ** rng.uniform(-6, 6, net.m))
        oracle, n = rough.oracle, rough.n
        (adjugate, det), ref = oracle.adjugate, oracle.reference
        trees, found = scan(rough, n - 1), scan(rough, n - 2)
        assert det == exact_weight(rough, trees) * oracle.common ** (n - 1)
        assert matrix_tree_check(rough).forest_weight == float(exact_weight(rough, trees))
        for i, j in itertools.product(range(n), repeat=2):
            joined = [forest for forest, far in found.items() if far[i] == far[j] != far[ref]]
            assert adjugate[i, j] == exact_weight(rough, joined) * oracle.common ** (n - 2)


def _unit_transfer(net, a, b):
    p = np.zeros(net.n)
    p[net.node_index(a)], p[net.node_index(b)] = 1.0, -1.0
    return p


def test_stiff_forest_factors_are_the_exact_ones_rounded_once():
    """Log-uniform susceptances over 1e-6..1e6: each factor is float() of its exact rational.

    So are the inverse's entries and each line's effective reactance and reduction ratio.
    """
    rng = np.random.default_rng(89)
    bridges = 0
    for _ in range(12):
        net = random_network(rng, max_nodes=6, max_extra=4)
        net = with_susceptances(net, 10.0 ** rng.uniform(-6, 6, net.m))
        for a, b in itertools.permutations(net.nodes[:3], 2):
            flows, _ = exact_flows(net, _unit_transfer(net, a, b))
            for line, flow in zip(net.ids, flows):
                assert ptdf_via_forests(net, line, a, b) == float(flow)
        for j in net.nodes:
            column, _ = exact_angles(net, np.eye(net.n)[net.node_index(j)])  # the reference takes up the unit
            for i, angle in zip(net.nodes, column):
                assert a_entry_via_forests(net, i, j) == float(angle)
        for hat, source, target, weight in zip(net.ids, net.sources, net.targets, net.b):
            flows, _ = exact_flows(net, _unit_transfer(net, source, target))
            gap = 1 - flows[net.edge_index(hat)]
            report = effective_reactance(net, hat)
            assert report.effective == float(flows[net.edge_index(hat)] / Fraction(weight))
            assert report.reduction_ratio == float(gap)
            for line, flow in zip(net.ids, flows):
                if line == hat:
                    continue
                if not gap:
                    with pytest.raises(BridgeError):
                        lodf_via_forests(net, line, hat)
                    bridges += 1
                    continue
                assert lodf_via_forests(net, line, hat) == float(flow / gap)
    assert bridges  # the sweep reaches bridge outages too


def test_tenths_grid_tree_weight_is_the_exact_determinant_rounded_once():
    """Decimal tenths are not dyadic: the oracle sums the floats' exact values, not the decimals."""
    lines = [(7, 8), (1, 8), (8, 2), (4, 9), (5, 6), (2, 3), (4, 1), (7, 6), (3, 5), (6, 9), (7, 4), (3, 7)]
    tenths = [0.1, 0.2, 0.3, 0.7, 1.1, 0.9, 0.3, 0.6, 0.1, 0.4, 1.3, 0.7]
    net = build({"nodes": list(range(1, 10)), "reference": 9,  # a 3x3 grid, its buses shuffled
                 "edges": [{"from": a, "to": b, "b": w} for (a, b), w in zip(lines, tenths)]})
    _, determinant = exact_flows(net, np.zeros(net.n))
    report = matrix_tree_check(net)
    assert report.passed
    assert report.forest_weight == float(determinant) == 0.46675920000000004


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_susceptance_is_refused_naming_its_line(bad):
    net = Network(nodes=(1, 2, 3), ids=(1, 2, 3), sources=(1, 2, 1), targets=(2, 3, 3),
                  b=(1.0, bad, 1.0), cap=(math.inf,) * 3, reference=3)
    with pytest.raises(ValidationError, match=f"line 2 has {bad}"):
        effective_reactance(net, 1)
    with pytest.raises(ValidationError, match=f"line 2 has {bad}"):
        ptdf_via_forests(net, 1, 1, 2)


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
    with pytest.raises(TooLargeError, match="estimated spanning-tree count exceeds the enumeration cap"):
        ptdf_via_forests(k10, 1, 1, 10)
    with pytest.raises(TooLargeError, match="estimated spanning-tree count exceeds the enumeration cap"):
        matrix_tree_check(k10)


def test_forest_lodf_matches_ptdf_route():
    rng = np.random.default_rng(83)
    for _ in range(6):
        net = random_network(rng, max_nodes=6, min_extra=1)
        ptdf = net.sensitivity
        diag = np.diag(ptdf.matrix)
        for hat in net.ids:
            gap = 1.0 - diag[net.edge_index(hat)]
            if gap < 1e-9:
                continue
            for line in net.ids:
                if line == hat:
                    continue
                algebraic = ptdf.columns([net.edge_index(hat)])[net.edge_index(line), 0] / gap
                oracle = lodf_via_forests(net, line, hat)
                assert abs(algebraic - oracle) < 1e-9 * max(1.0, abs(algebraic))


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.booleans(), st.data())
def test_pairing_matrix_gives_every_forest_pairing_exactly(seed, max_nodes, rough, data):
    """G_ia - G_ib - G_ja + G_jb is pos - neg of the scanned two-tree forests, exactly.

    On random networks of 2 to 6 buses (two buses: L_r is 1x1) with parallel
    lines (either way round) and a random reference, under weights uniform
    over 0.5..2 or log-uniform over 1e-6..1e6 (large power-of-two
    denominators), for random bus quadruples and their overlapping forms
    a == b, a == j and i == a, read from the integer adjugate, and for each
    line's ends with random buses, read from adj·C.  The oracle's integers
    carry common^(n-2) for a forest and common^(n-1) for a tree: its
    determinant is the scanned tree sum, and each line's trees-avoiding
    weight is the sum of the scanned trees without the line.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=max_nodes, max_extra=3)
    sources, targets, weights = list(net.sources), list(net.targets), list(net.b)
    for k in rng.integers(0, net.m, size=int(rng.integers(1, 3))):  # validate refuses these: build directly
        source, target = net.sources[k], net.targets[k]
        if rng.integers(0, 2):
            source, target = target, source
        sources.append(source)
        targets.append(target)
        weights.append(float(rng.uniform(0.5, 2.0)))
    if rough:
        weights = (10.0 ** rng.uniform(-6, 6, len(weights))).tolist()
    nodes = st.sampled_from(net.nodes)
    net = Network(nodes=net.nodes, ids=tuple(range(1, len(sources) + 1)), sources=tuple(sources),
                  targets=tuple(targets), b=tuple(weights), cap=(math.inf,) * len(sources),
                  reference=data.draw(nodes))

    trees, found = scan(net, net.n - 1), scan(net, net.n - 2)

    def brute(i, j, a, b):
        pos = exact_weight(net, _separating(net, found, {i, a}, {j, b}))
        return pos - exact_weight(net, _separating(net, found, {i, b}, {j, a}))

    oracle = net.oracle
    (adjugate, det), forest, tree = oracle.adjugate, oracle.common ** (net.n - 2), oracle.common ** (net.n - 1)

    def paired(i, j, a, b):
        i, j, a, b = map(net.node_index, (i, j, a, b))
        return adjugate[i, a] - adjugate[i, b] - adjugate[j, a] + adjugate[j, b]

    assert oracle.weights == [Fraction(weight) * oracle.common for weight in weights]
    assert det == exact_weight(net, trees) * tree
    for _ in range(6):
        i, j, a, b = data.draw(st.lists(nodes, min_size=4, max_size=4))
        for quad in ((i, j, a, b), (i, j, a, a), (i, j, j, b), (i, j, i, b)):
            assert paired(*quad) == brute(*quad) * forest
    for k, (line, i, j) in enumerate(zip(net.ids, net.sources, net.targets)):
        a, b = data.draw(st.lists(nodes, min_size=2, max_size=2))
        for pair in ((a, b), (i, j), (a, a)):
            assert oracle.pairing(k, *map(net.node_index, pair)) == brute(i, j, *pair) * forest
        masked = exact_weight(net, [member for member in trees if line not in member])
        assert oracle.avoiding(k) == masked * tree


def test_a_self_loop_is_in_no_spanning_tree(triangle):
    looped = replace(triangle, ids=(9, *triangle.ids), sources=(1, *triangle.sources), targets=(1, *triangle.targets),
                     b=(1.0, *triangle.b), cap=(math.inf, *triangle.cap))  # validate refuses it: built directly
    assert scan(looped, 2) == scan(triangle, 2)
    assert looped.oracle.adjugate[1] == triangle.oracle.adjugate[1]
    assert ptdf_via_forests(looped, 1, 1, 3) == ptdf_via_forests(triangle, 1, 1, 3)


def test_equal_networks_enumerate_their_own_trees(monkeypatch):
    """Equal networks build an oracle each, once: the oracle is the network's own, not shared by equality."""
    built = []
    original = forests._Oracle

    def counted(network):
        built.append(network)
        return original(network)

    monkeypatch.setattr(forests, "_Oracle", counted)
    doc = grid_doc(3)
    first, second = build(doc), build(doc)
    assert first == second
    assert ptdf_via_forests(first, 1, 1, 9) == ptdf_via_forests(second, 1, 1, 9)
    assert len(built) == 2 and first.oracle is not second.oracle
    assert first.oracle is first.oracle and len(built) == 2


def test_oracle_answers_past_float_range_are_refused():
    """On the b=1e-310 triangle an inverse entry and a line's effective reactance are 2e310/3."""
    net = build(subnormal_triangle_doc())
    with pytest.raises(TooLargeError, match="the inverse entry exceeds float range"):
        a_entry_via_forests(net, 1, 1)
    with pytest.raises(TooLargeError, match="the effective reactance exceeds float range"):
        effective_reactance(net, 1)
    assert lodf_via_forests(net, 2, 1) == -1.0 and ptdf_via_forests(net, 1, 1, 2) == 2 / 3
