import itertools
import json
import math
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
    enumerate_spanning_trees,
    enumerate_two_tree_forests,
    lodf_via_forests,
    matrix_tree_check,
    ptdf_matrix,
    ptdf_via_forests,
)
from gridfactor import forests
from gridfactor.cli import run

from conftest import build, exact_flows, grid_doc, k4_doc, random_network, with_susceptances


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


def test_empty_node_group_is_refused(triangle):
    with pytest.raises(ValueError, match="node groups must be nonempty"):
        enumerate_two_tree_forests(triangle, [], [1])


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
        for hat, hat_source, hat_target in lines:
            others = enumerate_spanning_trees(net, allowed_edges=set(net.ids) - {hat})
            if not others.members:
                continue
            for line, source, target in lines:
                if line == hat:
                    continue
                shared = {source, target} & {hat_source, hat_target}
                if not shared:
                    continue
                fwd = enumerate_two_tree_forests(
                    net, {source, hat_source}, {target, hat_target}
                )
                rev = enumerate_two_tree_forests(
                    net, {source, hat_target}, {target, hat_source}
                )
                assert not fwd.members or not rev.members
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
        for line, source, target in lines:
            for hat, hat_source, hat_target in lines:
                if line == hat:
                    continue
                fwd = enumerate_two_tree_forests(
                    net, {source, hat_source}, {target, hat_target}
                )
                rev = enumerate_two_tree_forests(
                    net, {source, hat_target}, {target, hat_source}
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


def test_matrix_tree_fails_when_a_minor_is_nan(monkeypatch, triangle):
    monkeypatch.setattr(forests, "_pairing", lambda *args: math.nan)
    report = matrix_tree_check(triangle)
    assert report.passed is False
    assert math.isnan(report.minor_max_rel_err) and report.determinant_rel_err == 0.0


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
    net = Network(nodes=(1, 2, 3, 4), ids=(1, 2), sources=(1, 3), targets=(2, 4),
                  b=(1.0, 1.0), cap=(math.inf, math.inf), reference=4)
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


def test_long_path_is_enumerated_without_overflowing_the_stack():
    """A 1200-bus path has one spanning tree, under the cap, but contraction goes 1199 lines deep."""
    n = 1200
    path = build({"nodes": list(range(1, n + 1)),
                  "edges": [{"from": k, "to": k + 1, "b": 1.0} for k in range(1, n)]})
    assert enumerate_spanning_trees(path).members == (tuple(range(1, n)),)
    family = enumerate_two_tree_forests(path, {1}, {n})
    assert len(family) == n - 1 and family.weight_sum_exact == n - 1


def test_enumeration_deterministic(triangle):
    first = enumerate_spanning_trees(triangle).members
    second = enumerate_spanning_trees(triangle).members
    assert first == second == tuple(sorted(first))


def _exact_weight(net, members):
    """The sum over the members of the product of their lines' exact susceptances."""
    weights = {eid: Fraction(b) for eid, b in zip(net.ids, net.b)}
    return sum((math.prod(weights[eid] for eid in member) for member in members), Fraction(0))


def test_weight_sums_are_exact_for_every_float():
    rng = np.random.default_rng(79)
    for _ in range(6):
        net = random_network(rng, max_nodes=6, min_extra=2)
        rough = with_susceptances(net, 10.0 ** rng.uniform(-6, 6, net.m))
        for family in (enumerate_spanning_trees(rough),
                       enumerate_two_tree_forests(rough, {rough.nodes[0]}, {rough.nodes[-1]})):
            assert len(family) > 0
            assert family.weight_sum_exact == _exact_weight(rough, family.members)
            assert family.weight_sum == float(family.weight_sum_exact)
            assert len(family.numerators) == len(family.members)
            for numerator, member in zip(family.numerators, family.members):
                assert Fraction(numerator, family.denominator) == _exact_weight(rough, [member])


def test_families_are_equal_when_their_members_weigh_the_same(path3, triangle):
    """Equality compares kind, members and per-member weights: not the sum alone, nor the unit of weight."""
    assert enumerate_spanning_trees(path3) == enumerate_spanning_trees(with_susceptances(path3, [2.0, 0.5]))
    rising = enumerate_spanning_trees(with_susceptances(triangle, [1.0, 2.0, 3.0]))  # trees weigh 2, 3, 6
    same_sum = enumerate_spanning_trees(with_susceptances(triangle, [1.0, 1.0, 5.0]))  # trees weigh 1, 5, 5
    assert rising.weight_sum_exact == same_sum.weight_sum_exact
    assert rising != same_sum


def _unit_transfer(net, a, b):
    p = np.zeros(net.n)
    p[net.node_index(a)], p[net.node_index(b)] = 1.0, -1.0
    return p


def test_stiff_forest_factors_are_the_exact_ones_rounded_once():
    """Log-uniform susceptances over 1e-6..1e6: each factor is float() of its exact rational."""
    rng = np.random.default_rng(89)
    bridges = 0
    for _ in range(12):
        net = random_network(rng, max_nodes=6, max_extra=4)
        net = with_susceptances(net, 10.0 ** rng.uniform(-6, 6, net.m))
        for a, b in itertools.permutations(net.nodes[:3], 2):
            flows, _ = exact_flows(net, _unit_transfer(net, a, b))
            for line, flow in zip(net.ids, flows):
                assert ptdf_via_forests(net, line, a, b) == float(flow)
        for hat, source, target in zip(net.ids, net.sources, net.targets):
            flows, _ = exact_flows(net, _unit_transfer(net, source, target))
            gap = 1 - flows[net.edge_index(hat)]
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
        enumerate_spanning_trees(net)
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
        for hat in net.ids:
            gap = 1.0 - diag[net.edge_index(hat)]
            if gap < 1e-9:
                continue
            for line in net.ids:
                if line == hat:
                    continue
                algebraic = ptdf.entry(line, hat) / gap
                oracle = lodf_via_forests(net, line, hat)
                assert abs(algebraic - oracle) < 1e-9 * max(1.0, abs(algebraic))


def _scanned_forests(net):
    """Every acyclic choice of n - 2 lines, found by scanning all such subsets.

    Maps each forest (ascending line ids) to its node sides: True where a
    node position is outside the tree holding position 0.
    """
    index = {node: k for k, node in enumerate(net.nodes)}
    found = {}
    for combo in itertools.combinations(zip(net.ids, net.sources, net.targets), net.n - 2):
        parent = list(range(net.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for _, source, target in combo:
            ru, rv = find(index[source]), find(index[target])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            root = find(0)
            found[tuple(sorted(line for line, _, _ in combo))] = [find(k) != root for k in range(net.n)]
    return found


@settings(max_examples=120, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0, 0), (2, 0), (12, 4)]),  # trees, bridge-heavy, meshed
    st.booleans(),  # weights rounded to eighths, or rough floats
)
def test_derived_forests_match_the_subset_scan(seed, extra, eighths):
    max_extra, min_extra = extra
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=7, max_extra=max_extra, min_extra=min_extra)
    if eighths:
        net = with_susceptances(net, np.round(net.susceptances() * 8) / 8)
    scanned = _scanned_forests(net)
    oracle = net.oracle
    derived = oracle.forests

    assert derived.members == tuple(sorted(scanned))
    assert oracle.far.tolist() == [scanned[member] for member in derived.members]
    for k, member in enumerate(derived.members):
        assert Fraction(derived.numerators[k], derived.denominator) == _exact_weight(net, [member])


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.booleans(), st.data())
def test_pairing_matrix_gives_every_forest_pairing_exactly(seed, max_nodes, rough, data):
    """G_ia - G_ib - G_ja + G_jb is pos - neg of the enumerated two-tree forests, as exact rationals.

    On random networks of 2 to 6 buses (two buses: L_r is 1x1) with parallel
    lines (either way round) and a random reference, under weights uniform
    over 0.5..2 or log-uniform over 1e-6..1e6 (large power-of-two
    denominators), for random bus quadruples and their overlapping forms
    a == b, a == j and i == a.  The oracle's tree weight is the enumerated
    tree sum, and each line's trees-avoiding weight is the masked tree sum.
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

    def brute(i, j, a, b):
        pos = enumerate_two_tree_forests(net, {i, a}, {j, b}).weight_sum_exact
        return pos - enumerate_two_tree_forests(net, {i, b}, {j, a}).weight_sum_exact

    assert net.oracle.tree_weight == enumerate_spanning_trees(net).weight_sum_exact
    for _ in range(6):
        i, j, a, b = data.draw(st.lists(nodes, min_size=4, max_size=4))
        for quad in ((i, j, a, b), (i, j, a, a), (i, j, j, b), (i, j, i, b)):
            assert forests._pairing(net, *quad) == brute(*quad)
    for k, line in enumerate(net.ids):
        masked = enumerate_spanning_trees(net, set(net.ids) - {line}).weight_sum_exact
        assert forests._trees_avoiding(net, k) == masked


def test_equal_networks_enumerate_their_own_trees(monkeypatch):
    calls = []
    original = forests._enumerate_tree_sets

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(forests, "_enumerate_tree_sets", counted)
    doc = grid_doc(3)
    first, second = build(doc), build(doc)
    assert first == second
    assert enumerate_spanning_trees(first) == enumerate_spanning_trees(second)
    assert len(calls) == 2 and first.oracle is not second.oracle
    assert first.oracle is first.oracle and len(calls) == 2


def test_verify_enumerates_no_spanning_tree(monkeypatch, tmp_path, capsys):
    calls = []
    original = forests._enumerate_tree_sets

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(forests, "_enumerate_tree_sets", counted)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_doc(3)))
    assert run(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert not calls
