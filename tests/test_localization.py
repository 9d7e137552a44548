import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    BridgeError,
    CutSetError,
    LaplacianBundle,
    OutageSet,
    PerturbationSpec,
    UnknownEdgeError,
    ZeroFactorError,
    adversarial_capacity,
    almost_sure_nonzero_test,
    block_decomposition,
    block_structure_report,
    build_laplacian,
    glodf,
    influence_graph,
    lodf_single,
    run_cascade,
    simple_cycle_criterion,
    solve_flow,
)

from gridfactor import factors, graph_algos, localization
from gridfactor.net_model import PERTURBATION, RTOL, incidence_columns, scaled_tolerance

from conftest import (
    build,
    fig2_doc,
    incidence_matrix,
    kept_lines,
    random_network,
    sample_non_cut_outage,
    with_capacities,
    with_susceptances,
    without_edges,
)


def test_simple_cycle_criterion_fig2(fig2):
    decomposition = block_decomposition(fig2)
    blocks = [sorted(b) for b in decomposition.blocks if len(b) > 1]
    left, right = blocks[0], blocks[1]
    assert simple_cycle_criterion(fig2, right[0], left[0]) == "zero"
    factor = lodf_single(fig2, left[0])[right[0]]
    assert abs(factor) < 1e-10


def test_simple_cycle_criterion_triangle(triangle):
    assert simple_cycle_criterion(triangle, 2, 1) == "possibly_nonzero"
    column = lodf_single(triangle, 1)
    assert abs(column[2]) > 0.5


def test_simple_cycle_criterion_bridge_vs_cycle():
    # A triangle with a pendant path glued at a cut vertex.
    net = build({
        "nodes": [1, 2, 3, 4],
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
            {"from": 1, "to": 3, "b": 1.0},
            {"from": 3, "to": 4, "b": 1.0},
        ],
    })
    assert simple_cycle_criterion(net, 4, 1) == "zero"
    with pytest.raises(BridgeError):
        simple_cycle_criterion(net, 1, 4)


def test_criterion_soundness_on_random_graphs():
    rng = np.random.default_rng(151)
    for _ in range(10):
        net = random_network(rng, min_extra=1)
        decomposition = block_decomposition(net)
        for hat in net.ids:
            if hat in decomposition.bridges:
                continue
            column = lodf_single(net, hat)
            for line, factor in column.items():
                if simple_cycle_criterion(net, line, hat) == "zero":
                    assert abs(factor) < 1e-10


def test_block_structure_report_fig2_singleton(fig2):
    outage = OutageSet(fig2, [1])
    result = glodf(None, None, None, outage)
    report = block_structure_report(outage)

    scale = max(1.0, report.matrix_scale)
    assert report.cross_block_max < 1e-9 * scale
    assert len(report.blocks) == 1
    block = report.blocks[0]
    assert block.col_ids == (1,)
    assert set(block.row_ids) == {2, 3}
    assert block.reassembly_err_direct < 1e-9
    assert block.reassembly_err_parts < 1e-9
    # Everything outside the outaged block is untouched: the factor rows for
    # other blocks are exactly the cross-block zeros counted above.
    for row, line in enumerate(outage.surviving):
        if line not in {2, 3}:
            assert np.max(np.abs(result.k_matrix[row])) < 1e-9 * scale


def test_block_structure_flow_deltas_stay_in_block(fig2):
    # One tripped line per block: surviving lines only react to the tripped
    # line of their own block.
    decomposition = block_decomposition(fig2)
    outage = OutageSet(fig2, [1, 6])
    result = glodf(None, None, None, outage)
    block_at = decomposition.block_at
    for row, line in enumerate(outage.surviving):
        for col, tripped in enumerate(outage.outaged):
            if block_at[fig2.edge_index(line)] != block_at[fig2.edge_index(tripped)]:
                assert abs(result.k_matrix[row, col]) < 1e-10


def test_block_structure_report_random_instances():
    rng = np.random.default_rng(157)
    tested = 0
    while tested < 15:
        net = random_network(rng, min_extra=1)
        outage_ids = sample_non_cut_outage(rng, net)
        if outage_ids is None:
            continue
        decomposition = block_decomposition(net)
        outage = OutageSet(net, outage_ids)
        result = glodf(None, None, None, outage)
        report = block_structure_report(outage)
        scale = max(1.0, report.matrix_scale)
        assert report.cross_block_max < 1e-9 * scale
        for block in report.blocks:
            assert block.reassembly_err_direct < 1e-9 * scale
            assert block.reassembly_err_parts < 1e-9 * scale
        # The stacked single-line factors show the same cross-block zeros.
        block_at = decomposition.block_at
        for row, line in enumerate(outage.surviving):
            for col, tripped in enumerate(outage.outaged):
                if block_at[net.edge_index(line)] != block_at[net.edge_index(tripped)]:
                    assert abs(result.k_stack[row, col]) < 1e-9 * scale
        tested += 1


def test_block_structure_cut_set_raises(triangle):
    bad = OutageSet(triangle, [1, 2])
    with pytest.raises(CutSetError):
        block_structure_report(bad)


def test_perturbation_triangle_always_nonzero(triangle):
    stats = almost_sure_nonzero_test(
        OutageSet(triangle, [1]), PerturbationSpec(trials=50, seed=3)
    )
    assert stats.trials == 50
    assert min(stats.within_block.values()) == 50
    assert not stats.cross_block


def test_perturbation_k4_symmetry_breaking(k4):
    # Unperturbed: the factor between non-adjacent lines vanishes by symmetry.
    column = lodf_single(k4, 1)
    assert abs(column[6]) < 1e-12

    stats = almost_sure_nonzero_test(
        OutageSet(k4, [1]), PerturbationSpec(trials=100, seed=42)
    )
    assert min(stats.within_block.values()) == 100


def test_perturbation_cross_block_stays_zero(fig2):
    stats = almost_sure_nonzero_test(
        OutageSet(fig2, [1]), PerturbationSpec(trials=40, seed=9)
    )
    assert not any(stats.cross_block.values())
    assert min(stats.within_block.values()) == 40


def test_perturbation_deterministic_for_seed(k4):
    spec = PerturbationSpec(trials=20, seed=77)
    first = almost_sure_nonzero_test(OutageSet(k4, [1]), spec)
    second = almost_sure_nonzero_test(OutageSet(k4, [1]), spec)
    assert first.within_block == second.within_block
    assert first.cross_block == second.cross_block


def test_perturbation_bridge_outage_is_a_cut_set(path3):
    with pytest.raises(CutSetError):
        almost_sure_nonzero_test(OutageSet(path3, [1]), PerturbationSpec(trials=1))


def test_adversarial_capacity_triangle(triangle):
    bundle = build_laplacian(triangle)
    instance = adversarial_capacity(triangle, 1, 3)
    assert np.array_equal(instance.injections, np.array([1.0, -1.0, 0.0]))
    assert instance.capacities[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert instance.capacities[0] == instance.capacities[1]
    assert instance.capacities[0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    # Pre-outage: every line operates within capacity.
    pre = solve_flow(bundle, triangle, instance.injections)
    assert np.all(np.abs(pre.flows) <= instance.capacities + 1e-12)

    # Post-outage: the target line, and only the target line, overloads.
    survived = without_edges(triangle, [1])
    post = solve_flow(build_laplacian(survived), survived, instance.injections)
    flows = dict(zip((np.flatnonzero(kept_lines(triangle, [1])) + 1).tolist(), post.flows))
    assert abs(flows[3]) > instance.capacities[2]
    assert abs(flows[2]) <= instance.capacities[1]


def test_adversarial_capacity_refuses_one_line_as_both(triangle):
    with pytest.raises(ValueError, match="lines must be distinct"):
        adversarial_capacity(triangle, 1, 1)


def test_adversarial_capacity_guarantee_random():
    rng = np.random.default_rng(163)
    tested = 0
    while tested < 8:
        net = random_network(rng, min_extra=1)
        decomposition = block_decomposition(net)
        bundle = build_laplacian(net)
        pairs = [
            (hat, other)
            for hat in net.ids
            if hat not in decomposition.bridges
            for other in net.ids
            if other != hat
        ]
        hit = None
        for tripped, target in pairs:
            factor = lodf_single(net, tripped).get(target, 0.0)
            if abs(factor) > 1e-6:
                hit = (tripped, target)
                break
        if hit is None:
            continue
        tripped, target = hit
        instance = adversarial_capacity(net, tripped, target)
        pre = solve_flow(bundle, net, instance.injections)
        assert np.all(np.abs(pre.flows) <= instance.capacities + 1e-12)
        survived = without_edges(net, [tripped])
        post = solve_flow(build_laplacian(survived), survived, instance.injections)
        for k, position in enumerate(np.flatnonzero(kept_lines(net, [tripped]))):
            cap = instance.capacities[position]
            if position + 1 == target:
                assert abs(post.flows[k]) > cap
            else:
                assert abs(post.flows[k]) <= cap + 1e-12
        tested += 1


def test_adversarial_capacity_zero_factor_raises(fig2):
    decomposition = block_decomposition(fig2)
    blocks = [sorted(b) for b in decomposition.blocks if len(b) > 1]
    with pytest.raises(ZeroFactorError):
        adversarial_capacity(fig2, blocks[0][0], blocks[1][0])


def test_adversarial_capacity_bridge_raises(path3, fig2):
    for net, bridge, target in [(path3, 1, 2), (fig2, 4, 1)]:  # refused in lodf_single's words
        with pytest.raises(BridgeError) as single:
            lodf_single(net, bridge)
        with pytest.raises(BridgeError) as adversarial:
            adversarial_capacity(net, bridge, target)
        with pytest.raises(BridgeError) as criterion:
            simple_cycle_criterion(net, target, bridge)
        message = f"line {bridge} is a bridge; outage factors are undefined"
        assert str(adversarial.value) == str(single.value) == str(criterion.value) == message


def _adversarial_on_the_raw_factor(net, tripped, target):
    """The instance from the tripped line's unmasked column, solved on the factor; None where the factor vanishes."""
    k, t = net.edge_index(tripped), net.edge_index(target)
    flows = net.factor.sensitivity_columns([k])[:, 0]
    column = flows / (1.0 - flows[k])
    k_norm = float(np.max(np.abs(np.delete(column, k))))
    if abs(column[t]) < scaled_tolerance(k_norm):
        return None
    capacities = np.full(net.m, (1.0 + k_norm) * float(np.max(np.abs(flows))))
    capacities[t] = abs(flows[t])
    return incidence_columns(net, [k])[:, 0], capacities


def _same_instance_as_the_raw_factor(net, tripped, target):
    expected = _adversarial_on_the_raw_factor(net, tripped, target)
    if expected is None:
        with pytest.raises(ZeroFactorError):
            adversarial_capacity(net, tripped, target)
        return
    instance = adversarial_capacity(net, tripped, target)
    assert instance.injections.tobytes() == expected[0].tobytes()
    assert instance.capacities.tobytes() == expected[1].tobytes()


def test_adversarial_capacity_is_the_raw_factor_route_bit_for_bit_on_fig2(fig2):
    for tripped, target in itertools.permutations(fig2.ids, 2):
        if tripped not in fig2.decomposition.bridges:
            _same_instance_as_the_raw_factor(fig2, tripped, target)


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_adversarial_capacity_is_the_raw_factor_route_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8, min_extra=1)
    inner = [line for line in net.ids if line not in net.decomposition.bridges]
    if not inner:  # two buses: no chord fits
        return
    tripped = int(rng.choice(inner))
    for target in net.ids:
        if target != tripped:
            _same_instance_as_the_raw_factor(net, tripped, target)


def test_adversarial_instance_drives_cascade(triangle):
    instance = adversarial_capacity(triangle, 1, 3)
    armed = with_capacities(triangle, instance.capacities)
    trace = run_cascade(armed, instance.injections, [1])
    assert trace.status == "islanded"
    assert trace.stages[1].tripped == frozenset({3})


def test_adversarial_capacity_unknown_target_is_named(triangle):
    with pytest.raises(UnknownEdgeError, match="99"):
        adversarial_capacity(triangle, 1, 99)


def _dense_perturbation_counts(network, outage, spec):
    """Per-trial dense route: full PTDF of each perturbed network, then glodf."""
    block_at = block_decomposition(network).block_at
    base = network.susceptances()
    within, cross = {}, {}
    for line in outage.surviving:
        for tripped in outage.outaged:
            same = block_at[network.edge_index(line)] == block_at[network.edge_index(tripped)]
            (within if same else cross)[(line, tripped)] = 0
    for trial in range(spec.trials):
        rng = np.random.default_rng([spec.seed, trial])
        omega = rng.uniform(-PERTURBATION, PERTURBATION, network.m)
        perturbed = with_susceptances(network, base * (1.0 + omega))
        K = glodf(None, None, None, OutageSet(perturbed, outage.outaged)).k_matrix
        for r, line in enumerate(outage.surviving):
            for c, tripped in enumerate(outage.outaged):
                if abs(float(K[r, c])) > localization.NONZERO_ATOL:
                    key = (line, tripped)
                    (within if key in within else cross)[key] += 1
    return within, cross


def _random_non_cut_case(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8, min_extra=1)
    outage_ids = sample_non_cut_outage(rng, net)
    return rng, net, None if outage_ids is None else OutageSet(net, outage_ids)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_perturbation_counts_match_dense_oracle(seed):
    _, net, outage = _random_non_cut_case(seed)
    if outage is None:
        return
    spec = PerturbationSpec(trials=4, seed=seed % 1000)
    stats = almost_sure_nonzero_test(outage, spec)
    within, cross = _dense_perturbation_counts(net, outage, spec)
    assert stats.within_block == within
    assert stats.cross_block == cross
    assert not any(stats.cross_block.values())


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_block_structure_report_property(seed):
    _, _, outage = _random_non_cut_case(seed)
    if outage is None:
        return
    report = block_structure_report(outage)
    bound = 1e-9 * max(1.0, report.matrix_scale)
    assert report.cross_block_max <= bound
    assert sum(len(block.col_ids) for block in report.blocks) == outage.size
    for block in report.blocks:
        assert block.k_direct.shape == block.k_from_parts.shape
        assert block.reassembly_err_direct <= bound
        assert block.reassembly_err_parts <= bound


def test_parts_are_solved_without_the_ptdf_or_a(monkeypatch, fig2):
    outage = OutageSet(fig2, [1, 6])

    def refuse(*args):
        raise AssertionError("k_from_parts read A")

    monkeypatch.setattr(LaplacianBundle, "A", property(refuse))
    report = block_structure_report(outage)
    assert all(block.reassembly_err_parts <= 1e-9 for block in report.blocks)


def _multi_block_outages(count):
    """Random networks with two or more cycle blocks, each outage one line per such block.

    A cycle block stays connected without any one of its lines, so no such
    outage is a cut set.
    """
    rng = np.random.default_rng(29)
    while count:
        net = random_network(rng, max_nodes=12, max_extra=4, min_extra=2)
        blocks = [sorted(b) for b in block_decomposition(net).blocks if len(b) > 1]
        if len(blocks) > 1:
            count -= 1
            yield net, [int(rng.choice(b)) for b in blocks]


def test_cross_block_max_reads_no_structural_zero(monkeypatch, fig2):
    columns = factors.PtdfMatrix.columns

    def filled(self, positions):
        d_cols = columns(self, positions)
        d_cols[~self.decomposition.same_block(slice(None), positions)] = 1.0
        return d_cols

    monkeypatch.setattr(factors.PtdfMatrix, "columns", filled)
    for net, lines in [(fig2, [1, 6]), *_multi_block_outages(20)]:
        report = block_structure_report(OutageSet(net, lines))
        assert report.cross_block_max < 1e-9 * max(1.0, report.matrix_scale)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_parts_come_from_the_post_contingency_factor_not_the_ptdf(fig2):
    fig2_outages = [(fig2, [line]) for line in (1, 2, 3, 6, 7, 8)] + [(fig2, [1, 6]), (fig2, [2, 8])]
    for net, lines in fig2_outages + list(_multi_block_outages(30)):
        outage = OutageSet(net, lines)
        post = glodf(None, None, None, outage, method="post_contingency")
        report = block_structure_report(outage)
        for block in report.blocks:
            rows = [outage.surviving.index(line) for line in block.row_ids]
            cols = [outage.outaged.index(line) for line in block.col_ids]
            assert _bitwise_equal(block.k_from_parts, post.k_matrix[np.ix_(rows, cols)])
        same = [_bitwise_equal(block.k_from_parts, block.k_direct) for block in report.blocks]
        # On a random network a small block can round to the same bits by both
        # routes (about 2% of blocks), but no whole report does.
        assert not any(same) if net is fig2 else not all(same)


def test_k_direct_is_the_kernel_on_the_masked_ptdf_columns(fig2):
    """The report reads each block from its unmasked whole-network columns, with the PTDF's bits."""
    for net, lines in [(fig2, [1, 7]), (fig2, [2, 8]), *_multi_block_outages(20)]:
        outage = OutageSet(net, lines)
        d_cols = net.sensitivity.columns(outage.outaged_idx)
        for block in block_structure_report(outage).blocks:
            full_cols = [outage.outaged.index(line) for line in block.col_ids]
            rows, cols = net.edge_positions(block.row_ids), net.edge_positions(block.col_ids)
            expected = factors._glodf_kernel(d_cols[np.ix_(rows, full_cols)],
                                             d_cols[np.ix_(cols, full_cols)])
            assert _bitwise_equal(block.k_direct, expected)


def test_perturbation_never_builds_the_inverse(monkeypatch, fig2):
    def refuse(*args):
        raise AssertionError("a dense inverse or full PTDF was built")

    monkeypatch.setattr(LaplacianBundle, "A", property(refuse), raising=False)
    monkeypatch.setattr(factors.PtdfMatrix, "matrix", property(refuse))
    stats = almost_sure_nonzero_test(OutageSet(fig2, [1, 6]), PerturbationSpec(trials=5))
    assert min(stats.within_block.values()) == 5 and not any(stats.cross_block.values())


@pytest.mark.parametrize("trials", [5, 100])
def test_perturbation_trials_factor_nothing_once_the_network_has_its_factor(fig2, trials, count_factors):
    outage = OutageSet(fig2, [1, 6])
    factor = fig2.factor
    stats = almost_sure_nonzero_test(outage, PerturbationSpec(trials=trials))
    assert count_factors == [factor]  # the network's own, built above; no trial builds another
    assert min(stats.within_block.values()) == trials and not any(stats.cross_block.values())


def _solve_widths(monkeypatch):
    """A list of the column count of every solve on any factor from now on."""
    widths = []
    solved = LaplacianBundle._solved

    def counting(self, x):
        widths.append(x.shape[1])
        return solved(self, x)

    monkeypatch.setattr(LaplacianBundle, "_solved", counting)
    return widths


def test_perturbation_trials_are_solved_in_chunks_of_at_most_batch_columns(monkeypatch, fig2):
    outage = OutageSet(fig2, [1, 6])
    fig2.factor
    widths = _solve_widths(monkeypatch)
    almost_sure_nonzero_test(outage, PerturbationSpec(trials=100))  # 200 columns
    # 16 whole trials of 2 lines fill each of six chunks; the seventh takes the last 4 trials
    assert max(widths) == factors._BATCH and widths.count(factors._BATCH) >= 6


@pytest.mark.parametrize("batch", [1, 3, 5])
def test_perturbation_counts_do_not_depend_on_the_chunk_width(monkeypatch, fig2, batch):
    # batch 1 splits each trial of 2 lines over two solves; 3 and 5 hold one and two whole trials
    outage = OutageSet(fig2, [1, 6])
    spec = PerturbationSpec(trials=7, seed=2)
    want = almost_sure_nonzero_test(outage, spec)
    monkeypatch.setattr(localization, "_BATCH", batch)
    widths = _solve_widths(monkeypatch)
    got = almost_sure_nonzero_test(outage, spec)
    assert max(widths) <= batch
    assert got.within_block == want.within_block and got.cross_block == want.cross_block


def test_adversarial_capacity_builds_no_dense_matrix(monkeypatch, fig2):
    def refuse(*args):
        raise AssertionError("a dense inverse or full PTDF was built")

    monkeypatch.setattr(LaplacianBundle, "A", property(refuse), raising=False)
    monkeypatch.setattr(factors.PtdfMatrix, "matrix", property(refuse))
    instance = adversarial_capacity(fig2, 1, 2)
    assert instance.capacities.shape == (fig2.m,)


def test_one_network_builds_its_decomposition_once(monkeypatch):
    built = []
    decompose = graph_algos.block_decomposition

    def counting(network):
        built.append(network)
        return decompose(network)

    monkeypatch.setattr(graph_algos, "block_decomposition", counting)
    net = build(fig2_doc())
    outage = OutageSet(net, [1, 6])
    lodf_single(net, 1)
    influence_graph(net, 0.05)
    block_structure_report(outage)
    almost_sure_nonzero_test(outage, PerturbationSpec(trials=2))
    adversarial_capacity(net, 1, 2)
    assert simple_cycle_criterion(net, 2, 1) == "possibly_nonzero"
    assert len(built) == 1 and built[0] is net


def _adversarial_by_full_ptdf(net, tripped, target):
    """The dense route: the full PTDF's outage column, then a second solve for the flows."""
    D = net.sensitivity.matrix
    k = net.edge_index(tripped)
    column = D[:, k] / (1.0 - D[k, k])
    k_norm = float(np.max(np.abs(np.delete(column, k))))
    if abs(column[net.edge_index(target)]) < RTOL * max(1.0, k_norm):
        return None
    injections = np.zeros(net.n)
    injections[net.node_index(net.sources[k])] = 1.0
    injections[net.node_index(net.targets[k])] = -1.0
    flows = solve_flow(net.factor, net, injections).flows
    capacities = np.full(net.m, (1.0 + k_norm) * float(np.max(np.abs(flows))))
    capacities[net.edge_index(target)] = abs(flows[net.edge_index(target)])
    return injections, capacities


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_unit_injection_matches_the_full_ptdf_route(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8, min_extra=1)
    ids = net.ids
    if net.m > 1:
        lines = rng.choice(ids, size=int(rng.integers(1, net.m)), replace=False).tolist()
        outage = OutageSet(net, lines)
        c_out = incidence_columns(net, outage.outaged_idx)
        assert np.array_equal(c_out, incidence_matrix(net)[:, outage.outaged_idx])

    inner = [line for line in ids if line not in block_decomposition(net).bridges]
    if not inner:
        return
    tripped = int(rng.choice(inner))
    target = int(rng.choice([line for line in ids if line != tripped]))
    expected = _adversarial_by_full_ptdf(net, tripped, target)
    if expected is None:
        with pytest.raises(ZeroFactorError):
            adversarial_capacity(net, tripped, target)
        return
    instance = adversarial_capacity(net, tripped, target)
    assert np.array_equal(instance.injections, expected[0])
    np.testing.assert_allclose(instance.capacities, expected[1], rtol=1e-12, atol=0)
