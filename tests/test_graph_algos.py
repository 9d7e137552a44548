import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import depth_first_order

from gridfactor import (
    BridgeError,
    CutSetError,
    DisconnectedError,
    Network,
    OutageSet,
    UnknownEdgeError,
    block_decomposition,
    glodf,
    load_network,
    run_cascade,
    simple_cycle_criterion,
)

from conftest import (
    connected_after_removal_oracle,
    detect_islanding,
    fig2_doc,
    is_cut_set,
    random_network,
    simple_cycle_oracle,
)


def test_fig2_decomposition(fig2):
    dec = block_decomposition(fig2)
    by_pair = {frozenset(ends): line for line, *ends in zip(fig2.ids, fig2.sources, fig2.targets)}
    assert dec.cut_vertices == frozenset({2, 3, 7})
    assert dec.bridges == frozenset({by_pair[frozenset((2, 6))], by_pair[frozenset((3, 7))]})
    assert len(dec.blocks) == 4


def test_triangle_single_block(triangle):
    dec = block_decomposition(triangle)
    assert dec.blocks == (frozenset({1, 2, 3}),)
    assert not dec.bridges
    assert not dec.cut_vertices


def test_path_two_singleton_blocks(path3):
    dec = block_decomposition(path3)
    assert dec.blocks == (frozenset({1}), frozenset({2}))
    assert dec.bridges == frozenset({1, 2})
    assert dec.cut_vertices == frozenset({2})


def test_blocks_partition_the_edge_set():
    rng = np.random.default_rng(19)
    for _ in range(12):
        net = random_network(rng)
        dec = block_decomposition(net)
        union = set()
        for block in dec.blocks:
            assert not (union & block)
            union |= block
        assert union == set(net.ids)
        assert all(len(b) == 1 for b in dec.blocks if next(iter(b)) in dec.bridges)


def test_block_of_is_deterministic(fig2):
    dec = block_decomposition(fig2)
    for index, members in enumerate(dec.blocks):
        for edge_id in members:
            assert dec.block_at[fig2.edge_index(edge_id)] == index
    # Blocks are ordered by their smallest edge id.
    mins = [min(b) for b in dec.blocks]
    assert mins == sorted(mins)


def test_decomposition_invariant_under_edge_reordering():
    doc = fig2_doc()
    base = load_network(doc)
    base_blocks = {
        frozenset(frozenset(ends) for line, *ends in zip(base.ids, base.sources, base.targets) if line in block)
        for block in block_decomposition(base).blocks
    }
    reordered_doc = dict(doc, edges=list(reversed(doc["edges"])))
    other = load_network(reordered_doc)
    other_blocks = {
        frozenset(frozenset(ends) for line, *ends in zip(other.ids, other.sources, other.targets) if line in block)
        for block in block_decomposition(other).blocks
    }
    assert base_blocks == other_blocks


def test_equal_networks_have_equal_decompositions_with_equal_hashes():
    first, second = load_network(fig2_doc()), load_network(fig2_doc())
    assert first.decomposition is not second.decomposition
    assert first.decomposition == second.decomposition
    assert hash(first.decomposition) == hash(second.decomposition)


def test_disconnected_graph_rejected():
    net = Network(nodes=(1, 2, 3, 4), ids=(1, 2), sources=(1, 3), targets=(2, 4),
                  b=(1.0, 1.0), cap=(math.inf, math.inf), reference=4)
    with pytest.raises(DisconnectedError):
        block_decomposition(net)


def test_parallel_pair_is_one_block_and_cut_only_together():
    # validate refuses parallel lines, but a directly built network keeps each line end in the index.
    net = Network(nodes=(1, 2, 3), ids=(1, 2, 3), sources=(1, 1, 2), targets=(2, 2, 3),
                  b=(1.0, 1.0, 1.0), cap=(math.inf,) * 3, reference=3)
    dec = block_decomposition(net)
    assert dec.blocks == (frozenset({1, 2}), frozenset({3}))
    assert dec.bridges == frozenset({3})
    assert is_cut_set(net, [1, 2])
    assert not is_cut_set(net, [1])


def test_self_loops_join_their_node_block_and_cut_nothing():
    # validate refuses self-loops; directly built ones at buses 2 and 1 (the search's root) of a
    # triangle join the triangle's block.
    net = Network(nodes=(1, 2, 3), ids=(1, 2, 3, 4, 5), sources=(1, 2, 1, 2, 1), targets=(2, 3, 3, 2, 1),
                  b=(1.0,) * 5, cap=(math.inf,) * 5, reference=3)
    dec = block_decomposition(net)
    assert dec.blocks == (frozenset({1, 2, 3, 4, 5}),)
    assert not dec.cut_vertices
    assert dec.block_at.tolist() == [0] * 5


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 9))
def test_the_search_is_depth_first_and_blocks_are_the_simple_cycle_classes(seed, chords):
    net = random_network(np.random.default_rng(seed), max_nodes=12, max_extra=chords, min_extra=chords)
    order, parent = depth_first_order(net._graph, 0, directed=True, return_predecessors=True)
    assert sorted(order.tolist()) == list(range(net.n))

    def ancestors(node):
        while node >= 0:
            yield node
            node = parent[node]

    # Every line joins a node to one of its ancestors, as a tree line does: the low points rest on this.
    for s, t in zip(*net.endpoints):
        assert s in ancestors(t) or t in ancestors(s)
    block_at = net.decomposition.block_at
    for (k, line), (j, other) in itertools.combinations(enumerate(net.ids), 2):
        assert (block_at[k] == block_at[j]) == simple_cycle_oracle(net, line, other)


def test_is_cut_set_examples(triangle, path3):
    assert not is_cut_set(triangle, {1})
    assert is_cut_set(triangle, {1, 3})
    assert is_cut_set(path3, {1})


def test_is_cut_set_unknown_edge(triangle):
    with pytest.raises(UnknownEdgeError, match=r"\[9\]"):
        is_cut_set(triangle, {9})


def test_is_cut_set_on_directly_built_networks():
    split = Network(nodes=(1, 2, 3, 4), ids=(1, 2), sources=(1, 3), targets=(2, 4),
                    b=(1.0, 1.0), cap=(math.inf, math.inf), reference=4)
    assert is_cut_set(split, {1})
    assert is_cut_set(split, {2})
    ring = Network(nodes=(1, 2, 3), ids=(1, 2, 3), sources=(1, 2, 3), targets=(2, 3, 1),
                   b=(1.0, 1.0, 1.0), cap=(math.inf,) * 3, reference=3)
    assert not is_cut_set(ring, {2})
    assert is_cut_set(ring, {1, 2})


def test_is_cut_set_isolating_one_bus(k4, fig2):
    # Lines 1, 2 and 3 are every line at bus 1 of K4.
    assert is_cut_set(k4, {1, 2, 3})
    assert not is_cut_set(k4, {1, 2})
    assert not is_cut_set(k4, {1, 2, 6})
    # Bus 6 of fig2 hangs on line 4 alone.
    assert is_cut_set(fig2, {4})


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0, 0), (2, 0), (12, 4)]),  # trees, bridge-heavy, meshed
)
def test_is_cut_set_matches_whole_network_oracle(seed, extra):
    max_extra, min_extra = extra
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=max_extra, min_extra=min_extra)
    if net.m < 2:
        return
    ids = net.ids
    for _ in range(6):
        size = int(rng.integers(1, min(4, net.m - 1) + 1))
        outage = sorted(int(v) for v in rng.choice(ids, size=size, replace=False))
        cut = not connected_after_removal_oracle(net, outage)
        assert is_cut_set(net, outage) == cut
        split = OutageSet(net, outage)
        assert detect_islanding(split) == cut
        if cut:
            with pytest.raises(CutSetError):
                glodf(None, None, None, split)
        else:
            glodf(None, None, None, split)
        trace = run_cascade(net, np.zeros(net.n), outage)
        assert (trace.status == "islanded") == cut


def _splits_without(net, node):
    """True when the nodes other than ``node`` are not all joined once it is removed."""
    rest = [v for v in net.nodes if v != node]
    adjacency = {v: [] for v in rest}
    for source, target in zip(net.sources, net.targets):
        if node not in (source, target):
            adjacency[source].append(target)
            adjacency[target].append(source)
    reached, stack = {rest[0]}, [rest[0]]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in reached:
                reached.add(other)
                stack.append(other)
    return len(reached) < len(rest)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0, 0), (2, 0), (12, 4)]),  # trees, bridge-heavy, meshed
)
def test_cut_vertices_match_brute_force_and_the_cached_decomposition_is_fresh(seed, extra):
    max_extra, min_extra = extra
    net = random_network(np.random.default_rng(seed), max_nodes=10, max_extra=max_extra,
                         min_extra=min_extra)
    cached = net.decomposition
    assert cached.cut_vertices == {node for node in net.nodes if _splits_without(net, node)}
    fresh = block_decomposition(net)
    assert (cached.blocks, cached.bridges, cached.cut_vertices) == (
        fresh.blocks, fresh.bridges, fresh.cut_vertices)
    assert net.decomposition is cached
    assert cached.block_at.tolist() == [
        next(k for k, block in enumerate(cached.blocks) if line in block) for line in net.ids]


def test_is_cut_set_agrees_with_connectivity_oracle():
    rng = np.random.default_rng(13)
    for _ in range(15):
        net = random_network(rng, max_nodes=7)
        ids = net.ids
        for size in (1, 2):
            for outage in itertools.combinations(ids, size):
                assert is_cut_set(net, outage) == (
                    not connected_after_removal_oracle(net, outage)
                )


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0, 0), (2, 0), (12, 4)]),  # trees, bridge-heavy, meshed
    st.booleans(),
)
def test_is_cut_set_matches_the_oracle_at_every_outage_size(seed, extra, multigraph):
    # Sizes 1 through m - 1, so large outages reach labels that reduce to 0 late in the elimination.
    max_extra, min_extra = extra
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=max_extra, min_extra=min_extra)
    if multigraph:
        # validate refuses these, so build directly: reversed copies of up to three lines and a
        # self-loop, every line at a shuffled position.
        copies = rng.choice(net.m, size=min(net.m, 3), replace=False).tolist()
        loop = int(rng.choice(net.nodes))
        pairs = [*zip(net.sources, net.targets), *((net.targets[k], net.sources[k]) for k in copies), (loop, loop)]
        sources, targets = zip(*(pairs[k] for k in rng.permutation(len(pairs)).tolist()))
        m = len(pairs)
        net = Network(nodes=net.nodes, ids=tuple(range(1, m + 1)), sources=sources, targets=targets,
                      b=(1.0,) * m, cap=(math.inf,) * m, reference=net.reference)
    for size in range(1, net.m):
        for _ in range(2):
            outage = rng.choice(net.ids, size=size, replace=False).tolist()
            assert is_cut_set(net, outage) == (not connected_after_removal_oracle(net, outage))


def test_shares_simple_cycle_examples(triangle, path3, fig2):
    assert simple_cycle_criterion(triangle, 1, 2) == "possibly_nonzero"
    assert not simple_cycle_oracle(path3, 1, 2)
    with pytest.raises(BridgeError):  # every line of a path is a bridge
        simple_cycle_criterion(path3, 1, 2)
    dec = block_decomposition(fig2)
    bridge = min(dec.bridges)
    in_block = min(b for b in dec.blocks if len(b) > 1)
    assert simple_cycle_criterion(fig2, bridge, min(in_block)) == "zero"
    with pytest.raises(BridgeError):
        simple_cycle_criterion(fig2, min(in_block), bridge)


def test_shares_simple_cycle_identical_lines(triangle):
    with pytest.raises(ValueError):
        simple_cycle_criterion(triangle, 1, 1)


def test_shares_simple_cycle_agrees_with_search_oracle():
    rng = np.random.default_rng(23)
    for _ in range(12):
        net = random_network(rng, max_nodes=10)
        for line, outaged in itertools.permutations(net.ids, 2):
            shared = simple_cycle_oracle(net, line, outaged)
            if outaged in net.decomposition.bridges:
                assert not shared
                with pytest.raises(BridgeError):
                    simple_cycle_criterion(net, line, outaged)
            else:
                assert (simple_cycle_criterion(net, line, outaged) == "possibly_nonzero") == shared
