import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    CutSetError,
    DisconnectedError,
    Edge,
    Network,
    OutageSet,
    UnknownEdgeError,
    block_decomposition,
    build_laplacian,
    detect_islanding,
    glodf,
    is_cut_set,
    load_network,
    ptdf_matrix,
    run_cascade,
    shares_simple_cycle,
)
from gridfactor.net_model import is_connected

from conftest import (
    connected_after_removal_oracle,
    fig2_doc,
    random_network,
    simple_cycle_oracle,
)


def test_fig2_decomposition(fig2):
    dec = block_decomposition(fig2)
    by_pair = {frozenset((e.source, e.target)): e.id for e in fig2.edges}
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
        assert union == set(net.edge_ids())
        assert all(len(b) == 1 for b in dec.blocks if next(iter(b)) in dec.bridges)


def test_block_of_is_deterministic(fig2):
    dec = block_decomposition(fig2)
    for index, members in enumerate(dec.blocks):
        for edge_id in members:
            assert dec.block_of[edge_id] == index
    # Blocks are ordered by their smallest edge id.
    mins = [min(b) for b in dec.blocks]
    assert mins == sorted(mins)


def test_decomposition_invariant_under_edge_reordering():
    doc = fig2_doc()
    base = load_network(doc)
    base_blocks = {
        frozenset(frozenset((e.source, e.target)) for e in base.edges if e.id in block)
        for block in block_decomposition(base).blocks
    }
    reordered_doc = dict(doc, edges=list(reversed(doc["edges"])))
    other = load_network(reordered_doc)
    other_blocks = {
        frozenset(frozenset((e.source, e.target)) for e in other.edges if e.id in block)
        for block in block_decomposition(other).blocks
    }
    assert base_blocks == other_blocks


def test_disconnected_graph_rejected():
    net = Network(
        nodes=(1, 2, 3, 4),
        edges=(Edge(1, 1, 2, 1.0), Edge(2, 3, 4, 1.0)),
        reference=4,
    )
    with pytest.raises(DisconnectedError):
        block_decomposition(net)


def test_is_cut_set_examples(triangle, path3):
    assert not is_cut_set(triangle, {1})
    assert is_cut_set(triangle, {1, 3})
    assert is_cut_set(path3, {1})


def test_is_cut_set_unknown_edge(triangle):
    with pytest.raises(UnknownEdgeError, match=r"\[9\]"):
        is_cut_set(triangle, {9})


def test_is_cut_set_on_directly_built_networks():
    split = Network(
        nodes=(1, 2, 3, 4),
        edges=(Edge(1, 1, 2, 1.0), Edge(2, 3, 4, 1.0)),
        reference=4,
    )
    assert is_cut_set(split, {1})
    assert is_cut_set(split, {2})
    ring = Network(
        nodes=(1, 2, 3),
        edges=(Edge(1, 1, 2, 1.0), Edge(2, 2, 3, 1.0), Edge(3, 3, 1, 1.0)),
        reference=3,
    )
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
    bundle = build_laplacian(net)
    ptdf = ptdf_matrix(bundle, net)
    ids = net.edge_ids()
    for _ in range(6):
        size = int(rng.integers(1, min(4, net.m - 1) + 1))
        outage = sorted(int(v) for v in rng.choice(ids, size=size, replace=False))
        cut = not is_connected(net.without_edges(outage))
        assert is_cut_set(net, outage) == cut
        split = OutageSet(net, outage)
        assert detect_islanding(ptdf, split) == cut
        if cut:
            with pytest.raises(CutSetError):
                glodf(bundle, ptdf, net, split)
        else:
            glodf(bundle, ptdf, net, split)
        trace = run_cascade(net, np.zeros(net.n), outage)
        assert (trace.status == "islanded") == cut


def test_is_cut_set_agrees_with_connectivity_oracle():
    rng = np.random.default_rng(13)
    for _ in range(15):
        net = random_network(rng, max_nodes=7)
        ids = net.edge_ids()
        for size in (1, 2):
            for outage in itertools.combinations(ids, size):
                assert is_cut_set(net, outage) == (
                    not connected_after_removal_oracle(net, outage)
                )


def test_shares_simple_cycle_examples(triangle, path3, fig2):
    assert shares_simple_cycle(triangle, 1, 2)
    assert not shares_simple_cycle(path3, 1, 2)
    dec = block_decomposition(fig2)
    bridge = min(dec.bridges)
    in_block = min(b for b in dec.blocks if len(b) > 1)
    assert not shares_simple_cycle(fig2, min(in_block), bridge)


def test_shares_simple_cycle_identical_lines(triangle):
    with pytest.raises(ValueError):
        shares_simple_cycle(triangle, 1, 1)


def test_shares_simple_cycle_agrees_with_search_oracle():
    rng = np.random.default_rng(23)
    for _ in range(12):
        net = random_network(rng, max_nodes=10)
        for line, other in itertools.combinations(net.edge_ids(), 2):
            assert shares_simple_cycle(net, line, other) == simple_cycle_oracle(
                net, line, other
            )
