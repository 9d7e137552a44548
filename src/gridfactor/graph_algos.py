"""Block decomposition, cut-set detection, and simple-cycle coexistence.

The block decomposition partitions the edge set into maximal 2-connected
components.  Two distinct edges lie on a common simple cycle exactly when
they share a non-bridge block, which is how :func:`shares_simple_cycle`
answers the query without enumerating cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedError
from .net_model import Network

__all__ = ["BlockDecomposition", "block_decomposition", "is_cut_set", "shares_simple_cycle"]


@dataclass(frozen=True)
class BlockDecomposition:
    """Edge partition into blocks, plus the bridges and cut vertices.

    ``blocks`` is ordered by first edge appearance (ascending smallest edge
    id), which makes ``block_at`` deterministic for a given network.
    ``block_at`` holds each line's block index by edge position, read-only;
    it follows from ``blocks``, so it is not compared or hashed.
    """

    blocks: tuple[frozenset[int], ...]
    bridges: frozenset[int]
    cut_vertices: frozenset[int]
    block_at: np.ndarray = field(compare=False, repr=False)


def block_decomposition(network: Network) -> BlockDecomposition:
    """Unique block decomposition of a connected network.

    Iterative depth-first search with an edge stack (linear in nodes plus
    edges) over the network's position-space adjacency.  Raises
    DisconnectedError when the graph is not connected, found as the search
    needing a second root.  :attr:`Network.decomposition` keeps one per network.
    """
    ids = network.ids
    adjacency = network._adjacency
    disc = [-1] * network.n
    low = [-1] * network.n
    raw_blocks: list[list[int]] = []
    edge_stack: list[int] = []
    clock = 0

    for root in range(network.n):
        if disc[root] >= 0:
            continue
        if clock:
            raise DisconnectedError("block decomposition requires a connected network")
        # Each frame: (node, parent edge position, iterator over incident edges).
        disc[root] = low[root] = clock
        clock += 1
        frames = [(root, -1, iter(adjacency[root]))]
        while frames:
            node, parent_edge, it = frames[-1]
            advanced = False
            for other, edge in it:
                if edge == parent_edge:
                    continue
                if disc[other] < 0:
                    disc[other] = low[other] = clock
                    clock += 1
                    edge_stack.append(edge)
                    frames.append((other, edge, iter(adjacency[other])))
                    advanced = True
                    break
                if disc[other] < disc[node]:
                    # Back edge to an ancestor.
                    edge_stack.append(edge)
                    low[node] = min(low[node], disc[other])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent, _, _ = frames[-1]
                low[parent] = min(low[parent], low[node])
                if low[node] >= disc[parent]:
                    # parent closes a block: pop edges up to the tree edge.
                    members = []
                    while edge_stack:
                        popped = edge_stack.pop()
                        members.append(popped)
                        if popped == parent_edge:
                            break
                    raw_blocks.append(members)

    # Deterministic block order: ascending smallest edge id.
    raw_blocks.sort(key=lambda members: min(map(ids.__getitem__, members)))
    block_at = np.full(network.m, -1)
    for index, members in enumerate(raw_blocks):
        block_at[members] = index
    block_at.flags.writeable = False
    blocks = tuple(frozenset(map(ids.__getitem__, members)) for members in raw_blocks)
    bridges = frozenset(next(iter(b)) for b in blocks if len(b) == 1)

    # A cut vertex touches two or more blocks: count the distinct (node, block) pairs per node.
    pairs = np.unique(np.concatenate(network.endpoints) * network.m + np.tile(block_at, 2))
    touched = np.bincount(pairs // network.m, minlength=network.n)
    cut_vertices = frozenset(map(network.nodes.__getitem__, np.flatnonzero(touched >= 2).tolist()))

    return BlockDecomposition(
        blocks=blocks,
        bridges=bridges,
        cut_vertices=cut_vertices,
        block_at=block_at,
    )


def is_cut_set(network: Network, outage) -> bool:
    """True when removing the given lines disconnects the network.

    Every node counts, so isolating a single bus is detected.  Decided near
    the outage by :meth:`Network.disconnected_by`, which searches from both
    ends of each removed line.  Raises UnknownEdgeError naming every id that
    is not a line of the network.
    """
    return network.disconnected_by(network.edge_positions(set(outage)))


def shares_simple_cycle(network: Network, line: int, other: int) -> bool:
    """True when some simple cycle contains both lines.

    Answered through block equality on :attr:`Network.decomposition`: two distinct
    edges lie on a common simple cycle exactly when they share a non-bridge block.
    """
    if line == other:
        raise ValueError("lines must be distinct")
    decomposition = network.decomposition
    first, second = decomposition.block_at[network.edge_positions([line, other])]
    return bool(first == second) and line not in decomposition.bridges
