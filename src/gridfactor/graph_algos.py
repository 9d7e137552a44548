"""Block decomposition, cut-set detection, and simple-cycle coexistence.

The block decomposition partitions the edge set into maximal 2-connected
components.  Two distinct edges lie on a common simple cycle exactly when
they share a non-bridge block, which is how :func:`shares_simple_cycle`
answers the query without enumerating cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import DisconnectedError, UnknownEdgeError
from .net_model import Network

__all__ = ["BlockDecomposition", "block_decomposition", "is_cut_set", "shares_simple_cycle"]


@dataclass(frozen=True)
class BlockDecomposition:
    """Edge partition into blocks, plus the bridges and cut vertices.

    ``blocks`` is ordered by first edge appearance (ascending smallest edge
    id), which makes ``block_of`` deterministic for a given network.
    """

    blocks: tuple[frozenset[int], ...]
    bridges: frozenset[int]
    cut_vertices: frozenset[int]
    block_of: MappingProxyType

    def block_edges(self, index: int) -> frozenset[int]:
        return self.blocks[index]

    def is_bridge(self, edge_id: int) -> bool:
        return edge_id in self.bridges


def block_decomposition(network: Network) -> BlockDecomposition:
    """Unique block decomposition of a connected network.

    Iterative depth-first search with an edge stack (linear in nodes plus
    edges) over the network's position-space adjacency.  Raises
    DisconnectedError when the graph is not connected, found as the search
    needing a second root.
    """
    ids = network.edge_ids()
    adjacency = network._adjacency
    disc = [-1] * network.n
    low = [-1] * network.n
    raw_blocks: list[frozenset[int]] = []
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
                        members.append(ids[popped])
                        if popped == parent_edge:
                            break
                    raw_blocks.append(frozenset(members))

    # Deterministic block order: ascending smallest edge id.
    blocks = tuple(sorted(raw_blocks, key=min))
    block_of = {}
    for index, members in enumerate(blocks):
        for edge_id in members:
            block_of[edge_id] = index

    bridges = frozenset(next(iter(b)) for b in blocks if len(b) == 1)

    touched: dict[int, set[int]] = {node: set() for node in network.nodes}
    for edge in network.edges:
        touched[edge.source].add(block_of[edge.id])
        touched[edge.target].add(block_of[edge.id])
    cut_vertices = frozenset(node for node, owners in touched.items() if len(owners) >= 2)

    return BlockDecomposition(
        blocks=blocks,
        bridges=bridges,
        cut_vertices=cut_vertices,
        block_of=MappingProxyType(block_of),
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

    Answered through block equality: two distinct edges lie on a common
    simple cycle exactly when they share a non-bridge block.
    """
    return _shares_block(block_decomposition(network), line, other)


def _shares_block(decomposition: BlockDecomposition, line: int, other: int) -> bool:
    if line == other:
        raise ValueError("lines must be distinct")
    for edge_id in (line, other):
        if edge_id not in decomposition.block_of:
            raise UnknownEdgeError(f"unknown edge id {edge_id}")
    if decomposition.block_of[line] != decomposition.block_of[other]:
        return False
    return line not in decomposition.bridges
