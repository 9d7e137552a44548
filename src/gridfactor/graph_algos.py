"""Block decomposition, cut-set detection, and simple-cycle coexistence.

The block decomposition partitions the edge set into maximal 2-connected
components.  Two distinct edges lie on a common simple cycle exactly when
they share a non-bridge block, which is how :func:`shares_simple_cycle`
answers the query without enumerating cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np
from scipy.sparse.csgraph import depth_first_order

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

    One depth-first search in C along the symmetric topology index gives the
    tree; every line joins a node to an ancestor, giving the low points.  The
    tree line into a node opens a block unless the node's low point reaches
    above its parent, and every line joins the block of the tree line into
    its deeper end.  A self-loop (which ``validate`` refuses) joins the block
    of the tree line into its node, the first block at position 0, and a
    bridge it joins is no longer one.  Raises DisconnectedError when the
    search misses a node.  :attr:`Network.decomposition` keeps one per network.
    """
    ids, n = network.ids, network.n
    order, parent = depth_first_order(network._graph, 0, directed=True, return_predecessors=True)
    if len(order) < n:
        raise DisconnectedError("block decomposition requires a connected network")
    pre = np.argsort(order)  # each node's place in the preorder
    source, target = network.endpoints
    deep = np.where(pre[source] > pre[target], source, target)
    shallow = source + target - deep
    low = pre.copy()
    np.minimum.at(low, deep, pre[shallow])  # a tree line lowers no low point below its parent

    order, parent, pre, low = order.tolist(), parent.tolist(), pre.tolist(), low.tolist()
    for node in reversed(order[1:]):
        low[parent[node]] = min(low[parent[node]], low[node])
    opened, heads = [0] * n, count()  # the block of the tree line into each node
    for node in order[1:]:
        opened[node] = next(heads) if low[node] >= pre[parent[node]] else opened[parent[node]]
    raw = np.array(opened)[deep]

    # Deterministic block order: ascending smallest edge id.
    first = np.unique(raw[sorted(range(network.m), key=ids.__getitem__)], return_index=True)[1]
    block_at = np.argsort(np.argsort(first))[raw]
    block_at.flags.writeable = False
    grouped = np.split(np.argsort(block_at, kind="stable"), np.bincount(block_at).cumsum())[:-1]
    blocks = tuple(frozenset(map(ids.__getitem__, members.tolist())) for members in grouped)
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
