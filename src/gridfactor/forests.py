"""Brute-force spanning-tree and two-tree-forest enumeration.

This module is the independent oracle for the distribution-factor algebra:
matrix entries, PTDF, LODF, and effective reactance are all recomputed here
as ratios of weighted forest sums and compared against the dense
linear-algebra routes elsewhere.  Enumeration is deliberately naive so that
it is obviously correct, and capped to keep runtimes bounded.

Each network's spanning trees are enumerated once, by contraction and
deletion, and every other family is read from that one list.  The trees
avoiding a line are a filter of it.  The two-tree spanning forests are its
trees less one line each: removing a line of a spanning tree leaves two
trees, and every two-tree forest of a connected network grows back into a
spanning tree by one line.  The enumeration is the network's
:attr:`~gridfactor.net_model.Network.oracle`, so it lives as long as its
network and no longer.

Every weight sum is exact: a line weighs the exact rational value of its
float susceptance, and each answer is one exact ratio of such sums rounded
once to the nearest float, so the identity checks carry no rounding slack
from the oracle's side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .dcpf import build_laplacian
from .errors import BridgeError, TooLargeError, ValidationError
from .net_model import RTOL, Network

__all__ = [
    "ForestFamily",
    "MatrixTreeReport",
    "ReactanceReport",
    "enumerate_spanning_trees",
    "enumerate_two_tree_forests",
    "a_entry_via_forests",
    "ptdf_via_forests",
    "lodf_via_forests",
    "matrix_tree_check",
    "effective_reactance",
]

#: Hard cap on enumerated members.
MAX_MEMBERS = 10**7


@dataclass(frozen=True)
class ForestFamily:
    """An enumerated family of spanning trees or two-tree spanning forests.

    ``members`` holds each forest as an ascending tuple of edge ids, in
    lexicographic order.  Member k weighs exactly ``numerators[k] /
    denominator``, the product of its lines' exact susceptances: each line
    weight is an integer over one power-of-two denominator, so a weight sum
    is an integer sum.  The fraction is kept in lowest terms, so equality
    compares kind, members and per-member weights.  ``weight_sum_exact`` is
    the family's exact weight, ``weight_sum`` that weight rounded to the
    nearest float.
    """

    kind: str
    members: tuple[tuple[int, ...], ...]
    numerators: tuple[int, ...] = field(repr=False)
    denominator: int = field(repr=False)

    def __post_init__(self):
        common = math.gcd(self.denominator, *self.numerators)
        if common > 1:
            object.__setattr__(self, "numerators", tuple(k // common for k in self.numerators))
            object.__setattr__(self, "denominator", self.denominator // common)

    @cached_property
    def weight_sum_exact(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)

    @property
    def weight_sum(self) -> float:
        return float(self.weight_sum_exact)

    def __len__(self) -> int:
        return len(self.members)

    def total(self, mask) -> Fraction:
        """The exact weight of the members the mask keeps."""
        return Fraction(sum(itertools.compress(self.numerators, mask)), self.denominator)

    def select(self, mask) -> ForestFamily:
        """The members the mask keeps, as a family of the same kind."""
        mask = list(mask)
        return ForestFamily(self.kind, tuple(itertools.compress(self.members, mask)),
                            tuple(itertools.compress(self.numerators, mask)), self.denominator)


@dataclass(frozen=True)
class MatrixTreeReport:
    """Determinant and first-minor comparison against forest weight sums."""

    determinant: float
    forest_weight: float
    determinant_rel_err: float
    minor_max_rel_err: float
    passed: bool


@dataclass(frozen=True)
class ReactanceReport:
    """Effective reactance of a line and its network reduction ratio.

    ``effective`` is the two-terminal equivalent reactance across the
    line's endpoints; ``line_reactance`` is 1/B for the line itself;
    ``reduction_ratio`` is the weighted share of spanning trees avoiding
    the line, so line_reactance - effective = line_reactance * ratio.
    """

    effective: float
    line_reactance: float
    reduction_ratio: float


def _rel_err(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise; NaN wherever a or b is NaN."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _enumerate_tree_sets(n: int, edge_list) -> list[frozenset[int]]:
    """All spanning trees of the graph given as (edge_id, u, v) triples.

    Recursive contraction/deletion on the first remaining edge, pruning
    branches whose residual graph is disconnected, so the work is
    proportional to the output.
    """
    trees: list[frozenset[int]] = []

    def connected(vertices: frozenset[int], edges) -> bool:
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        remaining = len(vertices)
        for _, u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                remaining -= 1
                if remaining == 1:
                    return True
        return remaining == 1

    def recurse(vertices: frozenset[int], edges, chosen: list[int]):
        if len(vertices) == 1:
            trees.append(frozenset(chosen))
            if len(trees) > MAX_MEMBERS:
                raise TooLargeError("spanning-tree enumeration exceeded the cap")
            return
        if not edges or not connected(vertices, edges):
            return
        eid, u, v = edges[0]
        # Keep the edge: contract v into u, dropping the self-loops that form.
        contracted = []
        for other_id, a, b in edges[1:]:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                contracted.append((other_id, a2, b2))
        chosen.append(eid)
        recurse(vertices - {v}, contracted, chosen)
        chosen.pop()
        # Drop the edge.
        recurse(vertices, edges[1:], chosen)

    vertices = frozenset(range(n))
    recurse(vertices, list(edge_list), [])
    return trees


class _Oracle:
    """One network's spanning trees, and the two-tree forests read from them.

    Both are :class:`ForestFamily` records: every query sums over them, and
    the public enumerations select from them.  Keeps no reference to the
    network, so a network that holds its oracle is still freed by reference
    counting.  A line weighs ``Fraction(b)``, the exact value of its float
    susceptance; a non-finite one has none and is refused.  The tree count
    checked against the cap is the determinant of the unit-weight factor.
    """

    def __init__(self, network: Network):
        ids = network.ids
        for eid, weight in zip(ids, network.b):
            if not math.isfinite(weight):
                raise ValidationError(f"susceptances must be finite; line {eid} has {weight}")
        if build_laplacian(network, np.ones(network.m)).reduced_determinant > MAX_MEMBERS:
            raise TooLargeError("estimated spanning-tree count exceeds the enumeration cap")
        source, target = (ends.tolist() for ends in network.endpoints)
        self.n = network.n
        self.ends = dict(zip(ids, zip(source, target)))
        exact = [Fraction(weight) for weight in network.b]
        self.common = math.lcm(*(f.denominator for f in exact))  # a power of two: the floats are dyadic
        self.scaled = {eid: f.numerator * (self.common // f.denominator) for eid, f in zip(ids, exact)}
        raw = _enumerate_tree_sets(network.n, list(zip(ids, source, target)))
        self.trees = self._weigh("spanning_trees", sorted(tuple(sorted(tree)) for tree in raw))

    def _weigh(self, kind: str, members) -> ForestFamily:
        members = tuple(members)
        numerators = tuple(math.prod(map(self.scaled.__getitem__, member)) for member in members)
        return ForestFamily(kind, members, numerators, self.common ** (len(members[0]) if members else 0))

    def trees_avoiding(self, line: int) -> Fraction:
        """The exact weight of the trees without the line."""
        return self.trees.total([line not in tree for tree in self.trees.members])

    @cached_property
    def forests(self) -> ForestFamily:
        """Every two-tree spanning forest: a spanning tree less one of its lines."""
        members = {tree[:k] + tree[k + 1:] for tree in self.trees.members for k in range(len(tree))}
        return self._weigh("two_tree_forests", sorted(members))

    @cached_property
    def far(self) -> np.ndarray:
        """Forest x node-position mask of the nodes outside the tree holding position 0."""
        far = np.ones((len(self.forests.members), self.n), dtype=bool)
        for row, member in zip(far, self.forests.members):
            adjacency = [[] for _ in range(self.n)]
            for eid in member:
                u, v = self.ends[eid]
                adjacency[u].append(v)
                adjacency[v].append(u)
            near, stack = {0}, [0]
            while stack:
                for other in adjacency[stack.pop()]:
                    if other not in near:
                        near.add(other)
                        stack.append(other)
            row[list(near)] = False
        return far


def _separating(network: Network, group_a, group_b) -> list[bool]:
    """Mask of the two-tree forests separating the node groups, over ``network.oracle.forests``."""
    group_a = set(group_a)
    group_b = set(group_b)
    if not group_a or not group_b:
        raise ValueError("node groups must be nonempty")
    if group_a & group_b:
        return []  # keeps no forest
    oracle = network.oracle
    a = oracle.far[:, [network.node_index(v) for v in group_a]]
    b = oracle.far[:, [network.node_index(v) for v in group_b]]
    # Each group sits whole in one of the two trees, and not in the same one.
    return ((a.all(axis=1) & ~b.any(axis=1)) | (b.all(axis=1) & ~a.any(axis=1))).tolist()


def _forest_sum(network: Network, group_a, group_b) -> Fraction:
    """The exact weight of the two-tree forests separating the node groups."""
    return network.oracle.forests.total(_separating(network, group_a, group_b))


def _flow_share(network: Network, k: int, a: int, b: int, den: Fraction) -> float:
    """b_k (pos - neg) / den for the line at position k, from i to j, and the buses a and b.

    ``pos`` weighs the forests pairing {i, a} against {j, b}, ``neg`` the
    opposite pairing {i, b} against {j, a}.
    """
    i, j = network.sources[k], network.targets[k]
    pos = _forest_sum(network, {i, a}, {j, b})
    neg = _forest_sum(network, {i, b}, {j, a})
    return float(Fraction(network.b[k]) * (pos - neg) / den)


def enumerate_spanning_trees(network: Network, allowed_edges=None) -> ForestFamily:
    """All spanning trees drawing edges from ``allowed_edges`` (default: all).

    Raises TooLargeError past the enumeration cap.
    """
    allowed = frozenset(network.ids if allowed_edges is None else allowed_edges)
    network.edge_positions(allowed)  # UnknownEdgeError naming every unknown id
    trees = network.oracle.trees
    return trees.select(allowed.issuperset(tree) for tree in trees.members)


def enumerate_two_tree_forests(network: Network, group_a, group_b) -> ForestFamily:
    """Spanning forests of exactly two trees separating the two node groups.

    The family is empty whenever the groups overlap.
    """
    for node in itertools.chain(group_a, group_b):
        network.node_index(node)
    return network.oracle.forests.select(_separating(network, group_a, group_b))


def a_entry_via_forests(network: Network, i: int, j: int) -> float:
    """Entry (i, j) of the padded reduced-Laplacian inverse, via forest sums.

    Weighted share of two-tree forests joining i with j while the reference
    bus sits in the other tree; zero whenever i or j is the reference.
    """
    network.node_index(i)
    network.node_index(j)
    if i == network.reference or j == network.reference:
        return 0.0
    return float(_forest_sum(network, {i, j}, {network.reference}) / network.oracle.trees.weight_sum_exact)


def ptdf_via_forests(network: Network, line: int, inject_at: int, withdraw_at: int) -> float:
    """Flow sensitivity of ``line`` to a unit injection shift, via forest sums.

    For line (i, j) the numerator pits forests pairing {i, inject_at} with
    {j, withdraw_at} against the opposite-orientation pairing; the
    denominator is the total spanning-tree weight.
    """
    k = network.edge_index(line)
    network.node_index(inject_at)
    network.node_index(withdraw_at)
    return _flow_share(network, k, inject_at, withdraw_at, network.oracle.trees.weight_sum_exact)


def lodf_via_forests(network: Network, line: int, outaged: int) -> float:
    """Outage distribution factor via forest sums.

    Same numerator as the injection-shift factor taken at the outaged
    line's endpoints; the denominator sums spanning trees avoiding the
    outaged line, so a bridge outage (empty family) raises BridgeError.
    """
    if line == outaged:
        raise ValueError("lines must be distinct")
    k, hat = network.edge_index(line), network.edge_index(outaged)
    den = network.oracle.trees_avoiding(outaged)
    if not den:
        raise BridgeError(f"line {outaged} is a bridge; no spanning tree avoids it")
    return _flow_share(network, k, network.sources[hat], network.targets[hat], den)


def matrix_tree_check(network: Network) -> MatrixTreeReport:
    """Compare reduced-Laplacian determinants against forest weight sums.

    Checks the factor's determinant (:class:`LaplacianBundle`) against the
    total spanning-tree weight and every first minor of its reduced L
    against the signed weight of the matching two-tree family, at RTOL.
    """
    bundle = network.factor
    oracle = network.oracle  # refuses a network past the cap before the reduced L is made dense
    reduced = bundle.reduced.toarray()
    non_ref_nodes = [node for node in network.nodes if node != network.reference]

    forest_weight = float(oracle.trees.weight_sum_exact)
    determinant = bundle.reduced_determinant
    det_err = float(_rel_err(determinant, forest_weight))

    size = len(non_ref_nodes)
    minors, signed = np.ones((size, size)), np.empty((size, size))
    for row, col in itertools.product(range(size), repeat=2):
        sub = np.delete(np.delete(reduced, row, axis=0), col, axis=1)
        if sub.size:
            minors[row, col] = np.linalg.det(sub)
        expected = float(_forest_sum(network, {non_ref_nodes[row], non_ref_nodes[col]}, {network.reference}))
        signed[row, col] = expected if (row + col) % 2 == 0 else -expected
    minor_max = float(np.max(_rel_err(minors, signed), initial=0.0))  # a NaN stays NaN and fails

    passed = det_err <= RTOL and minor_max <= RTOL
    return MatrixTreeReport(
        determinant=determinant,
        forest_weight=forest_weight,
        determinant_rel_err=det_err,
        minor_max_rel_err=minor_max,
        passed=passed,
    )


def effective_reactance(network: Network, line: int) -> ReactanceReport:
    """Two-terminal equivalent reactance across a line, via forest sums.

    The reduction ratio is the weighted share of spanning trees avoiding
    the line; it vanishes exactly when the line is a bridge, in which case
    the effective reactance equals the line reactance.
    """
    k = network.edge_index(line)
    num = _forest_sum(network, {network.sources[k]}, {network.targets[k]})
    oracle = network.oracle
    return ReactanceReport(
        effective=float(num / oracle.trees.weight_sum_exact),
        line_reactance=1.0 / network.b[k],
        reduction_ratio=float(oracle.trees_avoiding(line) / oracle.trees.weight_sum_exact),
    )
