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

When every line susceptance is a ratio of small integers, the weight sums
are accumulated in exact rational arithmetic, which removes rounding slack
from the identity checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .dcpf import build_laplacian
from .errors import BridgeError, TooLargeError
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
#: Largest numerator/denominator for the exact rational weight mode.
MAX_RATIONAL = 10**6


@dataclass(frozen=True)
class ForestFamily:
    """An enumerated family of spanning trees or two-tree spanning forests.

    ``members`` holds each forest as an ascending tuple of edge ids, with
    the list itself in lexicographic order.  ``weight_sum`` is the sum of
    per-forest susceptance products; ``weight_sum_exact`` carries the same
    sum as a Fraction when exact mode applies.
    """

    kind: str
    members: tuple[tuple[int, ...], ...]
    weight_sum: float
    weight_sum_exact: Fraction | None = None

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MatrixTreeReport:
    """Determinant and first-minor comparison against forest weight sums."""

    determinant: float
    forest_weight: float
    determinant_rel_err: float
    minor_max_rel_err: float
    tolerance: float
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


def _nice_fraction(value: float) -> Fraction | None:
    """Exact small-rational form of ``value``, or None."""
    if not math.isfinite(value):
        return None
    frac = Fraction(value).limit_denominator(MAX_RATIONAL)
    if float(frac) == value and abs(frac.numerator) <= MAX_RATIONAL:
        return frac
    return None


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _enumerate_tree_sets(n: int, edge_list) -> list[frozenset[int]]:
    """All spanning trees of the graph given as (edge_id, u, v) triples.

    Recursive contraction/deletion on the first remaining edge, pruning
    branches whose residual graph is disconnected, so the work is
    proportional to the output.
    """
    trees: list[frozenset[int]] = []

    def connected(vertices: frozenset[int], edges) -> bool:
        if len(vertices) <= 1:
            return True
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


@dataclass(frozen=True)
class _Weighted:
    """Enumerated members in lexicographic order with their weight products.

    In exact mode member k weighs ``numerators[k] / denominator``: every
    member has the same number of lines and every exact line weight is an
    integer over one common denominator, so exact sums are integer sums.
    """

    members: tuple[tuple[int, ...], ...]
    betas: np.ndarray
    numerators: tuple[int, ...] | None
    denominator: int = 1

    def select(self, mask) -> tuple[tuple[tuple[int, ...], ...], float, Fraction | None]:
        """(members, float sum, exact sum) over the members the mask keeps."""
        mask = np.asarray(mask, dtype=bool)
        exact = None
        if self.numerators is not None:
            exact = Fraction(sum(itertools.compress(self.numerators, mask)), self.denominator)
        return tuple(itertools.compress(self.members, mask)), math.fsum(self.betas[mask]), exact


class _Oracle:
    """One network's spanning trees, and the two-tree forests read from them.

    Keeps no reference to the network, so a network that holds its oracle
    is still freed by reference counting.  Exact mode is decided once, over
    every line.  The tree count checked against the cap is the determinant
    of the unit-weight factor.
    """

    def __init__(self, network: Network):
        if build_laplacian(network, np.ones(network.m)).reduced_determinant > MAX_MEMBERS:
            raise TooLargeError("estimated spanning-tree count exceeds the enumeration cap")
        ids = network.ids
        source, target = (ends.tolist() for ends in network.endpoints)
        self.n = network.n
        self.ends = dict(zip(ids, zip(source, target)))
        self.weights = dict(zip(ids, network.b))
        exact = {eid: _nice_fraction(w) for eid, w in self.weights.items()}
        self.scaled = None
        if all(v is not None for v in exact.values()):
            self.common = math.lcm(*(f.denominator for f in exact.values()))
            self.scaled = {eid: f.numerator * (self.common // f.denominator) for eid, f in exact.items()}
        raw = _enumerate_tree_sets(network.n, list(zip(ids, source, target)))
        self.trees = self._weigh(sorted(tuple(sorted(tree)) for tree in raw))

    def _weigh(self, members) -> _Weighted:
        members = tuple(members)
        # Float products run in ascending line id, the order of each member.
        betas = np.array([math.prod(self.weights[e] for e in member) for member in members],
                         dtype=float)
        if self.scaled is None:
            return _Weighted(members, betas, None)
        numerators = tuple(math.prod(self.scaled[e] for e in member) for member in members)
        size = len(members[0]) if members else 0
        return _Weighted(members, betas, numerators, self.common**size)

    def trees_within(self, allowed: frozenset[int] | None):
        """(members, float sum, exact sum) over the trees using only allowed lines."""
        if allowed is None:
            return self.trees.select(np.ones(len(self.trees.members), dtype=bool))
        return self.trees.select([allowed.issuperset(tree) for tree in self.trees.members])

    @cached_property
    def forests(self) -> _Weighted:
        """Every two-tree spanning forest: a spanning tree less one of its lines."""
        return self._weigh(sorted({tree[:k] + tree[k + 1:]
                                   for tree in self.trees.members for k in range(len(tree))}))

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


def _forest_sum(network: Network, group_a, group_b):
    """(members, float sum, exact sum) over forests separating the groups."""
    group_a = set(group_a)
    group_b = set(group_b)
    if not group_a or not group_b:
        raise ValueError("node groups must be nonempty")
    if group_a & group_b:
        return (), 0.0, Fraction(0)
    oracle = network.oracle
    a = oracle.far[:, [network.node_index(v) for v in group_a]]
    b = oracle.far[:, [network.node_index(v) for v in group_b]]
    # Each group sits whole in one of the two trees, and not in the same one.
    return oracle.forests.select((a.all(axis=1) & ~b.any(axis=1)) | (b.all(axis=1) & ~a.any(axis=1)))


def _ratio(num: float, num_exact, den: float, den_exact) -> float:
    if num_exact is not None and den_exact is not None and den_exact != 0:
        return float(num_exact / den_exact)
    return num / den


def enumerate_spanning_trees(network: Network, allowed_edges=None) -> ForestFamily:
    """All spanning trees drawing edges from ``allowed_edges`` (default: all).

    Raises TooLargeError past the enumeration cap.
    """
    allowed = None
    if allowed_edges is not None:
        allowed = frozenset(allowed_edges)
        network.edge_positions(allowed)  # UnknownEdgeError naming every unknown id
    members, total, total_exact = network.oracle.trees_within(allowed)
    return ForestFamily(
        kind="spanning_trees",
        members=members,
        weight_sum=total,
        weight_sum_exact=total_exact,
    )


def enumerate_two_tree_forests(network: Network, group_a, group_b) -> ForestFamily:
    """Spanning forests of exactly two trees separating the two node groups.

    The family is empty whenever the groups overlap.
    """
    for node in itertools.chain(group_a, group_b):
        network.node_index(node)
    members, total, total_exact = _forest_sum(network, group_a, group_b)
    return ForestFamily(
        kind="two_tree_forests",
        members=members,
        weight_sum=total,
        weight_sum_exact=total_exact,
    )


def a_entry_via_forests(network: Network, i: int, j: int) -> float:
    """Entry (i, j) of the padded reduced-Laplacian inverse, via forest sums.

    Weighted share of two-tree forests joining i with j while the reference
    bus sits in the other tree; zero whenever i or j is the reference.
    """
    network.node_index(i)
    network.node_index(j)
    if i == network.reference or j == network.reference:
        return 0.0
    _, num, num_exact = _forest_sum(network, {i, j}, {network.reference})
    _, den, den_exact = network.oracle.trees_within(None)
    return _ratio(num, num_exact, den, den_exact)


def ptdf_via_forests(network: Network, line: int, inject_at: int, withdraw_at: int) -> float:
    """Flow sensitivity of ``line`` to a unit injection shift, via forest sums.

    For line (i, j) the numerator pits forests pairing {i, inject_at} with
    {j, withdraw_at} against the opposite-orientation pairing; the
    denominator is the total spanning-tree weight.
    """
    k = network.edge_index(line)
    network.node_index(inject_at)
    network.node_index(withdraw_at)
    i, j = network.sources[k], network.targets[k]
    _, pos, pos_exact = _forest_sum(network, {i, inject_at}, {j, withdraw_at})
    _, neg, neg_exact = _forest_sum(network, {i, withdraw_at}, {j, inject_at})
    _, den, den_exact = network.oracle.trees_within(None)
    if pos_exact is not None and neg_exact is not None and den_exact:
        return float(Fraction(network.b[k]) * (pos_exact - neg_exact) / den_exact)
    return network.b[k] * (pos - neg) / den


def lodf_via_forests(network: Network, line: int, outaged: int) -> float:
    """Outage distribution factor via forest sums.

    Same numerator as the injection-shift factor taken at the outaged
    line's endpoints; the denominator sums spanning trees avoiding the
    outaged line, so a bridge outage (empty family) raises BridgeError.
    """
    if line == outaged:
        raise ValueError("lines must be distinct")
    k, hat = network.edge_index(line), network.edge_index(outaged)
    i, j = network.sources[k], network.targets[k]

    allowed = frozenset(network.ids) - {outaged}
    _, den, den_exact = network.oracle.trees_within(allowed)
    if den == 0.0:
        raise BridgeError(f"line {outaged} is a bridge; no spanning tree avoids it")

    _, pos, pos_exact = _forest_sum(network, {i, network.sources[hat]}, {j, network.targets[hat]})
    _, neg, neg_exact = _forest_sum(network, {i, network.targets[hat]}, {j, network.sources[hat]})
    if pos_exact is not None and neg_exact is not None and den_exact:
        return float(Fraction(network.b[k]) * (pos_exact - neg_exact) / den_exact)
    return network.b[k] * (pos - neg) / den


def matrix_tree_check(network: Network, tolerance: float = RTOL) -> MatrixTreeReport:
    """Compare reduced-Laplacian determinants against forest weight sums.

    Checks the factor's determinant (:class:`LaplacianBundle`) against the
    total spanning-tree weight and every first minor of its reduced L
    against the signed weight of the matching two-tree family.
    """
    bundle = network.factor
    oracle = network.oracle  # refuses a network past the cap before the reduced L is made dense
    reduced = bundle.reduced.toarray()
    non_ref_nodes = [node for node in network.nodes if node != network.reference]

    _, tree_total, tree_total_exact = oracle.trees_within(None)
    forest_weight = float(tree_total_exact) if tree_total_exact is not None else tree_total

    determinant = bundle.reduced_determinant
    det_err = _rel_err(determinant, forest_weight)

    minor_max = 0.0
    size = len(non_ref_nodes)
    for row in range(size):
        for col in range(size):
            sub = np.delete(np.delete(reduced, row, axis=0), col, axis=1)
            minor = float(np.linalg.det(sub)) if sub.size else 1.0
            group = {non_ref_nodes[row], non_ref_nodes[col]}
            _, total, total_exact = _forest_sum(network, group, {network.reference})
            expected = float(total_exact) if total_exact is not None else total
            signed = expected if (row + col) % 2 == 0 else -expected
            minor_max = max(minor_max, _rel_err(minor, signed))

    passed = det_err <= tolerance and minor_max <= tolerance
    return MatrixTreeReport(
        determinant=determinant,
        forest_weight=forest_weight,
        determinant_rel_err=det_err,
        minor_max_rel_err=minor_max,
        tolerance=tolerance,
        passed=passed,
    )


def effective_reactance(network: Network, line: int) -> ReactanceReport:
    """Two-terminal equivalent reactance across a line, via forest sums.

    The reduction ratio is the weighted share of spanning trees avoiding
    the line; it vanishes exactly when the line is a bridge, in which case
    the effective reactance equals the line reactance.
    """
    k = network.edge_index(line)
    _, num, num_exact = _forest_sum(network, {network.sources[k]}, {network.targets[k]})
    _, den, den_exact = network.oracle.trees_within(None)
    effective = _ratio(num, num_exact, den, den_exact)

    allowed = frozenset(network.ids) - {line}
    _, avoid, avoid_exact = network.oracle.trees_within(allowed)
    ratio = _ratio(avoid, avoid_exact, den, den_exact)

    return ReactanceReport(
        effective=effective,
        line_reactance=1.0 / network.b[k],
        reduction_ratio=ratio,
    )
