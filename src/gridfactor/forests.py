"""The spanning-forest oracle: distribution factors as exact ratios of forest sums.

This module is the independent oracle for the distribution-factor algebra:
matrix entries, PTDF, LODF and effective reactance are recomputed here as
ratios of weighted forest sums and compared against the dense linear-algebra
routes elsewhere.

Let x_F be the 0/1 side vector of two-tree spanning forest F, 1 on the side
without the reference bus r.  The all-minors matrix-tree theorem (Chaiken,
SIAM J. Alg. Disc. Meth. 3(3), 1982) makes G = Σ_F w_F x_F x_Fᵀ the adjugate
of the reduced Laplacian L_r, padded with zeros at r, and the total
spanning-tree weight T = det(L_r).  A query's forest sum Σ_F w_F (x_i − x_j)
(x_a − x_b) is G_ia − G_ib − G_ja + G_jb: the forests separating {i, a} from
{j, b} less those separating {i, b} from {j, a}.  The flow factors take i, j
at a line's ends; an inverse entry (i, a) or first minor, j = b = r; a line's
reactance, a = i and b = j, and the trees avoiding the line weigh T less b
times that sum.

A line weighs the exact rational value of its float susceptance, an integer
over one power-of-two denominator, so fraction-free elimination (Bareiss,
Math. Comp. 22, 1968) over those integers gives adj(L_r) and det(L_r)
exactly, and adj·C, C the incidence matrix, holds every line's sums.  The
common denominators cancel, so each answer is one integer divided by
another, correctly rounded to the nearest float: the identity checks carry
no rounding slack from the oracle's side.  The spanning trees and two-tree
forests are enumerated, by contraction and deletion, only to witness the
theorem.  The oracle is the network's
:attr:`~gridfactor.net_model.Network.oracle`, so it lives as long as its
network and no longer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

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
#: Forests per connected-components call while reading their sides.
_CHUNK = 1 << 12


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


def _enumerate_tree_sets(n: int, edges: list) -> list[frozenset[int]]:
    """All spanning trees of the graph given as a list of (edge_id, u, v) triples.

    Contraction/deletion on the first remaining edge, depth first from a
    stack of its own (a long path would overflow Python's), pruning branches
    whose residual graph is disconnected: the work is proportional to the output.
    A pending branch holds a vertex count and an offset into its parent's edges,
    and a contraction shares every edge tuple it does not move.
    """
    trees: list[frozenset[int]] = []

    def connected(count: int, edges, start: int) -> bool:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        remaining = count
        for _, u, v in itertools.islice(edges, start, None):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                remaining -= 1
                if remaining == 1:
                    return True
        return remaining == 1

    # A contracted branch stays connected: only the root and each drop are checked, as they are pushed.
    stack = [(n, edges, 0, ())] if connected(n, edges, 0) else []
    while stack:
        count, edges, start, chosen = stack.pop()
        if count == 1:
            trees.append(frozenset(chosen))
            if len(trees) > MAX_MEMBERS:
                raise TooLargeError("spanning-tree enumeration exceeded the cap")
            continue
        eid, u, v = edges[start]
        # Keep the edge: contract v into u, dropping the self-loops that form.
        contracted = []
        for edge in itertools.islice(edges, start + 1, None):
            other_id, a, b = edge
            if v != a and v != b:
                contracted.append(edge)
            elif u != a and u != b:
                contracted.append((other_id, u, b) if a == v else (other_id, a, u))
        if connected(count, edges, start + 1):
            stack.append((count, edges, start + 1, chosen))  # drop the edge, once the kept branch is done
        stack.append((count - 1, contracted, 0, chosen + (eid,)))
    return trees


class _Oracle:
    """One network's exact adjugate and determinant, and the enumerations that witness them.

    Line position k weighs exactly ``weights[k] / common``, an integer over a power of two; a
    non-finite line has no such weight and is refused.  Queries read the :attr:`adjugate` and
    :attr:`across`, as integers; only the enumerations read the :attr:`trees`, the two-tree
    :attr:`forests` and their sides :attr:`far`.  The tree count checked against the cap is the
    determinant of the unit-weight factor.  Keeps no reference to the network, so a network that
    holds its oracle is still freed.
    """

    def __init__(self, network: Network):
        ids = network.ids
        for eid, weight in zip(ids, network.b):
            if not math.isfinite(weight):
                raise ValidationError(f"susceptances must be finite; line {eid} has {weight}")
        if build_laplacian(network, np.ones(network.m)).reduced_determinant > MAX_MEMBERS:
            raise TooLargeError("estimated spanning-tree count exceeds the enumeration cap")
        self.n = network.n
        self.reference = network.node_index(network.reference)
        self.endpoints = network.endpoints  # read-only arrays: no reference to the network
        self.position = dict(zip(ids, itertools.count()))
        exact = [weight.as_integer_ratio() for weight in network.b]
        self.common = math.lcm(*(den for _, den in exact))  # a power of two: the floats are dyadic
        self.weights = [num * (self.common // den) for num, den in exact]

    def _weigh(self, kind: str, members) -> ForestFamily:
        members = tuple(members)
        numerators = tuple(math.prod(self.weights[self.position[eid]] for eid in member) for member in members)
        return ForestFamily(kind, members, numerators, self.common ** (len(members[0]) if members else 0))

    @cached_property
    def adjugate(self) -> tuple[np.ndarray, int]:
        """adj(L_r), padded with zeros at the reference, and det(L_r), for L_r the reduced Laplacian of ``weights``.

        Fraction-free Gauss–Jordan (Bareiss) takes [L_r | I] to [det·I | adj] in place, column k of
        the left half leaving as column k of the right.  Every division is exact, and no pivot is zero,
        as L_r is positive definite.  The work is symmetric once its block of rows not yet pivoted by
        columns pivoted changes sign, so only its upper triangle is held, entry (i, j) at ``at[i, j]``.
        """
        laplacian = np.zeros((self.n, self.n), dtype=object)
        for weight, u, v in zip(self.weights, *(ends.tolist() for ends in self.endpoints)):
            laplacian[(u, v), (u, v)] += weight  # parallel lines sum
            laplacian[(u, v), (v, u)] -= weight
        keep = np.delete(np.arange(self.n), self.reference)
        rows, cols = np.triu_indices(len(keep))
        at = np.empty((len(keep),) * 2, dtype=np.intp)
        at[rows, cols] = at[cols, rows] = np.arange(len(rows))
        packed, det = laplacian[keep[rows], keep[cols]], 1
        for k in range(len(keep)):
            line = packed[at[k]]  # row k of the symmetric work
            pivot, signed = line[k], line.copy()
            signed[:k] = -signed[:k]  # row k of the work itself
            packed = (pivot * packed - line[rows] * signed[cols]) // det
            packed[at[k]] = signed  # row k stays, and column k leaves negated
            packed[at[k, k]] = det
            det = pivot
        adjugate = np.zeros_like(laplacian)
        adjugate[np.ix_(keep, keep)] = packed[at]
        return adjugate, det

    @cached_property
    def across(self) -> np.ndarray:
        """adj·C, n × m: column k is adj(e_i − e_j) for line position k from i to j."""
        adjugate, (source, target) = self.adjugate[0], self.endpoints
        return adjugate[:, source] - adjugate[:, target]

    def pairing(self, k: int, a: int, b: int) -> int:
        """G_ia − G_ib − G_ja + G_jb for line position k from i to j and node positions a and b: the
        forests separating {i, a} from {j, b} less those separating {i, b} from {j, a}."""
        return self.across[a, k] - self.across[b, k]

    def avoiding(self, k: int) -> int:
        """det − s_k·pairing(k, i, j), the trees avoiding line position k: a tree through it is a forest
        separating its ends, plus the line."""
        return self.adjugate[1] - self.weights[k] * self.pairing(k, *(ends[k] for ends in self.endpoints))

    @cached_property
    def trees(self) -> ForestFamily:
        """Every spanning tree, enumerated once."""
        lines = zip(self.position, *(ends.tolist() for ends in self.endpoints))
        raw = _enumerate_tree_sets(self.n, [(eid, u, v) for eid, u, v in lines if u != v])  # no tree holds a loop
        return self._weigh("spanning_trees", sorted(tuple(sorted(tree)) for tree in raw))

    @cached_property
    def forests(self) -> ForestFamily:
        """Every two-tree spanning forest: a spanning tree less one of its lines."""
        members = {tree[:k] + tree[k + 1:] for tree in self.trees.members for k in range(len(tree))}
        return self._weigh("two_tree_forests", sorted(members))

    @cached_property
    def far(self) -> np.ndarray:
        """Forest x node-position mask of the nodes outside the tree holding position 0, one chunk at a time."""
        members, n = self.forests.members, self.n
        source, target = self.endpoints
        far = np.empty((len(members), n), dtype=bool)
        for start in range(0, len(members), _CHUNK):
            chunk = members[start:start + _CHUNK]
            at = np.fromiter(map(self.position.__getitem__, itertools.chain.from_iterable(chunk)), np.intp)
            base = np.arange(len(chunk)).repeat(n - 2) * n  # one graph per chunk: node u of forest f is f * n + u
            union = scipy.sparse.coo_array((np.ones(at.size), (base + source[at], base + target[at])),
                                           shape=(len(chunk) * n,) * 2)
            labels = connected_components(union)[1].reshape(len(chunk), n)
            far[start:start + len(chunk)] = labels != labels[:, :1]
        return far


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
    a, b = ([network.node_index(v) for v in group] for group in (group_a, group_b))
    if not a or not b:
        raise ValueError("node groups must be nonempty")
    oracle = network.oracle
    a, b = oracle.far[:, a], oracle.far[:, b]
    # Each group sits whole in one of the two trees, and not in the same one: so no node in both.
    return oracle.forests.select((a.all(axis=1) & ~b.any(axis=1)) | (b.all(axis=1) & ~a.any(axis=1)))


def a_entry_via_forests(network: Network, i: int, j: int) -> float:
    """Entry (i, j) of the padded reduced-Laplacian inverse, via forest sums.

    Weighted share of two-tree forests joining i with j while the reference
    bus sits in the other tree; zero whenever i or j is the reference.
    """
    i, j = network.node_index(i), network.node_index(j)
    oracle = network.oracle
    adjugate, det = oracle.adjugate
    return oracle.common * adjugate[i, j] / det


def ptdf_via_forests(network: Network, line: int, inject_at: int, withdraw_at: int) -> float:
    """Flow sensitivity of ``line`` to a unit injection shift, via forest sums.

    For line (i, j) the numerator pits forests pairing {i, inject_at} with
    {j, withdraw_at} against the opposite-orientation pairing; the
    denominator is the total spanning-tree weight.
    """
    k = network.edge_index(line)
    a, b = network.node_index(inject_at), network.node_index(withdraw_at)
    oracle = network.oracle
    return oracle.weights[k] * oracle.pairing(k, a, b) / oracle.adjugate[1]


def lodf_via_forests(network: Network, line: int, outaged: int) -> float:
    """Outage distribution factor via forest sums.

    Same numerator as the injection-shift factor taken at the outaged
    line's endpoints; the denominator sums spanning trees avoiding the
    outaged line, so a bridge outage (empty family) raises BridgeError.
    """
    if line == outaged:
        raise ValueError("lines must be distinct")
    k, hat = network.edge_index(line), network.edge_index(outaged)
    oracle = network.oracle
    den = oracle.avoiding(hat)
    if not den:
        raise BridgeError(f"line {outaged} is a bridge; no spanning tree avoids it")
    return oracle.weights[k] * oracle.pairing(k, *(ends[hat] for ends in oracle.endpoints)) / den


def matrix_tree_check(network: Network) -> MatrixTreeReport:
    """Compare reduced-Laplacian determinants against forest weight sums.

    Checks the factor's determinant (:class:`LaplacianBundle`) against the
    total spanning-tree weight and every first minor of its reduced L
    against the signed weight of the matching two-tree family, at RTOL.
    """
    bundle = network.factor
    oracle = network.oracle  # refuses a network past the cap before the reduced L is made dense
    reduced = bundle.reduced.toarray()
    adjugate, det = oracle.adjugate
    size = network.n - 1

    try:
        forest_weight = det / oracle.common ** size
    except OverflowError:
        raise TooLargeError("the spanning-tree weight exceeds float range") from None
    determinant = bundle.reduced_determinant
    det_err = float(_rel_err(determinant, forest_weight))

    minors = np.ones((size, size))
    for row, col in itertools.product(range(size), repeat=2):
        sub = np.delete(np.delete(reduced, row, axis=0), col, axis=1)
        if sub.size:
            minors[row, col] = np.linalg.det(sub)
    keep = np.delete(np.arange(network.n), oracle.reference)
    expected = (adjugate[np.ix_(keep, keep)] / oracle.common ** (size - 1)).astype(float)
    signed = np.where(np.indices((size, size)).sum(axis=0) % 2, -expected, expected)
    minor_max = float(np.max(_rel_err(minors, signed), initial=0.0))  # a NaN stays NaN and fails

    return MatrixTreeReport(determinant=determinant, forest_weight=forest_weight, determinant_rel_err=det_err,
                            minor_max_rel_err=minor_max, passed=det_err <= RTOL and minor_max <= RTOL)


def effective_reactance(network: Network, line: int) -> ReactanceReport:
    """Two-terminal equivalent reactance across a line, via forest sums.

    The reduction ratio is the weighted share of spanning trees avoiding
    the line; it vanishes exactly when the line is a bridge, in which case
    the effective reactance equals the line reactance.
    """
    k = network.edge_index(line)
    oracle = network.oracle
    det = oracle.adjugate[1]
    return ReactanceReport(
        effective=oracle.common * oracle.pairing(k, *(ends[k] for ends in oracle.endpoints)) / det,
        line_reactance=1.0 / network.b[k],
        reduction_ratio=oracle.avoiding(k) / det,
    )
