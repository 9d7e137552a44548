"""The spanning-forest oracle: distribution factors as exact ratios of forest sums.

This module is the independent oracle for the distribution-factor algebra:
matrix entries, PTDF, LODF and effective reactance are recomputed here as
ratios of weighted forest sums and compared against the dense linear-algebra
routes elsewhere; the first minors are read as det·L_r⁻¹, from one dense
LAPACK inverse independent of SuperLU.

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
no rounding slack from the oracle's side, and an answer past float range is
refused.  No tree or forest is ever listed; the test suite's subset scan
witnesses the theorem on small networks.  The oracle is the network's
:attr:`~gridfactor.net_model.Network.oracle`, so it lives as long as its
network and no longer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dcpf import build_laplacian
from .errors import BridgeError, SingularError, TooLargeError, ValidationError
from .net_model import RTOL, Network

__all__ = [
    "MatrixTreeReport",
    "ReactanceReport",
    "a_entry_via_forests",
    "ptdf_via_forests",
    "lodf_via_forests",
    "matrix_tree_check",
    "effective_reactance",
]

#: Cap on the unit-weight spanning-tree count of a network the oracle takes.
MAX_MEMBERS = 10**7


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
    """|a - b| / max(1, |a|, |b|), elementwise, of finite a and b."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


class _Oracle:
    """One network's exact line weights, and the adjugate and determinant of its reduced Laplacian.

    Line position k weighs exactly ``weights[k] / common``, an integer over a power of two; a
    non-finite line has no such weight and is refused.  Queries read the :attr:`adjugate` and
    :attr:`across`, as integers.  The tree count checked against the cap is the determinant of the
    unit-weight factor.  Keeps no reference to the network, so a network that holds its oracle is
    still freed.
    """

    def __init__(self, network: Network):
        for line, weight in enumerate(network.b, 1):
            if not math.isfinite(weight):
                raise ValidationError(f"susceptances must be finite; line {line} has {weight}")
        if build_laplacian(network, np.ones(network.m)).reduced_determinant > MAX_MEMBERS:
            raise TooLargeError("estimated spanning-tree count exceeds the enumeration cap")
        self.n = network.n
        self.reference = network.node_index(network.reference)
        self.endpoints = network.endpoints  # read-only arrays: no reference to the network
        exact = [weight.as_integer_ratio() for weight in network.b]
        self.common = math.lcm(*(den for _, den in exact))  # a power of two: the floats are dyadic
        self.weights = [num * (self.common // den) for num, den in exact]

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


def _quotient(numerator: int, denominator: int, what: str) -> float:
    """numerator / denominator (ints, or an array of them), correctly rounded; TooLargeError past float range."""
    try:
        return numerator / denominator
    except OverflowError:
        raise TooLargeError(f"{what} exceeds float range") from None


def a_entry_via_forests(network: Network, i: int, j: int) -> float:
    """Entry (i, j) of the padded reduced-Laplacian inverse, via forest sums.

    Weighted share of two-tree forests joining i with j while the reference
    bus sits in the other tree; zero whenever i or j is the reference.
    """
    i, j = network.node_index(i), network.node_index(j)
    oracle = network.oracle
    adjugate, det = oracle.adjugate
    return _quotient(oracle.common * adjugate[i, j], det, "the inverse entry")


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
    """Compare the reduced Laplacian's determinant and first minors against forest weight sums, at RTOL.

    The factor's determinant (:class:`LaplacianBundle`) is checked against the total spanning-tree
    weight, and adj(L_r) = det·L_r⁻¹, from one dense LAPACK inverse independent of SuperLU, entry by
    entry against the exact adjugate: each first minor against the weight of its two-tree family.
    SingularError when that float determinant or adjugate is not finite.
    """
    bundle = network.factor
    oracle = network.oracle  # refuses a network past the cap before the reduced L is made dense
    reduced = bundle.reduced.toarray()
    adjugate, det = oracle.adjugate
    size = network.n - 1

    forest_weight = _quotient(det, oracle.common ** size, "the spanning-tree weight")
    keep = np.delete(np.arange(network.n), oracle.reference)  # an exact minor past float range is refused first
    expected = _quotient(adjugate[np.ix_(keep, keep)], oracle.common ** (size - 1), "a first minor").astype(float)
    determinant = bundle.reduced_determinant
    adjugate_float = np.linalg.det(reduced) * np.linalg.inv(reduced)  # Cramer: adj = det·L_r⁻¹, one LAPACK inverse
    for what, value in (("determinant", determinant), ("adjugate", adjugate_float)):
        if not np.isfinite(value).all():  # refused before any compare, which would divide inf by inf
            raise SingularError(f"the float {what} of the reduced Laplacian is not finite")

    det_err = float(_rel_err(determinant, forest_weight))
    minor_max = float(np.max(_rel_err(adjugate_float, expected), initial=0.0))

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
        effective=_quotient(oracle.common * oracle.pairing(k, *(ends[k] for ends in oracle.endpoints)), det,
                            "the effective reactance"),
        line_reactance=1.0 / network.b[k],
        reduction_ratio=oracle.avoiding(k) / det,
    )
