"""Laplacian assembly, reduced-Laplacian sparse LU factorization, and DC power-flow solving.

The weighted Laplacian L = C B C^T is assembled edge by edge as sparse
triplets, here and nowhere else.  The triplets off the reference row and
column give the reduced Laplacian, kept in CSC form and factored once by a
sparse LU (SuperLU); each DC solve is one pair of sparse triangular solves
with a zero reference angle.  The sensitivity columns D[:, k] of
D = B C^T A C, held column-major, are the one formula for D, one solve of +1s and -1s
written straight into the factor's rows; an outage's A C_F is a solve of only the lines the
factor has not solved before (it keeps up to ``COLUMN_STORE_BYTES`` of them), and under weights near
its own (a perturbation trial's) a refinement on it, its residual read by the one nodal map C f.  The matrix A
(the reduced inverse padded with a zero row and column at the reference; only ``verify``
reads it) is the one dense view, built only when read, so a solve costs memory in the
lines, not in the square of the buses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import SingularError, ValidationError
from .net_model import PIVOT_RTOL, Network, injection_vector

__all__ = ["LaplacianBundle", "FlowState", "build_laplacian", "solve_flow", "surviving_flow"]

COLUMN_STORE_BYTES = 128 << 20  # outage columns one factor keeps (LaplacianBundle.outage_columns), 8 n each
REFINEMENT_STEPS = 8  # a reweighted_columns step shrinks the error by max|w/b - 1| (PERTURBATION): 5 reach 1e-16


@dataclass(frozen=True, eq=False)
class FlowState:
    """Phase angles per node and signed branch flows per edge.

    ``theta`` follows the node order of the generating network and has a
    zero entry at the reference node.  ``flows`` follows edge order and is
    signed by edge orientation.
    """

    theta: np.ndarray
    flows: np.ndarray


class LaplacianBundle:
    """The reduced Laplacian ``reduced`` (CSC, L less the reference row and column), its sparse LU factor.

    :meth:`solve` applies A without forming it, and the dense A, the one dense view, is computed on
    first access.  The bundle's one mutable state is the store of solved columns that
    :meth:`outage_columns` fills and evicts; no answer depends on it, bit for bit.
    ``n`` is the network's node count; ``endpoints`` (``source``, ``target``)
    and ``b`` hold each edge's endpoint positions and weight: its susceptance,
    or ``susceptances`` when given (copied, shape ``(m,)``, finite, >= 0),
    where a zero weight is a line that is out.
    SingularError on a pivot below PIVOT_RTOL x max|reduced L| flags a
    disconnected network, or one whose susceptances spread too widely to factor;
    on a pivot that is not finite, one whose susceptances are too small to factor.
    ``node_row`` and ``end_rows`` (source, target) hold each node's and line end's row in the
    factor, the reference's row n - 1, written and then dropped (:meth:`line_solve`).
    It keeps no reference to the network, so ``Network.factor`` makes no cycle.
    """

    def __init__(self, network: Network, susceptances=None):
        self.n = network.n
        self.endpoints = self.source, self.target = network.endpoints
        given = network.susceptances() if susceptances is None else susceptances
        self.b = b = np.array(given, dtype=float)
        if b.shape != (network.m,):
            raise ValidationError(f"expected {network.m} susceptances, got {b.shape}")
        bad = np.flatnonzero(~np.isfinite(b) | (b < 0))
        if bad.size:
            raise ValidationError(f"susceptances must be finite and non-negative;"
                                  f" line {bad[0] + 1} has {b[bad[0]]}")
        s, t, w = self.source[b > 0], self.target[b > 0], b[b > 0]  # a line that is out stores nothing
        values = np.concatenate([w, w, -w, -w])
        rows, cols = np.concatenate([s, t, s, t]), np.concatenate([s, t, t, s])
        ref = network.reference_index()
        kept = (rows != ref) & (cols != ref)  # reduced L: no reference row or column, later indices shift down
        rows, cols = (ends[kept] - (ends[kept] > ref) for ends in (rows, cols))
        self.reduced = reduced = scipy.sparse.csc_array((values[kept], (rows, cols)), shape=(network.n - 1,) * 2)
        try:  # L is symmetric and diagonally dominant: a symmetric ordering, diagonal pivots
            self._factor = scipy.sparse.linalg.splu(
                reduced, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU met an exactly zero column
            raise SingularError(f"reduced Laplacian is singular: {exc}") from None
        pivots = np.abs(self._factor.U.diagonal())
        smallest, bound = pivots.min(initial=np.inf), PIVOT_RTOL * np.abs(reduced.data).max(initial=0.0)
        if smallest < bound:
            raise SingularError(
                f"reduced Laplacian is numerically singular: smallest pivot {smallest:.3e}"
                f" is below {bound:.3e} (PIVOT_RTOL x max|reduced L|)"
            )
        if not np.isfinite(pivots).all():
            raise SingularError("reduced Laplacian cannot be factored in floating point: a pivot is not finite")
        with np.errstate(over="ignore"):
            # det of the reduced Laplacian, which is positive definite on a
            # connected network: |product of pivots|; past float range, +inf.
            self.reduced_determinant = float(np.prod(pivots))
        self.node_row = np.r_[:ref, self.n - 1, ref:self.n - 1]
        self.end_rows = self.node_row[self.source], self.node_row[self.target]
        self._columns = OrderedDict()  # line position -> its read-only column of A C, least recently used first

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A @ rhs, for one column or several, from the sparse LU factor; SingularError unless it is finite."""
        x = np.empty(rhs.shape)
        x[self.node_row] = rhs  # written into the factor's rows, as line_solve writes its own
        return self._solved(x)

    def line_solve(self, positions) -> np.ndarray:
        """A C[:, positions] in node order by one solve, its right-hand side written straight into the factor's rows."""
        x, cols = np.zeros((self.n, len(positions))), np.arange(len(positions))
        x[self.end_rows[0][positions], cols], x[self.end_rows[1][positions], cols] = 1.0, -1.0
        return self._solved(x)

    def _solved(self, x: np.ndarray) -> np.ndarray:
        """The triangular solves of ``x``, in the factor's rows, in node order; SingularError unless all finite."""
        x[:-1], x[-1] = self._factor.solve(x[:-1]), 0.0
        if not np.isfinite(x).all():
            raise SingularError("phase angles are not finite: the injections are too large for the susceptances")
        return x.take(self.node_row, 0)

    def outage_columns(self, positions) -> np.ndarray:
        """:meth:`line_solve` of ``positions`` bit for bit, by one solve of only the lines not held, each kept
        as its own read-only n-vector; past ``COLUMN_STORE_BYTES``, least recently used dropped once answered."""
        held, keys = self._columns, np.asarray(positions).tolist()
        new = [k for k in dict.fromkeys(keys) if k not in held]
        for k, column in zip(new, self.line_solve(new).T if new else ()):
            held[k] = column = column.copy()
            column.flags.writeable = False
        out = np.empty((self.n, len(keys)))
        for j, k in enumerate(keys):
            held.move_to_end(k)
            out[:, j] = held[k]
        while len(held) * 8 * self.n > COLUMN_STORE_BYTES:
            held.popitem(last=False)
        return out

    def branch_flows(self, theta: np.ndarray, lines=slice(None)) -> np.ndarray:
        """f = B C^T theta at the line positions ``lines`` (all), for one angle vector or a stack of columns.

        A stack of columns comes back column-major, written so, not copied,
        so a later read of some of its columns reads contiguous memory.
        """
        if theta.ndim == 1:
            return self.b[lines] * (theta.take(self.source[lines]) - theta.take(self.target[lines]))
        diff = theta.take(self.source[lines], 0) - theta.take(self.target[lines], 0)  # take gathers rows faster
        return np.multiply(self.b[lines][:, None], diff, order="F")

    def injections(self, flows: np.ndarray) -> np.ndarray:
        """C f, each node's net outflow (the transpose twin of :meth:`branch_flows`), for a vector or each column."""
        if flows.ndim == 1:
            return np.bincount(self.source, flows, self.n) - np.bincount(self.target, flows, self.n)
        n, cols = self.n, flows.shape[1]  # each column sums as a vector does, its nodes offset by n
        s, t = (((n * np.arange(cols))[:, None] + e).ravel() for e in self.endpoints)
        sums = [np.bincount(ends, flows.ravel("F"), n * cols) for ends in (s, t)]
        return (sums[0] - sums[1]).reshape((n, cols), order="F")

    def reweighted_columns(self, positions, weights) -> np.ndarray:
        """D_w[:, positions] of D_w = W C^T A_w C, column j under the line weights ``weights[:, j]``, near ``b``.

        No L_w is factored: from X = A C_F (:meth:`outage_columns`), X += A (C_F - C (w * C^T X)) refines each
        column (Skeel 1980) while its residual exceeds eps (C_F is +-1s) and halves (``dgerfs``'s rule), at
        most REFINEMENT_STEPS times.  A column's bits depend on no other's; weights times 2^k give the same bits.
        """
        rhs = self.injections((np.arange(len(self.b))[:, None] == positions) * 1.0)  # C_F, +1s and -1s
        x, last = self.outage_columns(positions), np.full(len(positions), np.inf)
        for step in range(REFINEMENT_STEPS + 1):
            flows = np.multiply(weights, x.take(self.source, 0) - x.take(self.target, 0), order="F")
            residual = rhs - self.injections(flows)
            size = np.abs(residual).max(0)
            improving = (size > np.finfo(float).eps) & (2 * size <= last)  # a stopped column keeps x: stays stopped
            if step == REFINEMENT_STEPS or not improving.any():
                return flows
            x, last = x + self.solve(residual * improving), size

    def sensitivity_columns(self, positions, lines=slice(None)) -> np.ndarray:
        """D[lines, positions] of D = B C^T A C by one solve of |positions| columns, without A."""
        return self.branch_flows(self.line_solve(positions), lines)

    @cached_property
    def A(self) -> np.ndarray:
        """Reduced inverse padded with a zero row and column at the reference."""
        return self.solve(np.eye(self.n))


def build_laplacian(network: Network, susceptances=None) -> LaplacianBundle:
    """Assemble the reduced Laplacian and factor it, under ``susceptances`` if given."""
    return LaplacianBundle(network, susceptances)


def solve_flow(bundle: LaplacianBundle, network: Network, p) -> FlowState:
    """DC power flow with the reference angle pinned at zero.

    theta = A p, solved with the bundle's sparse LU factor, and f = B C^T theta.
    The injections must be balanced.
    """
    theta = bundle.solve(injection_vector(network, p))
    return FlowState(theta=theta, flows=bundle.branch_flows(theta))


def surviving_factor(network: Network, tripped) -> LaplacianBundle:
    """The network factored afresh with the weights at the ``tripped`` edge positions zeroed."""
    b = network.susceptances()
    b[tripped] = 0.0
    return build_laplacian(network, b)


def surviving_flow(network: Network, p, tripped) -> FlowState:
    """DC power flow on the network without the lines at the ``tripped`` edge positions.

    The solve is on :func:`surviving_factor`; the surviving grid must be connected.
    The flow vector keeps full length with zeros at the tripped lines; the
    angles cover every node.  Outage flows are GLODF updates on the network's
    own factor; this re-solve is their one fallback, and their test oracle.
    """
    state = solve_flow(surviving_factor(network, tripped), network, p)
    state.flows[tripped] = 0.0  # b = 0 leaves -0.0 where the angle difference is negative
    return state
