"""Laplacian assembly, reduced-Laplacian sparse LU factorization, and DC power-flow solving.

The weighted Laplacian L = C B C^T is assembled edge by edge as sparse
triplets, here and nowhere else.  The triplets off the reference row and
column give the reduced Laplacian, factored once by a sparse LU (SuperLU);
each DC solve is one pair of sparse triangular solves with a zero reference
angle, and the sensitivity columns D[:, k] of D = B C^T A C are the one
formula for D.  The dense L, the matrix A (the reduced inverse padded with a
zero row and column at the reference; only ``verify`` reads it) and the
pseudo-inverse are built only when a caller reads them, so a solve costs
memory in the lines, not in the square of the buses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import SingularError, ValidationError
from .net_model import PIVOT_RTOL, Network, incidence_columns, injection_vector

__all__ = ["LaplacianBundle", "FlowState", "build_laplacian", "solve_flow", "pseudo_inverse_flow",
           "surviving_flow"]


@dataclass(frozen=True, eq=False)
class FlowState:
    """Phase angles per node and signed branch flows per edge.

    ``theta`` follows the node order of the generating network and has a
    zero entry at the reference node (except for pseudo-inverse angles,
    which differ by a constant shift).  ``flows`` follows edge order and is
    signed by edge orientation.
    """

    theta: np.ndarray
    flows: np.ndarray


class LaplacianBundle:
    """Laplacian L, the sparse LU factor of its reduced form, and lazy dense views.

    Immutable after construction; :meth:`solve` applies A without forming
    it, and the dense L, A and pseudo-inverse are computed on first access.
    ``n`` is the network's node count; ``endpoints`` (``source``, ``target``)
    and ``b`` hold each edge's endpoint positions and weight: its susceptance,
    or ``susceptances`` when given (copied, shape ``(m,)``, finite, >= 0),
    where a zero weight is a line that is out.
    SingularError on a pivot below PIVOT_RTOL x max|reduced L| flags a
    disconnected network, or one whose susceptances spread too widely to factor.
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
                                  f" line {network.edges[bad[0]].id} has {b[bad[0]]}")
        s, t, w = self.source[b > 0], self.target[b > 0], b[b > 0]  # a line that is out stores nothing
        values = np.concatenate([w, w, -w, -w])
        rows, cols = np.concatenate([s, t, s, t]), np.concatenate([s, t, t, s])
        self._triplets = values, rows, cols
        ref = network.reference_index()
        self._keep = np.delete(np.arange(network.n), ref)
        kept = (rows != ref) & (cols != ref)  # reduced L: no reference row or column, later indices shift down
        rows, cols = rows[kept], cols[kept]
        reduced = scipy.sparse.csc_array((values[kept], (rows - (rows > ref), cols - (cols > ref))),
                                         shape=(network.n - 1,) * 2)
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
        with np.errstate(over="ignore"):
            # det of the reduced Laplacian, which is positive definite on a
            # connected network: |product of pivots|; past float range, +inf.
            self.reduced_determinant = float(np.prod(pivots))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A @ rhs, for one column or several, from the sparse LU factor."""
        out = np.zeros(rhs.shape)
        out[self._keep] = self._factor.solve(rhs[self._keep])
        return out

    def branch_flows(self, theta: np.ndarray) -> np.ndarray:
        """f = B C^T theta, for one angle vector or a stack of angle columns."""
        b = self.b if theta.ndim == 1 else self.b[:, None]
        return b * (theta[self.source] - theta[self.target])

    def sensitivity_columns(self, positions) -> np.ndarray:
        """D[:, positions] of D = B C^T A C by |positions| solves, without A."""
        return self.branch_flows(self.solve(incidence_columns(self, positions)))

    @cached_property
    def L(self) -> np.ndarray:
        """Dense weighted Laplacian C B C^T, from the assembly's triplets."""
        values, rows, cols = self._triplets
        return scipy.sparse.csc_array((values, (rows, cols)), shape=(self.n,) * 2).toarray()

    @cached_property
    def A(self) -> np.ndarray:
        """Reduced inverse padded with a zero row and column at the reference."""
        return self.solve(np.eye(self.n))

    @cached_property
    def ldag(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse (L + J/n)^-1 - J/n with J = ones."""
        n = self.n
        ones = np.full((n, n), 1.0 / n)
        return np.linalg.inv(self.L + ones) - ones


def build_laplacian(network: Network, susceptances=None) -> LaplacianBundle:
    """Assemble L and factor its reduced form, under ``susceptances`` if given."""
    return LaplacianBundle(network, susceptances)


def solve_flow(bundle: LaplacianBundle, network: Network, p) -> FlowState:
    """DC power flow with the reference angle pinned at zero.

    theta = A p, solved with the bundle's sparse LU factor, and f = B C^T theta.
    The injections must be balanced.
    """
    theta = bundle.solve(injection_vector(network, p))
    return FlowState(theta=theta, flows=bundle.branch_flows(theta))


def pseudo_inverse_flow(bundle: LaplacianBundle, network: Network, p) -> FlowState:
    """DC power flow through the Laplacian pseudo-inverse.

    Branch flows coincide with :func:`solve_flow`; the angle vector differs
    from the reference-pinned one by a constant shift.
    """
    theta = bundle.ldag @ injection_vector(network, p)
    return FlowState(theta=theta, flows=bundle.branch_flows(theta))


def surviving_flow(network: Network, p, tripped) -> FlowState:
    """DC power flow on the network without the lines at the ``tripped`` edge positions.

    The network is factored afresh with the tripped weights zeroed; the
    surviving grid must be connected.  The flow vector keeps full length
    with zeros at the tripped lines; the angles cover every node.  Outage
    flows are GLODF updates on the network's own factor; this re-solve is
    their fallback when an update fails its certificate, and their test oracle.
    """
    b = network.susceptances()
    b[tripped] = 0.0
    state = solve_flow(build_laplacian(network, b), network, p)
    state.flows[tripped] = 0.0  # b = 0 leaves -0.0 where the angle difference is negative
    return state
