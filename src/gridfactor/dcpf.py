"""Laplacian assembly, reduced-Laplacian LU factorization, and DC power-flow solving.

The weighted Laplacian L = C B C^T is assembled edge by edge, here and
nowhere else.  Deleting the reference row and column gives the reduced
Laplacian, factored once by a dense LU; each DC solve is one pair of
triangular solves with a zero reference angle.  The matrix A, the reduced
inverse padded with a zero row and column at the reference, is built from
the same factors only when a caller reads it.  Networks of a few thousand
buses at most are the target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

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
    """Laplacian L, the LU factors of its reduced form, and lazy inverses.

    Immutable after construction; :meth:`solve` applies A without forming
    it, and A and the pseudo-inverse are computed on first access.
    ``source``, ``target`` and ``b`` hold each edge's endpoint positions and
    weight: its susceptance, or ``susceptances`` when given (copied, shape
    ``(m,)``), where a zero weight is a line that is out.  SingularError on a
    pivot below PIVOT_RTOL x max|reduced L| flags a disconnected network, or
    a connected one whose susceptances spread too widely to factor.
    """

    def __init__(self, network: Network, susceptances=None):
        self.network = network
        n = network.n
        self.source, self.target = network.endpoints
        given = network.susceptances() if susceptances is None else susceptances
        self.b = b = np.array(given, dtype=float)
        if b.shape != (network.m,):
            raise ValidationError(f"expected {network.m} susceptances, got {b.shape}")
        s, t = self.source, self.target
        flat = np.concatenate([s * (n + 1), t * (n + 1), s * n + t, t * n + s])
        self.L = np.bincount(flat, np.concatenate([b, b, -b, -b]), minlength=n * n).reshape(n, n)

        self._keep = np.delete(np.arange(n), network.reference_index())
        reduced = self.L[np.ix_(self._keep, self._keep)]

        with warnings.catch_warnings():
            # The pivot check below is the singularity detector; silence
            # scipy's advisory warning for the intentionally-fed bad cases.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(reduced, check_finite=False)
        if reduced.size:
            smallest, bound = np.abs(np.diag(lu)).min(), PIVOT_RTOL * np.abs(reduced).max()
            if smallest < bound:
                raise SingularError(
                    f"reduced Laplacian is numerically singular: smallest pivot {smallest:.3e}"
                    f" is below {bound:.3e} (PIVOT_RTOL x max|reduced L|)"
                )
        self._factor = (lu, piv)
        with np.errstate(over="ignore"):
            # det of the reduced Laplacian, which is positive definite on a
            # connected network: |product of pivots|; past float range, +inf.
            self.reduced_determinant = float(np.abs(np.prod(np.diag(lu))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A @ rhs, for one column or several, from the LU factors."""
        out = np.zeros(rhs.shape)
        out[self._keep] = scipy.linalg.lu_solve(self._factor, rhs[self._keep], check_finite=False)
        return out

    def branch_flows(self, theta: np.ndarray) -> np.ndarray:
        """f = B C^T theta, for one angle vector or a stack of angle columns."""
        b = self.b if theta.ndim == 1 else self.b[:, None]
        return b * (theta[self.source] - theta[self.target])

    def sensitivity_columns(self, positions) -> np.ndarray:
        """D[:, positions] of D = B C^T A C by |positions| solves, without A."""
        return self.branch_flows(self.solve(incidence_columns(self.network, positions)))

    def sensitivity(self, rows, cols) -> np.ndarray:
        """D[rows, cols] of D = B C^T A C, gathered from A; bitwise equal to the product."""
        A = self.A
        shifts = A[self.source[rows]] - A[self.target[rows]]
        out = shifts[:, self.source[cols]]
        out -= shifts[:, self.target[cols]]
        out *= self.b[rows][:, None]
        out += 0.0  # the product gives 0.0 where the gather gives -0.0
        return out

    @cached_property
    def A(self) -> np.ndarray:
        """Reduced inverse padded with a zero row and column at the reference."""
        return self.solve(np.eye(self.network.n))

    @cached_property
    def ldag(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse (L + J/n)^-1 - J/n with J = ones."""
        n = self.network.n
        ones = np.full((n, n), 1.0 / n)
        return np.linalg.inv(self.L + ones) - ones


def build_laplacian(network: Network, susceptances=None) -> LaplacianBundle:
    """Assemble L and factor its reduced form, under ``susceptances`` if given."""
    return LaplacianBundle(network, susceptances)


def solve_flow(bundle: LaplacianBundle, network: Network, p) -> FlowState:
    """DC power flow with the reference angle pinned at zero.

    theta = A p, solved with the bundle's LU factors, and f = B C^T theta.
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
    with zeros at the tripped lines; the angles cover every node.
    """
    b = network.susceptances()
    b[tripped] = 0.0
    state = solve_flow(build_laplacian(network, b), network, p)
    state.flows[tripped] = 0.0  # b = 0 leaves -0.0 where the angle difference is negative
    return state
