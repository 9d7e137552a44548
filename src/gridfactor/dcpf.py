"""Laplacian assembly, reduced-Laplacian LU factorization, and DC power-flow solving.

The weighted Laplacian L = C B C^T is assembled edge by edge.  Deleting the
reference row and column gives the reduced Laplacian, factored once by a
dense LU; each DC solve is one pair of triangular solves with a zero
reference angle.  The matrix A, the reduced inverse padded with a zero row
and column at the reference, is built from the same factors only when a
caller reads it.  Networks of a few thousand buses at most are the target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import SingularError
from .net_model import Network, injection_vector

__all__ = ["LaplacianBundle", "FlowState", "build_laplacian", "solve_flow", "pseudo_inverse_flow",
           "surviving_flow"]

#: A reduced-Laplacian pivot below this fraction of max|reduced L| is singular.
PIVOT_RTOL = 1e-12


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
    susceptance, for :meth:`branch_flows`.  Raising SingularError on a
    vanished pivot doubles as a disconnection signal, independent of the
    graph-side connectivity check.
    """

    def __init__(self, network: Network):
        self.network = network
        n = network.n
        self.source, self.target = network.endpoints
        self.b = b = network.susceptances()
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
        pivots = np.abs(np.diag(lu))
        scale = np.abs(reduced).max() if reduced.size else 0.0
        if reduced.size and pivots.min() < PIVOT_RTOL * scale:
            raise SingularError(
                "reduced Laplacian is numerically singular (graph likely disconnected)"
            )
        self._factor = (lu, piv)
        with np.errstate(over="ignore"):
            # Past float range the determinant is reported as +-inf.
            self._reduced_det = float(np.prod(np.diag(lu))) * _permutation_sign(piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A @ rhs, for one column or several, from the LU factors."""
        out = np.zeros(rhs.shape)
        out[self._keep] = scipy.linalg.lu_solve(self._factor, rhs[self._keep], check_finite=False)
        return out

    def branch_flows(self, theta: np.ndarray) -> np.ndarray:
        """f = B C^T theta, for one angle vector or a stack of angle columns."""
        b = self.b if theta.ndim == 1 else self.b[:, None]
        return b * (theta[self.source] - theta[self.target])

    @cached_property
    def A(self) -> np.ndarray:
        """Reduced inverse padded with a zero row and column at the reference."""
        return self.solve(np.eye(self.network.n))

    @property
    def reduced_determinant(self) -> float:
        """det of the reduced Laplacian, from the LU factors."""
        return self._reduced_det

    @cached_property
    def ldag(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse (L + J/n)^-1 - J/n with J = ones."""
        n = self.network.n
        ones = np.full((n, n), 1.0 / n)
        return np.linalg.inv(self.L + ones) - ones


def _permutation_sign(piv: np.ndarray) -> float:
    return -1.0 if np.count_nonzero(piv != np.arange(piv.size)) % 2 else 1.0


def build_laplacian(network: Network) -> LaplacianBundle:
    """Assemble L and factor its reduced form for a connected network."""
    return LaplacianBundle(network)


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

    The surviving grid must be connected; it is factored afresh.  The flow
    vector keeps the full network's edge order with zeros at the tripped
    lines; the angles cover every node.
    """
    alive = np.ones(network.m, dtype=bool)
    alive[tripped] = False
    surviving = network.without_edges(network.edges[k].id for k in tripped)
    state = solve_flow(build_laplacian(surviving), surviving, p)
    flows = np.zeros(network.m)
    flows[alive] = state.flows
    return FlowState(theta=state.theta, flows=flows)
