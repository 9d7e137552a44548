"""Laplacian assembly, reduced-Laplacian inversion, and DC power-flow solving.

The weighted Laplacian is L = C B C^T.  Deleting the reference row and
column gives the reduced Laplacian, whose dense LU inverse is padded back
with a zero row and column at the reference position to form the matrix A
that maps balanced injections to phase angles with a zero reference angle.
Everything here is dense; the target networks are a few thousand buses at
most.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import SingularError
from .net_model import Network, incidence_matrix, injection_vector

__all__ = ["LaplacianBundle", "FlowState", "build_laplacian", "solve_flow", "pseudo_inverse_flow"]

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
    """Laplacian L, its padded reduced inverse A, and the pseudo-inverse.

    Immutable after construction; the pseudo-inverse is computed on first
    access.  Raising SingularError on a vanished pivot doubles as a
    disconnection signal, independent of the graph-side connectivity check.
    """

    def __init__(self, network: Network):
        self.network = network
        self.incidence = incidence_matrix(network)
        b = network.susceptances()
        self.L = self.incidence @ (b[:, None] * self.incidence.T)

        ref = network.reference_index()
        keep = [k for k in range(network.n) if k != ref]
        reduced = self.L[np.ix_(keep, keep)]

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
        inverse = scipy.linalg.lu_solve((lu, piv), np.eye(len(keep)), check_finite=False)

        A = np.zeros((network.n, network.n))
        A[np.ix_(keep, keep)] = inverse
        self.A = A
        with np.errstate(over="ignore"):
            # Past float range the determinant is reported as +-inf.
            self._reduced_det = float(np.prod(np.diag(lu))) * _permutation_sign(piv)

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
    """Assemble L and A for a connected network."""
    return LaplacianBundle(network)


def solve_flow(bundle: LaplacianBundle, network: Network, p) -> FlowState:
    """DC power flow with the reference angle pinned at zero.

    theta = A p and f = B C^T theta.  The injections must be balanced.
    """
    p = injection_vector(network, p)
    theta = bundle.A @ p
    flows = network.susceptances() * (bundle.incidence.T @ theta)
    return FlowState(theta=theta, flows=flows)


def pseudo_inverse_flow(bundle: LaplacianBundle, network: Network, p) -> FlowState:
    """DC power flow through the Laplacian pseudo-inverse.

    Branch flows coincide with :func:`solve_flow`; the angle vector differs
    from the reference-pinned one by a constant shift.
    """
    p = injection_vector(network, p)
    theta = bundle.ldag @ p
    flows = network.susceptances() * (bundle.incidence.T @ theta)
    return FlowState(theta=theta, flows=flows)
