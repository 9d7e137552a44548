"""PTDF, LODF, stacked LODF, and multi-line GLODF computation.

The injection-shift sensitivity matrix is D = B C^T A C.  Single-line
outage factors follow as K = D / (1 - D_ll) for non-bridge lines, always
through ``_lodf_columns``, and a simultaneous non-cut outage couples the
tripped lines through the inverse of I - D_FF.  Every simultaneous-outage
factor, here and in the localization report and perturbation test, is one
call of the GLODF kernel ``_glodf_kernel(numerator, D_FF) = numerator
(I - D_FF)^-1``.
Three equivalent GLODF formulas are implemented; the cross-check mode
evaluates all of them and records their disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dcpf import FlowState, LaplacianBundle, build_laplacian, solve_flow, surviving_flow
from .errors import BridgeOutageError, CutSetError, SingularError, ValidationError
from .graph_algos import BlockDecomposition
from .net_model import RTOL, Network, injection_vector, scaled_tolerance

__all__ = [
    "PtdfMatrix",
    "OutageSet",
    "GlodfResult",
    "ptdf_matrix",
    "lodf_single",
    "lodf_stack",
    "glodf",
    "apply_outage",
    "characteristic_injection_flow",
    "detect_islanding",
]

GLODF_METHODS = ("post_contingency", "pre_contingency", "via_stack", "cross_check")


class PtdfMatrix:
    """Dense m-by-m injection-shift sensitivity matrix, indexed by the network's line ids."""

    def __init__(self, matrix: np.ndarray, network: Network):
        self.matrix = matrix
        self.network = network
        self.line_ids = network.edge_ids()

    def index(self, line: int) -> int:
        return self.network.edge_index(line)

    def entry(self, line: int, shifted: int) -> float:
        return float(self.matrix[self.index(line), self.index(shifted)])

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


class OutageSet:
    """A nonempty proper subset of lines to trip, with partition views.

    The outaged ids are kept in ascending order, fixing the column order of
    every derived factor matrix; the surviving ids are ascending as well.
    """

    def __init__(self, network: Network, lines):
        lines = sorted(set(int(v) for v in lines))
        outaged_idx = network.edge_positions(lines)
        if not lines:
            raise ValidationError("outage set must be nonempty")
        if len(lines) == network.m:
            raise ValidationError("outage set must be a proper subset of the lines")
        self.network = network
        self.outaged = tuple(lines)
        self.outaged_idx = outaged_idx
        self.surviving_idx = np.delete(np.arange(network.m), outaged_idx)

    @cached_property
    def surviving(self) -> tuple[int, ...]:
        return tuple(self.network.edges[k].id for k in self.surviving_idx.tolist())

    @property
    def size(self) -> int:
        return len(self.outaged)


@dataclass(frozen=True, eq=False)
class GlodfResult:
    """Simultaneous-outage factors plus the stacked single-line factors.

    ``k_matrix`` maps pre-outage flows on the tripped lines (columns, by
    ascending id) to flow changes on the surviving lines (rows, ascending).
    ``k_stack`` holds the single-outage columns for comparison, computed on
    first read unless the formula already did; they agree with ``k_matrix``
    only for singleton outages.
    ``residuals`` records the max entrywise disagreement between formula
    pairs in cross-check mode.  The generating ptdf/bundle/network ride
    along for downstream reports.
    """

    outage: OutageSet
    k_matrix: np.ndarray
    method: str
    residuals: dict | None
    ptdf: PtdfMatrix = field(repr=False)
    bundle: LaplacianBundle = field(repr=False)

    @cached_property
    def k_stack(self) -> np.ndarray:
        return lodf_stack(self.ptdf, self.outage)

    @property
    def surviving(self) -> tuple[int, ...]:
        return self.outage.surviving

    @property
    def outaged(self) -> tuple[int, ...]:
        return self.outage.outaged


def ptdf_matrix(bundle: LaplacianBundle, network: Network) -> PtdfMatrix:
    """Full m-by-m sensitivity matrix D = B C^T A C."""
    lines = np.arange(network.m)
    return PtdfMatrix(matrix=bundle.sensitivity(lines, lines), network=network)


def lodf_single(ptdf: PtdfMatrix, decomposition: BlockDecomposition, outaged: int) -> dict[int, float]:
    """Single-line outage factors K for every surviving line.

    Raises BridgeOutageError when the outaged line is a bridge (the factor
    denominator 1 - D_ll vanishes exactly there), and SingularError when
    1 - D_ll is at most RTOL on a line that is not one.
    """
    col = ptdf.index(outaged)
    if outaged in decomposition.bridges:
        raise BridgeOutageError(f"line {outaged} is a bridge; outage factors are undefined")
    values = _lodf_columns(ptdf.matrix[:, col], ptdf.matrix[col, col])
    ids = ptdf.line_ids[:col] + ptdf.line_ids[col + 1:]
    return dict(zip(ids, np.delete(values, col).tolist()))


def lodf_stack(ptdf: PtdfMatrix, outage: OutageSet) -> np.ndarray:
    """Stacked single-line outage factors K_-FF, one column per tripped line.

    Each column is the line's individual outage factor; this is not the
    simultaneous-outage sensitivity (see :func:`glodf`).  Bridges are
    decided by the graph.
    """
    rows, cols = outage.surviving_idx, outage.outaged_idx
    offenders = [line for line, k in zip(outage.outaged, cols) if outage.network.disconnected_by([k])]
    if offenders:
        raise BridgeOutageError(f"lines {offenders} are bridges; outage factors are undefined")
    return _lodf_columns(ptdf.matrix[np.ix_(rows, cols)], ptdf.matrix[cols, cols])


def _lodf_columns(d_cols: np.ndarray, d_kk) -> np.ndarray:
    """Single-line outage factors D[:, k] / (1 - D_kk) of sensitivity columns (any rows).

    ``d_kk`` holds each column's own diagonal entry.  Callers rule out bridges, where
    D_kk = 1; SingularError when 1 - D_kk is at most RTOL on a line that is not one.
    """
    gap = 1.0 - d_kk
    if np.any(gap <= RTOL):
        raise SingularError(f"1 - D_kk = {np.min(gap):.3e} is at most RTOL on a line that is not"
                            " a bridge; the susceptances spread too widely for outage factors")
    return d_cols / gap


def _glodf_kernel(numerator: np.ndarray, d_ff: np.ndarray) -> np.ndarray:
    """numerator @ inv(I - d_ff) via a linear solve: the one GLODF solve.

    With numerator = D_-F,F this is the simultaneous-outage factor of a
    non-cut outage F; any row subset of it (one block's lines) works too.
    """
    system = np.eye(d_ff.shape[0]) - d_ff
    try:
        return np.linalg.solve(system.T, numerator.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"I - D_FF is numerically singular: {exc}") from None


def glodf(
    bundle: LaplacianBundle,
    ptdf: PtdfMatrix,
    network: Network,
    outage: OutageSet,
    method: str = "pre_contingency",
) -> GlodfResult:
    """Simultaneous-outage sensitivity K for a non-cut set of lines.

    Methods:
      pre_contingency   D_-FF (I - D_FF)^-1, reusing the factored network
      post_contingency  B_-F C_-F^T A' C_F, solving A' C_F with the tripped weights zeroed
      via_stack         K_-FF (I - diag D_FF) (I - D_FF)^-1
      cross_check       all three, recording the max pairwise disagreement

    Raises CutSetError when the outage disconnects the grid; the inverse of
    I - D_FF exists whenever it does not.  Islanding is decided near the
    tripped lines (:meth:`Network.disconnected_by`); only
    ``post_contingency`` factors the network again, for its solve.
    """
    if method not in GLODF_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {GLODF_METHODS}")
    if network.disconnected_by(outage.outaged_idx):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")

    rows, cols = outage.surviving_idx, outage.outaged_idx
    d_out_out = ptdf.matrix[np.ix_(cols, cols)]

    def pre_contingency():
        return _glodf_kernel(ptdf.matrix[np.ix_(rows, cols)], d_out_out)

    def post_contingency():
        b = network.susceptances()
        b[cols] = 0.0
        return build_laplacian(network, b).sensitivity_columns(cols)[rows]

    stack = None

    def via_stack():
        nonlocal stack
        stack = lodf_stack(ptdf, outage)
        return _glodf_kernel(stack @ (np.eye(outage.size) - np.diag(np.diag(d_out_out))), d_out_out)

    formulas = {f.__name__: f for f in (pre_contingency, post_contingency, via_stack)}
    residuals = None
    if method == "cross_check":
        candidates = {name: formula() for name, formula in formulas.items()}
        residuals = {
            f"{a}_vs_{b}": float(np.max(np.abs(candidates[a] - candidates[b])))
            for a, b in itertools.combinations(sorted(candidates), 2)
        }
        k_matrix = candidates["pre_contingency"]
    else:
        k_matrix = formulas[method]()

    result = GlodfResult(
        outage=outage,
        k_matrix=k_matrix,
        method=method,
        residuals=residuals,
        ptdf=ptdf,
        bundle=bundle,
    )
    if stack is not None:
        result.__dict__["k_stack"] = stack  # the formula's stack, so k_stack is not computed again
    return result


def apply_outage(
    bundle: LaplacianBundle,
    network: Network,
    p,
    outage: OutageSet,
) -> tuple[FlowState, FlowState]:
    """Pre- and post-contingency DC solutions for a non-cut outage.

    The post state is solved directly on the surviving graph; its flow
    vector keeps full length with zeros at the tripped lines.
    """
    p = injection_vector(network, p)
    if network.disconnected_by(outage.outaged_idx):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")
    return solve_flow(bundle, network, p), surviving_flow(network, p, outage.outaged_idx)


def characteristic_injection_flow(bundle: LaplacianBundle, network: Network, line: int) -> np.ndarray:
    """Branch flows under a unit injection across a line's endpoints.

    Injecting +1 at the line's source and -1 at its target reproduces the
    line's sensitivity column: the flow on every line u equals D_u,line,
    and the flow on the line itself is positive.
    """
    return bundle.sensitivity_columns([network.edge_index(line)])[:, 0]


def detect_islanding(ptdf: PtdfMatrix, outage: OutageSet) -> bool:
    """True when I - D_FF is numerically singular, signalling a cut set.

    The smallest singular value is compared against
    ``scaled_tolerance(largest singular value)``; its unit floor
    keeps one-line (1x1) bridge outages detectable, where both singular
    values vanish together.
    """
    cols = outage.outaged_idx
    system = np.eye(outage.size) - ptdf.matrix[np.ix_(cols, cols)]
    singular_values = np.linalg.svd(system, compute_uv=False)
    return float(singular_values[-1]) < scaled_tolerance(float(singular_values[0]))
