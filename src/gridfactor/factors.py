"""PTDF, LODF, stacked LODF, and multi-line GLODF computation.

The injection-shift sensitivity matrix is D = B C^T A C.  Single-line
outage factors follow as K = D / (1 - D_ll) for non-bridge lines, and a
simultaneous non-cut outage couples the tripped lines through the inverse
of I - D_FF.  Three equivalent GLODF formulas are implemented; the
cross-check mode evaluates all of them and records their disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dcpf import FlowState, LaplacianBundle, build_laplacian, solve_flow
from .errors import BridgeOutageError, CutSetError, SingularError, UnknownEdgeError, ValidationError
from .graph_algos import BlockDecomposition, is_cut_set
from .net_model import Network, incidence_matrix, injection_vector

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

#: Smallest-singular-value ratio below which I - D_FF counts as singular.
ISLANDING_RTOL = 1e-9
#: 1 - D_ll below this counts the line as a bridge in diagonal-based checks.
BRIDGE_DIAG_TOL = 1e-9


class PtdfMatrix:
    """Dense m-by-m injection-shift sensitivity matrix with line id maps."""

    def __init__(self, matrix: np.ndarray, line_ids):
        self.matrix = matrix
        self.line_ids = tuple(line_ids)
        self._positions = {line: k for k, line in enumerate(self.line_ids)}

    def index(self, line: int) -> int:
        try:
            return self._positions[line]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge id {line}") from None

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
        self.surviving = tuple(network.edges[k].id for k in self.surviving_idx.tolist())

    @property
    def size(self) -> int:
        return len(self.outaged)

    def susceptance_out(self) -> np.ndarray:
        return self.network.susceptances()[self.outaged_idx]

    def susceptance_kept(self) -> np.ndarray:
        return self.network.susceptances()[self.surviving_idx]

    def incidence_out(self) -> np.ndarray:
        return incidence_matrix(self.network)[:, self.outaged_idx]

    def incidence_kept(self) -> np.ndarray:
        return incidence_matrix(self.network)[:, self.surviving_idx]


@dataclass(frozen=True, eq=False)
class GlodfResult:
    """Simultaneous-outage factors plus the stacked single-line factors.

    ``k_matrix`` maps pre-outage flows on the tripped lines (columns, by
    ascending id) to flow changes on the surviving lines (rows, ascending).
    ``k_stack`` holds the single-outage columns for comparison; they agree
    with ``k_matrix`` only for singleton outages.  ``residuals`` records the
    max entrywise disagreement between formula pairs in cross-check mode.
    The generating ptdf/bundle/network ride along for downstream reports.
    """

    outage: OutageSet
    k_matrix: np.ndarray
    k_stack: np.ndarray
    method: str
    residuals: dict | None
    ptdf: PtdfMatrix = field(repr=False)
    bundle: LaplacianBundle = field(repr=False)

    @property
    def surviving(self) -> tuple[int, ...]:
        return self.outage.surviving

    @property
    def outaged(self) -> tuple[int, ...]:
        return self.outage.outaged


def ptdf_matrix(bundle: LaplacianBundle, network: Network) -> PtdfMatrix:
    """Full m-by-m sensitivity matrix D = B C^T A C."""
    C = bundle.incidence
    b = network.susceptances()
    matrix = b[:, None] * (C.T @ bundle.A @ C)
    return PtdfMatrix(matrix=matrix, line_ids=network.edge_ids())


def lodf_single(ptdf: PtdfMatrix, decomposition: BlockDecomposition, outaged: int) -> dict[int, float]:
    """Single-line outage factors K for every surviving line.

    Raises BridgeOutageError when the outaged line is a bridge (the factor
    denominator 1 - D_ll vanishes exactly there).
    """
    col = ptdf.index(outaged)
    if outaged in decomposition.bridges:
        raise BridgeOutageError(f"line {outaged} is a bridge; outage factors are undefined")
    denominator = 1.0 - ptdf.matrix[col, col]
    result = {}
    for k, line in enumerate(ptdf.line_ids):
        if line == outaged:
            continue
        result[line] = float(ptdf.matrix[k, col] / denominator)
    return result


def lodf_stack(ptdf: PtdfMatrix, outage: OutageSet) -> np.ndarray:
    """Stacked single-line outage factors K_-FF, one column per tripped line.

    Each column is the line's individual outage factor; this is not the
    simultaneous-outage sensitivity (see :func:`glodf`).
    """
    rows, cols = outage.surviving_idx, outage.outaged_idx
    diag = np.diag(ptdf.matrix)[cols]
    gaps = 1.0 - diag
    if np.any(gaps <= BRIDGE_DIAG_TOL):
        offenders = [outage.outaged[k] for k in np.nonzero(gaps <= BRIDGE_DIAG_TOL)[0]]
        raise BridgeOutageError(f"lines {offenders} are bridges; outage factors are undefined")
    return ptdf.matrix[np.ix_(rows, cols)] / gaps[None, :]


def _solve_right(numerator: np.ndarray, system: np.ndarray) -> np.ndarray:
    """numerator @ inv(system) via a linear solve."""
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
      post_contingency  B_-F C_-F^T A' C_F with A' from the surviving graph
      via_stack         K_-FF (I - diag D_FF) (I - D_FF)^-1
      cross_check       all three, recording the max pairwise disagreement

    Raises CutSetError when the outage disconnects the grid; the inverse of
    I - D_FF exists whenever it does not.
    """
    if method not in GLODF_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {GLODF_METHODS}")
    if is_cut_set(network, outage.outaged):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")

    rows, cols = outage.surviving_idx, outage.outaged_idx
    d_kept_out = ptdf.matrix[np.ix_(rows, cols)]
    d_out_out = ptdf.matrix[np.ix_(cols, cols)]
    eye = np.eye(outage.size)

    def pre_contingency():
        return _solve_right(d_kept_out, eye - d_out_out)

    def post_contingency():
        surviving = network.without_edges(outage.outaged)
        sub_bundle = build_laplacian(surviving)
        c_full = bundle.incidence
        b_kept = outage.susceptance_kept()
        return b_kept[:, None] * (c_full[:, outage.surviving_idx].T @ sub_bundle.A @ c_full[:, outage.outaged_idx])

    def via_stack():
        stack = lodf_stack(ptdf, outage)
        return _solve_right(stack @ (eye - np.diag(np.diag(d_out_out))), eye - d_out_out)

    k_stack = lodf_stack(ptdf, outage)
    residuals = None
    if method == "cross_check":
        candidates = {
            "pre_contingency": pre_contingency(),
            "post_contingency": post_contingency(),
            "via_stack": via_stack(),
        }
        names = sorted(candidates)
        residuals = {}
        for a_idx in range(len(names)):
            for b_idx in range(a_idx + 1, len(names)):
                a, b = names[a_idx], names[b_idx]
                residuals[f"{a}_vs_{b}"] = float(np.max(np.abs(candidates[a] - candidates[b])))
        k_matrix = candidates["pre_contingency"]
    elif method == "pre_contingency":
        k_matrix = pre_contingency()
    elif method == "post_contingency":
        k_matrix = post_contingency()
    else:
        k_matrix = via_stack()

    return GlodfResult(
        outage=outage,
        k_matrix=k_matrix,
        k_stack=k_stack,
        method=method,
        residuals=residuals,
        ptdf=ptdf,
        bundle=bundle,
    )


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
    if is_cut_set(network, outage.outaged):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")

    pre = solve_flow(bundle, network, p)

    surviving = network.without_edges(outage.outaged)
    sub_bundle = build_laplacian(surviving)
    post_sub = solve_flow(sub_bundle, surviving, p)

    flows = np.zeros(network.m)
    flows[outage.surviving_idx] = post_sub.flows
    post = FlowState(theta=post_sub.theta, flows=flows)
    return pre, post


def characteristic_injection_flow(bundle: LaplacianBundle, network: Network, line: int) -> np.ndarray:
    """Branch flows under a unit injection across a line's endpoints.

    Injecting +1 at the line's source and -1 at its target reproduces the
    line's sensitivity column: the flow on every line u equals D_u,line,
    and the flow on the line itself is positive.
    """
    edge = network.edge_by_id(line)
    p = np.zeros(network.n)
    p[network.node_index(edge.source)] = 1.0
    p[network.node_index(edge.target)] = -1.0
    return solve_flow(bundle, network, p).flows


def detect_islanding(ptdf: PtdfMatrix, outage: OutageSet) -> bool:
    """True when I - D_FF is numerically singular, signalling a cut set.

    The smallest singular value is compared against ``ISLANDING_RTOL``
    times the larger of 1 and the largest singular value; the unit floor
    keeps one-line (1x1) bridge outages detectable, where both singular
    values vanish together.
    """
    cols = outage.outaged_idx
    system = np.eye(outage.size) - ptdf.matrix[np.ix_(cols, cols)]
    singular_values = np.linalg.svd(system, compute_uv=False)
    largest = float(singular_values[0])
    smallest = float(singular_values[-1])
    return smallest < ISLANDING_RTOL * max(1.0, largest)
