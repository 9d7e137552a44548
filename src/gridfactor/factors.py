"""PTDF, LODF, stacked LODF, and multi-line GLODF computation.

The injection-shift sensitivity matrix D = B C^T A C is read by columns
(:class:`PtdfMatrix`) and is zero across line blocks by construction.  Single-line
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
from .graph_algos import BlockDecomposition, block_decomposition
from .net_model import RTOL, Network, incidence_columns, injection_vector, scaled_tolerance

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
    """The sensitivity D = B C^T A C of one factor, read by columns, indexed by line ids.

    A unit injection across a line's ends moves flow only inside that line's
    block (Part I of the paper), so D is block-diagonal in the network's
    ``decomposition``.  :meth:`columns` solves only the columns asked for and
    writes 0.0 in every row outside each column's block; :attr:`matrix` holds
    all m columns with the same bits, and once it is built, :meth:`columns` slices it.
    """

    def __init__(self, bundle: LaplacianBundle, network: Network):
        self.bundle = bundle
        self.network = network
        self.line_ids = network.edge_ids()
        self.decomposition = block_decomposition(network)
        self._block = np.array([self.decomposition.block_of[line] for line in self.line_ids])

    def columns(self, positions) -> np.ndarray:
        """D[:, positions], with exact zeros outside each column's block."""
        if "matrix" in self.__dict__:
            return self.matrix[:, positions]
        d_cols = self.bundle.sensitivity_columns(positions)
        d_cols[self._block[:, None] != self._block[positions]] = 0.0
        return d_cols

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.columns(np.arange(self.network.m))

    def entry(self, line: int, shifted: int) -> float:
        return float(self.matrix[self.network.edge_index(line), self.network.edge_index(shifted)])


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
    pairs in cross-check mode.  The generating ptdf (and through it the
    factor, ``ptdf.bundle``) rides along for downstream reports, and so do
    the outage columns D[:, F] the factors were computed from.
    """

    outage: OutageSet
    k_matrix: np.ndarray
    method: str
    residuals: dict | None
    ptdf: PtdfMatrix = field(repr=False)
    d_cols: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def k_stack(self) -> np.ndarray:
        return lodf_stack(self.ptdf, self.outage, self.d_cols)


def ptdf_matrix(bundle: LaplacianBundle, network: Network) -> PtdfMatrix:
    """The sensitivity D = B C^T A C with its full m-by-m ``matrix`` built up front."""
    ptdf = PtdfMatrix(bundle, network)
    ptdf.matrix  # callers that slice many column sets from one network read it
    return ptdf


def lodf_single(ptdf: PtdfMatrix, decomposition: BlockDecomposition, outaged: int) -> dict[int, float]:
    """Single-line outage factors K for every surviving line.

    Raises BridgeOutageError when the outaged line is a bridge (the factor
    denominator 1 - D_ll vanishes exactly there), and SingularError when
    1 - D_ll is at most RTOL on a line that is not one.
    """
    col = ptdf.network.edge_index(outaged)
    if outaged in decomposition.bridges:
        raise BridgeOutageError(f"line {outaged} is a bridge; outage factors are undefined")
    column = ptdf.columns([col])[:, 0]
    values = _lodf_columns(column, column[col])
    ids = ptdf.line_ids[:col] + ptdf.line_ids[col + 1:]
    return dict(zip(ids, np.delete(values, col).tolist()))


def lodf_stack(ptdf: PtdfMatrix, outage: OutageSet, d_cols: np.ndarray | None = None) -> np.ndarray:
    """Stacked single-line outage factors K_-FF, one column per tripped line.

    Each column is the line's individual outage factor; this is not the
    simultaneous-outage sensitivity (see :func:`glodf`).  Bridges are
    decided by the graph.  ``d_cols``, when given, is ``ptdf.columns`` of
    the outaged lines, already solved by the caller.
    """
    rows, cols = outage.surviving_idx, outage.outaged_idx
    offenders = [line for line in outage.outaged if line in ptdf.decomposition.bridges]
    if offenders:
        raise BridgeOutageError(f"lines {offenders} are bridges; outage factors are undefined")
    if d_cols is None:
        d_cols = ptdf.columns(cols)
    return _lodf_columns(d_cols[rows], d_cols[cols, np.arange(len(cols))])


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
    ``post_contingency`` factors the network again, for its solve.  The other
    formulas read only the |F| outage columns of ``ptdf``, whose factor is ``bundle``.
    """
    if method not in GLODF_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {GLODF_METHODS}")
    if network.disconnected_by(outage.outaged_idx):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")

    rows, cols = outage.surviving_idx, outage.outaged_idx
    d_cols = ptdf.columns(cols)
    d_out_out = d_cols[cols]

    def pre_contingency():
        return _glodf_kernel(d_cols[rows], d_out_out)

    def post_contingency():
        return _post_contingency_columns(network, cols)[rows]

    stack = None

    def via_stack():
        nonlocal stack
        stack = lodf_stack(ptdf, outage, d_cols)
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
        d_cols=d_cols,
    )
    if stack is not None:
        result.__dict__["k_stack"] = stack  # the formula's stack, so k_stack is not computed again
    return result


def _post_contingency_columns(network: Network, cols) -> np.ndarray:
    """D[:, cols] of the network factored afresh with the weights at ``cols`` zeroed.

    Its surviving rows are the outage's K, from a factor that shares nothing with the pre-outage one.
    """
    b = network.susceptances()
    b[cols] = 0.0
    return build_laplacian(network, b).sensitivity_columns(cols)


def apply_outage(
    bundle: LaplacianBundle,
    network: Network,
    p,
    outage: OutageSet,
) -> tuple[FlowState, FlowState]:
    """Pre- and post-contingency DC solutions for a non-cut outage.

    The post state is the GLODF update of the pre state on ``bundle``, the
    network's factor (:func:`_outage_flow`); its flow vector keeps full
    length with zeros at the tripped lines.
    """
    p = injection_vector(network, p)
    if network.disconnected_by(outage.outaged_idx):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")
    pre = solve_flow(bundle, network, p)
    return pre, _outage_flow(bundle, network, p, pre, outage.outaged_idx)


def _outage_flow(bundle: LaplacianBundle, network: Network, p, base: FlowState, tripped) -> FlowState:
    """DC flow without the lines at the non-cut edge positions ``tripped``, updated from ``base``.

    theta' = theta + A C_F (I - D_FF)^-1 f_F (Part I of the paper) takes |F|
    solves on ``bundle``, the factor ``base`` was solved on, and no new
    factorization.  The update is certified by its nodal imbalance r = C f' - p:
    f' is a potential flow on the surviving grid, so it is off the exact flow
    by at most ||r||_1 on every line.  When ||r||_1 exceeds
    ``scaled_tolerance(max|f'|)``, or I - D_FF is singular, the surviving grid
    is factored afresh instead (:func:`surviving_flow`).
    """
    x_f = bundle.solve(incidence_columns(network, tripped))
    try:
        theta = base.theta + _glodf_kernel(x_f, bundle.branch_flows(x_f)[tripped]) @ base.flows[tripped]
    except SingularError:
        return surviving_flow(network, p, tripped)
    flows = bundle.branch_flows(theta)
    flows[tripped] = 0.0
    n = network.n
    imbalance = np.bincount(bundle.source, flows, n) - np.bincount(bundle.target, flows, n) - p
    if not np.abs(imbalance).sum() <= scaled_tolerance(float(np.max(np.abs(flows)))):  # NaN fails too
        return surviving_flow(network, p, tripped)
    return FlowState(theta=theta, flows=flows)


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
    system = np.eye(outage.size) - ptdf.columns(cols)[cols]
    singular_values = np.linalg.svd(system, compute_uv=False)
    return float(singular_values[-1]) < scaled_tolerance(float(singular_values[0]))
