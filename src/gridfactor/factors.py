"""PTDF, LODF, stacked LODF, and multi-line GLODF computation.

D = B C^T A C is a function of one network, its ``network.sensitivity`` (:class:`PtdfMatrix`, zero
across line blocks); each reader takes the network or an outage of it, never a PTDF, so no answer
can mix two networks.  Single-line outage factors follow as K = D / (1 - D_ll) for non-bridge lines,
always through ``_lodf_columns``, and a simultaneous non-cut outage couples the
tripped lines through the inverse of I - D_FF, in the GLODF kernel
``_glodf_kernel(numerator, D_FF) = numerator (I - D_FF)^-1``: one |F|-by-|F|
inverse and one product, O(rows |F|^2 + |F|^3).  Each simultaneous-outage
formula is defined once, as a view of :class:`GlodfResult` over the outage
columns D[:, F]: pre_contingency, post_contingency, via_stack and the stacked
k_stack.  :func:`glodf`, :func:`lodf_stack`, the localization report and every
perturbation trial read those views; the cross-check mode evaluates all three
formulas and records their disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dcpf import FlowState, surviving_factor, surviving_flow
from .errors import BridgeOutageError, CutSetError, SingularError, UnknownEdgeError, ValidationError
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
_BATCH = 32  # columns per solve: D is read in m x _BATCH slices, never as m x m temporaries


class PtdfMatrix:
    """The sensitivity D = B C^T A C of one network on its ``factor``, read by columns, indexed by line ``ids``.

    :attr:`Network.sensitivity` is the one per network.  It keeps the ``factor``, ``ids``, ``block_at`` and the
    id lookup but no reference to the network, so a network that holds it is freed by reference counting.  D is
    held column-major, as :meth:`LaplacianBundle.branch_flows` writes it, so an outage's columns are contiguous.

    A unit injection across a line's ends moves flow only inside that line's
    block (Part I of the paper), so D is block-diagonal in ``network.decomposition``.
    Every read goes through :meth:`batches`: at most ``_BATCH`` columns per solve, with 0.0
    written in every row outside each column's block, or a slice of :attr:`matrix` (all m
    columns, filled batch by batch) once that is built.  SuperLU's last bits depend on how
    many columns one solve takes only far above ``_BATCH`` (at 1737 on the 40x40 grid), so
    :attr:`matrix` and :meth:`columns` agree bit for bit at every size.
    """

    def __init__(self, network: Network):
        self.factor = network.factor
        self.ids = network.ids
        self._position = network._edge_lookup
        self.block_at = network.decomposition.block_at

    def batches(self, positions, rows=slice(None)):
        """(start, D[rows, positions[start:start + _BATCH]]) for each batch in turn, zero outside each column's block."""
        held = "matrix" in self.__dict__  # then the mask finds its zeros already written
        for start in range(0, len(positions), _BATCH):
            batch = positions[start:start + _BATCH]
            d = self.matrix[:, batch][rows] if held else self.factor.sensitivity_columns(batch, rows)
            d[self.block_at[rows, None] != self.block_at[batch]] = 0.0
            yield start, d

    def columns(self, positions) -> np.ndarray:
        """D[:, positions], column-major, with exact zeros outside each column's block."""
        if "matrix" in self.__dict__:
            return self.matrix[:, positions]
        out = np.empty((len(self.ids), len(positions)), order="F")
        for start, d in self.batches(positions):
            out[:, start:start + d.shape[1]] = d
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.columns(np.arange(len(self.ids)))

    def entry(self, line: int, shifted: int) -> float:
        try:
            col, row = self._position[shifted], self._position[line]
        except KeyError as exc:
            raise UnknownEdgeError(f"unknown edge id {exc.args[0]}") from None
        return float(self.columns([col])[row, 0])


class OutageSet:
    """A nonempty proper subset of lines to trip, with partition views.

    The outaged ids are kept in ascending order, fixing the column order of
    every derived factor matrix; the surviving ids are ascending as well.
    ``disconnects`` is True when tripping the lines disconnects the network.
    """

    def __init__(self, network: Network, lines):
        # Looked up as given, so an id that names no line (1.5) is refused, never truncated.
        outaged = sorted({network.ids[k]: k for k in network.edge_positions(lines).tolist()}.items())
        if not outaged:
            raise ValidationError("outage set must be nonempty")
        if len(outaged) == network.m:
            raise ValidationError("outage set must be a proper subset of the lines")
        self.network = network
        self.outaged, positions = zip(*outaged)
        self.outaged_idx = np.array(positions)
        keep = np.ones(network.m, dtype=bool)
        keep[self.outaged_idx] = False
        self.surviving_idx = np.flatnonzero(keep)
        self.disconnects = network.disconnected_by(self.outaged_idx)  # decided once, from the tripped lines' labels

    def refuse_cut(self) -> None:
        """Raise CutSetError when the outage disconnects the network; a bridge in it always does."""
        if self.disconnects:
            raise CutSetError(f"outage {self.outaged} disconnects the network")

    @cached_property
    def surviving(self) -> tuple[int, ...]:
        return tuple(map(self.network.ids.__getitem__, self.surviving_idx.tolist()))

    @property
    def size(self) -> int:
        return len(self.outaged)


@dataclass(frozen=True, eq=False)
class GlodfResult:
    """The simultaneous-outage formulas of one outage, each a view of D[:, F] (``d_cols``) cached on first read.

    Each maps pre-outage flows on the tripped lines (columns, ascending ids) to flow changes
    on the surviving lines (rows, ascending):
      pre_contingency   D_-FF (I - D_FF)^-1
      post_contingency  B_-F C_-F^T A' C_F, solved on the surviving grid of ``outage.network``
                        (:func:`surviving_factor`); it reads no ``d_cols``
      via_stack         K_-FF (I - diag D_FF) (I - D_FF)^-1, on the k_stack view
      k_stack           the stacked single-line factors K_-FF (equal to K only for one line)
    ``k_matrix`` is the ``method``'s view, pre_contingency's under ``cross_check``, where
    ``residuals`` holds the max disagreement of each pair of formulas (None otherwise).
    """

    outage: OutageSet
    method: str
    d_cols: np.ndarray = field(repr=False)

    @cached_property
    def pre_contingency(self) -> np.ndarray:
        return _glodf_kernel(self.d_cols[self.outage.surviving_idx], self.d_cols[self.outage.outaged_idx])

    @cached_property
    def post_contingency(self) -> np.ndarray:
        cols = self.outage.outaged_idx
        return surviving_factor(self.outage.network, cols).sensitivity_columns(cols)[self.outage.surviving_idx]

    @cached_property
    def via_stack(self) -> np.ndarray:
        d_ff = self.d_cols[self.outage.outaged_idx]
        return _glodf_kernel(self.k_stack @ (np.eye(self.outage.size) - np.diag(np.diag(d_ff))), d_ff)

    @cached_property
    def k_stack(self) -> np.ndarray:
        # glodf refused every cut, and a bridge alone is one: no bridge check here
        return _lodf_columns(self.d_cols[self.outage.surviving_idx], np.diag(self.d_cols[self.outage.outaged_idx]))

    @cached_property
    def residuals(self) -> dict | None:
        if self.method != "cross_check":
            return None
        views = {name: getattr(self, name) for name in ("pre_contingency", "post_contingency", "via_stack")}
        return {
            f"{a}_vs_{b}": float(np.max(np.abs(views[a] - views[b])))
            for a, b in itertools.combinations(sorted(views), 2)
        }

    @property
    def k_matrix(self) -> np.ndarray:
        return self.pre_contingency if self.method == "cross_check" else getattr(self, self.method)


def ptdf_matrix(bundle, network: Network) -> PtdfMatrix:
    """``network.sensitivity`` with its m-by-m ``matrix`` built; ``bundle`` is the benchmark's call, unread."""
    network.sensitivity.matrix  # callers that slice many column sets from one network read it
    return network.sensitivity


def lodf_single(network: Network, outaged: int) -> dict[int, float]:
    """Single-line outage factors K for every surviving line.

    Raises BridgeOutageError when the outaged line is a bridge (the factor
    denominator 1 - D_ll vanishes exactly there), and SingularError when
    1 - D_ll is at most RTOL on a line that is not one.
    """
    ptdf = network.sensitivity
    col = network.edge_index(outaged)
    if outaged in network.decomposition.bridges:
        raise BridgeOutageError(f"line {outaged} is a bridge; outage factors are undefined")
    column = ptdf.columns([col])[:, 0]
    values = _lodf_columns(column, column[col])
    ids = network.ids[:col] + network.ids[col + 1:]
    return dict(zip(ids, np.delete(values, col).tolist()))


def lodf_stack(outage: OutageSet) -> np.ndarray:
    """Stacked single-line outage factors K_-FF, one column per tripped line.

    Each column is the line's individual outage factor; this is not the
    simultaneous-outage sensitivity (see :func:`glodf`).  Bridges are
    decided by the graph.  The columns are :attr:`GlodfResult.k_stack`.
    """
    offenders = [line for line in outage.outaged if line in outage.network.decomposition.bridges]
    if offenders:
        raise BridgeOutageError(f"lines {offenders} are bridges; outage factors are undefined")
    return GlodfResult(outage, "pre_contingency", outage.network.sensitivity.columns(outage.outaged_idx)).k_stack


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
    """numerator (I - d_ff)^-1: one |F|-by-|F| inverse, then one product.

    With numerator = D_-F,F this is the simultaneous-outage factor of a
    non-cut outage F; any row subset of it (one block's lines) works too.
    O(|F|^3 + rows |F|^2); a row of zeros comes out as +0.0.
    """
    try:
        return numerator @ np.linalg.inv(np.eye(d_ff.shape[0]) - d_ff)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"I - D_FF is numerically singular: {exc}") from None


def glodf(bundle, ptdf, network, outage: OutageSet, method: str = "pre_contingency") -> GlodfResult:
    """Simultaneous-outage sensitivity K for a non-cut set of lines, by one of GLODF_METHODS.

    The formulas are the :class:`GlodfResult` views of the outage columns of
    ``outage.network.sensitivity`` (``cross_check`` reads all three).  ``bundle``, ``ptdf``
    and ``network`` are the benchmark's call and not read, so they cannot pair the outage
    with another network's D.  Raises CutSetError when the outage disconnects the grid
    (:meth:`OutageSet.refuse_cut`); I - D_FF is invertible whenever it does not.
    The method's factors are computed here, so a singular coupling raises here.
    """
    if method not in GLODF_METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {GLODF_METHODS}")
    outage.refuse_cut()
    result = GlodfResult(outage, method, outage.network.sensitivity.columns(outage.outaged_idx))
    result.residuals if method == "cross_check" else result.k_matrix  # computed now, so errors raise here
    return result


def apply_outage(p, outage: OutageSet) -> tuple[FlowState, FlowState]:
    """Pre- and post-contingency DC solutions for a non-cut outage.

    The pre state is the network's kept base state (:meth:`Network.flow`, read-only),
    and the post state is its GLODF update on ``outage.network.factor``
    (:func:`_outage_flow`); its flow vector keeps full length with zeros at the tripped lines.
    """
    network = outage.network
    injection_vector(network, p)  # a bad p is refused before a cut
    outage.refuse_cut()
    p, pre = network.flow(p)
    return pre, _outage_flow(network, p, pre, outage.outaged_idx)


def _outage_flow(network: Network, p, base: FlowState | None, tripped) -> FlowState:
    """DC flow without the lines at the non-cut edge positions ``tripped``, updated from ``base``.

    theta' = theta + A C_F (I - D_FF)^-1 f_F (Part I of the paper) takes one solve of
    |F| columns (:meth:`LaplacianBundle.line_solve`) on ``network.factor``, the factor ``base`` was
    solved on, and no new factorization.  The update is certified by its nodal imbalance r = C f' - p:
    f' is a potential flow on the surviving grid, so it is off the exact flow
    by at most ||r||_1 on every line.  The surviving grid is re-solved instead
    (:func:`surviving_flow`) when ||r||_1 exceeds ``scaled_tolerance(max|f'|)``, when
    I - D_FF is singular, and when ``base`` is None (no whole-network factor).
    """
    if base is not None:
        bundle = network.factor
        x_f = bundle.line_solve(tripped)
        try:
            theta = base.theta + _glodf_kernel(x_f, bundle.branch_flows(x_f, tripped)) @ base.flows[tripped]
        except SingularError:  # I - D_FF is singular
            pass
        else:
            flows = bundle.branch_flows(theta)
            flows[tripped] = 0.0
            n = network.n
            imbalance = np.bincount(bundle.source, flows, n) - np.bincount(bundle.target, flows, n) - p
            if np.abs(imbalance).sum() <= scaled_tolerance(float(np.abs(flows).max())):  # NaN fails too
                return FlowState(theta=theta, flows=flows)
    return surviving_flow(network, p, tripped)


def characteristic_injection_flow(network: Network, line: int) -> np.ndarray:
    """Branch flows under a unit injection across a line's endpoints.

    Injecting +1 at the line's source and -1 at its target reproduces the
    line's sensitivity column: the flow on every line u equals D_u,line,
    and the flow on the line itself is positive.
    """
    return network.factor.sensitivity_columns([network.edge_index(line)])[:, 0]


def detect_islanding(outage: OutageSet) -> bool:
    """True when I - D_FF is numerically singular, a numerical test for a cut set.

    The smallest singular value is compared against ``scaled_tolerance(largest singular value)``; its unit
    floor keeps one-line (1x1) bridge outages detectable, where both singular values vanish together.  Its
    exact twin is the graph test (:attr:`OutageSet.disconnects`): the tripped lines' cycle labels are linearly
    dependent over GF(2).  The two agree except when the susceptances spread widely: on a stiff triangle this
    one calls a non-cut outage singular.  No refusal in this package uses it; each reads ``disconnects``.
    """
    cols = outage.outaged_idx
    system = np.eye(outage.size) - outage.network.sensitivity.columns(cols)[cols]
    singular_values = np.linalg.svd(system, compute_uv=False)
    return float(singular_values[-1]) < scaled_tolerance(float(singular_values[0]))
