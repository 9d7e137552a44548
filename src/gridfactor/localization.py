"""Failure-localization certificates for non-cut outages.

A non-cut outage cannot change the flow on any line outside the blocks that
contain tripped lines, so the simultaneous-outage factor matrix is block
diagonal.  This module verifies that structure: it reassembles the factor
matrix block by block, measures the cross-block leakage, predicts zero
entries through the simple-cycle criterion, runs the randomized
susceptance-perturbation converse, and builds the adversarial
injection/capacity pair that forces a chosen follow-on trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dcpf import LaplacianBundle, build_laplacian
from .errors import BridgeOutageError, CutSetError, ZeroFactorError
from .factors import (
    GlodfResult,
    OutageSet,
    characteristic_injection_flow,
    glodf,
    lodf_single,
    ptdf_matrix,
)
from .graph_algos import BlockDecomposition, _shares_block, block_decomposition, is_cut_set
from .net_model import Network, incidence_matrix

__all__ = [
    "PerturbationSpec",
    "PerturbationStats",
    "BlockFactors",
    "LocalizationReport",
    "AdversarialInstance",
    "simple_cycle_criterion",
    "block_structure_report",
    "almost_sure_nonzero_test",
    "adversarial_capacity",
]

#: Relative tolerance declaring a factor entry "zero" in structure checks.
ZERO_RTOL = 1e-9
#: Absolute threshold for "nonzero" in the perturbation statistics.
NONZERO_ATOL = 1e-12


def simple_cycle_criterion(network: Network, line: int, outaged: int) -> str:
    """Predict whether an outage can move a surviving line's flow.

    Returns ``"zero"`` when no simple cycle contains both lines (the factor
    is exactly zero) and ``"possibly_nonzero"`` otherwise; the latter is
    certain only up to symmetry-induced cancellations.
    """
    decomposition = block_decomposition(network)
    if outaged in decomposition.bridges:
        raise BridgeOutageError(f"line {outaged} is a bridge; outage factors are undefined")
    return "possibly_nonzero" if _shares_block(decomposition, line, outaged) else "zero"


@dataclass(frozen=True, eq=False)
class BlockFactors:
    """Per-block factor submatrices and their reassembly residuals.

    ``k_direct`` is the block factor computed from the sensitivity
    submatrices alone, ``k_from_parts`` the same block rebuilt from the raw
    susceptance/incidence/inverse product; both must match the rows and
    columns that the full factor matrix assigns to this block.
    """

    block_index: int
    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]
    d_kept: np.ndarray
    d_out: np.ndarray
    k_stacked: np.ndarray
    k_direct: np.ndarray
    k_from_parts: np.ndarray
    reassembly_err_direct: float
    reassembly_err_parts: float


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """Block-diagonal structure evidence for one simultaneous outage."""

    blocks: tuple[BlockFactors, ...]
    cross_block_max: float
    within_block_zero_count: int
    zero_tolerance: float
    matrix_scale: float


def block_structure_report(
    result: GlodfResult,
    decomposition: BlockDecomposition,
    outage: OutageSet,
) -> LocalizationReport:
    """Verify the block-diagonal structure of a simultaneous-outage factor.

    For every block containing tripped lines the factor submatrix is
    recomputed two independent ways and compared against the matching slice
    of the full matrix; entries pairing lines from different blocks are
    collected into ``cross_block_max``, which the theory pins at zero.
    """
    network = outage.network
    if is_cut_set(network, outage.outaged):
        raise CutSetError(f"outage {outage.outaged} disconnects the network")

    ptdf = result.ptdf
    K = result.k_matrix
    magnitude = np.abs(K)
    scale = float(np.max(magnitude, initial=0.0))
    tol = ZERO_RTOL * max(1.0, scale)

    row_block = np.array([decomposition.block_of[line] for line in outage.surviving], dtype=int)
    col_block = np.array([decomposition.block_of[line] for line in outage.outaged], dtype=int)
    same_block = row_block[:, None] == col_block[None, :]
    cross_max = float(np.max(magnitude[~same_block], initial=0.0))
    zero_count = int(np.count_nonzero(magnitude[same_block] < tol))

    C = incidence_matrix(network)
    A = result.bundle.A
    b = network.susceptances()

    blocks = []
    for index in np.unique(col_block).tolist():
        full_cols = np.flatnonzero(col_block == index)
        full_rows = np.flatnonzero(row_block == index)
        col_ids = tuple(outage.outaged[k] for k in full_cols.tolist())
        row_ids = tuple(outage.surviving[k] for k in full_rows.tolist())

        rows = outage.surviving_idx[full_rows]
        cols = outage.outaged_idx[full_cols]
        d_kept = ptdf.matrix[np.ix_(rows, cols)] if rows.size else np.zeros((0, cols.size))
        d_out = ptdf.matrix[np.ix_(cols, cols)]
        eye = np.eye(len(col_ids))

        gaps = 1.0 - np.diag(d_out)
        k_stacked = d_kept / gaps[None, :] if rows.size else np.zeros((0, cols.size))
        k_direct = (
            np.linalg.solve((eye - d_out).T, d_kept.T).T if rows.size else np.zeros((0, cols.size))
        )

        c_kept = C[:, rows]
        c_out = C[:, cols]
        inner = eye - (b[cols][:, None] * (c_out.T @ A @ c_out))
        if rows.size:
            lead = b[rows][:, None] * (c_kept.T @ A @ c_out)
            k_parts = np.linalg.solve(inner.T, lead.T).T
        else:
            k_parts = np.zeros((0, cols.size))

        restricted = (
            K[np.ix_(full_rows, full_cols)] if full_rows.size else np.zeros((0, cols.size))
        )
        err_direct = float(np.max(np.abs(k_direct - restricted))) if restricted.size else 0.0
        err_parts = float(np.max(np.abs(k_parts - restricted))) if restricted.size else 0.0

        blocks.append(
            BlockFactors(
                block_index=index,
                row_ids=row_ids,
                col_ids=col_ids,
                d_kept=d_kept,
                d_out=d_out,
                k_stacked=k_stacked,
                k_direct=k_direct,
                k_from_parts=k_parts,
                reassembly_err_direct=err_direct,
                reassembly_err_parts=err_parts,
            )
        )

    return LocalizationReport(
        blocks=tuple(blocks),
        cross_block_max=cross_max,
        within_block_zero_count=zero_count,
        zero_tolerance=tol,
        matrix_scale=scale,
    )


@dataclass(frozen=True)
class PerturbationSpec:
    """Randomized susceptance-perturbation settings.

    Each trial rescales every susceptance by (1 + w) with w uniform on
    [-relative_magnitude, +relative_magnitude], which keeps susceptances
    positive for any magnitude below one.
    """

    relative_magnitude: float = 1e-3
    trials: int = 100
    seed: int = 0


@dataclass(frozen=True, eq=False)
class PerturbationStats:
    """Per-entry nonzero counts across perturbation trials.

    Keys are (surviving line, tripped line) pairs; a trial counts when the
    recomputed factor magnitude exceeds ``threshold``.  Cross-block entries
    stay zero deterministically, so their counts should be zero; the
    within-block counts approach the trial count for almost every draw.
    """

    trials: int
    threshold: float
    within_block: dict[tuple[int, int], int]
    cross_block: dict[tuple[int, int], int]

    def min_within_count(self) -> int:
        return min(self.within_block.values()) if self.within_block else 0

    def max_cross_count(self) -> int:
        return max(self.cross_block.values()) if self.cross_block else 0


def almost_sure_nonzero_test(
    network: Network,
    outage: OutageSet,
    spec: PerturbationSpec = PerturbationSpec(),
) -> PerturbationStats:
    """Count nonzero factor entries under random susceptance perturbations.

    Symmetry can make a within-block factor entry vanish, but the vanishing
    set has measure zero; perturbed susceptances should make every
    within-block entry nonzero in essentially every trial, while
    cross-block entries stay zero in all of them.  One independent random
    substream is derived per trial index, so results are reproducible for
    a given seed regardless of execution order.
    """
    if is_cut_set(network, outage.outaged):
        # Any bridge in the outage also lands here: a bridge is a cut set.
        raise CutSetError(f"outage {outage.outaged} disconnects the network")
    decomposition = block_decomposition(network)

    base = network.susceptances()
    block_of = decomposition.block_of

    within: dict[tuple[int, int], int] = {}
    cross: dict[tuple[int, int], int] = {}
    for r, line in enumerate(outage.surviving):
        for c, tripped in enumerate(outage.outaged):
            key = (line, tripped)
            if block_of[line] == block_of[tripped]:
                within[key] = 0
            else:
                cross[key] = 0

    for trial in range(spec.trials):
        rng = np.random.default_rng([spec.seed, trial])
        omega = rng.uniform(-spec.relative_magnitude, spec.relative_magnitude, network.m)
        factors = np.maximum(1.0 + omega, 1e-12)
        perturbed = network.with_susceptances(base * factors)

        bundle = build_laplacian(perturbed)
        ptdf = ptdf_matrix(bundle, perturbed)
        sub_outage = OutageSet(perturbed, outage.outaged)
        K = glodf(bundle, ptdf, perturbed, sub_outage, method="pre_contingency").k_matrix

        for r, line in enumerate(outage.surviving):
            for c, tripped in enumerate(outage.outaged):
                if abs(float(K[r, c])) > NONZERO_ATOL:
                    key = (line, tripped)
                    if key in within:
                        within[key] += 1
                    else:
                        cross[key] += 1

    return PerturbationStats(
        trials=spec.trials,
        threshold=NONZERO_ATOL,
        within_block=within,
        cross_block=cross,
    )


class AdversarialInstance(NamedTuple):
    """Injections and capacities that force a chosen follow-on overload."""

    injections: np.ndarray
    capacities: np.ndarray


def adversarial_capacity(
    bundle: LaplacianBundle,
    network: Network,
    tripped: int,
    target: int,
) -> AdversarialInstance:
    """Injection/capacity pair under which tripping one line overloads another.

    Uses the unit injection across the tripped line's endpoints and a
    capacity vector that is exactly tight on the target line and generously
    slack elsewhere: the common slack level is (1 + max|K|) * max|f|, which
    the triangle-inequality bound on post-outage flows can never exceed.
    Requires a nonzero outage factor between the two lines.
    """
    if tripped == target:
        raise ValueError("lines must be distinct")
    decomposition = block_decomposition(network)
    if tripped in decomposition.bridges:
        raise BridgeOutageError(f"line {tripped} is a bridge")

    ptdf = ptdf_matrix(bundle, network)
    column = lodf_single(ptdf, decomposition, tripped)
    factor = column[target]
    if abs(factor) < ZERO_RTOL * max(1.0, max(abs(v) for v in column.values())):
        raise ZeroFactorError(
            f"outage factor between lines {tripped} and {target} vanishes; "
            "no capacity choice makes the failure propagate"
        )

    flows = characteristic_injection_flow(bundle, network, tripped)
    k_norm = max(abs(v) for v in column.values())
    f_norm = float(np.max(np.abs(flows)))
    slack_level = (1.0 + k_norm) * f_norm

    capacities = np.full(network.m, slack_level)
    capacities[network.edge_index(target)] = abs(flows[network.edge_index(target)])

    edge = network.edge_by_id(tripped)
    injections = np.zeros(network.n)
    injections[network.node_index(edge.source)] = 1.0
    injections[network.node_index(edge.target)] = -1.0
    return AdversarialInstance(injections=injections, capacities=capacities)
