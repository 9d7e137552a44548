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

import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dcpf import build_laplacian
from .errors import BridgeError, ValidationError, ZeroFactorError
from .factors import GlodfResult, OutageSet, _glodf_kernel, _lodf_columns
from .net_model import NONZERO_ATOL, Network, incidence_columns, scaled_tolerance

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


def simple_cycle_criterion(network: Network, line: int, outaged: int) -> str:
    """Predict whether an outage can move a surviving line's flow.

    Returns ``"zero"`` when no simple cycle contains both lines (the factor
    is exactly zero) and ``"possibly_nonzero"`` otherwise; the latter is
    certain only up to symmetry-induced cancellations.  Two distinct lines
    share a simple cycle exactly when they share a block.
    """
    if outaged in network.decomposition.bridges:
        raise BridgeError(f"line {outaged} is a bridge; outage factors are undefined")
    if line == outaged:
        raise ValueError("lines must be distinct")
    first, second = network.decomposition.block_at[network.edge_positions([line, outaged])]
    return "possibly_nonzero" if first == second else "zero"


def _line_blocks(network: Network, outage: OutageSet):
    """Block ids of the surviving and tripped lines, and their same-block mask."""
    block_at = network.decomposition.block_at
    row_block, col_block = block_at[outage.surviving_idx], block_at[outage.outaged_idx]
    return row_block, col_block, row_block[:, None] == col_block[None, :]


@dataclass(frozen=True, eq=False)
class BlockFactors:
    """Per-block factor submatrices and their reassembly residuals.

    ``k_direct`` is the block kernel on the block's own PTDF entries, which no mask writes; ``k_from_parts``
    the block of the post_contingency view (:class:`GlodfResult`: the network factored
    afresh with the outage's weights zeroed), which reads neither the PTDF nor A.  Each
    reassembly error compares one of them with the whole-network K of the report.
    """

    block_index: int
    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]
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


def block_structure_report(outage: OutageSet) -> LocalizationReport:
    """Verify the block-diagonal structure of a simultaneous-outage factor.

    The report's K is the pre_contingency view (:class:`GlodfResult`) of the outage columns
    of ``outage.network.factor``, solved once and never masked, so ``cross_block_max`` (which the theory pins at zero)
    reads computed entries, never written zeros; each ``k_direct`` reads only its block's
    entries, where the PTDF's mask writes nothing.  For every block containing tripped
    lines, ``k_direct`` and ``k_from_parts`` (see :class:`BlockFactors`) are compared
    against K restricted to the block.
    """
    network = outage.network
    outage.refuse_cut()

    rows, cols = outage.surviving_idx, outage.outaged_idx
    whole = network.factor.sensitivity_columns(cols)
    result = GlodfResult(outage, "pre_contingency", whole)
    K = result.pre_contingency
    magnitude = np.abs(K)
    scale = float(np.max(magnitude, initial=0.0))
    tol = scaled_tolerance(scale)

    row_block, col_block, same_block = _line_blocks(network, outage)
    cross_max = float(np.max(magnitude[~same_block], initial=0.0))
    zero_count = int(np.count_nonzero(magnitude[same_block] < tol))

    post = result.post_contingency
    blocks = []
    for index in np.unique(col_block).tolist():
        full_rows = np.flatnonzero(row_block == index)
        full_cols = np.flatnonzero(col_block == index)
        block_rows, block_cols = rows[full_rows], cols[full_cols]
        k_direct = _glodf_kernel(whole[np.ix_(block_rows, full_cols)], whole[np.ix_(block_cols, full_cols)])
        k_parts = post[np.ix_(full_rows, full_cols)]
        restricted = K[np.ix_(full_rows, full_cols)]
        blocks.append(
            BlockFactors(
                block_index=index,
                row_ids=tuple(outage.surviving[k] for k in full_rows.tolist()),
                col_ids=tuple(outage.outaged[k] for k in full_cols.tolist()),
                k_direct=k_direct,
                k_from_parts=k_parts,
                reassembly_err_direct=float(np.max(np.abs(k_direct - restricted), initial=0.0)),
                reassembly_err_parts=float(np.max(np.abs(k_parts - restricted), initial=0.0)),
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
    positive for any magnitude below one.  ValidationError unless ``trials``
    and ``seed`` are integers and ``relative_magnitude`` a real number (a
    bool is neither), ``trials >= 1``, ``0 <= relative_magnitude < 1`` and
    ``seed >= 0``.
    """

    relative_magnitude: float = 1e-3
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if not all(type(v) is int or isinstance(v, np.integer) for v in (self.trials, self.seed)):
            raise ValidationError(f"perturbation trials and seed must be integers, not bools: {self}")
        magnitude = self.relative_magnitude
        if not isinstance(magnitude, numbers.Real) or isinstance(magnitude, bool):
            raise ValidationError(f"perturbation magnitude must be a real number, not a bool: {self}")
        if not (self.trials >= 1 and 0.0 <= self.relative_magnitude < 1.0 and self.seed >= 0):
            raise ValidationError(
                f"perturbation needs trials >= 1, magnitude in [0, 1) and seed >= 0: {self}"
            )


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


def almost_sure_nonzero_test(outage: OutageSet,
                             spec: PerturbationSpec = PerturbationSpec()) -> PerturbationStats:
    """Count nonzero factor entries under random susceptance perturbations.

    Symmetry can make a within-block factor entry vanish, but the vanishing
    set has measure zero; perturbed susceptances should make every
    within-block entry nonzero in essentially every trial, while
    cross-block entries stay zero in all of them.  One independent random
    substream is derived per trial index, so results are reproducible for
    a given seed regardless of execution order.  A trial reads the
    pre_contingency view (:class:`GlodfResult`) of its perturbed network's
    |F| outage columns; it builds no PTDF.
    """
    network = outage.network
    outage.refuse_cut()
    _, _, same_block = _line_blocks(network, outage)
    base = network.susceptances()

    counts = np.zeros(same_block.shape, dtype=int)
    for trial in range(spec.trials):
        rng = np.random.default_rng([spec.seed, trial])
        omega = rng.uniform(-spec.relative_magnitude, spec.relative_magnitude, network.m)
        b = base * (1.0 + omega)
        d_cols = build_laplacian(network, b).sensitivity_columns(outage.outaged_idx)
        counts += np.abs(GlodfResult(outage, "pre_contingency", d_cols).pre_contingency) > NONZERO_ATOL

    within, cross = {}, {}
    pairs = itertools.product(outage.surviving, outage.outaged)
    for key, same, count in zip(pairs, same_block.flat, counts.flat):
        (within if same else cross)[key] = int(count)

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


def adversarial_capacity(network: Network, tripped: int, target: int) -> AdversarialInstance:
    """Injection/capacity pair under which tripping one line overloads another.

    Uses the unit injection across the tripped line's endpoints and a
    capacity vector that is exactly tight on the target line and generously
    slack elsewhere: the common slack level is (1 + max|K|) * max|f|, which
    the triangle-inequality bound on post-outage flows can never exceed.
    Requires a nonzero outage factor between the two lines.  One solve of
    the unit injection gives both the flows and the tripped line's
    sensitivity column, from which its outage factors follow.
    """
    if tripped == target:
        raise ValueError("lines must be distinct")
    if tripped in network.decomposition.bridges:
        raise BridgeError(f"line {tripped} is a bridge")

    target_idx = network.edge_index(target)
    tripped_idx = network.edge_index(tripped)
    injections = incidence_columns(network, [tripped_idx])[:, 0]
    flows = network.factor.sensitivity_columns([tripped_idx])[:, 0]
    column = _lodf_columns(flows, flows[tripped_idx])
    k_norm = float(np.max(np.abs(np.delete(column, tripped_idx))))
    if abs(column[target_idx]) < scaled_tolerance(k_norm):
        raise ZeroFactorError(
            f"outage factor between lines {tripped} and {target} vanishes; "
            "no capacity choice makes the failure propagate"
        )

    f_norm = float(np.max(np.abs(flows)))
    slack_level = (1.0 + k_norm) * f_norm

    capacities = np.full(network.m, slack_level)
    capacities[target_idx] = abs(flows[target_idx])
    return AdversarialInstance(injections=injections, capacities=capacities)
