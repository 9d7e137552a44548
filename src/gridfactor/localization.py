"""Failure-localization certificates for non-cut outages.

A non-cut outage cannot change the flow on any line outside the blocks that
contain tripped lines, so the simultaneous-outage factor matrix is block
diagonal.  This module verifies that structure: it reassembles the factor
matrix block by block, measures the cross-block leakage, predicts zero
entries through the simple-cycle criterion, runs the randomized
susceptance-perturbation converse (every trial refined on the network's own
factor, none factored afresh), and builds the adversarial
injection/capacity pair that forces a chosen follow-on trip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, ZeroFactorError
from .factors import _BATCH, GlodfResult, OutageSet, _glodf_kernel, _line_outage, _refuse_bridge
from .net_model import NONZERO_ATOL, PERTURBATION, Network, incidence_columns, scaled_tolerance

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
    _refuse_bridge(network, outaged)
    if line == outaged:
        raise ValueError("lines must be distinct")
    first, second = network.edge_positions([line, outaged])
    return "possibly_nonzero" if network.decomposition.same_block(first, second) else "zero"


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
    entries (so neither reads ``network.sensitivity``, whose zeros across blocks are written).
    For every block containing tripped lines, grouped and indexed by the view's ``block_at``,
    ``k_direct`` and ``k_from_parts`` (see :class:`BlockFactors`) are compared against K restricted to the block.
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

    same_block = network.decomposition.same_block(rows, cols)
    cross_max = float(np.max(magnitude[~same_block], initial=0.0))
    zero_count = int(np.count_nonzero(magnitude[same_block] < tol))

    post = result.post_contingency
    row_block, col_block = network.decomposition.block_at[rows], network.decomposition.block_at[cols]
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
    """Randomized susceptance-perturbation settings: how many trials, and their seed.

    Each trial rescales every susceptance by (1 + w) with w uniform on
    [-PERTURBATION, +PERTURBATION] (``net_model``), the one magnitude that
    goes with ``NONZERO_ATOL``.  ValidationError unless ``trials`` and
    ``seed`` are integers (a bool is not one), ``trials >= 1`` and ``seed >= 0``.
    """

    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if not all(type(v) is int or isinstance(v, np.integer) for v in (self.trials, self.seed)):
            raise ValidationError(f"perturbation trials and seed must be integers, not bools: {self}")
        if not (self.trials >= 1 and self.seed >= 0):
            raise ValidationError(f"perturbation needs trials >= 1 and seed >= 0: {self}")


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
    set has measure zero; susceptances perturbed by the relative
    ``PERTURBATION`` should make every within-block entry exceed
    ``NONZERO_ATOL`` in essentially every trial, while cross-block entries
    stay zero in all of them.  One independent random
    substream is derived per trial index, so results are reproducible for
    a given seed regardless of execution order.  A trial reads the
    pre_contingency view (:class:`GlodfResult`) of its perturbed network's
    |F| outage columns, refined on ``network.factor``, in chunks of whole
    trials of at most ``_BATCH`` columns each, drawn as they are solved
    (memory O(m _BATCH) at any trial count); it builds no PTDF and no factor.
    """
    network = outage.network
    outage.refuse_cut()
    same_block = network.decomposition.same_block(outage.surviving_idx, outage.outaged_idx)
    base, size, factor = network.susceptances(), outage.size, network.factor

    counts = np.zeros(same_block.shape, dtype=int)
    group = max(1, _BATCH // size)  # whole trials per chunk; a trial of more than _BATCH lines is split
    for first in range(0, spec.trials, group):
        trials = range(first, min(first + group, spec.trials))
        omega = [np.random.default_rng([spec.seed, t]).uniform(-PERTURBATION, PERTURBATION, network.m) for t in trials]
        weights = np.repeat(base[:, None] * (1.0 + np.column_stack(omega)), size, 1)
        lines = np.tile(outage.outaged_idx, len(trials))
        d_cols = np.hstack([factor.reweighted_columns(lines[k:k + _BATCH], weights[:, k:k + _BATCH])
                            for k in range(0, len(lines), _BATCH)])
        for j in range(len(trials)):
            trial = GlodfResult(outage, "pre_contingency", d_cols[:, j * size:(j + 1) * size])
            counts += np.abs(trial.pre_contingency) > NONZERO_ATOL

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
    Requires a nonzero outage factor between the two lines.  The tripped
    line's column of ``network.sensitivity`` is both the flows of the unit
    injection and, by the one single-line outage route, its outage factors.
    """
    if tripped == target:
        raise ValueError("lines must be distinct")
    tripped_idx, flows, column = _line_outage(network, tripped)
    target_idx = network.edge_index(target)
    injections = incidence_columns(network, [tripped_idx])[:, 0]
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
