"""Stage-wise cascading-failure simulation and influence-graph export.

Stage 0 removes the initial outage and solves the DC flow.  Each later
stage trips, simultaneously, every line whose flow magnitude strictly
exceeds its capacity in the previous stage's solution, then solves again.
Flows exactly at capacity survive.  The simulation halts when nothing
overloads, or when the cumulative outage disconnects the grid; islanding
is reported at the stage whose solve would have run on the split grid,
and rebalancing of islands is out of scope.

A connected stage is not factored again: its flow is the base flow plus
the GLODF update of the cumulative outage F (Part I of the paper), a solve of only
the lines the network's own factor, built once per instance, has not solved before
(:meth:`LaplacianBundle.outage_columns` on :attr:`Network.factor`), and the base flow is the
network's kept base state (:meth:`Network.flow`, its own injections validated once), so
cascades under one injection vector share the factor, its solved columns and the base.
Each update is certified by its nodal imbalance; a stage whose certificate
fails is re-solved on the surviving grid (:func:`dcpf.surviving_flow`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcpf import FlowState
from .errors import SingularError, ValidationError
from . import factors
from .factors import _lodf_columns, _outage_flow
from .net_model import Network, injection_vector

__all__ = ["Stage", "CascadeTrace", "run_cascade", "influence_graph"]


@dataclass(frozen=True, eq=False)
class Stage:
    """One cascade stage: the lines tripped entering it and the re-solved flow.

    ``flow`` is None when the surviving grid is disconnected, so no DC
    solution exists.  Flow vectors keep full length with zeros at tripped
    lines; angles cover all nodes of the surviving grid.
    """

    tripped: frozenset[int]
    flow: FlowState | None


@dataclass(frozen=True, eq=False)
class CascadeTrace:
    """Ordered cascade stages with the termination status.

    ``status`` is ``converged`` when at least one propagation stage ran and
    the flows then settled, ``no_initial_overload`` when the initial outage
    alone overloads nothing, and ``islanded`` when the cumulative outage
    became a cut set.  ``islanded_at_stage`` is 0 when the initial outage
    islands, and otherwise the number of recorded stages, the islanded
    stage's index plus 1 (stage 1 islanding gives 2).
    """

    stages: tuple[Stage, ...]
    status: str
    initial_outage: frozenset[int]
    islanded_at_stage: int | None = None


def run_cascade(network: Network, p, initial_outage) -> CascadeTrace:
    """Simulate a cascade from an initial set of tripped lines.

    Every stage after the first trips at least one line, so at most
    m - |initial| + 1 stages are recorded.  Islanding is decided exactly at
    every stage from the cumulative outage's own cycle labels
    (:meth:`Network.disconnected_by`: the grid splits when they are linearly
    dependent over GF(2)).  A connected stage's flow is the certified GLODF
    update on ``network.factor`` (:func:`factors._outage_flow`) of the base
    flow read from :meth:`Network.flow`, so the network is factored, and its
    base solved, once for all the stages and cascades under one p.  The update
    fails over to a re-solve of the surviving grid when its certificate fails,
    and at every stage when the whole network is too stiff to factor (no base state).
    """
    try:
        p, base = network.flow(p)
    except SingularError:  # the surviving grids may still factor
        p, base = injection_vector(network, p), None
    positions = network.edge_positions(initial_outage)  # an id that names no line is refused
    initial = frozenset(map(network.ids.__getitem__, positions.tolist()))
    if not initial:
        raise ValidationError("initial outage must be nonempty")
    alive = np.ones(network.m, dtype=bool)
    alive[positions] = False
    capacities = network._reals[1]  # read-only, read in place
    stages: list[Stage] = []
    tripped = initial

    while True:
        out = (~alive).nonzero()[0]
        if network.disconnected_by(out):
            stages.append(Stage(tripped=tripped, flow=None))
            return CascadeTrace(
                stages=tuple(stages),
                status="islanded",
                initial_outage=initial,
                # 0 when the initial outage islands, else the stage count.
                islanded_at_stage=len(stages) if len(stages) > 1 else 0,
            )

        state = _outage_flow(network, p, base, out)
        stages.append(Stage(tripped=tripped, flow=state))
        over = alive & (np.abs(state.flows) > capacities)
        tripped = frozenset(map(network.ids.__getitem__, over.nonzero()[0].tolist()))
        if not tripped:
            status = "no_initial_overload" if len(stages) == 1 else "converged"
            return CascadeTrace(
                stages=tuple(stages),
                status=status,
                initial_outage=initial,
            )

        alive &= ~over


def influence_graph(network: Network, threshold: float) -> tuple[tuple[int, int], ...]:
    """Unordered line pairs whose outage factor magnitude reaches the threshold.

    Pairs are drawn only from within non-bridge blocks, where the factors
    are defined in both directions; a pair qualifies when either direction
    reaches the threshold.  Cross-block factors are exactly zero, so the
    result can never join two blocks.  Each block of ``network.decomposition.lines`` reads its own rows of
    its own columns straight off ``network.factor``, ``factors._BATCH`` at a time: within it nothing is masked.
    Its lines come in ascending position, so each pair (a, b) of ids has a < b; the pairs are returned sorted.
    ValidationError unless the threshold is finite and nonnegative.
    """
    if not 0.0 <= threshold < np.inf:
        raise ValidationError(f"threshold must be finite and nonnegative, got {threshold}")
    pairs = []
    for members in network.decomposition.lines:
        if len(members) < 2:
            continue
        k, found = len(members), []
        for start in range(0, k, factors._BATCH):
            d_rows = network.factor.sensitivity_columns(members[start:start + factors._BATCH], members)
            cols = np.arange(d_rows.shape[1])
            # factor[i, j]: flow change on line i per unit pre-outage flow on tripped line start + j.
            factor = _lodf_columns(d_rows, d_rows[start + cols, cols])
            i, j = np.nonzero(np.abs(factor) >= threshold)
            j += start
            found.append((np.minimum(i, j) * k + np.maximum(i, j))[i != j])
        codes = np.unique(np.concatenate(found))  # each pair a < b once, as a * k + b, whichever direction found it
        pairs.extend(zip((members[codes // k] + 1).tolist(), (members[codes % k] + 1).tolist()))
    return tuple(sorted(pairs))
