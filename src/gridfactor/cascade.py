"""Stage-wise cascading-failure simulation and influence-graph export.

Stage 0 removes the initial outage and re-solves the DC flow.  Each later
stage trips, simultaneously, every line whose flow magnitude strictly
exceeds its capacity in the previous stage's solution, then re-solves.
Flows exactly at capacity survive.  The simulation halts when nothing
overloads, or when the cumulative outage disconnects the grid; islanding
is reported at the stage whose re-solve would have run on the split grid,
and rebalancing of islands is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcpf import FlowState, surviving_flow
from .errors import MaxStagesError, ValidationError
from .factors import PtdfMatrix, _lodf_columns
from .graph_algos import BlockDecomposition
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
    became a cut set; ``islanded_at_stage`` gives the stage index at which
    the islanding was detected.
    """

    stages: tuple[Stage, ...]
    status: str
    initial_outage: frozenset[int]
    islanded_at_stage: int | None = None

    def tripped_by_stage(self) -> tuple[frozenset[int], ...]:
        return tuple(stage.tripped for stage in self.stages)

    def cumulative_outage(self) -> frozenset[int]:
        out: set[int] = set()
        for stage in self.stages:
            out |= stage.tripped
        return frozenset(out)


def run_cascade(
    network: Network,
    p,
    initial_outage,
    max_stages: int | None = None,
) -> CascadeTrace:
    """Simulate a cascade from an initial set of tripped lines.

    ``max_stages`` bounds the number of recorded stages (default: the line
    count, which the cascade can never exceed since every stage trips at
    least one line).  Exceeding it raises MaxStagesError carrying the
    stages simulated so far; a ``max_stages`` below one raises
    ValidationError.  Islanding is decided at every stage near the
    tripped lines (:meth:`Network.disconnected_by` on the cumulative
    outage), and the network is factored again, with the tripped lines'
    weights zeroed, only for a connected stage's re-solve.
    """
    if max_stages is not None and max_stages < 1:
        raise ValidationError(f"max_stages must be at least 1, got {max_stages}")
    p = injection_vector(network, p)
    initial = frozenset(int(v) for v in initial_outage)
    if not initial:
        raise ValidationError("initial outage must be nonempty")
    alive = np.ones(network.m, dtype=bool)
    alive[network.edge_positions(initial)] = False
    if max_stages is None:
        max_stages = network.m

    ids = np.array(network.edge_ids())
    capacities = network.capacities()
    stages: list[Stage] = []
    tripped = initial

    while True:
        out = np.flatnonzero(~alive)
        if network.disconnected_by(out):
            stages.append(Stage(tripped=tripped, flow=None))
            return CascadeTrace(
                stages=tuple(stages),
                status="islanded",
                initial_outage=initial,
                # 0 when the initial outage islands, else the stage count.
                islanded_at_stage=len(stages) if len(stages) > 1 else 0,
            )

        state = surviving_flow(network, p, out)
        stages.append(Stage(tripped=tripped, flow=state))
        over = alive & (np.abs(state.flows) > capacities)
        tripped = frozenset(ids[over].tolist())
        if not tripped:
            status = "no_initial_overload" if len(stages) == 1 else "converged"
            return CascadeTrace(
                stages=tuple(stages),
                status=status,
                initial_outage=initial,
            )

        if len(stages) >= max_stages:
            raise MaxStagesError(
                f"cascade still propagating after {len(stages)} stages", stages=stages
            )
        alive &= ~over


def influence_graph(
    ptdf: PtdfMatrix,
    decomposition: BlockDecomposition,
    threshold: float,
) -> tuple[tuple[int, int], ...]:
    """Unordered line pairs whose outage factor magnitude reaches the threshold.

    Pairs are drawn only from within non-bridge blocks, where the factors
    are defined in both directions; a pair qualifies when either direction
    reaches the threshold.  Cross-block factors are exactly zero, so the
    result can never join two blocks, and each block reads only its own
    PTDF columns.  ValidationError unless the threshold is finite and
    nonnegative.
    """
    if not 0.0 <= threshold < np.inf:
        raise ValidationError(f"threshold must be finite and nonnegative, got {threshold}")
    pairs = []
    for members in decomposition.blocks:
        if len(members) < 2:
            continue
        ordered = np.array(sorted(members))
        positions = ptdf.network.edge_positions(ordered.tolist())
        d_block = ptdf.columns(positions)[positions]
        # factor[i, j]: flow change on line i per unit pre-outage flow on tripped line j.
        factor = _lodf_columns(d_block, np.diag(d_block))
        strong = np.maximum(np.abs(factor), np.abs(factor.T)) >= threshold
        rows, cols = np.nonzero(np.triu(strong, 1))
        pairs.extend(zip(ordered[rows].tolist(), ordered[cols].tolist()))
    return tuple(sorted(pairs))
