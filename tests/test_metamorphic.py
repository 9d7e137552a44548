"""Metamorphic relations: transforms of the input with a known effect on every output.

Distribution factors are ratios of forest sums (Part I of the paper), so a
change of units, labels or reference bus must leave them as they are.  A
transform that moves a dimensionless output is a defect, found without an
oracle.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfactor import (
    OutageSet,
    PerturbationSpec,
    almost_sure_nonzero_test,
    apply_outage,
    block_structure_report,
    glodf,
    influence_graph,
    run_cascade,
    solve_flow,
)
from gridfactor.factors import GLODF_METHODS
from gridfactor.net_model import scaled_tolerance

from conftest import (
    random_balanced_injection,
    random_network,
    sample_non_cut_outage,
    with_capacities,
    with_susceptances,
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_record(a, b) -> bool:
    """Field by field: arrays bit for bit, nested records recursively, the rest by ==."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            same = _same_bits(x, y)
        elif isinstance(x, tuple) and x and dataclasses.is_dataclass(x[0]):
            same = len(x) == len(y) and all(map(_same_record, x, y))
        else:
            same = type(x) is type(y) and x == y
        if not same:
            return False
    return True


def _assert_close(got, want):
    """|got - want| within RTOL * max(1, max|want|), entry by entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= scaled_tolerance(float(np.max(np.abs(want), initial=0.0)))


def _pre_contingency(outage):
    return glodf(None, None, None, outage, "pre_contingency").pre_contingency


def _factor_outputs(net, lines, p):
    """Every dimensionless output for one outage of ``net``, and the flow states with their angles."""
    D = net.sensitivity.matrix
    outage = OutageSet(net, lines)
    pre, post = apply_outage(p, outage)
    return {
        "ptdf": D,
        "influence": influence_graph(net, 0.05),
        "glodf": {method: glodf(None, None, None, outage, method) for method in GLODF_METHODS},
        "report": block_structure_report(outage),
        "perturbation": almost_sure_nonzero_test(outage, PerturbationSpec(trials=3, seed=5)),
        "states": (pre, post),  # pre is solve_flow on net.factor
    }


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(-20, 20))
def test_scaling_b_by_a_power_of_two_moves_only_theta(seed, k):
    """b * 2**k leaves every dimensionless output bit-identical and scales theta by exactly 2**-k.

    Power-of-two scaling is exact in floating point, and the LU ordering is
    structural, so each solve on the scaled factor is the base solve times
    2**-k and each flow b * (theta_i - theta_j) has the same bits.
    ``verify`` is left out: its residuals are absolute, so its verdict
    depends on the unit of b (ROADMAP item 9), and that defect is open.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8, min_extra=1)
    lines = sample_non_cut_outage(rng, net)
    if lines is None:
        return
    p = random_balanced_injection(rng, net.n)
    # Capacities a random margin above the base flows, so the outage's cascade runs some stages.
    capacities = rng.uniform(1.0, 2.0) * np.abs(solve_flow(net.factor, net, p).flows) + 1e-3
    base = with_capacities(net, capacities)
    scaled = with_susceptances(base, np.ldexp(base.susceptances(), k))

    want, got = _factor_outputs(base, lines, p), _factor_outputs(scaled, lines, p)
    assert _same_bits(want["ptdf"], got["ptdf"])
    assert want["influence"] == got["influence"]
    for method, result in want["glodf"].items():
        assert _same_bits(result.k_matrix, got["glodf"][method].k_matrix)
        assert result.residuals == got["glodf"][method].residuals
    assert _same_record(want["report"], got["report"])
    assert want["perturbation"].within_block == got["perturbation"].within_block
    assert want["perturbation"].cross_block == got["perturbation"].cross_block
    for state, twin in zip(want["states"], got["states"]):
        assert _same_bits(state.flows, twin.flows)
        assert _same_bits(np.ldexp(state.theta, -k), twin.theta)

    trace, twin = run_cascade(base, p, lines), run_cascade(scaled, p, lines)
    assert (trace.status, trace.islanded_at_stage) == (twin.status, twin.islanded_at_stage)
    assert [s.tripped for s in trace.stages] == [s.tripped for s in twin.stages]
    for stage, other in zip(trace.stages, twin.stages):
        assert (stage.flow is None) == (other.flow is None)
        if stage.flow is not None:
            assert _same_bits(stage.flow.flows, other.flow.flows)
            assert _same_bits(np.ldexp(stage.flow.theta, -k), other.flow.theta)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_flipping_a_line_negates_its_row_and_column(seed):
    """Reversing line k's orientation negates row k and column k of D and of a non-cut outage's K.

    A flow on k, and a transfer across k's endpoints, each change sign;
    D_kk, in both row and column, keeps it.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8)
    lines = sample_non_cut_outage(rng, net)
    # Half the time one of the tripped lines, so K's columns are flipped as well as its rows.
    pool = net.edge_positions(lines) if lines is not None and rng.integers(2) else np.arange(net.m)
    k = int(rng.choice(pool))
    sources, targets = list(net.sources), list(net.targets)
    sources[k], targets[k] = targets[k], sources[k]
    flipped = dataclasses.replace(net, sources=tuple(sources), targets=tuple(targets))
    sign = np.ones(net.m)
    sign[k] = -1.0

    _assert_close(flipped.sensitivity.matrix, sign[:, None] * net.sensitivity.matrix * sign)
    if lines is None:
        return
    outage = OutageSet(net, lines)
    want = sign[outage.surviving_idx, None] * _pre_contingency(outage) * sign[outage.outaged_idx]
    _assert_close(_pre_contingency(OutageSet(flipped, lines)), want)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_shuffling_the_lines_permutes_d_and_k(seed):
    """Listing the lines in another order, each keeping its id, permutes D's rows and columns alike.

    K's columns follow the outaged ids, so they stay; its rows follow the
    surviving lines' positions, so they move with them.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=10, max_extra=8)
    order = rng.permutation(net.m)
    shuffled = dataclasses.replace(net, **{name: tuple(np.asarray(getattr(net, name))[order].tolist())
                                           for name in ("ids", "sources", "targets", "b", "cap")})

    _assert_close(shuffled.sensitivity.matrix, net.sensitivity.matrix[np.ix_(order, order)])
    lines = sample_non_cut_outage(rng, net)
    if lines is None:
        return
    outage, twin = OutageSet(net, lines), OutageSet(shuffled, lines)
    assert twin.outaged == outage.outaged
    row = {line: r for r, line in enumerate(outage.surviving)}
    _assert_close(_pre_contingency(twin), _pre_contingency(outage)[[row[line] for line in twin.surviving]])
