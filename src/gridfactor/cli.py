"""Command-line interface: subcommand routing, formatting, exit codes.

Machine-readable results go to stdout (JSON by default, keys sorted so a
fixed input and seed produce byte-identical output); diagnostics go to
stderr.  Exit codes: 0 success, 1 parse/validation problems, 2 analysis
problems (bridge outages, cut sets, failed identity checks).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import cascade as cascade_mod
from . import factors as factors_mod
from . import forests as forests_mod
from . import localization as localization_mod
from .dcpf import build_laplacian, solve_flow
from .errors import AnalysisError, GridFactorError, InputError
from .graph_algos import block_decomposition
from .net_model import injection_vector, load_network

__all__ = ["main", "run"]

DEFAULT_TOL = 1e-9
DEFAULT_INFLUENCE_THRESHOLD = 0.005


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _emit_matrix_csv(rows, cols, values) -> None:
    out = sys.stdout
    out.write("line," + ",".join(str(c) for c in cols) + "\n")
    for row_id, row in zip(rows, values):
        out.write(str(row_id) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _matrix_payload(rows, cols, values) -> dict:
    return {
        "rows": [int(r) for r in rows],
        "cols": [int(c) for c in cols],
        "values": [[float(v) for v in row] for row in values],
    }


def _parse_lines(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"bad line list {text!r}; expected comma-separated ids") from None


def _flow_payload(network, state) -> dict:
    return {
        "theta": {str(node): float(v) for node, v in zip(network.nodes, state.theta)},
        "flows": {str(edge.id): float(v) for edge, v in zip(network.edges, state.flows)},
    }


def _cmd_blocks(args) -> int:
    network = load_network(args.network, reference=args.reference)
    decomposition = block_decomposition(network)
    _emit_json({
        "blocks": [sorted(block) for block in decomposition.blocks],
        "bridges": sorted(decomposition.bridges),
        "cut_vertices": sorted(decomposition.cut_vertices),
    })
    return 0


def _cmd_flow(args) -> int:
    network = load_network(args.network, reference=args.reference)
    p = injection_vector(network)
    state = solve_flow(build_laplacian(network), network, p)
    _emit_json(_flow_payload(network, state))
    return 0


def _cmd_ptdf(args) -> int:
    network = load_network(args.network, reference=args.reference)
    ptdf = factors_mod.ptdf_matrix(build_laplacian(network), network)
    if args.format == "csv":
        _emit_matrix_csv(ptdf.line_ids, ptdf.line_ids, ptdf.matrix)
    else:
        _emit_json(_matrix_payload(ptdf.line_ids, ptdf.line_ids, ptdf.matrix))
    return 0


def _cmd_lodf(args) -> int:
    network = load_network(args.network, reference=args.reference)
    ptdf = factors_mod.ptdf_matrix(build_laplacian(network), network)
    decomposition = block_decomposition(network)
    column = factors_mod.lodf_single(ptdf, decomposition, args.line)
    _emit_json({
        "outaged": args.line,
        "factors": {str(line): float(v) for line, v in column.items()},
    })
    return 0


def _cmd_glodf(args) -> int:
    network = load_network(args.network, reference=args.reference)
    bundle = build_laplacian(network)
    ptdf = factors_mod.ptdf_matrix(bundle, network)
    outage = factors_mod.OutageSet(network, _parse_lines(args.lines))
    result = factors_mod.glodf(bundle, ptdf, network, outage, method=args.method)
    if args.format == "csv":
        _emit_matrix_csv(result.surviving, result.outaged, result.k_matrix)
        return 0
    payload = {
        "method": result.method,
        "outaged": [int(v) for v in result.outaged],
        "surviving": [int(v) for v in result.surviving],
        "k": [[float(v) for v in row] for row in result.k_matrix],
        "k_stack": [[float(v) for v in row] for row in result.k_stack],
        "residuals": (
            {key: float(v) for key, v in result.residuals.items()} if result.residuals else None
        ),
    }
    _emit_json(payload)
    return 0


def _cmd_localize(args) -> int:
    spec = None
    if args.perturb:
        spec = localization_mod.PerturbationSpec(
            relative_magnitude=args.eps, trials=args.trials, seed=args.seed
        )
    network = load_network(args.network, reference=args.reference)
    bundle = build_laplacian(network)
    ptdf = factors_mod.ptdf_matrix(bundle, network)
    decomposition = block_decomposition(network)
    outage = factors_mod.OutageSet(network, _parse_lines(args.lines))
    result = factors_mod.glodf(bundle, ptdf, network, outage, method="pre_contingency")
    report = localization_mod.block_structure_report(result, decomposition, outage)

    payload = {
        "cross_block_max": float(report.cross_block_max),
        "within_block_zero_count": int(report.within_block_zero_count),
        "zero_tolerance": float(report.zero_tolerance),
        "matrix_scale": float(report.matrix_scale),
        "blocks": [
            {
                "block": int(b.block_index),
                "rows": [int(v) for v in b.row_ids],
                "cols": [int(v) for v in b.col_ids],
                "k": [[float(v) for v in row] for row in b.k_direct],
                "reassembly_err_direct": float(b.reassembly_err_direct),
                "reassembly_err_parts": float(b.reassembly_err_parts),
            }
            for b in report.blocks
        ],
    }
    if spec is not None:
        stats = localization_mod.almost_sure_nonzero_test(network, outage, spec)
        payload["perturbation"] = {
            "trials": stats.trials,
            "threshold": stats.threshold,
            "within_block": {
                f"{line},{tripped}": count
                for (line, tripped), count in sorted(stats.within_block.items())
            },
            "cross_block": {
                f"{line},{tripped}": count
                for (line, tripped), count in sorted(stats.cross_block.items())
            },
        }
    _emit_json(payload)
    return 0


def _cmd_cascade(args) -> int:
    network = load_network(args.network, reference=args.reference)
    p = injection_vector(network)
    trace = cascade_mod.run_cascade(
        network, p, _parse_lines(args.trip), max_stages=args.max_stages
    )
    payload = {
        "status": trace.status,
        "initial_outage": sorted(trace.initial_outage),
        "islanded_at_stage": trace.islanded_at_stage,
        "stages": [
            {
                "tripped": sorted(stage.tripped),
                "flow": _flow_payload(network, stage.flow) if stage.flow is not None else None,
            }
            for stage in trace.stages
        ],
    }
    _emit_json(payload)
    return 0


def _cmd_influence(args) -> int:
    network = load_network(args.network, reference=args.reference)
    ptdf = factors_mod.ptdf_matrix(build_laplacian(network), network)
    decomposition = block_decomposition(network)
    pairs = cascade_mod.influence_graph(ptdf, decomposition, args.threshold)
    if args.format == "dot":
        lines = ["graph influence {"]
        for a, b in pairs:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit_json({
        "threshold": args.threshold,
        "pairs": [[int(a), int(b)] for a, b in pairs],
    })
    return 0


def _cmd_verify(args) -> int:
    network = load_network(args.network, reference=args.reference)
    tol = args.tol
    bundle = build_laplacian(network)
    ptdf = factors_mod.ptdf_matrix(bundle, network)
    decomposition = block_decomposition(network)

    tree_report = forests_mod.matrix_tree_check(network, tolerance=tol)

    spectral_err = 0.0
    for i in network.nodes:
        for j in network.nodes:
            algebraic = float(bundle.A[network.node_index(i), network.node_index(j)])
            oracle = forests_mod.a_entry_via_forests(network, i, j)
            spectral_err = max(spectral_err, abs(algebraic - oracle))

    ptdf_err = 0.0
    for line in network.edge_ids():
        for other in network.edge_ids():
            hat = network.edge_by_id(other)
            oracle = forests_mod.ptdf_via_forests(network, line, hat.source, hat.target)
            ptdf_err = max(ptdf_err, abs(ptdf.entry(line, other) - oracle))

    lodf_err = 0.0
    for outaged in network.edge_ids():
        if outaged in decomposition.bridges:
            continue
        column = factors_mod.lodf_single(ptdf, decomposition, outaged)
        for line, value in column.items():
            oracle = forests_mod.lodf_via_forests(network, line, outaged)
            lodf_err = max(lodf_err, abs(value - oracle))

    passed = (
        tree_report.passed
        and spectral_err <= tol
        and ptdf_err <= tol
        and lodf_err <= tol
    )
    _emit_json({
        "tolerance": tol,
        "matrix_tree": {
            "determinant": tree_report.determinant,
            "forest_weight": tree_report.forest_weight,
            "determinant_rel_err": tree_report.determinant_rel_err,
            "minor_max_rel_err": tree_report.minor_max_rel_err,
            "pass": tree_report.passed,
        },
        "spectral_max_abs_err": spectral_err,
        "ptdf_max_abs_err": ptdf_err,
        "lodf_max_abs_err": lodf_err,
        "pass": passed,
    })
    if not passed:
        print("verify: identity checks failed", file=sys.stderr)
        return 2
    return 0


def _env_tolerance() -> float:
    raw = os.environ.get("GRIDFACTOR_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"bad GRIDFACTOR_TOL value {raw!r}; expected a real number") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfactor",
        description="DC power-flow distribution factors and failure localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("network", help="network document (.json, .csv, or directory)")
        p.add_argument("--format", choices=("json", "csv", "dot"), default="json")
        p.add_argument("--reference", type=int, default=None, help="override reference bus")
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="identity-check tolerance (env GRIDFACTOR_TOL; flag wins)",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for randomized statistics")

    p_blocks = sub.add_parser("blocks", help="block decomposition, bridges, cut vertices")
    add_common(p_blocks)
    p_blocks.set_defaults(handler=_cmd_blocks)

    p_flow = sub.add_parser("flow", help="DC power flow from document injections")
    add_common(p_flow)
    p_flow.set_defaults(handler=_cmd_flow)

    p_ptdf = sub.add_parser("ptdf", help="full injection-shift sensitivity matrix")
    add_common(p_ptdf)
    p_ptdf.set_defaults(handler=_cmd_ptdf)

    p_lodf = sub.add_parser("lodf", help="single-line outage factors")
    add_common(p_lodf)
    p_lodf.add_argument("--line", type=int, required=True, help="line to trip")
    p_lodf.set_defaults(handler=_cmd_lodf)

    p_glodf = sub.add_parser("glodf", help="simultaneous-outage factors")
    add_common(p_glodf)
    p_glodf.add_argument("--lines", required=True, help="comma-separated line ids")
    p_glodf.add_argument(
        "--method",
        choices=factors_mod.GLODF_METHODS,
        default="pre_contingency",
    )
    p_glodf.set_defaults(handler=_cmd_glodf)

    p_localize = sub.add_parser("localize", help="block-diagonal localization report")
    add_common(p_localize)
    p_localize.add_argument("--lines", required=True, help="comma-separated line ids")
    p_localize.add_argument("--perturb", action="store_true", help="add perturbation statistics")
    p_localize.add_argument("--trials", type=int, default=100)
    p_localize.add_argument("--eps", type=float, default=1e-3)
    p_localize.set_defaults(handler=_cmd_localize)

    p_cascade = sub.add_parser("cascade", help="stage-wise cascading failure simulation")
    add_common(p_cascade)
    p_cascade.add_argument("--trip", required=True, help="comma-separated initial outage ids")
    p_cascade.add_argument("--max-stages", type=int, default=None)
    p_cascade.set_defaults(handler=_cmd_cascade)

    p_influence = sub.add_parser("influence", help="influence-graph pair list")
    add_common(p_influence)
    p_influence.add_argument("--threshold", type=float, default=DEFAULT_INFLUENCE_THRESHOLD)
    p_influence.set_defaults(handler=_cmd_influence)

    p_verify = sub.add_parser("verify", help="forest-oracle identity checks")
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse arguments and execute one subcommand, returning the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _env_tolerance()
        if not 0.0 <= args.tol < math.inf:
            raise InputError(f"tolerance must be finite and nonnegative, got {args.tol}")
        return args.handler(args)
    except InputError as exc:
        print(f"gridfactor: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"gridfactor: {exc}", file=sys.stderr)
        return 2
    except GridFactorError as exc:  # pragma: no cover - safety net
        print(f"gridfactor: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
