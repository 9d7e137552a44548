"""Command-line interface: subcommand routing, formatting, exit codes.

Machine-readable results go to stdout (JSON by default, keys sorted so a
fixed input and seed produce byte-identical output); diagnostics go to
stderr.  Exit codes: 0 success, 1 usage errors and parse/validation
problems, 2 analysis problems (bridge outages, cut sets, failed identity
checks).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cascade as cascade_mod
from . import factors as factors_mod
from . import forests as forests_mod
from . import localization as localization_mod
from .errors import AnalysisError, GridFactorError, InputError
from .net_model import RTOL, load_network

__all__ = ["main", "run"]

DEFAULT_INFLUENCE_THRESHOLD = 0.005


_NUMBER = {int, float}  # by exact type: a bool is not written as a number
_CHUNK = 1 << 12  # matrix entries encoded at a time, so no matrix's text is held whole


def _encode(value, pad: str = "\n"):
    """Yield the text of ``json.dumps(value, sort_keys=True, indent=2)`` in pieces, every number from the C encoder.

    ``indent`` sends the json module to its pure-Python encoder, so number
    lists, lists of them and str-keyed number dicts are C-encoded whole and
    re-indented, and a 2-D float array is written one row per piece
    (:func:`_entry_rows`).  ``pad`` is the newline and indent of the line ``value`` starts on.
    """
    inner, deeper = pad + "  ", pad + "    "
    if isinstance(value, np.ndarray) and not value.size:
        value = value.tolist()
    if not isinstance(value, (list, tuple, dict, np.ndarray)) or not len(value):
        yield json.dumps(value)
        return
    if isinstance(value, np.ndarray):  # 2-D float
        for i, row in enumerate(_entry_rows(value)):
            yield ("," if i else "[") + inner + "[" + deeper + ("," + deeper).join(row) + inner + "]"
        yield pad + "]"
        return
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        if {type(v) for v in value.values()} <= _NUMBER and not any(", " in key for key in value):
            yield "{" + inner + json.dumps(value, sort_keys=True)[1:-1].replace(", ", "," + inner) + pad + "}"
            return
        brackets, items = "{}", ((json.dumps(key) + ": ", value[key]) for key in sorted(value))
    else:
        kinds = {type(v) for v in value}
        if kinds <= _NUMBER:
            yield "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + pad + "]"
            return
        if kinds <= {list, tuple} and all(value) and {type(x) for v in value for x in v} <= _NUMBER:
            body = json.dumps(value)[2:-2].replace("], [", inner + "]," + inner + "[" + deeper)
            yield "[" + inner + "[" + deeper + body.replace(", ", "," + deeper) + inner + "]" + pad + "]"
            return
        brackets, items = "[]", (("", v) for v in value)
    for i, (key, v) in enumerate(items):
        yield ("," if i else brackets[0]) + inner + key
        yield from _encode(v, inner)
    yield pad + brackets[1]


def _entry_rows(values: np.ndarray, csv: bool = False):
    """The text of each entry of a 2-D float array, row by row, encoded _CHUNK entries at a time.

    "0.0" for +0.0 and the rest C-encoded as JSON, except nan and inf as Python spells them under ``csv``.
    """
    step = max(1, _CHUNK // max(1, values.shape[1]))
    for top in range(0, values.shape[0], step):
        chunk = values[top:top + step]
        flat, height = chunk.ravel(order="F"), chunk.shape[0]  # in D's own column-major order
        text = ["0.0"] * flat.size
        nonzero = np.flatnonzero((flat != 0) | np.signbit(flat))
        for k, entry in zip(nonzero.tolist(), json.dumps(flat[nonzero].tolist())[1:-1].split(", ")):
            text[k] = entry
        for k in np.flatnonzero(~np.isfinite(flat)).tolist() if csv else ():
            text[k] = repr(float(flat[k]))
        yield from (text[i::height] for i in range(height))


def _emit_json(payload) -> None:
    sys.stdout.writelines(_encode(payload))
    sys.stdout.write("\n")


def _emit_matrix_csv(rows, cols, values) -> None:
    out = sys.stdout
    out.write("line," + ",".join(str(c) for c in cols) + "\n")
    for row_id, row in zip(rows, _entry_rows(values, csv=True)):
        out.write(str(row_id) + "," + ",".join(row) + "\n")


def _parse_lines(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"bad line list {text!r}; expected comma-separated ids") from None


def _flow_payload(network, state) -> dict:
    return {
        "theta": {str(node): v for node, v in zip(network.nodes, state.theta.tolist())},
        "flows": dict(zip(map(str, network.ids), state.flows.tolist())),
    }


def _cmd_blocks(network, args) -> int:
    decomposition = network.decomposition
    _emit_json({
        "blocks": [sorted(block) for block in decomposition.blocks],
        "bridges": sorted(decomposition.bridges),
        "cut_vertices": sorted(decomposition.cut_vertices),
    })
    return 0


def _cmd_flow(network, args) -> int:
    _, state = network.flow()
    _emit_json(_flow_payload(network, state))
    return 0


def _cmd_ptdf(network, args) -> int:
    matrix = network.sensitivity.matrix
    if args.format == "csv":
        _emit_matrix_csv(network.ids, network.ids, matrix)
    else:
        _emit_json({"rows": network.ids, "cols": network.ids, "values": matrix})
    return 0


def _cmd_lodf(network, args) -> int:
    column = factors_mod.lodf_single(network, args.line)
    _emit_json({
        "outaged": args.line,
        "factors": {str(line): float(v) for line, v in column.items()},
    })
    return 0


def _cmd_glodf(network, args) -> int:
    outage = factors_mod.OutageSet(network, _parse_lines(args.lines))
    result = factors_mod.glodf(None, None, None, outage, method=args.method)  # glodf reads only the last two
    if args.format == "csv":
        _emit_matrix_csv(outage.surviving, outage.outaged, result.k_matrix)
        return 0
    _emit_json({
        "method": result.method,
        "outaged": outage.outaged,
        "surviving": outage.surviving,
        "k": result.k_matrix,
        "k_stack": result.k_stack,
        "residuals": result.residuals,
    })
    return 0


def _cmd_localize(network, args) -> int:
    spec = localization_mod.PerturbationSpec(  # refuses out-of-range flags even without --perturb
        relative_magnitude=args.eps, trials=args.trials, seed=args.seed
    )
    outage = factors_mod.OutageSet(network, _parse_lines(args.lines))
    report = localization_mod.block_structure_report(outage)

    payload = {
        "cross_block_max": report.cross_block_max,
        "within_block_zero_count": report.within_block_zero_count,
        "zero_tolerance": report.zero_tolerance,
        "matrix_scale": report.matrix_scale,
        "blocks": [
            {
                "block": b.block_index,
                "rows": b.row_ids,
                "cols": b.col_ids,
                "k": b.k_direct,
                "reassembly_err_direct": b.reassembly_err_direct,
                "reassembly_err_parts": b.reassembly_err_parts,
            }
            for b in report.blocks
        ],
    }
    if args.perturb:
        stats = localization_mod.almost_sure_nonzero_test(outage, spec)
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


def _cmd_cascade(network, args) -> int:
    trace = cascade_mod.run_cascade(network, network.injections, _parse_lines(args.trip))
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


def _cmd_influence(network, args) -> int:
    pairs = cascade_mod.influence_graph(network, args.threshold)
    if args.format == "dot":
        sys.stdout.write("graph influence {\n")
        sys.stdout.writelines(f'  "{a}" -- "{b}";\n' for a, b in pairs)
        sys.stdout.write("}\n")
        return 0
    _emit_json({
        "threshold": args.threshold,
        "pairs": pairs,
    })
    return 0


def _max_abs_err(computed, oracle) -> float:
    """max |computed - oracle| over whole arrays: a NaN on either side gives NaN, which fails ``<= RTOL``."""
    return float(np.max(np.abs(np.subtract(computed, oracle)), initial=0.0))


def _cmd_verify(network, args) -> int:
    tree_report = forests_mod.matrix_tree_check(network)  # refuses past the cap first
    matrix = network.sensitivity.matrix  # built whole, so each lodf_single below slices it

    nodes = network.nodes  # A is laid out by node position, D by line position
    spectral_err = _max_abs_err(network.factor.A, [[forests_mod.a_entry_via_forests(network, i, j) for j in nodes]
                                                   for i in nodes])
    ptdf_err = _max_abs_err(matrix, [[forests_mod.ptdf_via_forests(network, line, source, target)
                                      for source, target in zip(network.sources, network.targets)]
                                     for line in network.ids])
    outaged = [line for line in network.ids if line not in network.decomposition.bridges]
    columns = [factors_mod.lodf_single(network, line) for line in outaged]
    lodf_err = _max_abs_err([list(column.values()) for column in columns],
                            [[forests_mod.lodf_via_forests(network, line, k) for line in column]
                             for k, column in zip(outaged, columns)])

    passed = (
        tree_report.passed
        and spectral_err <= RTOL
        and ptdf_err <= RTOL
        and lodf_err <= RTOL
    )
    _emit_json({
        "tolerance": RTOL,
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so it exits 1 like any other bad input."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridfactor",
        description="DC power-flow distribution factors and failure localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("network", help="network document (.json, .csv, or directory)")
        p.add_argument("--reference", type=int, default=None, help="override reference bus")
        p.set_defaults(handler=handler)
        return p

    add_command("blocks", _cmd_blocks, "block decomposition, bridges, cut vertices")
    add_command("flow", _cmd_flow, "DC power flow from document injections")

    p_ptdf = add_command("ptdf", _cmd_ptdf, "full injection-shift sensitivity matrix")
    p_ptdf.add_argument("--format", choices=("json", "csv"), default="json")

    p_lodf = add_command("lodf", _cmd_lodf, "single-line outage factors")
    p_lodf.add_argument("--line", type=int, required=True, help="line to trip")

    p_glodf = add_command("glodf", _cmd_glodf, "simultaneous-outage factors")
    p_glodf.add_argument("--lines", required=True, help="comma-separated line ids")
    p_glodf.add_argument(
        "--method",
        choices=factors_mod.GLODF_METHODS,
        default="pre_contingency",
    )
    p_glodf.add_argument("--format", choices=("json", "csv"), default="json")

    p_localize = add_command("localize", _cmd_localize, "block-diagonal localization report")
    p_localize.add_argument("--lines", required=True, help="comma-separated line ids")
    p_localize.add_argument("--perturb", action="store_true", help="add perturbation statistics")
    defaults = localization_mod.PerturbationSpec
    p_localize.add_argument("--trials", type=int, default=defaults.trials)
    p_localize.add_argument("--eps", type=float, default=defaults.relative_magnitude)
    p_localize.add_argument(
        "--seed", type=int, default=defaults.seed, help="seed for the perturbation trials"
    )

    p_cascade = add_command("cascade", _cmd_cascade, "stage-wise cascading failure simulation")
    p_cascade.add_argument("--trip", required=True, help="comma-separated initial outage ids")

    p_influence = add_command("influence", _cmd_influence, "influence-graph pair list")
    p_influence.add_argument("--threshold", type=float, default=DEFAULT_INFLUENCE_THRESHOLD)
    p_influence.add_argument("--format", choices=("json", "dot"), default="json")

    add_command("verify", _cmd_verify, "forest-oracle identity checks")

    return parser


_PARSER = _build_parser()


def run(argv=None) -> int:
    """Parse arguments and execute one subcommand, returning the exit code."""
    try:
        args = _PARSER.parse_args(argv)
        network = load_network(args.network, reference=args.reference)
        return args.handler(network, args)
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
