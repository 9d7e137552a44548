import argparse
import contextlib
import io
import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gridfactor import (
    GridFactorError, LaplacianBundle, Network, ParseError, SingularError, ValidationError, build_laplacian, cli,
    dcpf, factors, forests, load_network, localization, validate,
)
from gridfactor.cli import run
from gridfactor.net_model import RTOL

from conftest import (
    fig2_doc, grid_doc, huge_weight_doc, overflowing_minor_doc, parallel_lines_doc, stiff_leaf_doc,
    subnormal_triangle_doc, triangle_doc,
)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(triangle_doc()))
    return str(path)


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(fig2_doc()))
    return str(path)


def test_blocks(capsys, triangle_path):
    assert run(["blocks", triangle_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"blocks": [[1, 2, 3]], "bridges": [], "cut_vertices": []}


def test_blocks_fig2(capsys, fig2_path):
    assert run(["blocks", fig2_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bridges"] == [4, 5]
    assert payload["cut_vertices"] == [2, 3, 7]


def test_flow(capsys, triangle_path):
    assert run(["flow", triangle_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flows"]["1"] == pytest.approx(2.0 / 3.0)
    assert payload["theta"]["3"] == 0.0


def test_ptdf_json_and_csv(capsys, triangle_path):
    assert run(["ptdf", triangle_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [1, 2, 3]
    assert payload["values"][0][0] == pytest.approx(2.0 / 3.0)

    assert run(["ptdf", triangle_path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "line,1,2,3"
    assert len(lines) == 4


def test_lodf(capsys, triangle_path):
    assert run(["lodf", triangle_path, "--line", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["factors"]["3"] == pytest.approx(1.0)


def test_lodf_bridge_exit_code(capsys, tmp_path):
    path = tmp_path / "path3.json"
    path.write_text(json.dumps({
        "nodes": [1, 2, 3],
        "edges": [{"from": 1, "to": 2, "b": 1.0}, {"from": 2, "to": 3, "b": 1.0}],
    }))
    assert run(["lodf", str(path), "--line", "1"]) == 2
    err = capsys.readouterr().err
    assert "bridge" in err


def test_glodf_cut_set_exit_code(capsys, triangle_path):
    assert run(["glodf", triangle_path, "--lines", "1,2"]) == 2
    assert "disconnects" in capsys.readouterr().err


def test_glodf_cross_check(capsys, triangle_path):
    assert run(["glodf", triangle_path, "--lines", "1", "--method", "cross_check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outaged"] == [1]
    assert payload["surviving"] == [2, 3]
    assert max(payload["residuals"].values()) < 1e-9


def test_glodf_cross_check_computes_the_stack_once(monkeypatch, capsys, triangle_path):
    calls = []
    original = factors._lodf_columns

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(factors, "_lodf_columns", counted)
    assert run(["glodf", triangle_path, "--lines", "1", "--method", "cross_check"]) == 0
    assert len(calls) == 1
    assert len(json.loads(capsys.readouterr().out)["k_stack"]) == 2


def test_glodf_cross_check_solves_the_outage_columns_once(monkeypatch, capsys, fig2_path):
    factored = []
    original = LaplacianBundle.sensitivity_columns

    def counted(self, *args):
        factored.append(self)
        return original(self, *args)

    monkeypatch.setattr(LaplacianBundle, "sensitivity_columns", counted)
    argv = ["glodf", fig2_path, "--lines", "1,7", "--method", "cross_check"]
    assert run(argv) == 0
    counted_out = capsys.readouterr().out
    pre_outage = [bundle for bundle in factored if bundle.b.all()]  # the rest zero the tripped lines
    assert len(pre_outage) == 1 and len(factored) == 2
    monkeypatch.undo()
    assert run(argv) == 0
    assert capsys.readouterr().out == counted_out


def test_localize_solves_the_outage_columns_once_per_factor(monkeypatch, capsys, fig2_path):
    factored = []
    original = LaplacianBundle.sensitivity_columns

    def counted(self, *args):
        factored.append(self)
        return original(self, *args)

    monkeypatch.setattr(LaplacianBundle, "sensitivity_columns", counted)
    argv = ["localize", fig2_path, "--lines", "1,7"]
    assert run(argv) == 0
    counted_out = capsys.readouterr().out
    pre_outage = [bundle for bundle in factored if bundle.b.all()]  # the other zeroes the tripped lines
    assert len(pre_outage) == 1 and len(factored) == 2
    monkeypatch.undo()
    assert run(argv) == 0
    assert capsys.readouterr().out == counted_out


def test_localize(capsys, fig2_path):
    assert run(["localize", fig2_path, "--lines", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cross_block_max"] < 1e-9
    assert payload["blocks"][0]["cols"] == [1]


def test_cascade(capsys, triangle_path):
    assert run(["cascade", triangle_path, "--trip", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "no_initial_overload"
    assert payload["stages"][0]["tripped"] == [1]


def test_cascade_without_injections_is_refused_before_its_trip_list(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({key: value for key, value in triangle_doc().items() if key != "injections"}))
    assert run(["cascade", str(path), "--trip", "9"]) == 1
    assert capsys.readouterr() == ("", "gridfactor: network document carries no injections\n")


def test_influence_dot(capsys, triangle_path):
    assert run(["influence", triangle_path, "--format", "dot"]) == 0
    assert capsys.readouterr().out == 'graph influence {\n  "1" -- "2";\n  "1" -- "3";\n  "2" -- "3";\n}\n'
    assert run(["influence", triangle_path, "--format", "dot", "--threshold", "1.5"]) == 0
    assert capsys.readouterr().out == "graph influence {\n}\n"


def test_verify_passes(capsys, triangle_path):
    assert run(["verify", triangle_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tolerance"] == RTOL
    assert payload["pass"] is True
    assert payload["matrix_tree"]["pass"] is True


def test_verify_fails_beyond_its_tolerance(monkeypatch, capsys, triangle_path):
    original = forests.a_entry_via_forests
    monkeypatch.setattr(forests, "a_entry_via_forests", lambda *args: original(*args) + 1e-6)
    assert run(["verify", triangle_path]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["tolerance"] == RTOL and payload["pass"] is False
    assert err == "verify: identity checks failed\n"


@pytest.mark.parametrize("oracle", ["a_entry_via_forests", "ptdf_via_forests", "lodf_via_forests"])
def test_verify_fails_when_an_oracle_returns_nan(monkeypatch, capsys, triangle_path, oracle):
    monkeypatch.setattr(forests, oracle, lambda *args: math.nan)
    assert run(["verify", triangle_path]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    residual = {"a_entry_via_forests": "spectral", "ptdf_via_forests": "ptdf", "lodf_via_forests": "lodf"}[oracle]
    assert math.isnan(payload[f"{residual}_max_abs_err"])


def test_two_bus_one_line_network(capsys, tmp_path):
    path = tmp_path / "two_bus.json"
    path.write_text(json.dumps({
        "nodes": [1, 2],
        "edges": [{"from": 1, "to": 2, "b": 2.0, "cap": 1.0}],
        "injections": {"1": 1.5, "2": -1.5},
    }))
    net = str(path)
    assert run(["flow", net]) == 0
    assert json.loads(capsys.readouterr().out)["flows"] == {"1": 1.5}
    assert run(["ptdf", net]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[1.0]]
    assert run(["lodf", net, "--line", "1"]) == 2
    assert "bridge" in capsys.readouterr().err
    for argv in (["glodf", net, "--lines", "1"], ["localize", net, "--lines", "1"]):
        assert run(argv) == 1
        assert "proper subset" in capsys.readouterr().err
    assert run(["cascade", net, "--trip", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["islanded_at_stage"]) == ("islanded", 0)
    assert run(["verify", net]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_stiff_connected_network_is_not_called_disconnected(capsys, tmp_path):
    doc = stiff_leaf_doc()
    for reference in doc["nodes"]:
        with pytest.raises(SingularError, match="smallest pivot") as caught:
            build_laplacian(load_network(doc, reference=reference))
        assert "disconnected" not in str(caught.value)
    path = tmp_path / "stiff_leaf.json"
    path.write_text(json.dumps(doc))
    assert run(["flow", str(path)]) == 2
    err = capsys.readouterr().err
    assert "smallest pivot" in err and "disconnected" not in err


@pytest.mark.parametrize("argv", [["lodf", "--line", "1"], ["ptdf"], ["verify"]])
def test_a_non_finite_pivot_is_refused(capsys, tmp_path, argv):
    """Lines of b=1e-310 load, but a pivot of their factor is -inf: exit 2, not NaN factors or a traceback."""
    doc = subnormal_triangle_doc()
    with pytest.raises(SingularError, match="a pivot is not finite"):
        build_laplacian(load_network(doc))
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    assert run(argv[:1] + [str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridfactor: reduced Laplacian cannot be factored in floating point: a pivot is not finite\n"


NOT_FINITE = {  # each document's exact answer is finite, but its phase angles overflow
    "ptdf": ({"edges": [{"from": 1, "to": 2, "b": 1e-320}]}, []),
    "flow": ({"edges": [{"from": 1, "to": 2, "b": 1e-30}], "injections": {"1": 6.1e299, "2": -6.1e299}}, []),
    "cascade": ({"edges": [{"from": 1, "to": 2, "b": 1e6, "cap": 1}, {"from": 2, "to": 3, "b": 2, "cap": 1e300},
                           {"from": 1, "to": 3, "b": 1e-6, "cap": 1e300}],
                 "injections": {"1": -6.026936048772891e298, "2": -2.759421626123535e298,
                                "3": 8.786357674896425e298}}, ["--trip", "2"]),
}


@pytest.mark.parametrize("command", sorted(NOT_FINITE))
def test_phase_angles_that_are_not_finite_are_refused(capsys, tmp_path, command):
    doc, flags = NOT_FINITE[command]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_any_other_package_error_exits_2(monkeypatch, capsys, triangle_path):
    parse = cli._PARSER.parse_args

    def parsed(argv):
        args = parse(argv)
        args.handler = raising
        return args

    def raising(network, args):
        raise GridFactorError("x")

    monkeypatch.setattr(cli._PARSER, "parse_args", parsed)
    assert run(["blocks", triangle_path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "gridfactor: x\n")


def test_main_exits_with_the_code_run_returns(monkeypatch, capsys, triangle_path):
    monkeypatch.setattr(sys, "argv", ["gridfactor", "lodf", triangle_path, "--line", "42"])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 1
    assert "42" in capsys.readouterr().err


@pytest.mark.parametrize("reverse", [False, True])
def test_parallel_lines_are_refused(capsys, tmp_path, reverse):
    doc = parallel_lines_doc(reverse)
    lines = doc["edges"]
    net = Network(nodes=(1, 2, 3), sources=tuple(e["from"] for e in lines),
                  targets=tuple(e["to"] for e in lines), b=tuple(e["b"] for e in lines),
                  cap=(math.inf,) * 4, reference=3)
    assert [f.code for f in validate(net).findings] == ["duplicate_edge"]
    with pytest.raises(ValidationError, match="duplicate_edge"):
        load_network(doc)
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(doc))
    assert run(["blocks", str(path)]) == 1
    assert "duplicate_edge" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["blocks", str(bad)]) == 1
    assert capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    doc = {"nodes": [1, 2, 3, 4],
           "edges": [{"from": 1, "to": 2, "b": 1.0}, {"from": 3, "to": 4, "b": 1.0}]}
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(doc))
    assert run(["blocks", str(path)]) == 1


def test_unknown_line_exit_code(capsys, triangle_path):
    assert run(["lodf", triangle_path, "--line", "42"]) == 1


def test_reference_override(capsys, triangle_path):
    assert run(["flow", triangle_path, "--reference", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"]["1"] == 0.0
    # Branch flows do not depend on the reference choice.
    assert payload["flows"]["1"] == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf"])
def test_bad_tol_is_input_error(capsys, triangle_path, value):
    # verify takes no --tol: it always checks at RTOL, so any value is a usage error.
    assert run(["verify", triangle_path, "--tol", value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gridfactor: ")


@pytest.mark.parametrize("flags", [
    ["--trials", "-3"], ["--trials", "0"], ["--trials", "-1"], ["--seed", "-2"],
    ["--trials", "-3", "--seed", "-1"], ["--trials", "1", "--seed", "-1"], ["--trials", "0", "--seed", "5"],
    ["--seed", "-1"],
])
def test_bad_perturbation_is_input_error(monkeypatch, capsys, triangle_path, flags):
    def refuse(*args):
        raise AssertionError("the network was factored before the spec was checked")

    monkeypatch.setattr(dcpf, "build_laplacian", refuse)
    for perturb in (["--perturb"], []):  # out-of-range flags are refused whether or not they are read
        assert run(["localize", triangle_path, "--lines", "1"] + perturb + flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gridfactor: perturbation")


def test_eps_is_a_usage_error(capsys, triangle_path):
    # The perturbation magnitude is net_model.PERTURBATION; localize takes no --eps, valid value or not.
    for value in ("1e-3", "nan"):
        for perturb in (["--perturb"], []):
            assert run(["localize", triangle_path, "--lines", "1", "--eps", value] + perturb) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == "gridfactor: unrecognized arguments: --eps " + value + "\n"


@pytest.mark.parametrize("fields", [
    {"trials": 2.5}, {"seed": 1.5}, {"seed": -0.0}, {"trials": 3.0}, {"trials": True}, {"seed": False},
])
def test_perturbation_spec_refuses_counts_that_are_not_ints(fields):
    # The CLI's flags arrive as ints; a library caller can pass anything.
    with pytest.raises(ValidationError, match="^perturbation"):
        localization.PerturbationSpec(**fields)
    assert localization.PerturbationSpec(trials=np.int64(2), seed=np.int64(0)).trials == 2


def _set_b(doc, value):
    doc["edges"][0]["b"] = value


def _set_cap(doc, value):
    doc["edges"][0]["cap"] = value


def _set_injection(doc, value):
    doc["injections"]["1"] = value


@pytest.mark.parametrize("edit, value, code", [
    pytest.param(_set_b, math.inf, 1, id="b=inf"),
    pytest.param(_set_b, math.nan, 1, id="b=nan"),
    pytest.param(_set_injection, math.nan, 1, id="injection=nan"),
    pytest.param(_set_injection, math.inf, 1, id="injection=inf"),
    pytest.param(_set_cap, math.inf, 0, id="cap=inf"),
])
def test_nonfinite_document_values(tmp_path, capsys, edit, value, code):
    doc = triangle_doc()
    edit(doc, value)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))  # writes the JSON extensions Infinity / NaN
    assert run(["flow", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err
    else:
        assert all(math.isfinite(v) for v in json.loads(out)["flows"].values())


#: The options each subcommand declares besides the network and --reference.
SUBCOMMAND_OPTIONS = {
    "blocks": set(),
    "flow": set(),
    "ptdf": {"--format"},
    "lodf": {"--line"},
    "glodf": {"--lines", "--method", "--format"},
    "localize": {"--lines", "--perturb", "--trials", "--seed"},
    "cascade": {"--trip"},
    "influence": {"--threshold", "--format"},
    "verify": set(),
}


def test_each_subcommand_declares_only_the_options_it_reads(capsys, triangle_path):
    (commands,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    declared = {
        name: {option for action in parser._actions for option in action.option_strings}
        for name, parser in commands.choices.items()
    }
    assert declared == {
        name: options | {"-h", "--help", "--reference"}
        for name, options in SUBCOMMAND_OPTIONS.items()
    }
    # Every --format value a subcommand accepts changes what it prints.
    for name, parser in commands.choices.items():
        for action in parser._actions:
            if "--format" not in action.option_strings:
                continue
            required = ["--lines", "1"] if name == "glodf" else []
            outputs = set()
            for choice in action.choices:
                assert run([name, triangle_path, "--format", choice] + required) == 0
                outputs.add(capsys.readouterr().out)
            assert len(outputs) == len(action.choices) == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["lodf"], id="missing-line"),
    pytest.param(["localize", "--lines", "1", "--perturb", "--trials", "abc"], id="trials=abc"),
    pytest.param(["solve"], id="unknown-subcommand"),
    pytest.param(["flow", "--tol", "1e-6"], id="flow-tol"),
    pytest.param(["blocks", "--format", "csv"], id="blocks-format"),
    pytest.param(["ptdf", "--format", "dot"], id="ptdf-dot"),
    pytest.param(["influence", "--threshold", "-1"], id="threshold=-1"),
    pytest.param(["influence", "--threshold", "nan"], id="threshold=nan"),
    pytest.param(["influence", "--threshold", "inf"], id="threshold=inf"),
    pytest.param(["cascade", "--trip", "1", "--max-stages", "0"], id="max-stages=0"),
    pytest.param(["glodf", "--lines", "1,x"], id="lines=1,x"),
])
def test_usage_and_range_errors_exit_1(capsys, triangle_path, argv):
    assert run(argv[:1] + [triangle_path] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gridfactor: ")


def _set_edge(k, key, value):
    def change(doc):
        doc["edges"][k][key] = value
    return change


@pytest.mark.parametrize("change", [
    pytest.param(lambda doc: doc.update(reference="x"), id="reference=x"),
    pytest.param(lambda doc: doc.update(reference=None), id="reference=null"),
    pytest.param(lambda doc: doc.update(reference=1.7), id="reference=1.7"),
    pytest.param(lambda doc: doc.update(reference=True), id="reference=true"),
    pytest.param(_set_edge(0, "cap", [1]), id="cap=[1]"),
    pytest.param(_set_edge(0, "cap", True), id="cap=true"),
    pytest.param(_set_edge(1, "from", 1.5), id="from=1.5"),
    pytest.param(_set_edge(0, "from", True), id="from=true"),
    pytest.param(_set_edge(0, "b", True), id="b=true"),
    pytest.param(_set_edge(1, "b", "abc"), id="b=abc"),
    pytest.param(lambda doc: doc.update(nodes=[1, 2.9, 3]), id="nodes=[1,2.9,3]"),
    pytest.param(lambda doc: doc.update(nodes="123"), id="nodes=123"),
    pytest.param(lambda doc: doc["injections"].update({"1": True}), id="injection=true"),
    pytest.param(lambda doc: doc.update(injections={"1.5": 0.0}), id="injection-node=1.5"),
    pytest.param(lambda doc: doc["edges"].append([1, 2, 1.0]), id="edge=list"),
])
def test_malformed_values_are_parse_errors(capsys, tmp_path, change):
    doc = triangle_doc()
    change(doc)
    with pytest.raises(ParseError):
        load_network(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["flow", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gridfactor: ") and "Traceback" not in err


def _float_ids_and(change):
    def float_ids(doc):
        for line in doc["edges"]:
            line.update({"from": float(line["from"]), "to": float(line["to"])})
        change(doc)
    return float_ids


@pytest.mark.parametrize("change, item", [
    pytest.param(_set_edge(0, "b", 10**400), "edge #1 'b'", id="b"),
    pytest.param(_set_edge(1, "cap", 10**400), "edge #2 'cap'", id="cap"),
    pytest.param(lambda doc: doc["injections"].update({"2": 10**400}), "the injection at node 2", id="injection"),
    pytest.param(_float_ids_and(_set_edge(2, "b", 10**400)), "edge #3 'b'", id="b-float-ids"),
])
def test_ints_past_float_range_are_parse_errors(capsys, tmp_path, change, item):
    doc = triangle_doc()
    change(doc)
    with pytest.raises(ParseError) as refusal:
        load_network(doc)
    assert str(refusal.value) == f"{item} must be a number, got {10**400}"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run(["flow", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"gridfactor: {refusal.value}\n"


@pytest.mark.parametrize("change", [
    pytest.param(_set_edge(1, "to", 10**5000), id="to"),
    pytest.param(lambda doc: doc.update(reference=10**5000), id="reference"),
    pytest.param(_set_edge(1, "cap", 10**5000), id="cap"),
])
def test_ints_past_the_digit_limit_are_parse_errors(change):
    doc = triangle_doc()
    change(doc)
    with pytest.raises(ParseError, match=r"^cannot read network document: Exceeds the limit \(4300 digits\)"):
        load_network(doc)


@pytest.mark.parametrize("name, content", [
    pytest.param("long_b.json", json.dumps(triangle_doc()).replace('"b": 1.0', '"b": 1' + "0" * 4999, 1).encode(),
                 id="json-int-past-the-digit-limit"),
    pytest.param("latin1.json", b"\xff" + json.dumps(triangle_doc()).encode(), id="json-not-utf8"),
    pytest.param("edges.csv", b"from,to,b\n1,2,1.0\n2,3,1.0\n1,3,\xe9\n", id="csv-not-utf8"),
])
def test_unreadable_files_are_parse_errors(capsys, tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ParseError):
        load_network(path)
    assert run(["flow", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gridfactor: ") and err.count("\n") == 1


def test_integral_values_and_their_text_load_as_ids(triangle):
    doc = triangle_doc()
    doc.update(reference="3", nodes=[1.0, "2", 3])
    doc["edges"][0].update({"from": 1.0, "to": "2", "b": "1.0", "cap": "inf"})
    assert load_network(doc) == triangle


_COLUMN_RUNS = [
    ["lodf", "--line", "1"],
    *(["glodf", "--lines", "1,7", "--method", method] for method in factors.GLODF_METHODS),
    ["localize", "--lines", "1,7"], ["localize", "--lines", "1,7", "--perturb", "--trials", "3"],
    ["influence"],
]
_BLOCK_TREE_RUNS = [["blocks"], ["flow"], ["ptdf"], *_COLUMN_RUNS, ["cascade", "--trip", "1"]]


@pytest.mark.parametrize("owner, dense, argvs", [
    pytest.param(LaplacianBundle, ("A",), _BLOCK_TREE_RUNS, id="A"),
    pytest.param(factors.PtdfMatrix, ("matrix",), _COLUMN_RUNS, id="ptdf-matrix"),
])
def test_subcommands_build_no_dense_matrix_they_do_not_read(monkeypatch, capsys, tmp_path,
                                                            owner, dense, argvs):
    def refuse(self):
        raise AssertionError("a dense matrix was built")

    for name in dense:
        monkeypatch.setattr(owner, name, property(refuse))
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps({**fig2_doc(), "injections": {"1": 1.0, "5": -1.0}}))
    for argv in argvs:
        assert run(argv[:1] + [str(path)] + argv[1:]) == 0, argv
        capsys.readouterr()


def test_verify_factors_the_weighted_network_once(monkeypatch, capsys, tmp_path):
    built = []
    init = LaplacianBundle.__init__

    def counting(self, network, susceptances=None):
        built.append(susceptances is None)
        init(self, network, susceptances)

    monkeypatch.setattr(LaplacianBundle, "__init__", counting)
    doc = grid_doc(3)
    for k, edge in enumerate(doc["edges"]):
        edge["b"] = float(1 + k % 4)
    path = tmp_path / "grid3.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 0
    capsys.readouterr()
    assert sorted(built) == [False, True]  # the network's own factor and the oracle's unit-weight one


def test_verify_refuses_past_the_cap_before_building_a_dense_matrix(monkeypatch, capsys, tmp_path):
    def refuse(self):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(factors.PtdfMatrix, "matrix", property(refuse))
    monkeypatch.setattr(LaplacianBundle, "A", property(refuse))
    monkeypatch.setattr(scipy.sparse.csc_array, "toarray", refuse)  # the matrix-tree check's dense reduced L
    path = tmp_path / "grid5.json"
    path.write_text(json.dumps(grid_doc(5)))  # 557,568,000 spanning trees
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridfactor: estimated spanning-tree count exceeds the enumeration cap\n"


def test_verify_refuses_a_spanning_tree_weight_past_float_range(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge_weight_doc()))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridfactor: the spanning-tree weight exceeds float range\n"


def test_verify_refuses_a_first_minor_past_float_range_before_any_float_compare(capsys, tmp_path):
    # The factor's pivot product overflows to +inf here though the exact tree weight fits: the
    # refusal comes before any comparison could warn (the suite makes a RuntimeWarning an error).
    path = tmp_path / "path54.json"
    path.write_text(json.dumps(overflowing_minor_doc()))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridfactor: a first minor exceeds float range\n"


def test_verify_refuses_a_float_adjugate_that_is_not_finite_before_any_float_compare(capsys, tmp_path):
    # L_r = [[1e-320]] factors, but its float inverse is inf: compared as it is, inf / inf would warn.
    path = tmp_path / "subnormal_pair.json"
    path.write_text(json.dumps({"nodes": [1, 2], "edges": [{"from": 2, "to": 1, "b": 1e-320}]}))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gridfactor: the float adjugate of the reduced Laplacian is not finite\n"


def test_localize_computes_no_glodf(monkeypatch, capsys, tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(fig2_doc()))
    argv = ["localize", str(path), "--lines", "1,7", "--perturb", "--trials", "3"]
    assert run(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("localize computed a GLODF")

    monkeypatch.setattr(factors, "glodf", refuse)
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_localize_perturb_decides_islanding_once(monkeypatch, capsys, fig2_path):
    searched = []
    disconnected_by = Network.disconnected_by

    def counting(self, positions):
        searched.append(np.asarray(positions).tolist())
        return disconnected_by(self, positions)

    monkeypatch.setattr(Network, "disconnected_by", counting)
    assert run(["localize", fig2_path, "--lines", "1,7", "--perturb", "--trials", "3"]) == 0
    capsys.readouterr()
    assert searched == [[0, 6]]  # the report and the perturbation test share the outage's verdict


_SPECIAL_TEXT = st.sampled_from([", ", "], [", '"', "\\", "é", "a, b", "\n"])
_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
_NUMBERS = st.integers() | _FLOATS
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text(max_size=4) | _SPECIAL_TEXT
_PAIRS = st.lists(st.lists(_NUMBERS, min_size=1, max_size=3) | st.tuples(_NUMBERS, _NUMBERS), max_size=4)
_ARRAYS = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4), elements=_FLOATS)
_PAYLOADS = st.recursive(
    _SCALARS | _PAIRS | _ARRAYS | st.dictionaries(st.text(max_size=3) | _SPECIAL_TEXT, _NUMBERS),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=3) | _SPECIAL_TEXT, children, max_size=4)),
    max_leaves=12,
)


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


_CHUNKS = st.integers(1, 20)  # entries a matrix encodes at a time: one row, or several, per chunk


@settings(max_examples=300, deadline=None, database=None)
@given(_PAYLOADS, _CHUNKS)
def test_encode_writes_the_stdlib_indented_text(payload, chunk):
    with mock.patch.object(cli, "_CHUNK", chunk):
        assert "".join(cli._encode(payload)) == json.dumps(_plain(payload), sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None, database=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4), elements=_FLOATS), _CHUNKS)
def test_matrix_csv_writes_each_entry_as_its_repr(values, chunk):
    rows, cols = range(10, 10 + values.shape[0]), range(1, 1 + values.shape[1])
    with contextlib.redirect_stdout(io.StringIO()) as out, mock.patch.object(cli, "_CHUNK", chunk):
        cli._emit_matrix_csv(rows, cols, values)
    expected = "line," + ",".join(map(str, cols)) + "\n" + "".join(
        f"{row_id}," + ",".join(repr(v) for v in row) + "\n" for row_id, row in zip(rows, values.tolist()))
    assert out.getvalue() == expected


class _Discard(io.TextIOBase):
    """A text stream that drops what it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ptdf_holds_little_beyond_the_matrix_while_it_writes(tmp_path, fmt):
    path = tmp_path / "grid20.json"
    path.write_text(json.dumps(grid_doc(20)))  # m = 760: a 4.6 MB matrix
    matrix_bytes = 760 * 760 * 8
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = run(["ptdf", str(path), "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * matrix_bytes  # the text is written a row at a time


@pytest.mark.parametrize("payload", [{1: 2.0}, {"a": {None: 1}}, {"a": [{"b": 1, 2: "c"}]}])
def test_encode_refuses_keys_that_are_not_str(payload):
    with pytest.raises(TypeError):
        "".join(cli._encode(payload))


def test_no_subcommand_reaches_the_pure_python_encoder(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps({**fig2_doc(), "injections": {"1": 1.0, "5": -1.0}}))
    for argv in _BLOCK_TREE_RUNS + [["verify"]]:
        assert run(argv[:1] + [str(path)] + argv[1:]) == 0, argv
        assert capsys.readouterr().out.endswith("}\n")
