import json
import math

import pytest

from gridfactor import cli, factors
from gridfactor.cli import run

from conftest import fig2_doc, triangle_doc


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
    original = factors.lodf_stack

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(factors, "lodf_stack", counted)
    assert run(["glodf", triangle_path, "--lines", "1", "--method", "cross_check"]) == 0
    assert len(calls) == 1
    assert len(json.loads(capsys.readouterr().out)["k_stack"]) == 2


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


def test_influence_dot(capsys, triangle_path):
    assert run(["influence", triangle_path, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph influence {")
    assert '"1" -- "2";' in out


def test_verify_passes(capsys, triangle_path):
    assert run(["verify", triangle_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["matrix_tree"]["pass"] is True


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


def test_tol_env_override(monkeypatch, capsys, triangle_path):
    monkeypatch.setenv("GRIDFACTOR_TOL", "1e-3")
    assert run(["verify", triangle_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tolerance"] == 1e-3
    # The explicit flag wins over the environment variable.
    assert run(["verify", triangle_path, "--tol", "1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tolerance"] == 1e-6


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf"])
def test_bad_tol_is_input_error(monkeypatch, capsys, triangle_path, value):
    monkeypatch.setenv("GRIDFACTOR_TOL", value)
    assert run(["flow", triangle_path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err
    # The explicit flag still wins; the variable is not read.
    assert run(["verify", triangle_path, "--tol", "1e-6"]) == 0
    monkeypatch.delenv("GRIDFACTOR_TOL")
    if value != "abc":
        assert run(["verify", triangle_path, "--tol", value]) == 1


@pytest.mark.parametrize("flags", [
    ["--trials", "-3"], ["--trials", "0"], ["--eps", "nan"], ["--eps", "-0.5"], ["--eps", "2"],
    ["--eps", "1"], ["--eps", "inf"], ["--seed", "-1"],
])
def test_bad_perturbation_is_input_error(monkeypatch, capsys, triangle_path, flags):
    def refuse(*args):
        raise AssertionError("the network was factored before the spec was checked")

    monkeypatch.setattr(cli, "build_laplacian", refuse)
    assert run(["localize", triangle_path, "--lines", "1", "--perturb"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gridfactor: perturbation")


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
