import importlib
import math
import pkgutil
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfactor
from gridfactor import (
    GridFactorError,
    Network,
    ParseError,
    UnbalancedInjectionError,
    ValidationError,
    injection_vector,
    load_network,
    network_to_document,
    validate,
)
from gridfactor import net_model

from conftest import build, incidence_matrix, random_network, triangle_doc, with_susceptances, without_edges


def test_the_public_surface_is_pinned():
    # The package's names, modules aside: a change to the surface shows as a diff to this list.
    public = sorted(name for name, value in vars(gridfactor).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == """
        AdversarialInstance AnalysisError BlockDecomposition BridgeError CascadeTrace CutSetError
        DisconnectedError FlowState GlodfResult GridFactorError InputError LaplacianBundle LocalizationReport
        MatrixTreeReport Network OutageSet ParseError PerturbationSpec PerturbationStats PtdfMatrix ReactanceReport
        SingularError Stage TooLargeError UnbalancedInjectionError UnknownEdgeError ValidationError ValidationReport
        ZeroFactorError a_entry_via_forests adversarial_capacity almost_sure_nonzero_test apply_outage
        block_decomposition block_structure_report build_laplacian effective_reactance glodf influence_graph
        injection_vector load_network lodf_single lodf_via_forests matrix_tree_check network_to_document
        ptdf_matrix ptdf_via_forests run_cascade simple_cycle_criterion solve_flow validate
    """.split()


def test_every_name_in_a_modules_all_exists():
    # A name deleted from a module but left in its __all__ would break ``from module import *``.
    names = [info.name for info in pkgutil.iter_modules(gridfactor.__path__) if not info.name.startswith("_")]
    assert "graph_algos" in names
    for module in map(importlib.import_module, (f"gridfactor.{name}" for name in names)):
        assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == [], module


def test_triangle_loads(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert triangle.reference == 3
    assert triangle.ids == (1, 2, 3)


def test_path_loads(path3):
    assert path3.n == 3
    assert path3.m == 2
    # Default reference is the highest-numbered node.
    assert path3.reference == 3


def test_reversed_duplicate_rejected():
    doc = {
        "nodes": [1, 2, 3],
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 1, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
        ],
    }
    with pytest.raises(ValidationError, match="duplicate"):
        load_network(doc)


def test_missing_edges_key_is_parse_error():
    with pytest.raises(ParseError):
        load_network({"nodes": [1, 2]})


def test_nonpositive_susceptance_rejected():
    doc = {"nodes": [1, 2], "edges": [{"from": 1, "to": 2, "b": 0.0}]}
    with pytest.raises(ValidationError, match="susceptance"):
        load_network(doc)


def test_disconnected_rejected():
    doc = {
        "nodes": [1, 2, 3, 4],
        "edges": [{"from": 1, "to": 2, "b": 1.0}, {"from": 3, "to": 4, "b": 1.0}],
    }
    with pytest.raises(ValidationError, match="disconnected"):
        load_network(doc)


def test_incidence_triangle(triangle):
    C = incidence_matrix(triangle)
    expected = np.array([
        [1.0, 0.0, 1.0],
        [-1.0, 1.0, 0.0],
        [0.0, -1.0, -1.0],
    ])
    assert np.array_equal(C, expected)


def test_incidence_single_edge():
    net = build({"nodes": [1, 2], "edges": [{"from": 1, "to": 2, "b": 5.0}]})
    assert np.array_equal(incidence_matrix(net), np.array([[1.0], [-1.0]]))


def test_incidence_columns_sum_to_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_network(rng)
        C = incidence_matrix(net)
        assert np.array_equal(C.sum(axis=0), np.zeros(net.m))


def test_validate_clean_triangle(triangle):
    assert validate(triangle).ok


def test_validate_reports_disconnection():
    net = Network(nodes=(1, 2, 3, 4), ids=(1, 2), sources=(1, 3), targets=(2, 4),
                  b=(1.0, 1.0), cap=(math.inf, math.inf), reference=4)
    assert "disconnected" in [f.code for f in validate(net).findings]


def test_validate_reports_nonpositive_susceptance():
    net = Network(nodes=(1, 2), ids=(1,), sources=(1,), targets=(2,), b=(0.0,), cap=(math.inf,), reference=2)
    assert "nonpositive_susceptance" in [f.code for f in validate(net).findings]


def test_validate_reports_bad_reference_and_injection_length(triangle):
    report = validate(replace(triangle, reference=9, injections=(1.0, -1.0)))
    assert [f.code for f in report.findings] == ["bad_reference", "injection_length"]
    assert report.findings[0].detail == "reference 9 is not a node"
    assert report.findings[1].detail == "expected 3 injections, got 2"


def test_validate_names_an_int_too_long_to_print_by_its_size():
    huge = 10**5000  # past the int-to-text conversion limit
    net = Network(nodes=(1, 2, 3), ids=(1, 2), sources=(1, 2), targets=(2, huge), b=(1.0, 1.0),
                  cap=(1.0, 1.0), reference=3)
    assert validate(net).findings[0].detail == "edge 2 uses unknown node <an int of 16610 bits>"
    net = replace(net, ids=(huge, huge), sources=(2, 2), targets=(2, 2), reference=huge)
    assert [(f.code, f.detail) for f in validate(net).findings] == [
        ("bad_reference", "reference <an int of 16610 bits> is not a node"),
        ("self_loop", "edge <an int of 16610 bits> is a self-loop at node 2"),
        ("duplicate_edge_id", "edge id <an int of 16610 bits> repeats"),
        ("self_loop", "edge <an int of 16610 bits> is a self-loop at node 2"),
        ("duplicate_edge", "edge <an int of 16610 bits> repeats endpoint pair (2,) (in either orientation)"),
        ("disconnected", "network is not connected"),
    ]


@pytest.mark.parametrize("column, code", [("b", "nonfinite_susceptance"), ("cap", "nonreal_capacity")])
def test_validate_reports_an_int_past_float_range(column, code):
    net = Network(nodes=(1, 2, 3), ids=(1, 2), sources=(1, 2), targets=(2, 3), b=(1.0, 1.0),
                  cap=(1.0, 1.0), reference=3)
    report = validate(replace(net, **{column: (1.0, 10**5000)}))
    assert [(f.code, f.detail) for f in report.findings] == [
        (code, f"edge 2 has {column}=<an int of 16610 bits>")]


def test_validate_reports_degenerate_sizes():
    lonely = Network(nodes=(1,), ids=(), sources=(), targets=(), b=(), cap=(), reference=1)
    codes = [f.code for f in validate(lonely).findings]
    assert "too_few_nodes" in codes
    assert "no_edges" in codes


def test_round_trip_identity(triangle):
    assert load_network(network_to_document(triangle)) == triangle
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_network(rng)
        assert load_network(network_to_document(net)) == net


def test_missing_capacity_is_infinite(triangle):
    assert all(math.isinf(capacity) for capacity in triangle.cap)


def test_reference_override_at_load():
    net = load_network(triangle_doc(), reference=1)
    assert net.reference == 1


def test_csv_round_trip(tmp_path):
    (tmp_path / "edges.csv").write_text(
        "from,to,b,cap\n1,2,1.0,2.5\n2,3,1.0,inf\n1,3,0.5,\n"
    )
    (tmp_path / "injections.csv").write_text("node,p\n1,1.0\n2,-1.0\n3,0.0\n")
    net = load_network(tmp_path)
    assert net.n == 3 and net.m == 3
    assert net.cap[0] == 2.5
    assert math.isinf(net.cap[1])
    assert math.isinf(net.cap[2])
    assert net.b[2] == 0.5
    assert net.injections == (1.0, -1.0, 0.0)
    # The same file addressed directly also loads.
    assert load_network(tmp_path / "edges.csv") == net


def test_injection_vector_balanced(triangle):
    p = injection_vector(triangle)
    assert np.allclose(p, [1.0, -1.0, 0.0])


def test_injection_vector_unbalanced(triangle):
    with pytest.raises(UnbalancedInjectionError):
        injection_vector(triangle, [1.0, 0.0, 0.5])


@pytest.mark.parametrize("column, error", [((1.0, 0.0, 0.5), UnbalancedInjectionError),
                                           ((1.0, math.nan, -1.0), ValidationError),
                                           ((1.0, -1.0), ValidationError)], ids=["unbalanced", "nan", "short"])
def test_the_network_own_injections_are_refused_on_every_read(triangle, column, error):
    net = replace(triangle, injections=column)
    for _ in range(2):  # a refused column is not kept, so the second read is refused again
        for call in (lambda: injection_vector(net), lambda: injection_vector(net, net.injections), net.flow):
            with pytest.raises(error):
                call()
    assert "_injections" not in vars(net) and "_flow" not in vars(net)
    assert injection_vector(triangle) is injection_vector(triangle, triangle.injections) is triangle.flow()[0]


def test_injection_balance_tolerance_scales(triangle):
    # Residual below 1e-9 * max|p| passes; a residual above it does not.
    injection_vector(triangle, [1e6, -1e6, 1e-4])
    with pytest.raises(UnbalancedInjectionError):
        injection_vector(triangle, [1e6, -1e6, 1.0])


def _written(path, text):
    path.write_text(text)
    return path


def _injection_table_without_p(folder):
    _written(folder / "edges.csv", "from,to,b\n1,2,1.0\n")
    _written(folder / "injections.csv", "node,q\n1,1.0\n2,-1.0\n")
    return folder


@pytest.mark.parametrize("refused, error, message", [
    (lambda tmp: load_network(_written(tmp / "list.json", "[]")),
     ParseError, "network document must be a JSON object"),
    (lambda tmp: load_network({"edges": {}}), ParseError, "'edges' must be a list"),
    (lambda tmp: load_network({**triangle_doc(), "injections": []}),
     ParseError, "'injections' must map node ids to reals"),
    (lambda tmp: load_network(tmp / "absent.json"), ParseError, "cannot open "),
    (lambda tmp: load_network(_injection_table_without_p(tmp)), ParseError, "cannot read injection table "),
    (lambda tmp: injection_vector(build({"edges": [{"from": 1, "to": 2, "b": 1.0}]})),
     ValidationError, "network document carries no injections"),
    (lambda tmp: injection_vector(build(triangle_doc()), [1.0, -1.0]),
     ValidationError, "expected 3 injections, got shape (2,)"),
], ids=["list_document", "edges_object", "injections_list", "missing_file", "injection_table_without_p",
        "no_injections", "short_injections"])
def test_loader_refusals_name_their_defect(tmp_path, refused, error, message):
    with pytest.raises(error) as caught:
        refused(tmp_path)
    assert str(caught.value).startswith(message)


def test_without_edges_preserves_ids(triangle):
    survived = without_edges(triangle, [2])
    assert survived.ids == (1, 3)
    assert survived.nodes == triangle.nodes


def test_with_susceptances(triangle):
    scaled = with_susceptances(triangle, [2.0, 3.0, 4.0])
    assert scaled.susceptances().tolist() == [2.0, 3.0, 4.0]
    assert scaled.ids == triangle.ids


DEFECTS = (None, "self_loop", "duplicate_pair", "unknown_endpoint", "duplicate_node", "node_ids",
           "zero_b", "negative_b", "nan_b", "zero_cap", "disconnected", "unknown_injection")


def _document(rng, defect):
    """A random network's document with injections, and at most one defect put in."""
    doc = network_to_document(random_network(rng))
    n, lines = len(doc["nodes"]), doc["edges"]
    p = rng.normal(size=n)
    doc["injections"] = {str(node): float(v) for node, v in zip(doc["nodes"], p - p.mean())}
    line = lines[int(rng.integers(len(lines)))]
    if defect == "self_loop":
        line["to"] = line["from"]
    elif defect == "duplicate_pair":
        ends = (line["from"], line["to"]) if rng.integers(2) else (line["to"], line["from"])
        lines.append({"from": ends[0], "to": ends[1], "b": 1.5})
    elif defect == "unknown_endpoint":
        line["to"] = n + 5
    elif defect == "duplicate_node":
        doc["nodes"].append(doc["nodes"][0])
    elif defect == "node_ids":
        doc["nodes"][-1] = n + 3
    elif defect in ("zero_b", "negative_b", "nan_b"):
        line["b"] = {"zero_b": 0.0, "negative_b": -float(rng.uniform(0.5, 2.0)), "nan_b": math.nan}[defect]
    elif defect == "zero_cap":
        line["cap"] = 0
    elif defect == "disconnected":
        doc["nodes"] += [n + 1, n + 2]
        lines.append({"from": n + 1, "to": n + 2, "b": 1.0})
    elif defect == "unknown_injection":
        doc["injections"][str(n + 7)] = 0.0
    return doc


def _stringified(value):
    """The document with every scalar replaced by its text, as a CSV table gives it (null as "")."""
    if isinstance(value, dict):
        return {key: _stringified(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_stringified(v) for v in value]
    return "" if value is None else str(value)


def _outcome(doc):
    try:
        return load_network(doc)
    except GridFactorError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(DEFECTS))
def test_column_and_per_item_loads_agree(seed, defect):
    doc = _document(np.random.default_rng(seed), defect)
    outcome = _outcome(doc)
    assert outcome == _outcome(_stringified(doc))
    assert isinstance(outcome, Network) == (defect is None)


def test_json_number_document_builds_no_edge_and_calls_no_item_parser(monkeypatch):
    doc = _document(np.random.default_rng(5), None)
    for k, line in enumerate(doc["edges"]):
        line["cap"] = [2, 1.5, None][k % 3]
    del doc["edges"][-1]["cap"]

    def refuse(*args, **kwargs):
        raise AssertionError("a per-line object or a per-item parse")

    for name in ("_parse_id", "_parse_real", "_parse_capacity"):
        monkeypatch.setattr(net_model, name, refuse)
    network = load_network(doc)
    monkeypatch.undo()
    assert network == load_network(_stringified(doc))
    assert network.cap[:3] == (2.0, 1.5, math.inf) and network.cap[-1] == math.inf
