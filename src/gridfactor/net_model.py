"""Network data model, document ingestion, validation, and incidence matrix.

A network is an oriented simple graph.  Edge orientation is taken from the
order the endpoints appear in the input document, so loading is fully
deterministic.  The reference bus defaults to the highest-numbered node and
can be overridden per document.

Islanding is decided near the outage: a connected network stays connected
without a set of lines exactly when the two ends of every removed line are
still joined, which :meth:`Network.disconnected_by` checks by a search from
both ends at once.  The whole-network pass runs once, in :func:`validate`.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import ParseError, UnbalancedInjectionError, UnknownEdgeError, ValidationError

__all__ = [
    "Edge",
    "Network",
    "Finding",
    "ValidationReport",
    "load_network",
    "network_to_document",
    "incidence_matrix",
    "incidence_columns",
    "is_connected",
    "validate",
    "injection_vector",
]

#: The one relative tolerance.  Injection balance, islanding by I - D_FF and
#: "zero" factor entries decide against :func:`scaled_tolerance`; the guard on
#: 1 - D_ll of a line that is not a bridge and the identity checks use it unscaled.
RTOL = 1e-9
#: Factorization floor: a reduced-Laplacian pivot below this fraction of
#: max|reduced L| is singular.  It sits below RTOL so that a connected network
#: whose susceptances spread over about nine decades still factors.
PIVOT_RTOL = 1e-12
#: Absolute floor above which a perturbed factor entry counts as nonzero.
#: Each trial's factor has its own scale; an absolute floor below RTOL counts
#: small genuine entries and still rejects rounding noise on exact zeros.
NONZERO_ATOL = 1e-12


def scaled_tolerance(scale: float) -> float:
    """The bound RTOL * max(1, scale): relative above unit scale, absolute below it."""
    return RTOL * max(1.0, scale)


@dataclass(frozen=True)
class Edge:
    """A transmission line with orientation source -> target.

    ``susceptance`` is the positive DC line weight; ``capacity`` is the
    thermal limit (infinite when the line can never trip).
    """

    id: int
    source: int
    target: int
    susceptance: float
    capacity: float = math.inf


@dataclass(frozen=True)
class Network:
    """Immutable oriented graph with per-line susceptance and capacity.

    ``nodes`` is kept in ascending order; ``edges`` keeps document order,
    which fixes both the line indexing and the edge orientation.
    ``injections`` is the optional per-node real power vector aligned with
    ``nodes``.

    The topology index (the id-to-position maps of nodes and edges, the
    edge endpoint positions, the position-space adjacency lists and whether
    the network is connected) and the Laplacian :attr:`factor` are built
    once per instance, on first use, and are not part of equality, hashing
    or ``repr``.
    """

    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    reference: int
    injections: tuple[float, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _node_lookup(self) -> dict[int, int]:
        return {node: k for k, node in enumerate(self.nodes)}

    @cached_property
    def _edge_lookup(self) -> dict[int, int]:
        return {edge.id: k for k, edge in enumerate(self.edges)}

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only node positions of every edge's source and target, in edge order."""
        lookup = self._node_lookup
        pairs = [(lookup[edge.source], lookup[edge.target]) for edge in self.edges]
        source, target = np.array(pairs, dtype=int).reshape(-1, 2).T
        source.flags.writeable = target.flags.writeable = False
        return source, target

    @cached_property
    def _adjacency(self) -> list[list[tuple[int, int]]]:
        """Per node position, the (neighbour position, edge position) pairs."""
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for k, (s, t) in enumerate(zip(*(ends.tolist() for ends in self.endpoints))):
            adjacency[s].append((t, k))
            adjacency[t].append((s, k))
        return adjacency

    @cached_property
    def _connected(self) -> bool:
        return is_connected(self)

    @cached_property
    def factor(self):
        """The sparse LU factor of this network's Laplacian under its own susceptances.

        Built by :func:`gridfactor.dcpf.build_laplacian` on first read, so
        every solve under the network's own weights shares one factor; a
        SingularError is raised again on every read, as nothing is kept.
        """
        from . import dcpf  # dcpf imports this module

        return dcpf.build_laplacian(self)

    def node_index(self, node: int) -> int:
        try:
            return self._node_lookup[node]
        except KeyError:
            raise ValidationError(f"unknown node {node}") from None

    def edge_index(self, edge_id: int) -> int:
        try:
            return self._edge_lookup[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge id {edge_id}") from None

    def edge_positions(self, edge_ids) -> np.ndarray:
        """Positions of the given edge ids, in iteration order.

        Raises UnknownEdgeError naming every id that is not a line here.
        """
        ids = list(edge_ids)
        lookup = self._edge_lookup
        missing = {v for v in ids if v not in lookup}
        if missing:
            raise UnknownEdgeError(f"unknown edge ids {sorted(missing)}")
        return np.array([lookup[v] for v in ids], dtype=int)

    def edge_by_id(self, edge_id: int) -> Edge:
        return self.edges[self.edge_index(edge_id)]

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(edge.id for edge in self.edges)

    def susceptances(self) -> np.ndarray:
        return np.array([edge.susceptance for edge in self.edges], dtype=float)

    def capacities(self) -> np.ndarray:
        return np.array([edge.capacity for edge in self.edges], dtype=float)

    def reference_index(self) -> int:
        return self.node_index(self.reference)

    def with_susceptances(self, values) -> "Network":
        """Copy of the network with per-edge susceptances replaced."""
        return self._with_line_values("susceptance", "susceptances", values)

    def with_capacities(self, values) -> "Network":
        """Copy of the network with per-edge capacities replaced."""
        return self._with_line_values("capacity", "capacities", values)

    def _with_line_values(self, name: str, plural: str, values) -> "Network":
        """Copy with one per-edge parameter replaced."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.m,):
            raise ValidationError(f"expected {self.m} {plural}, got {values.shape}")
        edges = tuple(replace(edge, **{name: float(v)}) for edge, v in zip(self.edges, values))
        return replace(self, edges=edges)

    def without_edges(self, edge_ids) -> "Network":
        """Copy with the given lines removed; surviving edges keep their ids."""
        keep = np.ones(self.m, dtype=bool)
        keep[self.edge_positions(set(edge_ids))] = False
        return replace(self, edges=tuple(compress(self.edges, keep)))

    def disconnected_by(self, positions) -> bool:
        """True when removing the lines at these edge positions disconnects the network.

        Every node counts, so isolating a single bus is detected, and a
        network disconnected to begin with always reports True.  The cost is
        local to the outage when it is not a cut and bounded by the smaller
        side when it is.
        """
        if not self._connected:
            return True
        removed = set(np.asarray(positions, dtype=int).tolist())
        source, target = self.endpoints
        return not all(
            _joined(self._adjacency, removed, int(source[k]), int(target[k])) for k in removed
        )


def _joined(adjacency, removed: set[int], u: int, v: int) -> bool:
    """True when some path from u to v avoids the removed edge positions.

    Grows the search that has reached fewer nodes, so a side that runs out
    was the smaller one.  The two ends of a self-loop are joined.
    """
    seen = ({u}, {v})
    queues = (deque([u]), deque([v]))
    while queues[0] and queues[1]:
        side = int(len(seen[0]) > len(seen[1]))
        mine, theirs = seen[side], seen[1 - side]
        queue = queues[side]
        for other, k in adjacency[queue.popleft()]:
            if k in removed or other in mine:
                continue
            if other in theirs:
                return True
            mine.add(other)
            queue.append(other)
    return u == v


@dataclass(frozen=True)
class Finding:
    """One validation violation, with a stable code and a human detail."""

    code: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> tuple[str, ...]:
        return tuple(f.code for f in self.findings)


def _parse_real(raw, what: str) -> float:
    """A real number: a JSON number or the text of one, as CSV gives; never a boolean."""
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except ValueError:
            pass
    raise ParseError(f"{what} must be a number, got {raw!r}")


def _parse_id(raw, what: str) -> int:
    """A node id: an integral number or the text of one, as CSV gives; never a boolean."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, (float, str)):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if value.is_integer():
            return int(value)
    raise ParseError(f"{what} must be an integer, got {raw!r}")


def _parse_capacity(raw, what: str) -> float:
    if raw is None:
        return math.inf
    if isinstance(raw, str) and raw.strip().lower() in ("", "inf", "+inf", "infinity"):
        return math.inf
    return _parse_real(raw, what)


def _network_from_document(doc: dict) -> Network:
    if not isinstance(doc, dict):
        raise ParseError("network document must be a JSON object")
    if "edges" not in doc:
        raise ParseError("network document is missing 'edges'")

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list")

    edges = []
    for k, item in enumerate(raw_edges):
        name = f"edge #{k + 1}"
        if not isinstance(item, dict) or not {"from", "to", "b"} <= item.keys():
            raise ParseError(f"{name} is malformed: expected an object with 'from', 'to' and 'b'")
        edges.append(Edge(id=k + 1, source=_parse_id(item["from"], f"{name} 'from'"),
                          target=_parse_id(item["to"], f"{name} 'to'"),
                          susceptance=_parse_real(item["b"], f"{name} 'b'"),
                          capacity=_parse_capacity(item.get("cap"), f"{name} 'cap'")))

    if "nodes" in doc:
        if not isinstance(doc["nodes"], list):
            raise ParseError("'nodes' must be a list of node ids")
        nodes = tuple(sorted(_parse_id(v, "a node id in 'nodes'") for v in doc["nodes"]))
    else:
        seen = {e.source for e in edges} | {e.target for e in edges}
        nodes = tuple(sorted(seen))

    if "reference" in doc:
        reference = _parse_id(doc["reference"], "'reference'")
    else:
        reference = nodes[-1] if nodes else 0

    injections = None
    if "injections" in doc:
        raw_inj = doc["injections"]
        if not isinstance(raw_inj, dict):
            raise ParseError("'injections' must map node ids to reals")
        by_node = {_parse_id(k, "a node id in 'injections'"): _parse_real(v, f"the injection at node {k}")
                   for k, v in raw_inj.items()}
        unknown = set(by_node) - set(nodes)
        if unknown:
            raise ParseError(f"injections name unknown nodes {sorted(unknown)}")
        injections = tuple(by_node.get(node, 0.0) for node in nodes)

    return Network(nodes=nodes, edges=tuple(edges), reference=reference,
                   injections=injections)


def _document_from_csv(edges_path: Path) -> dict:
    doc: dict = {"edges": []}
    try:
        with open(edges_path, newline="") as handle:
            for row in csv.DictReader(handle):
                doc["edges"].append({
                    "from": row["from"],
                    "to": row["to"],
                    "b": row["b"],
                    "cap": row.get("cap"),
                })
    except (OSError, KeyError, csv.Error) as exc:
        raise ParseError(f"cannot read edge table {edges_path}: {exc}") from None

    injections_path = edges_path.with_name("injections.csv")
    if injections_path.exists():
        injections = {}
        try:
            with open(injections_path, newline="") as handle:
                for row in csv.DictReader(handle):
                    injections[row["node"]] = row["p"]
        except (OSError, KeyError, csv.Error) as exc:
            raise ParseError(f"cannot read injection table {injections_path}: {exc}") from None
        doc["injections"] = injections
    return doc


def load_network(source, reference: int | None = None) -> Network:
    """Load and validate a network from a document or file.

    ``source`` may be an already-parsed document (dict), a path to a JSON
    document, a path to ``edges.csv``, or a directory containing
    ``edges.csv`` (plus an optional ``injections.csv`` next to it).
    ``reference`` overrides the document's reference bus.

    Raises ParseError on malformed input and ValidationError when the
    network violates a model invariant.
    """
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        if path.is_dir():
            doc = _document_from_csv(path / "edges.csv")
        elif path.suffix.lower() == ".csv":
            doc = _document_from_csv(path)
        else:
            try:
                with open(path) as handle:
                    doc = json.load(handle)
            except OSError as exc:
                raise ParseError(f"cannot open {path}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path} is not valid JSON: {exc}") from None

    network = _network_from_document(doc)
    if reference is not None:
        network = replace(network, reference=_parse_id(reference, "reference"))

    report = validate(network)
    if not report.ok:
        raise ValidationError("; ".join(f"{f.code}: {f.detail}" for f in report.findings))
    return network


def network_to_document(network: Network) -> dict:
    """Serialize a network to the canonical JSON document form.

    Loading the returned document yields a network equal to the input.
    """
    doc: dict = {
        "nodes": list(network.nodes),
        "reference": network.reference,
        "edges": [
            {
                "from": edge.source,
                "to": edge.target,
                "b": edge.susceptance,
                "cap": "inf" if math.isinf(edge.capacity) else edge.capacity,
            }
            for edge in network.edges
        ],
    }
    if network.injections is not None:
        doc["injections"] = {str(node): p for node, p in zip(network.nodes, network.injections)}
    return doc


def incidence_matrix(network: Network) -> np.ndarray:
    """Signed node-edge incidence matrix C (+1 at each source, -1 at each target)."""
    return incidence_columns(network, np.arange(network.m))


def incidence_columns(network: Network, positions) -> np.ndarray:
    """Columns of C at the given edge positions: the unit injection across each of those lines.

    Reads only ``network.n`` and ``network.endpoints``, which a ``LaplacianBundle`` also has.
    """
    source, target = (ends[positions] for ends in network.endpoints)
    columns = np.zeros((network.n, len(source)))
    columns[source, np.arange(len(source))] = 1.0
    columns[target, np.arange(len(source))] = -1.0
    return columns


def is_connected(network: Network) -> bool:
    """True when every node is reachable from every other through the edges.

    One search of the network's adjacency; every edge endpoint must be a
    known node, which :func:`validate` checks before it asks.
    """
    if network.n == 0:
        return True
    reached, stack = {0}, [0]
    while stack:
        for other, _ in network._adjacency[stack.pop()]:
            if other not in reached:
                reached.add(other)
                stack.append(other)
    return len(reached) == network.n


def validate(network: Network) -> ValidationReport:
    """Check every model invariant and report all violations.

    Unlike :func:`load_network` this never raises; callers inspect the
    report.  An empty report means the network satisfies all invariants.
    """
    findings: list[Finding] = []
    node_set = set(network.nodes)

    if network.n < 2:
        findings.append(Finding("too_few_nodes", f"need at least 2 nodes, found {network.n}"))
    if network.m < 1:
        findings.append(Finding("no_edges", "network has no edges"))
    if len(node_set) != network.n:
        findings.append(Finding("duplicate_node", "node ids are not unique"))
    if network.nodes and tuple(sorted(node_set)) != tuple(range(1, network.n + 1)):
        findings.append(Finding("node_ids", "node ids must be 1..n"))

    if network.reference not in node_set:
        findings.append(Finding("bad_reference", f"reference {network.reference} is not a node"))

    seen_ids = set()
    seen_pairs = set()
    for edge in network.edges:
        if edge.id in seen_ids:
            findings.append(Finding("duplicate_edge_id", f"edge id {edge.id} repeats"))
        seen_ids.add(edge.id)
        if edge.source == edge.target:
            findings.append(Finding("self_loop", f"edge {edge.id} is a self-loop at node {edge.source}"))
        pair = frozenset((edge.source, edge.target))
        if pair in seen_pairs:
            findings.append(Finding(
                "duplicate_edge",
                f"edge {edge.id} repeats endpoint pair {tuple(sorted(pair))} (in either orientation)",
            ))
        seen_pairs.add(pair)
        for endpoint in (edge.source, edge.target):
            if endpoint not in node_set:
                findings.append(Finding("unknown_endpoint", f"edge {edge.id} uses unknown node {endpoint}"))
        if not math.isfinite(edge.susceptance):
            findings.append(Finding("nonfinite_susceptance", f"edge {edge.id} has b={edge.susceptance}"))
        elif not edge.susceptance > 0:
            findings.append(Finding("nonpositive_susceptance", f"edge {edge.id} has b={edge.susceptance}"))
        if not edge.capacity > 0:
            findings.append(Finding("nonpositive_capacity", f"edge {edge.id} has cap={edge.capacity}"))

    if network.injections is not None and len(network.injections) != network.n:
        findings.append(Finding(
            "injection_length",
            f"expected {network.n} injections, got {len(network.injections)}",
        ))

    clean_endpoints = not any(f.code in ("unknown_endpoint", "duplicate_node") for f in findings)
    if clean_endpoints and network.n >= 2 and not network._connected:
        findings.append(Finding("disconnected", "network is not connected"))

    return ValidationReport(tuple(findings))


def injection_vector(network: Network, values=None) -> np.ndarray:
    """Validated balanced injection vector aligned with ``network.nodes``.

    Uses ``network.injections`` when ``values`` is omitted.  Raises
    ValidationError when an entry is NaN or infinite, and
    UnbalancedInjectionError when the entries do not sum to zero within
    ``scaled_tolerance(max|p|)``.
    """
    if values is None:
        if network.injections is None:
            raise ValidationError("network document carries no injections")
        values = network.injections
    p = np.asarray(values, dtype=float)
    if p.shape != (network.n,):
        raise ValidationError(f"expected {network.n} injections, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("injections must be finite")
    if abs(float(p.sum())) > scaled_tolerance(float(np.max(np.abs(p), initial=0.0))):
        raise UnbalancedInjectionError(f"injections sum to {p.sum():.3e}, not zero")
    return p
