"""Network data model, document ingestion and validation.

A network is an oriented simple graph.  Edge orientation is taken from the
order the endpoints appear in the input document, so loading is fully
deterministic.  The reference bus defaults to the highest-numbered node and
can be overridden per document.

Islanding is decided from the outage's own lines.  One depth-first search
per network fixes a spanning tree, and each line gets a cycle label: the
set, as a bitset, of the fundamental cycles of that tree that hold it.  A
connected network is disconnected by removing a set of lines exactly when
their labels are linearly dependent over GF(2) (the cographic matroid), which
:meth:`Network.disconnected_by` decides by elimination over those labels
alone.  It is the exact twin of the numerical test "I - D_FF is singular".
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, repeat
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import depth_first_order

from .errors import ParseError, UnbalancedInjectionError, UnknownEdgeError, ValidationError

__all__ = [
    "Network",
    "Finding",
    "ValidationReport",
    "load_network",
    "network_to_document",
    "incidence_columns",
    "validate",
    "injection_vector",
]

#: The one relative tolerance.  Injection balance, the outage-flow certificate, ``localize``'s zero
#: count and ``adversarial_capacity``'s zero-factor refusal decide against :func:`scaled_tolerance`;
#: the guard on 1 - D_ll of a line that is not a bridge and the identity checks use it unscaled.
RTOL = 1e-9
#: Factorization floor: a reduced-Laplacian pivot below this fraction of
#: max|reduced L| is singular.  It sits below RTOL so that a connected network
#: whose susceptances spread over about nine decades still factors.
PIVOT_RTOL = 1e-12
#: Absolute floor above which a perturbed factor entry counts as nonzero.
#: Each trial's columns have their own scale; an absolute floor below RTOL counts
#: small genuine entries and still rejects rounding noise on exact zeros.
NONZERO_ATOL = 1e-12
#: Relative size of each perturbation trial's draw (every b scaled by 1 + w, |w| <= PERTURBATION): it lifts a
#: symmetry zero far above NONZERO_ATOL (1e-15 does not), keeps b > 0 and shrinks each refinement step's error 1000x.
PERTURBATION = 1e-3


def scaled_tolerance(scale: float) -> float:
    """The bound RTOL * max(1, scale): relative above unit scale, absolute below it."""
    return RTOL * max(1.0, scale)


@dataclass(frozen=True)
class Network:
    """Immutable oriented graph held as per-line columns.

    ``nodes`` is kept in ascending order.  The line columns ``sources``,
    ``targets``, ``b`` (susceptance) and ``cap`` (capacity, infinite when the
    line can never trip) keep document order, which fixes the line indexing
    and orientation: a line's id is its position plus 1, so ``ids`` is
    (1, ..., m), derived and not a field.  ``injections`` is the optional
    per-node real power vector aligned with ``nodes``.

    The topology index (the node-to-position map, endpoint positions, one CSR
    adjacency, one depth-first search over it read for connectedness and
    blocks, and the cycle labels read for islanding), the float columns as
    arrays, the :attr:`factor`, its :attr:`sensitivity`, the :attr:`decomposition` and the
    forest :attr:`oracle` are built once per instance, on first use; :meth:`flow` keeps its last state.
    None of it is part of equality, hashing or ``repr``.
    """

    nodes: tuple[int, ...]
    sources: tuple[int, ...]
    targets: tuple[int, ...]
    b: tuple[float, ...]
    cap: tuple[float, ...]
    reference: int
    injections: tuple[float, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.sources)

    @cached_property
    def ids(self) -> tuple[int, ...]:
        """Each line's id, in line order: its position plus 1."""
        return tuple(range(1, self.m + 1))

    @cached_property
    def _node_lookup(self) -> dict[int, int]:
        return dict(zip(self.nodes, range(self.n)))

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only node positions of every line's source and target, in line order.

        An end that is not a node is numbered from n on, equal ids alike
        (:func:`validate` refuses such a network).
        """
        position = dict(self._node_lookup).setdefault
        ends = np.fromiter(map(position, self.sources + self.targets, count(self.n)), int, 2 * self.m)
        ends.flags.writeable = False
        return ends[:self.m], ends[self.m:]

    @cached_property
    def _graph(self) -> scipy.sparse.csr_array:
        """The topology index: the symmetric adjacency over node positions, in CSR form.

        One entry per line end (every end a node, parallel lines each their
        own) holds the line id, its position plus 1, so none is an explicit zero.
        Float values and int32 indices let csgraph read it without a copy.
        """
        ends, others = np.concatenate(self.endpoints), np.concatenate(self.endpoints[::-1])
        order = np.argsort(ends, kind="stable")
        indptr = np.r_[0, np.bincount(ends, minlength=self.n).cumsum()].astype(np.int32)
        lines = np.tile(np.arange(1.0, self.m + 1), 2)[order]
        return scipy.sparse.csr_array((lines, others[order].astype(np.int32), indptr), shape=(self.n, self.n))

    @cached_property
    def _dfs(self) -> tuple[np.ndarray, np.ndarray]:
        """The depth-first preorder from node position 0 along the topology index, and each node's parent.

        Read-only; a node the search misses is in no preorder and, like the
        root, has parent -9999.  Needs at least one node.
        """
        order, parent = depth_first_order(self._graph, 0, directed=True, return_predecessors=True)
        order.flags.writeable = parent.flags.writeable = False
        return order, parent

    @cached_property
    def _connected(self) -> bool:
        """True when every node is reachable from every other; every line end must be a node."""
        return self.n < 2 or len(self._dfs[0]) == self.n

    @cached_property
    def _cycle_labels(self) -> list[int]:
        """Per line position, the fundamental cycles of the search tree that hold the line, as a bitset.

        The c-th line off the tree (a chord), in line order, has the one bit 1 << c;
        a tree line has the bits of the chords with exactly one end below it,
        XOR-ed into each end's accumulator and summed up the reversed preorder.
        A bridge gets 0, a self-loop's bit cancels at its node, and of parallel
        lines all but one are chords.  The network must be connected.
        """
        order, parent = self._dfs
        source, target = self.endpoints
        # The tree line into a node is the first line joining it to its parent.
        child = np.where(parent[source] == target, source, np.where(parent[target] == source, target, -1))
        nodes, first = np.unique(child, return_index=True)
        tree_line = dict(zip(nodes.tolist(), first.tolist()))
        chord = np.ones(self.m, dtype=bool)
        chord[first[nodes >= 0]] = False

        labels = [0] * self.m
        below = [0] * self.n  # per node, the XOR of the chord bits at it, then at it and below it
        at = np.flatnonzero(chord)
        for c, (j, u, v) in enumerate(zip(at.tolist(), source[at].tolist(), target[at].tolist())):
            labels[j] = bit = 1 << c
            below[u] ^= bit
            below[v] ^= bit
        parent = parent.tolist()
        for node in reversed(order[1:].tolist()):
            labels[tree_line[node]] = below[node]
            below[parent[node]] ^= below[node]
        return labels

    @cached_property
    def factor(self):
        """The sparse LU factor of this network's Laplacian under its own susceptances.

        Built by :func:`gridfactor.dcpf.build_laplacian` on first read, so
        every solve under the network's own weights shares one factor; a
        SingularError is raised again on every read, as nothing is kept.
        """
        from . import dcpf  # dcpf imports this module

        return dcpf.build_laplacian(self)

    @cached_property
    def sensitivity(self):
        """The network's one D = B C^T A C (:class:`gridfactor.factors.PtdfMatrix`), on :attr:`factor`; no cycle."""
        from . import factors  # factors imports this module

        return factors.PtdfMatrix(self)

    @cached_property
    def decomposition(self):
        """The blocks, bridges and cut vertices (:func:`gridfactor.graph_algos.block_decomposition`).

        Built on first read; a DisconnectedError is raised again on every read, as nothing is kept.
        """
        from . import graph_algos  # graph_algos imports this module

        return graph_algos.block_decomposition(self)

    @cached_property
    def oracle(self):
        """The exact line weights, and the adjugate and determinant of the reduced Laplacian.

        Built by :class:`gridfactor.forests._Oracle` on first read, which
        keeps no reference to the network; its refusal (a TooLargeError, or a
        ValidationError) is raised again on every read, as nothing is kept.
        """
        from . import forests  # forests imports this module

        return forests._Oracle(self)

    def node_index(self, node: int) -> int:
        try:
            return self._node_lookup[node]
        except KeyError:
            raise ValidationError(f"unknown node {node}") from None

    def edge_index(self, edge_id: int) -> int:
        """The position of the line whose id equals ``edge_id``: 2.0 is line 2, 1.5 is none."""
        k = hash(edge_id)  # equal numbers hash alike, and an int k in 1..m hashes to k: the one candidate
        if 0 < k <= len(self.sources) and k == edge_id:
            return k - 1
        raise UnknownEdgeError(f"unknown edge id {edge_id}")

    def edge_positions(self, edge_ids) -> np.ndarray:
        """Positions of the given edge ids, each read as :meth:`edge_index` reads it, in iteration order.

        Raises UnknownEdgeError naming every id that is not a line here.
        """
        ids, m = list(edge_ids), len(self.sources)
        positions = [k - 1 if 0 < k <= m and k == v else -1 for v, k in zip(ids, map(hash, ids))]
        if -1 in positions:
            raise UnknownEdgeError(f"unknown edge ids {sorted({v for v, k in zip(ids, positions) if k < 0})}")
        return np.array(positions, dtype=int)

    @cached_property
    def _reals(self) -> tuple[np.ndarray, np.ndarray]:
        b, cap = np.array(self.b, dtype=float), np.array(self.cap, dtype=float)
        b.flags.writeable = cap.flags.writeable = False
        return b, cap

    @cached_property
    def _injections(self) -> np.ndarray:
        p = injection_vector(self, np.array(self.injections, dtype=float))  # validated once, kept uncopied
        p.flags.writeable = False
        return p

    def susceptances(self) -> np.ndarray:
        return self._reals[0].copy()

    def capacities(self) -> np.ndarray:
        return self._reals[1].copy()

    def flow(self, p=None):
        """The validated injections p (:func:`injection_vector`) and their DC state on :attr:`factor`.

        The last pair is kept, read-only, keyed by p itself or its bytes; a refused p or a SingularError keeps nothing.
        """
        from . import dcpf  # dcpf imports this module

        p = injection_vector(self, p)
        kept = self.__dict__.get("_flow")
        if kept is None or kept[0] is not p and kept[0].tobytes() != p.tobytes():
            p = p if p is self.__dict__.get("_injections") else p.copy()  # a caller may write to its own later
            state = dcpf.solve_flow(self.factor, self, p)
            p.flags.writeable = state.theta.flags.writeable = state.flows.flags.writeable = False
            self.__dict__["_flow"] = kept = p, state
        return kept

    def reference_index(self) -> int:
        return self.node_index(self.reference)

    def disconnected_by(self, positions) -> bool:
        """True when removing the lines at these edge positions disconnects the network.

        Every node counts, so isolating a single bus is detected, and a
        network disconnected to begin with always reports True.  Otherwise
        the answer is exact and reads only the removed lines' cycle labels:
        the lines disconnect the network exactly when their labels are
        linearly dependent over GF(2), found by elimination keyed on each
        basis vector's leading bit.
        """
        if not self._connected:
            return True
        labels = self._cycle_labels
        basis: dict[int, int] = {}
        for k in set(np.asarray(positions, dtype=int).tolist()):
            label = labels[k]
            while label:
                lead = label.bit_length() - 1
                if lead not in basis:
                    basis[lead] = label
                    break
                label ^= basis[lead]
            else:  # the label reduced to 0: these lines hold a cut
                return True
        return False


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


def _parse_real(raw, what: str) -> float:
    """A real number: a JSON number or the text of one, as CSV gives; never a boolean."""
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except (ValueError, OverflowError):  # an int past float range is no real either
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
    if raw is None or isinstance(raw, str) and not raw.strip():
        return math.inf
    return _parse_real(raw, what)


_IDS = frozenset({int})
_REALS = frozenset({int, float, str})
_CAPACITIES = _REALS | {type(None)}


def _column(values: list, kinds: frozenset, parse, what: str, labels=None) -> list:
    """One document field, read whole when every value has an exact type in ``kinds``.

    Ids are kept as they are, or read by ``int`` when all are text shorter
    than 16 characters; reals by ``float``, a null capacity as infinite.
    Otherwise, or when that fails (no number, an int past float range),
    ``parse`` reads each value and refuses the first bad one as ``what``
    formatted with its label: ``labels[k]``, else its 1-based position.
    """
    present = set(map(type, values))
    try:
        if present <= kinds:
            return values if kinds is _IDS else [math.inf if v is None else float(v) for v in values]
        # Below 10**15 < 2**53, int(text) is the id _parse_id reads through float(text).
        if kinds is _IDS and present == {str} and max(map(len, values)) < 16:
            return list(map(int, values))
    except (ValueError, OverflowError):
        pass
    return [parse(value, what.format(label)) for value, label in zip(values, labels or count(1))]


def _network_from_document(doc: dict) -> Network:
    if not isinstance(doc, dict):
        raise ParseError("network document must be a JSON object")
    if "edges" not in doc:
        raise ParseError("network document is missing 'edges'")

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list")
    try:
        raw_from, raw_to, raw_b = ([item[key] for item in raw_edges] for key in ("from", "to", "b"))
        raw_cap = [dict.get(item, "cap") for item in raw_edges]  # TypeError unless every item is a dict
    except (KeyError, TypeError):
        k = next(k for k, item in enumerate(raw_edges)
                 if not isinstance(item, dict) or not {"from", "to", "b"} <= item.keys())
        raise ParseError(f"edge #{k + 1} is malformed: expected an object with 'from', 'to' and 'b'") from None
    sources = _column(raw_from, _IDS, _parse_id, "edge #{} 'from'")
    targets = _column(raw_to, _IDS, _parse_id, "edge #{} 'to'")
    b = _column(raw_b, _REALS, _parse_real, "edge #{} 'b'")
    cap = _column(raw_cap, _CAPACITIES, _parse_capacity, "edge #{} 'cap'")

    if "nodes" in doc:
        raw_nodes = doc["nodes"]
        if not isinstance(raw_nodes, list):
            raise ParseError("'nodes' must be a list of node ids")
        nodes = tuple(sorted(_column(raw_nodes, _IDS, _parse_id, "a node id in 'nodes'")))
    else:
        nodes = tuple(sorted(set(sources) | set(targets)))

    if "reference" in doc:
        reference = _column([doc["reference"]], _IDS, _parse_id, "'reference'")[0]
    else:
        reference = nodes[-1] if nodes else 0

    injections = None
    if "injections" in doc:
        raw_inj = doc["injections"]
        if not isinstance(raw_inj, dict):
            raise ParseError("'injections' must map node ids to reals")
        keys = list(raw_inj)
        ids = _column(keys, _IDS, _parse_id, "a node id in 'injections'")
        values = _column(list(raw_inj.values()), _REALS, _parse_real, "the injection at node {}", keys)
        by_node = dict(zip(ids, values))
        unknown = set(by_node) - set(nodes)
        if unknown:
            raise ParseError(f"injections name unknown nodes {sorted(unknown)}")
        injections = tuple(map(by_node.get, nodes, repeat(0.0)))

    return Network(nodes=nodes, sources=tuple(sources), targets=tuple(targets), b=tuple(b), cap=tuple(cap),
                   reference=reference, injections=injections)


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
    except (OSError, KeyError, ValueError, csv.Error) as exc:  # ValueError: bytes that are not text
        raise ParseError(f"cannot read edge table {edges_path}: {exc}") from None

    injections_path = edges_path.with_name("injections.csv")
    if injections_path.exists():
        injections = {}
        try:
            with open(injections_path, newline="") as handle:
                for row in csv.DictReader(handle):
                    injections[row["node"]] = row["p"]
        except (OSError, KeyError, ValueError, csv.Error) as exc:
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
            except ValueError as exc:  # no JSON, bytes that are not text, an int past the digit limit
                raise ParseError(f"{path} is not valid JSON: {exc}") from None

    try:
        network = _network_from_document(doc)
        if reference is not None:
            network = replace(network, reference=_parse_id(reference, "reference"))
        # An id past the int-to-text limit is refused as in a JSON file: str raises the ValueError caught here.
        named = [network.reference, *network.nodes, *network.sources, *network.targets]
        str(min(named)), str(max(named))
        report = validate(network)
    except ValueError as exc:  # a refusal naming an int past the digit limit cannot print it
        raise ParseError(f"cannot read network document: {exc}") from None
    if not report.ok:
        raise ValidationError("; ".join(f"{f.code}: {f.detail}" for f in report.findings))
    return network


def network_to_document(network: Network) -> dict:
    """Serialize a network to the canonical JSON document form.

    The edges keep line order, so each line keeps its id (its position plus 1), and loading the
    returned document yields a network equal to the input.
    """
    doc: dict = {
        "nodes": list(network.nodes),
        "reference": network.reference,
        "edges": [
            {"from": s, "to": t, "b": b, "cap": "inf" if math.isinf(c) else c}
            for s, t, b, c in zip(network.sources, network.targets, network.b, network.cap)
        ],
    }
    if network.injections is not None:
        doc["injections"] = {str(node): p for node, p in zip(network.nodes, network.injections)}
    return doc


def incidence_columns(network: Network, positions) -> np.ndarray:
    """Columns of C at the given edge positions: the unit injection across each of those lines."""
    source, target = (ends[positions] for ends in network.endpoints)
    columns = np.zeros((network.n, len(source)))
    columns[source, np.arange(len(source))] = 1.0
    columns[target, np.arange(len(source))] = -1.0
    return columns


def _named(value):
    """``value`` as a finding names it: an int too long to write in decimal, by its size."""
    try:
        str(value)
    except ValueError:  # past the int-to-text conversion limit
        return f"<an int of {value.bit_length()} bits>"
    return value


def validate(network: Network) -> ValidationReport:
    """Check every model invariant and report all violations.

    Unlike :func:`load_network` this never raises; callers inspect the
    report.  An empty report means the network satisfies all invariants.
    Each per-line check is one mask over the line columns; findings come
    per flagged line, in line order, each naming the line by its id.
    Connectivity is read from the network's one depth-first search over the
    endpoint positions.
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
        findings.append(Finding("bad_reference", f"reference {_named(network.reference)} is not a node"))

    sources, targets, m = network.sources, network.targets, network.m
    source, target = network.endpoints  # equal ids, equal positions, known or not
    low, high = np.minimum(source, target), np.maximum(source, target)
    repeated = np.ones(m, dtype=bool)  # a line whose endpoint pair an earlier line has
    repeated[np.unique(low * (network.n + 2 * m) + high, return_index=True)[1]] = False
    try:
        b, cap = network.susceptances(), network.capacities()
    except OverflowError:  # an int past float range is no real, as the loader says: NaN, for a check to name
        b, cap = (np.array([math.nan if abs(v) > sys.float_info.max else v for v in column], dtype=float)
                  for column in (network.b, network.cap))
    checks = (
        ("self_loop", low == high, "edge {id} is a self-loop at node {source}"),
        ("duplicate_edge", repeated, "edge {id} repeats endpoint pair {pair} (in either orientation)"),
        ("unknown_endpoint", source >= network.n, "edge {id} uses unknown node {source}"),
        ("unknown_endpoint", target >= network.n, "edge {id} uses unknown node {target}"),
        ("nonfinite_susceptance", ~np.isfinite(b), "edge {id} has b={b}"),
        ("nonpositive_susceptance", np.isfinite(b) & ~(b > 0), "edge {id} has b={b}"),
        ("nonreal_capacity", np.isnan(cap), "edge {id} has cap={cap}"),
        ("nonpositive_capacity", cap <= 0, "edge {id} has cap={cap}"),
    )
    for k in np.flatnonzero(np.any([mask for _, mask, _ in checks], axis=0)).tolist():
        line = dict(id=k + 1, source=_named(sources[k]), target=_named(targets[k]),
                    b=_named(network.b[k]), cap=_named(network.cap[k]),
                    pair=tuple(map(_named, sorted({sources[k], targets[k]}))))
        findings += [Finding(code, detail.format_map(line)) for code, mask, detail in checks if mask[k]]

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

    Uses ``network.injections`` when ``values`` is omitted; that column is
    converted and validated once per network, and its array is read-only.  Raises
    ValidationError when an entry is NaN or infinite, and
    UnbalancedInjectionError when the entries do not sum to zero within
    ``scaled_tolerance(max|p|)``.
    """
    if values is None:
        if network.injections is None:
            raise ValidationError("network document carries no injections")
        values = network.injections
    if values is network.injections:
        return network._injections
    p = np.asarray(values, dtype=float)
    if p.shape != (network.n,):
        raise ValidationError(f"expected {network.n} injections, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError("injections must be finite")
    if abs(float(p.sum())) > scaled_tolerance(float(np.abs(p).max(initial=0.0))):
        raise UnbalancedInjectionError(f"injections sum to {p.sum():.3e}, not zero")
    return p
