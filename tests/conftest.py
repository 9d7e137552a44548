"""Shared fixtures: canonical small networks, random corpora, test oracles."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, compress

import numpy as np
import pytest

from gridfactor import LaplacianBundle, load_network
from gridfactor.net_model import incidence_columns, scaled_tolerance


def build(doc, **kwargs):
    return load_network(doc, **kwargs)


def is_cut_set(network, lines):
    """True when removing the given lines disconnects the network; UnknownEdgeError names every unknown id."""
    return network.disconnected_by(network.edge_positions(set(lines)))


def with_susceptances(network, values):
    """Copy of the network with its line susceptances replaced."""
    return replace(network, b=tuple(np.asarray(values, dtype=float).tolist()))


def with_capacities(network, values):
    """Copy of the network with its line capacities replaced."""
    return replace(network, cap=tuple(np.asarray(values, dtype=float).tolist()))


def kept_lines(network, edge_ids):
    """Mask, by position, of the lines left when the given ones are removed."""
    keep = np.ones(network.m, dtype=bool)
    keep[network.edge_positions(set(edge_ids))] = False
    return keep


def without_edges(network, edge_ids):
    """Copy of the network without the given lines: line k of the copy is the k-th line of ``kept_lines``."""
    keep = kept_lines(network, edge_ids)
    return replace(network, **{name: tuple(compress(getattr(network, name), keep))
                               for name in ("sources", "targets", "b", "cap")})


@pytest.fixture
def count_factors(monkeypatch):
    """A list whose length is the number of LaplacianBundle factors built since the fixture ran."""
    built = []
    init = LaplacianBundle.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaplacianBundle, "__init__", counting)
    return built


def triangle_doc():
    return {
        "nodes": [1, 2, 3],
        "reference": 3,
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
            {"from": 1, "to": 3, "b": 1.0},
        ],
        "injections": {"1": 1.0, "2": -1.0, "3": 0.0},
    }


@pytest.fixture
def triangle():
    return build(triangle_doc())


@pytest.fixture
def path3():
    return build({
        "nodes": [1, 2, 3],
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
        ],
        "injections": {"1": 1.0, "2": 0.0, "3": -1.0},
    })


def fig2_doc():
    # Two triangles joined by two bridges through a degree-one spur:
    # cut vertices {2, 3, 7}, bridges (2,6) and (3,7).
    return {
        "nodes": [1, 2, 3, 4, 5, 6, 7],
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
            {"from": 1, "to": 3, "b": 1.0},
            {"from": 2, "to": 6, "b": 1.0},
            {"from": 3, "to": 7, "b": 1.0},
            {"from": 7, "to": 4, "b": 1.0},
            {"from": 4, "to": 5, "b": 1.0},
            {"from": 5, "to": 7, "b": 1.0},
        ],
    }


@pytest.fixture
def fig2():
    return build(fig2_doc())


def k4_doc():
    return {
        "nodes": [1, 2, 3, 4],
        "reference": 4,
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 1, "to": 3, "b": 1.0},
            {"from": 1, "to": 4, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
            {"from": 2, "to": 4, "b": 1.0},
            {"from": 3, "to": 4, "b": 1.0},
        ],
    }


@pytest.fixture
def k4():
    return build(k4_doc())


@pytest.fixture
def four_cycle():
    return build({
        "nodes": [1, 2, 3, 4],
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
            {"from": 3, "to": 4, "b": 1.0},
            {"from": 4, "to": 1, "b": 1.0},
        ],
    })


def stiff_leaf_doc():
    """Connected, valid, yet too stiff to factor: a b=1e6 triangle with a b=1e-6 leaf line."""
    return {
        "nodes": [1, 2, 3, 4],
        "edges": [
            {"from": 1, "to": 2, "b": 1e6},
            {"from": 2, "to": 3, "b": 1e6},
            {"from": 1, "to": 3, "b": 1e6},
            {"from": 3, "to": 4, "b": 1e-6},
        ],
        "injections": {"1": 1.0, "2": 0.0, "3": 0.0, "4": -1.0},
    }


def stiff_triangle_doc():
    """A triangle with one b=3e4 line (id 1): not a bridge, yet 1 - D_11 rounds below RTOL."""
    return {
        "nodes": [1, 2, 3],
        "edges": [
            {"from": 1, "to": 2, "b": 3e4},
            {"from": 2, "to": 3, "b": 3e-5},
            {"from": 1, "to": 3, "b": 3e-5},
        ],
        "injections": {"1": 1.0, "2": 0.0, "3": -1.0},
    }


def parallel_lines_doc(reverse=False):
    """A triangle whose line 1-2 is repeated, the repeat reversed when ``reverse``."""
    return {
        "nodes": [1, 2, 3],
        "edges": [
            {"from": 1, "to": 2, "b": 1.0},
            {"from": 2, "to": 3, "b": 1.0},
            {"from": 1, "to": 3, "b": 1.0},
            {"from": 2, "to": 1, "b": 2.0} if reverse else {"from": 1, "to": 2, "b": 2.0},
        ],
    }


def huge_weight_doc():
    """Four buses and five lines of b=1e200: the spanning-tree weight, 8e600, is past float range."""
    pairs = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    return {"nodes": [1, 2, 3, 4], "edges": [{"from": a, "to": b, "b": 1e200} for a, b in pairs]}


def overflowing_minor_doc():
    """A 54-bus path, 52 lines of b=1e6, then one of b=1e-5: its tree weight, 1e307, is a float, a first minor not."""
    weights = [1e6] * 52 + [1e-5]
    return {"nodes": list(range(1, 55)), "edges": [{"from": k, "to": k + 1, "b": b} for k, b in enumerate(weights, 1)]}


def subnormal_triangle_doc():
    """A triangle whose lines all weigh b=1e-310, a subnormal the loader takes: a pivot of its factor is -inf."""
    return {"nodes": [1, 2, 3], "edges": [{"from": a, "to": b, "b": 1e-310} for a, b in [(1, 2), (2, 3), (1, 3)]]}


def grid_doc(k, b=1.0):
    """k-by-k grid graph with uniform susceptance b; buses numbered row by row."""
    node = lambda r, c: r * k + c + 1  # noqa: E731
    edges = [{"from": node(r, c), "to": node(r, c + 1), "b": b}
             for r in range(k) for c in range(k - 1)]
    edges += [{"from": node(r, c), "to": node(r + 1, c), "b": b}
              for r in range(k - 1) for c in range(k)]
    return {"nodes": list(range(1, k * k + 1)), "edges": edges}


def random_network(rng, max_nodes=8, b_range=(0.5, 2.0), max_extra=5, min_extra=0):
    """Random connected simple network: a spanning tree plus extra chords."""
    n = int(rng.integers(2, max_nodes + 1))
    nodes = list(range(1, n + 1))
    order = [int(v) for v in rng.permutation(nodes)]
    pairs = []
    seen = set()
    for k in range(1, n):
        a = order[k]
        b = order[int(rng.integers(0, k))]
        pairs.append((a, b))
        seen.add(frozenset((a, b)))

    candidates = [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1:]
        if frozenset((a, b)) not in seen
    ]
    cap = min(max_extra, len(candidates))
    lo = min(min_extra, cap)
    extra = int(rng.integers(lo, cap + 1)) if cap else 0
    if extra:
        chosen = rng.choice(len(candidates), size=extra, replace=False)
        for idx in sorted(int(v) for v in chosen):
            a, b = candidates[idx]
            if rng.integers(0, 2):
                a, b = b, a
            pairs.append((a, b))

    lo_b, hi_b = b_range
    return build({
        "nodes": nodes,
        "edges": [
            {"from": a, "to": b, "b": float(rng.uniform(lo_b, hi_b))}
            for a, b in pairs
        ],
    })


def random_balanced_injection(rng, n):
    p = rng.normal(size=n)
    return p - p.mean()


def sample_non_cut_outage(rng, network, max_size=3, attempts=300):
    """A random non-cut line subset, or None when none was found."""
    ids = list(network.ids)
    upper = min(max_size, len(ids) - 1)
    if upper < 1:
        return None
    for _ in range(attempts):
        size = int(rng.integers(1, upper + 1))
        chosen = sorted(int(v) for v in rng.choice(ids, size=size, replace=False))
        if not is_cut_set(network, chosen):
            return chosen
    return None


def incidence_matrix(network):
    """Signed node-edge incidence matrix C (+1 at each source, -1 at each target)."""
    return incidence_columns(network, np.arange(network.m))


def detect_islanding(outage):
    """True when I - D_FF is numerically singular (smallest singular value below ``scaled_tolerance`` of the
    largest): Part I's cut criterion in floating point.  The package refuses cuts by the exact GF(2) test,
    ``OutageSet.disconnects``; this one also calls a non-cut outage of a stiff triangle singular."""
    cols = outage.outaged_idx
    system = np.eye(outage.size) - outage.network.sensitivity.columns(cols)[cols]
    singular_values = np.linalg.svd(system, compute_uv=False)
    return float(singular_values[-1]) < scaled_tolerance(float(singular_values[0]))


# ---------------------------------------------------------------------------
# Independent test oracles (deliberately naive; no gridfactor internals).
# ---------------------------------------------------------------------------


def exact_angles(network, p, weights=None):
    """Bus angles of the injection ``p``, by elimination over the rationals, and det of the reduced L.

    Reads ``p`` (by node position) and ``weights`` (by line position;
    default the susceptances, a zero weight being a line that is out) as
    the exact values of their floats.  Returns the angles, one Fraction per
    node position and zero at the reference, and the determinant of the
    reduced Laplacian, a Fraction.
    """
    b = [Fraction(float(v)) for v in (network.b if weights is None else weights)]
    ends = list(zip(*(e.tolist() for e in network.endpoints)))
    keep = [k for k in range(network.n) if k != network.reference_index()]
    row = {node: r for r, node in enumerate(keep)}
    size = len(keep)
    system = [[Fraction(0)] * size + [Fraction(float(p[node]))] for node in keep]
    for weight, (s, t) in zip(b, ends):
        for u, v in ((s, t), (t, s)):
            if u in row:
                system[row[u]][row[u]] += weight
                if v in row:
                    system[row[u]][row[v]] -= weight
    determinant = Fraction(1)
    for c in range(size):
        pivot = next(r for r in range(c, size) if system[r][c])
        if pivot != c:
            system[c], system[pivot] = system[pivot], system[c]
            determinant = -determinant
        determinant *= system[c][c]
        for r in range(c + 1, size):
            if system[r][c]:
                ratio = system[r][c] / system[c][c]
                system[r] = [a - ratio * x for a, x in zip(system[r], system[c])]
    theta = [Fraction(0)] * network.n
    for c in reversed(range(size)):
        tail = sum(system[c][j] * theta[keep[j]] for j in range(c + 1, size))
        theta[keep[c]] = (system[c][size] - tail) / system[c][c]
    return theta, determinant


def exact_flows(network, p, weights=None):
    """Branch flows of the injection ``p``, one Fraction per line, and det of the reduced L, as
    :func:`exact_angles` reads them."""
    theta, determinant = exact_angles(network, p, weights)
    b = [Fraction(float(v)) for v in (network.b if weights is None else weights)]
    ends = zip(*(e.tolist() for e in network.endpoints))
    return [w * (theta[s] - theta[t]) for w, (s, t) in zip(b, ends)], determinant


def scan(network, size):
    """Every acyclic choice of ``size`` lines, found by scanning all such subsets.

    Maps each choice (ascending line ids) to its node sides: True where a
    node position is outside the tree holding position 0.  The spanning trees
    are ``size = n - 1``, every side False; the two-tree spanning forests are
    ``size = n - 2``.  A self-loop closes a cycle, so no choice holds one.
    """
    index = {node: k for k, node in enumerate(network.nodes)}
    found = {}
    for combo in combinations(zip(network.ids, network.sources, network.targets), size):
        parent = list(range(network.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for _, source, target in combo:
            ru, rv = find(index[source]), find(index[target])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            root = find(0)
            found[tuple(sorted(line for line, _, _ in combo))] = [find(k) != root for k in range(network.n)]
    return found


def exact_weight(network, members):
    """The sum over the members of the product of their lines' exact susceptances."""
    weights = {eid: Fraction(b) for eid, b in zip(network.ids, network.b)}
    return sum((math.prod(weights[eid] for eid in member) for member in members), Fraction(0))


def connected_after_removal_oracle(network, outage):
    """BFS connectivity of the surviving graph over all nodes."""
    outage = set(outage)
    adj = {node: [] for node in network.nodes}
    for eid, source, target in zip(network.ids, network.sources, network.targets):
        if eid in outage:
            continue
        adj[source].append(target)
        adj[target].append(source)
    start = network.nodes[0]
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == network.n


def simple_cycle_oracle(network, line, other):
    """Exhaustive search: does some simple cycle contain both lines?

    Cycles through line (i, j) correspond to simple paths j -> i avoiding
    the line itself; the oracle enumerates those paths and asks whether any
    uses the other line.
    """
    k = network.edge_index(line)
    adj = {node: [] for node in network.nodes}
    for eid, source, target in zip(network.ids, network.sources, network.targets):
        if eid == line:
            continue
        adj[source].append((target, eid))
        adj[target].append((source, eid))

    start, goal = network.targets[k], network.sources[k]
    found = False

    def walk(node, visited, used_other):
        nonlocal found
        if found:
            return
        if node == goal:
            found = found or used_other
            return
        for nxt, eid in adj[node]:
            if nxt in visited:
                continue
            walk(nxt, visited | {nxt}, used_other or eid == other)

    walk(start, {start}, False)
    return found


def reference_separates_oracle(network, i, j):
    """True when every path i -> j passes the reference node."""
    if i == network.reference or j == network.reference:
        return True
    if i == j:
        return False
    adj = {node: [] for node in network.nodes}
    for source, target in zip(network.sources, network.targets):
        adj[source].append(target)
        adj[target].append(source)
    seen = {i, network.reference}
    queue = [i]
    while queue:
        node = queue.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return j not in seen
