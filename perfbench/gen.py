"""Deterministic network generators for the benchmark.

Every generator takes a seed and returns a network document in gridfactor's
canonical JSON form plus the structure it built (blocks, bridges, cut
vertices), which the checks use as ground truth.  Topology and values come
from ``random.Random(seed)``; capacities need base flows, which come from
the numpy reference and are rounded to six significant digits, so a fixed
seed gives the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from ref import RefNet


def _finish(rng: random.Random, n: int, edges: list[tuple[int, int, float]], capped: list[bool],
            margin: tuple[float, float]) -> tuple[dict, list[int]]:
    """Relabel nodes, shuffle line order, add injections and capacities.

    Returns the document and, for each generated edge, its line id.
    """
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    order = list(range(len(edges)))
    rng.shuffle(order)
    doc_edges = []
    for k in order:
        a, b, susceptance = edges[k]
        if rng.random() < 0.5:
            a, b = b, a
        doc_edges.append({"from": labels[a], "to": labels[b], "b": susceptance})
    line_id = [0] * len(edges)
    for position, k in enumerate(order):
        line_id[k] = position + 1

    injections = {str(node): round(rng.uniform(-1.0, 1.0), 4) for node in range(1, n)}
    injections[str(n)] = round(-sum(injections.values()), 4)
    doc = {"nodes": list(range(1, n + 1)), "reference": n, "edges": doc_edges,
           "injections": injections}

    base = abs(RefNet(doc).flows())
    floor = 0.1 * float(sorted(base)[len(base) // 2])
    for k, position in enumerate(line_id):
        if capped[k]:
            cap = max(base[position - 1], floor) * (1.0 + rng.uniform(*margin))
            doc_edges[position - 1]["cap"] = float(f"{cap:.6g}")
        else:
            doc_edges[position - 1]["cap"] = "inf"
    return doc, line_id


def grid(k: int, seed: int) -> tuple[dict, dict]:
    """k-by-k grid graph with random susceptances: one block, no bridges."""
    rng = random.Random(seed)
    edges = []
    for r in range(k):
        for c in range(k):
            node = r * k + c
            if c + 1 < k:
                edges.append((node, node + 1, round(rng.uniform(0.5, 2.0), 4)))
            if r + 1 < k:
                edges.append((node, node + k, round(rng.uniform(0.5, 2.0), 4)))
    doc, _ = _finish(rng, k * k, edges, [True] * len(edges), (0.1, 0.6))
    meta = {"n": k * k, "m": len(edges), "blocks": [sorted(range(1, len(edges) + 1))],
            "bridges": [], "cut_vertices": []}
    return doc, meta


def block_tree(seed: int) -> tuple[dict, dict]:
    """16 meshed blocks joined at cut vertices in a random tree, plus 16 radial spurs.

    Each block is a cycle of 12 to 18 buses with 6 to 9 chords, so it is
    2-connected; block i > 0 shares one bus with an earlier block.  Spurs
    are chains of 1 to 3 buses whose lines are bridges and never trip.
    Every other line gets a capacity a seeded margin above its base flow
    (lines with small base flows get a floor of a tenth of the median).
    The sizes are a seeded order of fixed lists, so every seed gives
    n = 257 and m = 392.
    """
    rng = random.Random(seed)
    sizes = [12, 13, 14, 15, 16, 17, 18, 15] * 2
    chord_counts = [6, 7, 8, 9] * 4
    spur_lengths = [1, 2, 3, 2] * 4
    for values in (sizes, chord_counts, spur_lengths):
        rng.shuffle(values)
    edges: list[tuple[int, int, float]] = []
    block_edges: list[list[int]] = []
    block_nodes: list[list[int]] = []
    n = 0
    for size, chords in zip(sizes, chord_counts):
        if not block_nodes:
            ring = list(range(size))
            n = size
        else:
            attach = rng.choice(rng.choice(block_nodes))
            ring = [attach] + list(range(n, n + size - 1))
            n += size - 1
        members = []
        pairs = set()
        for a, b in zip(ring, ring[1:] + ring[:1]):
            pairs.add(frozenset((a, b)))
            members.append(len(edges))
            edges.append((a, b, round(rng.uniform(0.5, 2.0), 4)))
        while chords:
            a, b = rng.sample(ring, 2)
            if frozenset((a, b)) in pairs:
                continue
            pairs.add(frozenset((a, b)))
            members.append(len(edges))
            edges.append((a, b, round(rng.uniform(0.5, 2.0), 4)))
            chords -= 1
        block_edges.append(members)
        block_nodes.append(ring)

    meshed = len(edges)
    spur_edges = []
    for length in spur_lengths:
        tail = rng.randrange(n)
        for _ in range(length):
            spur_edges.append(len(edges))
            edges.append((tail, n, round(rng.uniform(0.5, 2.0), 4)))
            tail = n
            n += 1

    doc, line_id = _finish(rng, n, edges, [k < meshed for k in range(len(edges))], (0.05, 0.5))

    touched: dict[int, set[int]] = {}
    groups = [[line_id[k] for k in members] for members in block_edges]
    groups += [[line_id[k]] for k in spur_edges]
    for index, group in enumerate(groups):
        for line in group:
            edge = doc["edges"][line - 1]
            touched.setdefault(edge["from"], set()).add(index)
            touched.setdefault(edge["to"], set()).add(index)
    meta = {
        "n": n,
        "m": len(edges),
        "blocks": sorted(sorted(group) for group in groups),
        "bridges": sorted(line_id[k] for k in spur_edges),
        "cut_vertices": sorted(node for node, owners in touched.items() if len(owners) > 1),
    }
    return doc, meta


def oracle_grid(seed: int) -> dict:
    """3-by-3 grid with small-integer susceptances, sized for the forest oracle."""
    rng = random.Random(seed)
    edges = []
    for r in range(3):
        for c in range(3):
            node = r * 3 + c
            if c + 1 < 3:
                edges.append((node, node + 1, float(rng.randint(1, 4))))
            if r + 1 < 3:
                edges.append((node, node + 3, float(rng.randint(1, 4))))
    doc, _ = _finish(rng, 9, edges, [False] * len(edges), (0.0, 0.0))
    return doc


def write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path
