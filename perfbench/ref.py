"""Independent correctness reference, written in plain numpy.

Nothing here imports gridfactor.  Networks come in as the same JSON
documents the program reads, and every quantity is recomputed from scratch
with dense solves of the reduced Laplacian of the grid that is actually
alive, so a result of the program is checked against a different route to
the same number.
"""

from __future__ import annotations

import numpy as np

#: Acceptance tolerance, relative to the larger of 1 and the reference's scale.
REL_TOL = 1e-9


class RefNet:
    """Arrays of one network document: endpoints, susceptances, capacities."""

    def __init__(self, doc: dict):
        nodes = sorted(int(v) for v in doc["nodes"])
        position = {node: k for k, node in enumerate(nodes)}
        self.nodes = nodes
        self.n = len(nodes)
        self.m = len(doc["edges"])
        self.src = np.array([position[int(e["from"])] for e in doc["edges"]])
        self.dst = np.array([position[int(e["to"])] for e in doc["edges"]])
        self.b = np.array([float(e["b"]) for e in doc["edges"]])
        self.cap = np.array([
            np.inf if e.get("cap", "inf") == "inf" else float(e["cap"]) for e in doc["edges"]
        ])
        self.ref = position[int(doc.get("reference", nodes[-1]))]
        raw = doc.get("injections", {})
        self.p = np.array([float(raw.get(str(node), 0.0)) for node in nodes])

    def alive(self, tripped=()) -> np.ndarray:
        """Mask of surviving lines; ``tripped`` holds 1-based line ids."""
        mask = np.ones(self.m, dtype=bool)
        mask[np.asarray(list(tripped), dtype=int) - 1] = False
        return mask

    def connected(self, alive: np.ndarray) -> bool:
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parts = self.n
        for a, b in zip(self.src[alive], self.dst[alive]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[ra] = rb
                parts -= 1
        return parts == 1

    def _laplacian(self, alive: np.ndarray) -> np.ndarray:
        L = np.zeros((self.n, self.n))
        s, d, b = self.src[alive], self.dst[alive], self.b[alive]
        np.add.at(L, (s, s), b)
        np.add.at(L, (d, d), b)
        np.add.at(L, (s, d), -b)
        np.add.at(L, (d, s), -b)
        return L

    def reduced_inverse(self, alive: np.ndarray) -> np.ndarray:
        """n-by-n inverse of the reduced Laplacian, zero row/column at the reference."""
        L = self._laplacian(alive)
        keep = np.arange(self.n) != self.ref
        A = np.zeros((self.n, self.n))
        A[np.ix_(keep, keep)] = np.linalg.inv(L[np.ix_(keep, keep)])
        return A

    def flows(self, alive: np.ndarray | None = None) -> np.ndarray:
        """DC line flows under the document's injections, zero on tripped lines."""
        alive = self.alive() if alive is None else alive
        L = self._laplacian(alive)
        keep = np.arange(self.n) != self.ref
        theta = np.zeros(self.n)
        theta[keep] = np.linalg.solve(L[np.ix_(keep, keep)], self.p[keep])
        f = self.b * (theta[self.src] - theta[self.dst])
        f[~alive] = 0.0
        return f

    def ptdf(self) -> np.ndarray:
        """m-by-m sensitivity: column k is the flow under a unit shift across line k."""
        A = self.reduced_inverse(self.alive())
        angle_gap = A[self.src] - A[self.dst]  # m x n
        return self.b[:, None] * (angle_gap[:, self.src] - angle_gap[:, self.dst])


def cascade(net: RefNet, initial) -> dict:
    """Stage-wise cascade by full re-solves, with gridfactor's documented rules.

    A line trips when its flow magnitude strictly exceeds its capacity;
    islanding ends the cascade.  ``islanded_at_stage`` follows the
    convention the program's test-suite pins: 0 when the initial outage
    islands, otherwise the number of stages recorded.
    """
    alive = net.alive(initial)
    stages = [sorted(int(v) for v in initial)]
    if not net.connected(alive):
        return {"stages": stages, "status": "islanded", "islanded_at_stage": 0, "flows": [None]}
    f = net.flows(alive)
    flows = [f]
    while True:
        over = alive & (np.abs(f) > net.cap)
        if not over.any():
            status = "no_initial_overload" if len(stages) == 1 else "converged"
            return {"stages": stages, "status": status, "islanded_at_stage": None, "flows": flows}
        alive = alive & ~over
        stages.append([int(v) + 1 for v in np.nonzero(over)[0]])
        if not net.connected(alive):
            flows.append(None)
            return {"stages": stages, "status": "islanded",
                    "islanded_at_stage": len(stages), "flows": flows}
        f = net.flows(alive)
        flows.append(f)


def tightest_margin(net: RefNet, result: dict) -> float:
    """Smallest relative gap between a surviving line's |flow| and its capacity.

    Used to keep capacity ties, where rounding alone could decide a trip,
    out of the generated cascade inputs.
    """
    margin = np.inf
    tripped: set[int] = set()
    for stage, f in zip(result["stages"], result["flows"]):
        tripped |= set(stage)
        if f is None:
            continue
        live = net.alive(tripped) & np.isfinite(net.cap)
        gaps = np.abs(np.abs(f[live]) - net.cap[live]) / net.cap[live]
        if gaps.size:
            margin = min(margin, float(gaps.min()))
    return margin


def close(actual, expected) -> bool:
    """Entrywise agreement within REL_TOL of the reference's scale."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    if expected.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(expected))))
    return bool(np.max(np.abs(actual - expected)) <= REL_TOL * scale)
