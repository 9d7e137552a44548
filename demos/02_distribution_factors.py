"""Distribution factors: PTDF, single-line LODF, and multi-line GLODF.

Shows the three equivalent GLODF formulas agreeing to machine precision,
and why a simultaneous outage is not the superposition of its single-line
outages when the tripped lines share a block.
"""

import numpy as np

from gridfactor import (
    OutageSet,
    apply_outage,
    glodf,
    lodf_single,
    load_network,
)
from gridfactor.dcpf import surviving_flow

k4 = load_network({
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
})

# D is a function of the network alone: every factor below reads k4's own.
ptdf = k4.sensitivity

np.set_printoptions(precision=4, suppress=True)
print("PTDF matrix D = B C^T A C:\n", ptdf.matrix)
print("\ndiagonal (0 < D_ll < 1 for non-bridges):", np.diag(ptdf.matrix))

# Single-line outage factors: flow change per unit of pre-outage flow on
# the tripped line.  Note the exact zero between non-adjacent lines of a
# fully symmetric network.
column = lodf_single(k4, 1)
print("\nLODF column for tripping line 1 (=(1,2)):")
for line, value in column.items():
    print(f"  line {line}: {value:+.4f}")

# Simultaneous outage of lines 1 and 2, which share the single block.
outage = OutageSet(k4, [1, 2])
result = glodf(None, None, None, outage, method="cross_check")  # reads only the outage and the method
print("\nGLODF for tripping lines 1 and 2 together:\n", result.k_matrix)
print("stacked single-line factors:\n", result.k_stack)
print("max |GLODF - stacked|:", np.max(np.abs(result.k_matrix - result.k_stack)),
      " # the outages couple; no superposition")
print("formula disagreement:", result.residuals)

# The factors really do predict post-contingency flows: compare them with a
# re-solve on the surviving grid, factored afresh.
p = np.array([2.0, -1.0, 1.0, -2.0])
pre, _ = apply_outage(p, outage)
post = surviving_flow(k4, p, outage.outaged_idx)
predicted = pre.flows[outage.surviving_idx] + result.k_matrix @ pre.flows[outage.outaged_idx]
print("\npre-outage flows:      ", pre.flows)
print("re-solved post flows:  ", post.flows[outage.surviving_idx])
print("factor-predicted flows:", predicted)
print("max error:", np.max(np.abs(post.flows[outage.surviving_idx] - predicted)))
