"""Failure localization: outages cannot cross block boundaries.

A two-block network (two triangles joined through bridges and a spur)
shows the block-diagonal structure of the outage factors, the simple-cycle
prediction of exact zeros, and the random-perturbation converse: inside a
block, factor entries are nonzero for almost every susceptance draw.
"""

import numpy as np

from gridfactor import (
    OutageSet,
    PerturbationSpec,
    almost_sure_nonzero_test,
    block_structure_report,
    build_laplacian,
    glodf,
    load_network,
    ptdf_matrix,
    simple_cycle_criterion,
)

net = load_network({
    "nodes": [1, 2, 3, 4, 5, 6, 7],
    "edges": [
        {"from": 1, "to": 2, "b": 1.0},   # left triangle
        {"from": 2, "to": 3, "b": 1.0},
        {"from": 1, "to": 3, "b": 1.0},
        {"from": 2, "to": 6, "b": 1.0},   # bridge to a leaf
        {"from": 3, "to": 7, "b": 1.0},   # bridge between the triangles
        {"from": 7, "to": 4, "b": 1.0},   # right triangle
        {"from": 4, "to": 5, "b": 1.0},
        {"from": 5, "to": 7, "b": 1.0},
    ],
})

decomposition = net.decomposition
print("blocks:", [sorted(b) for b in decomposition.blocks])
print("bridges:", sorted(decomposition.bridges))
print("cut vertices:", sorted(decomposition.cut_vertices))

# The simple-cycle criterion predicts which lines an outage can reach.
print("\ncan tripping line 1 move flow on ...")
for line in (2, 4, 6):
    print(f"  line {line}? {simple_cycle_criterion(net, line, 1)}")

# Trip one line in each triangle simultaneously; the factor matrix is block
# diagonal, so each surviving line reacts only to the outage in its block.
bundle = build_laplacian(net)
ptdf = ptdf_matrix(bundle, net)
outage = OutageSet(net, [1, 6])
result = glodf(bundle, ptdf, net, outage)
np.set_printoptions(precision=4, suppress=True)
print("\nGLODF (rows = surviving lines, cols = lines 1 and 6):\n", result.k_matrix)

report = block_structure_report(outage)
print("\nmax cross-block magnitude:", report.cross_block_max)
for block in report.blocks:
    print(f"block {block.block_index}: rows {block.row_ids} cols {block.col_ids} "
          f"reassembly errors ({block.reassembly_err_direct:.2e}, "
          f"{block.reassembly_err_parts:.2e})")

# The converse: within a block the entries are nonzero almost surely.
# Every random susceptance draw keeps cross-block entries at exactly zero.
stats = almost_sure_nonzero_test(
    OutageSet(net, [1]), PerturbationSpec(relative_magnitude=1e-3, trials=100, seed=1)
)
print(f"\nperturbation trials: {stats.trials}")
print("within-block nonzero counts:", stats.within_block)
print("cross-block nonzero counts (all zero):", stats.cross_block)
