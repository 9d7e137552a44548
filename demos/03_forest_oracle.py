"""The spanning-forest oracle behind every identity check.

Weighted spanning trees and two-tree forests give closed-form expressions
for the dense linear-algebra quantities: determinants, inverse entries,
and all the distribution factors.  On small graphs the package enumerates
the forests outright and compares.
"""

from gridfactor import (
    a_entry_via_forests,
    build_laplacian,
    effective_reactance,
    enumerate_spanning_trees,
    enumerate_two_tree_forests,
    load_network,
    lodf_via_forests,
    matrix_tree_check,
    ptdf_via_forests,
)

net = load_network({
    "nodes": [1, 2, 3, 4],
    "edges": [
        {"from": 1, "to": 2, "b": 2.0},
        {"from": 2, "to": 3, "b": 1.0},
        {"from": 3, "to": 4, "b": 0.5},
        {"from": 4, "to": 1, "b": 1.0},
        {"from": 1, "to": 3, "b": 1.5},
    ],
})

trees = enumerate_spanning_trees(net)
print(f"{len(trees)} spanning trees, total weight {trees.weight_sum}")
print("first few members:", trees.members[:4])
# Weight sums are exact: each line weighs the exact value of its float susceptance.
print("exact weight:", trees.weight_sum_exact)

# det(reduced Laplacian) equals the total tree weight; all first minors
# match signed two-tree forest sums.
report = matrix_tree_check(net)
print(f"\nmatrix-tree check: det={report.determinant:.6f} "
      f"forest weight={report.forest_weight:.6f} passed={report.passed}")

# Forests separating {1} from {4} with the other nodes attached anywhere:
family = enumerate_two_tree_forests(net, {1}, {4})
print(f"\nforests isolating 1 from 4: {len(family)}, weight {family.weight_sum}")

# Entries of the padded inverse as forest-weight ratios:
bundle = build_laplacian(net)
for i, j in [(1, 1), (1, 2), (2, 3)]:
    dense = bundle.A[net.node_index(i), net.node_index(j)]
    oracle = a_entry_via_forests(net, i, j)
    print(f"A[{i},{j}] dense={dense:.12f} forests={oracle:.12f}")

# Injection-shift and outage factors via the same machinery:
print("\nshift factor of line 1 to a 2->4 injection swing:",
      ptdf_via_forests(net, 1, 2, 4))
print("outage factor on line 2 when line 5 trips:",
      lodf_via_forests(net, 2, 5))

# Effective reactance: the network shortens every line that sits on a cycle.
for line in net.ids:
    rep = effective_reactance(net, line)
    print(f"line {line}: X={rep.line_reactance:.4f} R={rep.effective:.4f} "
          f"reduction ratio={rep.reduction_ratio:.4f}")
