"""The spanning-forest oracle behind every identity check.

Weighted spanning trees and two-tree forests give closed-form expressions
for the dense linear-algebra quantities: determinants, inverse entries,
and all the distribution factors.  The oracle reads every such sum from
one exact adjugate and lists no forest; on this 4-bus graph the spanning
trees are few enough to list by hand first.
"""

import itertools
import math

from gridfactor import (
    a_entry_via_forests,
    build_laplacian,
    effective_reactance,
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
ends = dict(zip(net.ids, zip(net.sources, net.targets)))
weight = dict(zip(net.ids, net.b))


def acyclic(lines):
    """True when the lines close no cycle: each joins two buses not yet joined."""
    joined = {node: {node} for node in net.nodes}
    for line in lines:
        a, b = (joined[node] for node in ends[line])
        if a is b:
            return False
        a |= b
        for node in b:
            joined[node] = a
    return True


# A spanning tree of 4 buses is an acyclic choice of 3 lines.
trees = [lines for lines in itertools.combinations(net.ids, net.n - 1) if acyclic(lines)]
print(f"{len(trees)} spanning trees:", trees)
print("total weight:", sum(math.prod(weight[line] for line in tree) for tree in trees))

# det(reduced Laplacian) equals the total tree weight; all first minors
# match signed two-tree forest sums.
report = matrix_tree_check(net)
print(f"\nmatrix-tree check: det={report.determinant:.6f} "
      f"forest weight={report.forest_weight:.6f} passed={report.passed}")

# Forests separating 1 from the reference bus 4 weigh the tree weight times A[1,1]:
print("\nforests isolating 1 from 4 weigh", report.forest_weight * a_entry_via_forests(net, 1, 1))

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
