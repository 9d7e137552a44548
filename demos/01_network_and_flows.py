"""Build a small grid, validate it, and solve the DC power flow.

The running example is the 3-bus triangle: one generator (bus 1), one load
(bus 2), and a reference bus (bus 3).  Every quantity printed here can be
checked by hand.
"""

import numpy as np

from gridfactor import (
    build_laplacian,
    incidence_matrix,
    injection_vector,
    load_network,
    network_to_document,
    pseudo_inverse_flow,
    solve_flow,
    validate,
)

triangle = load_network({
    "nodes": [1, 2, 3],
    "reference": 3,
    "edges": [
        {"from": 1, "to": 2, "b": 1.0},
        {"from": 2, "to": 3, "b": 1.0},
        {"from": 1, "to": 3, "b": 1.0},
    ],
    "injections": {"1": 1.0, "2": -1.0, "3": 0.0},
})

print("nodes:", triangle.nodes)
print("lines:", list(zip(triangle.ids, triangle.sources, triangle.targets, triangle.b)))
print("validation findings:", validate(triangle).findings or "none")

# Orientation lives in the incidence matrix: +1 at each source, -1 at each
# target, so every column sums to zero.
C = incidence_matrix(triangle)
print("\nincidence matrix:\n", C)

# The padded reduced-Laplacian inverse maps balanced injections to angles
# with the reference angle pinned at zero.
bundle = build_laplacian(triangle)
print("\nLaplacian:\n", bundle.L)
print("padded inverse A:\n", bundle.A)

p = injection_vector(triangle)
state = solve_flow(bundle, triangle, p)
print("\ninjections:", p)
print("angles:    ", state.theta)
print("flows:     ", state.flows, "(expected [2/3, -1/3, 1/3])")
print("conservation residual:", np.max(np.abs(C @ state.flows - p)))

# The pseudo-inverse route gives the same branch flows; only the angle
# offset differs.
floating = pseudo_inverse_flow(bundle, triangle, p)
print("\npseudo-inverse flows match:", np.allclose(state.flows, floating.flows, atol=1e-12))
print("angle shift (constant):", floating.theta - state.theta)

# Networks serialize back to the canonical document form losslessly.
print("\nround-trip identical:", load_network(network_to_document(triangle)) == triangle)
