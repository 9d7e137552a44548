"""Build a small grid, validate it, and solve the DC power flow.

The running example is the 3-bus triangle: one generator (bus 1), one load
(bus 2), and a reference bus (bus 3).  Every quantity printed here can be
checked by hand.
"""

import numpy as np

from gridfactor import (
    build_laplacian,
    injection_vector,
    load_network,
    network_to_document,
    solve_flow,
    validate,
)
from gridfactor.net_model import incidence_columns, scaled_tolerance

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
C = incidence_columns(triangle, np.arange(triangle.m))
print("\nincidence matrix:\n", C)

# The Laplacian is C B C^T.  The padded reduced-Laplacian inverse maps
# balanced injections to angles with the reference angle pinned at zero.
B = np.diag(triangle.susceptances())
bundle = build_laplacian(triangle)
print("\nLaplacian (C B C^T):\n", C @ B @ C.T)
print("padded inverse A:\n", bundle.A)

p = injection_vector(triangle)
state = solve_flow(bundle, triangle, p)
print("\ninjections:", p)
print("angles:    ", state.theta)
print("flows:     ", state.flows, "(expected [2/3, -1/3, 1/3])")
# The residual max|C f - p| is rounding noise, so judge it against the tolerance rather than print its digits.
residual = np.max(np.abs(C @ state.flows - p))
print("flows conserve the injections:", residual <= scaled_tolerance(float(np.max(np.abs(p)))))

# The pseudo-inverse of the Laplacian gives the same branch flows; its
# angles sum to zero, so they differ from the pinned ones by minus their mean.
floating = np.linalg.pinv(C @ B @ C.T) @ p
print("\npseudo-inverse flows match:", np.allclose(state.flows, B @ C.T @ floating, atol=1e-12))
shift = floating - state.theta
print("angle shift is one constant:", np.allclose(shift, shift[0], atol=1e-12))
print("it is minus the mean pinned angle:", np.isclose(shift[0], -state.theta.mean(), atol=1e-12))

# Networks serialize back to the canonical document form losslessly.
print("\nround-trip identical:", load_network(network_to_document(triangle)) == triangle)
