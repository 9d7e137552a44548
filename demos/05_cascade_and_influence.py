"""Cascading failures: adversarial capacities, stage traces, influence graph.

For any pair of lines with a nonzero outage factor there is an injection
and capacity assignment under which tripping the first line overloads the
second.  The construction below produces such an instance on the triangle
and feeds it to the stage-wise simulator, which trips the target and then
detects islanding.
"""

from dataclasses import replace

import numpy as np

from gridfactor import (
    adversarial_capacity,
    build_laplacian,
    influence_graph,
    load_network,
    ptdf_matrix,
    run_cascade,
    solve_flow,
)

triangle = load_network({
    "nodes": [1, 2, 3],
    "reference": 3,
    "edges": [
        {"from": 1, "to": 2, "b": 1.0},
        {"from": 2, "to": 3, "b": 1.0},
        {"from": 1, "to": 3, "b": 1.0},
    ],
})

bundle = build_laplacian(triangle)

# Capacities tight on line 3 and slack elsewhere, injections chosen so the
# system is safe until line 1 trips.
instance = adversarial_capacity(triangle, tripped=1, target=3)
print("injections:", instance.injections)
print("capacities:", instance.capacities)

pre = solve_flow(bundle, triangle, instance.injections)
print("pre-outage flows:", pre.flows, "- all within capacity:",
      bool(np.all(np.abs(pre.flows) <= instance.capacities)))

armed = replace(triangle, cap=tuple(instance.capacities.tolist()))
trace = run_cascade(armed, instance.injections, initial_outage=[1])
print(f"\ncascade status: {trace.status} (islanding detected at stage "
      f"{trace.islanded_at_stage})")
for k, stage in enumerate(trace.stages):
    flows = None if stage.flow is None else np.round(stage.flow.flows, 4)
    print(f"  stage {k}: tripped {sorted(stage.tripped)} flows {flows}")

# The influence graph summarizes which outages can affect which lines.
ptdf = ptdf_matrix(bundle, triangle)
pairs = influence_graph(ptdf, threshold=0.005)
print("\ninfluence pairs at threshold 0.005:", pairs)

print("\nDOT export:")
print("graph influence {")
for a, b in pairs:
    print(f'  "{a}" -- "{b}";')
print("}")
