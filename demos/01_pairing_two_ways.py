"""Pair minima with saddles two ways and watch them agree.

Walks the small signal [5, 1, 4, 0, 6] through the whole vocabulary:
the total vertex order, the sublevel filtration, the merge tree, the
persistence pairing, the flooding pairing, and the path-based oracle.
"""

from dynpers import (
    ScalarField,
    build_merge_tree,
    dynamics_oracle,
    exhaustive_dynamics,
    filtration_order,
    local_minima,
    pair_1d_algorithm1,
    pair_by_dynamics,
    pair_by_persistence,
)

signal = ScalarField((5,), [5, 1, 4, 0, 6])
print("signal values:", signal.values.tolist())

# Vertices enter the sublevel sets in ascending (value, index) order.
order = filtration_order(signal)
print("filtration order:", order)
print("local minima (by total order):", local_minima(signal))

# The merge tree records every time two sublevel components meet.
tree = build_merge_tree(signal)
for ev in tree.events:
    print(
        f"merge at vertex {ev.saddle} (level {ev.level}): component of minimum "
        f"{ev.dying_min} dies into component of minimum {ev.survivor_min}"
    )

# Route one: union-find persistence with the elder rule.
print("\npairs by persistence:")
for p in pair_by_persistence(signal):
    print("   ", p)

# Route two: flooding.  Same filtration, separate code, same answer.
print("pairs by dynamics:")
for p in pair_by_dynamics(signal):
    print("   ", p)

# Route three: the bottleneck path oracle, one minimum at a time.
for m in local_minima(signal):
    value, witness = dynamics_oracle(signal, m)
    print(f"oracle: dyn({m}) = {value}, witness saddle = {witness}")

# The signal is tiny, so brute force over every simple walk is feasible too.
print("exhaustive dyn(1) =", exhaustive_dynamics(signal, 1))

# And the dedicated 1D procedure, fed the interior maximum at vertex 2.
print("1D component-walk pairing of maximum 2 ->", pair_1d_algorithm1(signal, 2))
