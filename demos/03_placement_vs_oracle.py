"""Minimum-count station placement: the LP solver vs. exhaustive search.

On a desk-scale instance the solver's station count can be compared against
the true combinatorial optimum, and against the lower bound the solver
certifies itself. The trace shows the LP solve closing its shortfall and
its gap to the bound.
"""

import numpy as np

from absplace import (
    ChannelParams,
    ScenarioParams,
    build_capacity_matrix,
    build_urban,
    exhaustive_min_abs,
    noise_power_from_dbm,
    sample_users,
    solve_placement,
)

channel = ChannelParams.from_frequency(
    2.4e9, bandwidth=20e6, tx_power=0.1, noise_power=noise_power_from_dbm(-96), min_rate=1.5e8
)
params = ScenarioParams(
    slf_dims=(17, 17, 4), building_height=80.0, flight_dims=(4, 3, 2), num_users=6
)
scenario = build_urban(params, channel)
users = sample_users(scenario, rng=7)
cm = build_capacity_matrix(channel, users, scenario.flight_points, scenario.slf)

result = solve_placement(cm, channel.min_rate)
print(f"target rate {channel.min_rate / 1e6:.0f} Mb/s for {len(users)} users, "
      f"{cm.num_candidates} candidate positions")
print(f"\nsolver placed {result.n_abs} stations "
      f"({result.iterations} PDHG iterations on the clipped activation LP):")
for g, p in zip(result.selected, result.positions):
    print(f"  g={g:3d} at ({p.x:6.1f}, {p.y:6.1f}, {p.z:6.1f})")
print("per-user rates [Mb/s]:", np.round(result.user_rates / 1e6, 2))

print(f"certified lower bound: {result.lower_bound:.3f} stations "
      f"({'proven optimal' if result.proven_optimal else 'not proven optimal'})")

n_star, witness = exhaustive_min_abs(cm, channel.min_rate)
print(f"\nexhaustive optimum: {n_star} stations, e.g. columns {witness}")
print(f"gap: {result.n_abs - n_star}")

tail = result.objective_trace[-3:]
print("\ntrace tail (iteration, shortfall, gap, objective in stations):")
for row in tail:
    print(f"  {int(row[0]):5d}  {row[1]:10.3e}  {row[2]:10.3e}  {row[3]:10.4f}")
