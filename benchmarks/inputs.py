"""Fixed inputs of the benchmark workloads: channel, cities, sizes and seeds.

Kept apart from the workload code so that the set-up probe, which runs in a
fresh interpreter, can build the same cities without importing the checks.
"""

from absplace import ChannelParams, ScenarioParams, noise_power_from_dbm

# The paper's link budget, as in the README quick start and the demos.
CHANNEL = ChannelParams.from_frequency(
    2.4e9, bandwidth=20e6, tx_power=0.1, noise_power=noise_power_from_dbm(-96), min_rate=5e6
)

# urban_place: 60 m buildings, a 17x17x8 loss grid and a 10x8x4 flight grid
# (288 allowed candidates after the building filter), 20 users per draw.
URBAN_CITY = ScenarioParams(
    building_height=60.0, slf_dims=(17, 17, 8), flight_dims=(10, 8, 4), num_users=20
)
URBAN_SURVEY_LINKS = 6000
URBAN_DRAWS = 13
# 13 draws x 8 targets = 104 placements a round, so that ten lie beyond the
# 90th percentile. The targets need 2 to 14 stations on the draws seen and lie
# two orders of magnitude below the smallest row capacity, so no draw is
# infeasible.
URBAN_RATES = tuple(k * 5e7 for k in range(1, 9))

# competitor_sweep: the scenario of demos/05_minrate_sweep.py (at most 24
# allowed candidates, under the exhaustive search's guard of 25).
SWEEP_CITY = ScenarioParams(
    slf_dims=(17, 17, 4), building_height=60.0, flight_dims=(4, 3, 2), num_users=5
)
SWEEP_RATES = (2e7, 1e8, 1.8e8)
SWEEP_REPETITIONS = 100
SWEEP_SURVEY_LINKS = 3000

# admm_family: the criterion-06 family of tests/test_acceptance.py.
FAMILY_SEED = 1006
FAMILY_SIZE = 100
FAMILY_TOLERANCES = dict(eps_rel=1e-6, eps_abs=1e-9, max_iter=300_000)

# Every survey (the link measurements a radio map is fitted from) is drawn
# from this fixed seed: a city is surveyed once, and --seed draws the users.
SURVEY_SEED = 2021

CITIES = {"urban_place": URBAN_CITY, "competitor_sweep": SWEEP_CITY, "admm_family": SWEEP_CITY}
