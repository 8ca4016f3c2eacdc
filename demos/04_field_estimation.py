"""Recovering the loss field from link measurements.

Synthetic shadowing observations generated by the forward line integral are
inverted with the ridge estimator; with enough crossings per voxel the field
comes back almost exactly. Also demonstrates the text/CSV serialization
round trip.
"""

import numpy as np

from absplace import (
    Measurement,
    Point3,
    RegularGrid3,
    Segment3,
    SlfField,
    estimate_slf,
    line_integrals,
    read_measurements_csv,
    read_slf_text,
    write_measurements_csv,
    write_slf_text,
)

rng = np.random.default_rng(11)
grid = RegularGrid3(Point3(0, 0, 0), (5.0, 5.0, 4.0), (6, 5, 3))
truth = SlfField(grid, rng.uniform(0.0, 3.0, grid.dims))

lo, hi = grid.domain_bounds()
links = []
for _ in range(800):
    a = rng.uniform(lo + 0.1, hi - 0.1)
    b = rng.uniform(lo + 0.1, hi - 0.1)
    if np.linalg.norm(b - a) < 8.0:
        continue
    links.append(Segment3(Point3(*a), Point3(*b)))
# every link's forward integral in one batched traversal
shadowing = line_integrals(truth, [s.a.as_tuple() for s in links], [s.b.as_tuple() for s in links])
measurements = [Measurement(s.a, s.b, float(xi)) for s, xi in zip(links, shadowing)]

print(f"{len(measurements)} noiseless link measurements over a "
      f"{grid.dims[0]}x{grid.dims[1]}x{grid.dims[2]} voxel field")

estimate = estimate_slf(measurements, grid)
err = np.abs(estimate.values - truth.values)
print(f"worst absolute voxel error: {err.max():.2e} dB/m")
print(f"mean absolute voxel error:  {err.mean():.2e} dB/m")

write_slf_text(estimate, "estimated_field.txt")
write_measurements_csv(measurements[:10], "sample_measurements.csv")
back = read_slf_text("estimated_field.txt")
again = read_measurements_csv("sample_measurements.csv")
print("\nserialization round trip:",
      "field ok" if np.array_equal(back.values, estimate.values) else "field MISMATCH",
      "/ measurements ok" if again == measurements[:10] else "/ measurements MISMATCH")
print("wrote estimated_field.txt and sample_measurements.csv")
