"""Shadowing along a moving link: voxel traversal vs. ellipsoid weighted sum.

A receiver slides horizontally behind a single absorbing wall. The traversal
integral changes smoothly with the geometry, while the conventional
ellipsoid sum jumps whenever grid points enter or leave the ellipsoid and
can report zero attenuation through a solid wall.
"""

import numpy as np

from absplace import (
    Point3,
    RegularGrid3,
    Segment3,
    SlfField,
    line_integrals,
    shadowing_ellipsoid_sum,
)

# a 3 dB/m wall: one slab of voxels in an otherwise empty 40 x 40 x 20 m box
grid = RegularGrid3(Point3(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (20, 20, 10))
values = np.zeros(grid.dims)
values[9, :, :] = 3.0  # wall occupies x in [18, 20]
field = SlfField(grid, values)

tx = Point3(5.0, 20.0, 2.0)
print(f"transmitter at {tx.as_tuple()}, wall at x = 18..20 m, 3 dB/m")
print(f"{'rx_y':>6} {'traversal':>10} {'ell w=0.125':>12} {'ell w=4':>10}")
receivers = [Point3(35.0, float(y), 2.0) for y in np.linspace(12.0, 28.0, 17)]
# all links in one batched traversal
traversal = line_integrals(field, [tx.as_tuple()] * len(receivers), [rx.as_tuple() for rx in receivers])
for rx, xi_t in zip(receivers, traversal):
    seg = Segment3(tx, rx)
    xi_thin = shadowing_ellipsoid_sum(field, seg, width=0.125)
    xi_wide = shadowing_ellipsoid_sum(field, seg, width=4.0)
    print(f"{rx.y:6.1f} {xi_t:10.4f} {xi_thin:12.4f} {xi_wide:10.4f}")

print()
print("Every one of these paths punches through ~2 m of wall, and the")
print("traversal column moves smoothly with the geometry. The wavelength-")
print("wide ellipsoid captures no grid point at all on this coarse grid")
print("(zero attenuation through a solid wall); widening it to 4 m merely")
print("trades that failure for jumps as grid points pop in and out.")
