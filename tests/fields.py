"""Seeded tie-heavy fields shared by the test modules.

Each caller passes its own seed, so its fields stay the same bytes however
many other callers there are.
"""

import numpy as np

from dynpers import ScalarField

GRIDS = (((23,), "axis"), ((7, 9), "axis"), ((7, 9), "full"), ((4, 3, 5), "full"))
GRIDS_4D = GRIDS + (((3, 4, 2, 3), "axis"), ((3, 3, 2, 3), "full"))


def tie_heavy_fields(seed, count=320, grids=GRIDS):
    """Integer fields with 2-4 levels, {-0.0, 0.0, 1.0} fields, uniform random and
    constant fields, cycling over ``grids`` (by default 1D, 2D axis, 2D full and
    3D full)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape, conn = grids[i % len(grids)]
        n = int(np.prod(shape))
        kind = (i // len(grids)) % 4
        if kind == 0:
            vals = rng.integers(0, 2 + (i // 16) % 3, size=n).astype(float)
        elif kind == 1:
            vals = rng.choice([-0.0, 0.0, 1.0], size=n)
        elif kind == 2:
            vals = rng.uniform(-1.0, 1.0, size=n)
        else:
            vals = np.full(n, rng.choice([-0.0, 0.0, 2.5]))
        yield ScalarField(shape, vals, conn)
