#!/usr/bin/env python3
"""Domains on the log-torus and connectivity on spirals.

The torus has x-period P (log-radius) and y-period 2*pi (argument).  A
domain is *connected on spirals* when it carries a loop that winds
around the x-cycle; the minimal winding k tells how many plane sheets
its lift glues together.  Horizontal strips wind once, vertical bands
not at all, and tube neighborhoods of closed spirals wind k times.
"""

import numpy as np

from logtorus import (Band, Disc, ShapeUnion, Strip, TorusSpec, Tube,
                      build_domain)

P = np.log(2.0)
spec = TorusSpec(P)

cases = [
    ("horizontal strip |y| < pi/4", Strip(-np.pi / 4, np.pi / 4)),
    ("vertical band |x - P/2| < P/4", Band(P / 4, 3 * P / 4)),
    ("their union", ShapeUnion(Band(P / 4, 3 * P / 4),
                               Strip(-np.pi / 4, np.pi / 4))),
    ("two disjoint strips", ShapeUnion(Strip(-1.2, -0.6), Strip(0.6, 1.2))),
    ("a disc (precompact)", Disc(P / 2, 0.0, 0.25)),
    ("spiral tube, winding 2", Tube(2, 0, 0.06)),
    ("spiral tube, winding 3", Tube(3, 0, 0.05)),
]

print(f"torus: P = log 2 = {P:.6f}, grid 96 x 96\n")
for name, shape in cases:
    mask = build_domain(spec, 96, 96, shape)
    print(f"{name}:")
    print(f"  components: {mask.n_components}, inside cells: {mask.n_inside}")
    for c in range(mask.n_components):
        sc = mask.spiral_of(c)
        if sc.connected:
            print(f"  component {c}: connected on spirals, k = {sc.k}, "
                  f"y-winding = {sc.y_winding}")
        else:
            print(f"  component {c}: not connected on spirals")
    print()

# The class is read off the winding lattice of one periodic labeling, so
# any winding is exact; the grid only has to keep the strands apart.
eps = 0.69 * np.pi * P / np.sqrt((5 * P) ** 2 + 4 * np.pi ** 2)
sc = build_domain(spec, 48, 240, Tube(5, 0, eps)).spiral_of(0)
print(f"spiral tube, winding 5 (grid 48 x 240, eps = {eps:.4f}):")
print(f"  {sc.kind}, k = {sc.k}, y-winding = {sc.y_winding}")
