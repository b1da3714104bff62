"""The standard scenario world: a 200 x 200 m (1 m/cell) two-loop road
network with dirt shortcuts, buildings, tree lines, and 13 vehicle targets
parked just off the roads. The builder is deterministic; configs name this
world ``"standard"``.
"""

from __future__ import annotations

import numpy as np

from semteam.world import SemanticClass, SemanticGridMap, WorldModel

SIZE = 200

# 2x2 vehicle clusters (lower-left corner of each), all within 5 m of a road
VEHICLE_SITES = [
    (16, 40),
    (16, 120),
    (40, 16),
    (70, 16),
    (97, 60),
    (40, 183),
    (120, 16),
    (160, 16),
    (184, 60),
    (184, 140),
    (120, 183),
    (160, 183),
    (97, 143),
]

# small vegetation clumps near the roads: landmarks for the localizer
TREE_SITES = [
    (16, 70), (16, 155), (60, 16), (90, 30), (30, 184), (90, 184),
    (110, 30), (145, 16), (184, 90), (184, 170), (145, 184), (98, 100),
    (55, 95), (63, 58), (30, 148), (122, 58), (150, 122), (168, 65),
]


def build_standard_world() -> WorldModel:
    cls = np.full((SIZE, SIZE), int(SemanticClass.GRASS), dtype=np.int8)

    # tree line around the arena
    cls[:3, :] = SemanticClass.VEGETATION
    cls[-3:, :] = SemanticClass.VEGETATION
    cls[:, :3] = SemanticClass.VEGETATION
    cls[:, -3:] = SemanticClass.VEGETATION

    def ring(x0, y0, x1, y1, width, value):
        band = np.zeros((SIZE, SIZE), dtype=bool)
        band[y0 : y1 + 1, x0 : x1 + 1] = True
        band[y0 + width : y1 + 1 - width, x0 + width : x1 + 1 - width] = False
        cls[band] = value

    # two road loops joined by two connector roads
    ring(20, 20, 94, 180, 6, SemanticClass.ROAD)
    ring(106, 20, 180, 180, 6, SemanticClass.ROAD)
    cls[47:53, 88:113] = SemanticClass.ROAD
    cls[147:153, 88:113] = SemanticClass.ROAD

    # dirt shortcuts through the loop interiors
    cls[97:101, 26:88] = SemanticClass.DIRT_GRAVEL
    cls[26:174, 140:144] = SemanticClass.DIRT_GRAVEL

    # buildings inside the loops and near the bands
    for x0, y0, x1, y1 in [
        (32, 60, 48, 90),
        (60, 120, 78, 148),
        (30, 32, 40, 42),
        (115, 60, 134, 84),
        (150, 106, 170, 132),
        (160, 30, 172, 44),
        (50, 160, 62, 170),
        (118, 156, 130, 168),
    ]:
        cls[y0 : y1 + 1, x0 : x1 + 1] = SemanticClass.BUILDING

    for x, y in TREE_SITES:
        cls[y : y + 2, x : x + 2] = SemanticClass.VEGETATION

    for x, y in VEHICLE_SITES:
        cls[y : y + 2, x : x + 2] = SemanticClass.VEHICLE

    truth = SemanticGridMap(
        origin_x=0.0,
        origin_y=0.0,
        resolution=1.0,
        width=SIZE,
        height=SIZE,
        classes=cls,
        observed=np.ones((SIZE, SIZE), dtype=bool),
        version=1,
    )
    return WorldModel.from_map(truth)
