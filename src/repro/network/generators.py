"""Synthetic road networks standing in for the paper's map extracts.

The paper's four road networks are characterized (Section 6) by

* their velocity-distribution skew: Chicago (CH) is the most skewed,
  followed by San Francisco (SA), Melbourne (MEL) and New York (NY); and
* their density: NY and MEL have the most nodes/edges and the shortest
  edges, hence the highest update frequency.

Real OpenStreetMap extracts are not available offline, so the generators
below build grid-based networks over the 100 km x 100 km data space whose
parameters reproduce those properties:

* ``grid_spacing`` controls edge length (and therefore update frequency);
* ``rotation`` orients the two dominant axes (San Francisco's grid is
  rotated off the coordinate axes, which exercises the PCA-based DVA
  discovery rather than letting the standard axes win by accident);
* ``irregular_fraction`` adds random diagonal links, diluting the skew.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.road_network import RoadNetwork

#: The benchmark data space (Table 1): 100,000 m x 100,000 m.
DEFAULT_SPACE = Rect(0.0, 0.0, 100_000.0, 100_000.0)


def grid_network(
    name: str,
    rows: int,
    cols: int,
    space: Rect = DEFAULT_SPACE,
    rotation_degrees: float = 0.0,
    jitter: float = 0.0,
    irregular_fraction: float = 0.0,
    seed: Optional[int] = 0,
) -> RoadNetwork:
    """Build a (possibly rotated, possibly noisy) grid road network.

    Args:
        name: network name (shows up in experiment reports).
        rows / cols: number of grid nodes per dimension.
        space: data space the network is embedded in.
        rotation_degrees: rotation of the whole grid about the space center;
            the two dominant travel axes end up at this angle.
        jitter: per-node random displacement as a fraction of the grid
            spacing (makes streets not perfectly straight).
        irregular_fraction: number of extra random "diagonal" edges added,
            expressed as a fraction of the grid edge count; these create
            velocity outliers and reduce the skew.
        seed: RNG seed for jitter and irregular edges.
    """
    if rows < 2 or cols < 2:
        raise ValueError("a grid network needs at least 2x2 nodes")
    rng = random.Random(seed)
    network = RoadNetwork(name=name)
    spacing_x = space.width / (cols - 1)
    spacing_y = space.height / (rows - 1)
    center = space.center
    angle = math.radians(rotation_degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    # Shrink the grid so the rotated grid still fits inside the space: a
    # rectangle rotated by angle needs 1 / (|cos| + |sin|) of the extent to
    # avoid sticking out.  This keeps edge directions exact (no clamping).
    shrink = 1.0 / (abs(cos_a) + abs(sin_a))

    def place(col: int, row: int) -> Point:
        x = space.x_min + col * spacing_x
        y = space.y_min + row * spacing_y
        if jitter > 0.0:
            x += rng.uniform(-jitter, jitter) * spacing_x
            y += rng.uniform(-jitter, jitter) * spacing_y
        dx = (x - center.x) * shrink
        dy = (y - center.y) * shrink
        rx = center.x + dx * cos_a - dy * sin_a
        ry = center.y + dx * sin_a + dy * cos_a
        rx = min(max(rx, space.x_min), space.x_max)
        ry = min(max(ry, space.y_min), space.y_max)
        return Point(rx, ry)

    def node_id(col: int, row: int) -> int:
        return row * cols + col

    for row in range(rows):
        for col in range(cols):
            network.add_node(node_id(col, row), place(col, row))

    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                network.add_edge(node_id(col, row), node_id(col + 1, row))
            if row + 1 < rows:
                network.add_edge(node_id(col, row), node_id(col, row + 1))

    grid_edges = network.num_edges
    extra_edges = int(grid_edges * irregular_fraction)
    attempts = 0
    added = 0
    while added < extra_edges and attempts < extra_edges * 20:
        attempts += 1
        source = rng.randrange(rows * cols)
        # Connect to a node one or two grid steps away diagonally.
        col, row = source % cols, source // cols
        dcol = rng.choice((-2, -1, 1, 2))
        drow = rng.choice((-2, -1, 1, 2))
        tcol, trow = col + dcol, row + drow
        if not (0 <= tcol < cols and 0 <= trow < rows):
            continue
        target = node_id(tcol, trow)
        if target in network.neighbors(source):
            continue
        network.add_edge(source, target)
        added += 1
    return network


def chicago_like(space: Rect = DEFAULT_SPACE) -> RoadNetwork:
    """Chicago stand-in: sparse, nearly perfect axis-aligned grid (most skewed)."""
    return grid_network(
        "CH",
        rows=14,
        cols=14,
        space=space,
        rotation_degrees=0.0,
        jitter=0.01,
        irregular_fraction=0.02,
        seed=0,
    )


def san_francisco_like(space: Rect = DEFAULT_SPACE) -> RoadNetwork:
    """San Francisco stand-in: grid rotated off the axes with a little noise."""
    return grid_network(
        "SA",
        rows=16,
        cols=16,
        space=space,
        rotation_degrees=27.0,
        jitter=0.03,
        irregular_fraction=0.06,
        seed=1,
    )


def melbourne_like(space: Rect = DEFAULT_SPACE) -> RoadNetwork:
    """Melbourne CBD stand-in: dense grid with noticeable irregular links."""
    return grid_network(
        "MEL",
        rows=24,
        cols=24,
        space=space,
        rotation_degrees=8.0,
        jitter=0.06,
        irregular_fraction=0.15,
        seed=2,
    )


def new_york_like(space: Rect = DEFAULT_SPACE) -> RoadNetwork:
    """New York stand-in: densest grid, shortest edges, most irregular links."""
    return grid_network(
        "NY",
        rows=30,
        cols=30,
        space=space,
        rotation_degrees=29.0,
        jitter=0.08,
        irregular_fraction=0.25,
        seed=3,
    )


#: Builders keyed by the dataset names used throughout the experiments.
NETWORK_BUILDERS: Dict[str, Callable[..., RoadNetwork]] = {
    "CH": chicago_like,
    "SA": san_francisco_like,
    "MEL": melbourne_like,
    "NY": new_york_like,
}


def network_for(dataset: str, space: Rect = DEFAULT_SPACE) -> RoadNetwork:
    """Build the stand-in network for one of the paper's dataset names."""
    try:
        builder = NETWORK_BUILDERS[dataset.upper()]
    except KeyError:
        raise ValueError(
            f"unknown road network {dataset!r}; expected one of {sorted(NETWORK_BUILDERS)}"
        ) from None
    return builder(space=space)
