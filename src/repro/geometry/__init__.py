"""Geometric primitives used by all moving-object indexes.

The geometry layer is deliberately free of any storage or index concerns:
it provides points, vectors, axis-aligned rectangles, time-parameterized
rectangles (an MBR paired with a velocity bounding rectangle, VBR), and the
sweeping-region volume integral that underpins the TPR cost model
(Equation 1 of the paper) and the velocity-partitioning analysis
(Equations 2-7).
"""

from repro.geometry import kernels
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.geometry.rect import Rect
from repro.geometry.moving_rect import MovingRect
from repro.geometry.sweep import (
    sweeping_area,
    sweeping_volume,
)

__all__ = [
    "kernels",
    "Point",
    "Vector",
    "Rect",
    "MovingRect",
    "sweeping_area",
    "sweeping_volume",
]
