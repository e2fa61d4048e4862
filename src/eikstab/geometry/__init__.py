from .curve import (
    BoundaryCurve,
    TWO_PI,
    make_circle,
    make_ellipse,
    make_rounded_ngon,
    make_spline_curve,
    ngon_scale,
    rounded_ngon_side_midpoints,
    rounded_ngon_vertex_params,
)
from .inscribed import Disk, StarRegion, max_inscribed_disk, segment_clearance, star_region
from .circlefit import best_circle_center, hausdorff_to_circle

__all__ = [
    "BoundaryCurve",
    "TWO_PI",
    "Disk",
    "StarRegion",
    "best_circle_center",
    "hausdorff_to_circle",
    "make_circle",
    "make_ellipse",
    "make_rounded_ngon",
    "make_spline_curve",
    "max_inscribed_disk",
    "ngon_scale",
    "rounded_ngon_side_midpoints",
    "rounded_ngon_vertex_params",
    "segment_clearance",
    "star_region",
]
