from .curve import (
    BoundaryCurve,
    CurveSpecError,
    Disk,
    MAX_NGON_ORDER,
    TWO_PI,
    make_circle,
    make_ellipse,
    make_rounded_ngon,
    make_spline_curve,
    ngon_scale,
    parse_curve_spec,
    rounded_ngon_side_midpoints,
    rounded_ngon_vertex_params,
)
from .pieces import mod_2pi, wrap_pi
from .inscribed import StarRegion, max_inscribed_disk, segment_clearance, star_region
from .circlefit import best_circle_center, hausdorff_to_circle

__all__ = [
    "BoundaryCurve",
    "CurveSpecError",
    "MAX_NGON_ORDER",
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
    "mod_2pi",
    "ngon_scale",
    "parse_curve_spec",
    "rounded_ngon_side_midpoints",
    "rounded_ngon_vertex_params",
    "segment_clearance",
    "star_region",
    "wrap_pi",
]
