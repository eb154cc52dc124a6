"""Deterministic numerical side: level sets, distances, reaction-diffusion."""

from .field import ScalarField, field_from_function
from .curvature import f_star, f_lstar, evolve_mcf_levelset, curvature_rhs
from .distance import (
    LazySignedDistance,
    signed_distance,
    zero_crossing_points,
)
from .levelsets import (
    curvature_envelope_fields,
    TiltedSurface,
    DistanceSupersolutionReport,
    check_distance_supersolution,
)
from .reaction import solve_reaction_diffusion, reaction_time_step

__all__ = [
    "ScalarField",
    "field_from_function",
    "f_star",
    "f_lstar",
    "evolve_mcf_levelset",
    "curvature_rhs",
    "signed_distance",
    "LazySignedDistance",
    "zero_crossing_points",
    "curvature_envelope_fields",
    "TiltedSurface",
    "DistanceSupersolutionReport",
    "check_distance_supersolution",
    "solve_reaction_diffusion",
    "reaction_time_step",
]
