"""Short-time level-set test surfaces and the distance supersolution check.

For a smooth test function phi, the tilted surface

    psi_alpha(t, x) = phi(x) - t * (F_lower(D^2 phi, D phi) - alpha)

moves strictly faster than the curvature flow by alpha; its sub-level
sets are where an equilibrium phase must win. The signed distance to
its zero set is a strict supersolution of the heat equation,

    dd/dt - (1/2) Lap d >= alpha / (4 |D psi|),

inside a space-time band around the interface, which is the inequality
verified empirically here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ArgumentError
from .curvature import _gradient_norm_at, _padded, _Stencil
from .distance import LazySignedDistance, signed_distance  # noqa: F401 (perfbench/spans.py times this name)
from .field import ScalarField

__all__ = [
    "LevelSetTriple",
    "curvature_envelope_fields",
    "psi_alpha_sets",
    "DistanceSupersolutionReport",
    "check_distance_supersolution",
]

_GRAD_EPS = 1e-12


@dataclass
class LevelSetTriple:
    """Zero / positive / negative masks of a level function, plus the
    short-time sub- and super-level sets used by the consistency checks."""

    zero_set: np.ndarray
    positive_set: np.ndarray
    negative_set: np.ndarray
    psi: Optional[ScalarField] = None
    l_minus: Optional[np.ndarray] = None  # {phi - h (F_lower - alpha) < 0}
    l_plus: Optional[np.ndarray] = None  # {phi - h (F_upper + alpha) > 0}

    def __post_init__(self):
        total = (
            self.zero_set.astype(int) + self.positive_set.astype(int) + self.negative_set.astype(int)
        )
        if not np.all(total == 1):
            raise ArgumentError("masks must partition the grid")


def curvature_envelope_fields(phi: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F_lower, F_upper, |Dphi|) evaluated on the grid by central
    differences, with the eigenvalue envelopes at vanishing gradients."""
    dim = phi.dim
    stencil = _Stencil(_padded(phi.values), phi.spacing)
    stencil.curvature_terms()
    d2, grad2, lap, quad = stencil.d2, stencil.grad2, stencil.lap, stencil.quad
    safe = grad2 > _GRAD_EPS
    common = -0.5 * (lap - np.divide(quad, grad2, out=np.zeros_like(quad), where=safe))
    f_lower = common.copy()
    f_upper = common.copy()
    bad = ~safe
    if bad.any():
        idx = np.argwhere(bad)
        for ij in idx:
            M = np.empty((dim, dim))
            for k in range(dim):
                M[k, k] = d2[(k, k)][tuple(ij)]
                for l in range(k + 1, dim):
                    M[k, l] = M[l, k] = d2[(k, l)][tuple(ij)]
            eigs = np.linalg.eigvalsh(M)
            tr = float(np.trace(M))
            f_lower[tuple(ij)] = -0.5 * (tr + eigs[0])
            f_upper[tuple(ij)] = -0.5 * (tr + eigs[-1])
    return f_lower, f_upper, np.sqrt(grad2)


def psi_alpha_sets(phi: ScalarField, alpha: float, h: float) -> LevelSetTriple:
    """Threshold the tilted surface at zero and expose the short-time
    sub/super-level sets of the flow-consistency conditions. The tilted
    surface ``psi`` is phi - h * (F_lower(D^2 phi, D phi) - alpha), a
    field at time h."""
    if h < 0:
        raise ArgumentError("h must be nonnegative")
    f_lower, f_upper, _ = curvature_envelope_fields(phi)
    psi_vals = phi.values - h * (f_lower - alpha)
    psi = ScalarField(phi.dim, phi.origin.copy(), phi.spacing, psi_vals, time_stamp=h)
    l_minus = psi_vals < 0.0
    l_plus = (phi.values - h * (f_upper + alpha)) > 0.0
    return LevelSetTriple(
        zero_set=psi_vals == 0.0,
        positive_set=psi_vals > 0.0,
        negative_set=psi_vals < 0.0,
        psi=psi,
        l_minus=l_minus,
        l_plus=l_plus,
    )


@dataclass
class DistanceSupersolutionReport:
    min_residual: float
    argmin_time: float
    argmin_point: tuple[float, ...]
    n_band_points: int
    max_grad_psi: float
    vanishing_gradient_sites: list[tuple[float, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def passes(self, budget: float) -> bool:
        return self.min_residual >= -abs(budget)


def check_distance_supersolution(
    phi: ScalarField,
    alpha: float,
    h0: float,
    band_r0: float,
    n_times: int = 9,
    lap_step_cells: int = 4,
) -> DistanceSupersolutionReport:
    """Check dd/dt - Lap d / 2 >= alpha / (4 |D psi|) in the band.

    Builds the tilted surfaces on a uniform time grid of n_times slices
    over [0, h0] and finite-differences their signed distances d at the
    middle slices, on the band {|d| < band_r0} minus the nodes fewer than
    max(2, lap_step_cells) nodes from a wall: centrally in time, and in
    space by the second-difference Laplacian at width
    lap_step_cells * spacing. Distances to an interpolated zero set carry
    per-cell scalloping of amplitude O(spacing^2 * curvature); a one-cell
    stencil amplifies it to O(curvature) noise, while the wider stencil
    suppresses it by lap_step_cells^-2. Distances are evaluated only at
    the nodes read (the band, its time neighbours and its Laplacian
    stencil) through `LazySignedDistance`, so each equals that node of
    `signed_distance`; |D psi| is evaluated on the band only. Slices are
    built in time order as the middle slice reaches them, and at most
    three (a middle slice and its two neighbours) are alive at once.
    Sites where |D psi| vanishes inside the band are reported, not raised.
    """
    if not (math.isfinite(h0) and h0 > 0 and math.isfinite(band_r0) and band_r0 > 0):
        raise ArgumentError("h0 and band_r0 must be finite and positive")
    if not isinstance(n_times, (int, np.integer)) or n_times < 3:
        raise ArgumentError("n_times must be an integer, at least 3 time slices")
    if not isinstance(lap_step_cells, (int, np.integer)) or lap_step_cells < 1:
        raise ArgumentError("lap_step_cells must be a positive integer")
    margin = max(2, lap_step_cells)
    shape = phi.values.shape
    if min(shape) <= 2 * margin:
        raise ArgumentError(f"grid {shape} has no node {margin} or more nodes from every wall")
    times = np.linspace(0.0, h0, n_times)
    dt = times[1] - times[0]
    h = phi.spacing
    dim = phi.dim

    f_lower, _, _ = curvature_envelope_fields(phi)
    shift = f_lower - alpha
    coords = phi.coordinates()

    def slice_at(t):
        return LazySignedDistance(ScalarField(dim, phi.origin.copy(), h, phi.values - t * shift, time_stamp=t), coords)

    interior = np.zeros(shape, dtype=bool)
    interior[tuple(slice(margin, -margin) for _ in range(dim))] = True
    interior = np.flatnonzero(interior)
    # the band keeps margin >= lap_step_cells nodes from the walls, so every
    # Laplacian stencil node, idx +- lap_step_cells * stride, lies on the grid
    offsets = [lap_step_cells * math.prod(shape[k + 1 :]) for k in range(dim)]

    min_res = np.inf
    argmin = (0.0, tuple(np.zeros(dim)))
    n_band = 0
    vanish: list[tuple[float, ...]] = []
    notes: list[str] = []
    max_grad = 0.0
    window = [None, slice_at(times[0]), slice_at(times[1])]
    for i in range(1, n_times - 1):
        del window[0]  # slice i - 2 goes before slice i + 1 is built
        window.append(slice_at(times[i + 1]))
        mid = window[1]
        idx = interior[mid.band(band_r0, interior)]
        n_band += idx.size
        if not idx.size:
            continue
        ddt = (window[2].at(idx) - window[0].at(idx)) / (2 * dt)
        d_mid = mid.at(idx)
        lap = np.zeros(idx.size)
        for off in offsets:
            lap += (mid.at(idx + off) - 2 * d_mid + mid.at(idx - off)) / (lap_step_cells * h) ** 2
        grad_psi = _gradient_norm_at(mid.field.values, h, idx)
        max_grad = max(max_grad, float(grad_psi.max()))
        zero_grad = grad_psi <= _GRAD_EPS
        if zero_grad.any():
            for node in idx[zero_grad][:16]:
                vanish.append(tuple(coords[node]))
        res = ddt - 0.5 * lap - alpha / (4.0 * np.maximum(grad_psi, _GRAD_EPS))
        keep = ~zero_grad
        res_band = res[keep]
        if res_band.size == 0:
            continue
        j = int(np.argmin(res_band))
        if res_band[j] < min_res:
            min_res = float(res_band[j])
            argmin = (float(times[i]), tuple(coords[idx[keep][j]]))
    if n_band == 0:
        notes.append("band is empty; check is vacuous")
        min_res = 0.0
    return DistanceSupersolutionReport(
        min_residual=float(min_res),
        argmin_time=argmin[0],
        argmin_point=argmin[1],
        n_band_points=n_band,
        max_grad_psi=max_grad,
        vanishing_gradient_sites=vanish,
        notes=notes,
    )
