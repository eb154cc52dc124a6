"""The tilted test surface and the distance supersolution check.

For a smooth test function phi, the tilted surface

    psi_alpha(t, x) = phi(x) - t * (F_lower(D^2 phi, D phi) - alpha)

moves strictly faster than the curvature flow by alpha; its sub-level
sets are where an equilibrium phase must win. Its mirror
phi - t * (F_upper + alpha) moves strictly slower, and its super-level
sets are where the other phase must win. `TiltedSurface` builds both
from one evaluation of the curvature envelopes, at any t >= 0. The
signed distance to the zero set of psi_alpha is a strict supersolution
of the heat equation,

    dd/dt - (1/2) Lap d >= alpha / (4 |D psi|),

inside a space-time band around the interface, which is the inequality
verified empirically here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ArgumentError
from .curvature import _curvature_terms, _gradient_norm_at
from .distance import LazySignedDistance, signed_distance  # noqa: F401 (perfbench/spans.py times this name)
from .field import ScalarField

__all__ = [
    "curvature_envelope_fields",
    "TiltedSurface",
    "DistanceSupersolutionReport",
    "check_distance_supersolution",
]

_GRAD_EPS = 1e-12


def curvature_envelope_fields(phi: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F_lower, F_upper, |Dphi|) evaluated on the grid by central
    differences, with the eigenvalue envelopes at vanishing gradients."""
    dim = phi.dim
    d2, grad2, lap, quad = _curvature_terms(phi.values, phi.spacing)
    safe = grad2 > _GRAD_EPS
    common = -0.5 * (lap - np.divide(quad, grad2, out=np.zeros_like(quad), where=safe))
    f_lower = common.copy()
    f_upper = common.copy()
    bad = ~safe
    if bad.any():
        hessians = np.empty((np.count_nonzero(bad), dim, dim))
        for (k, l), second in d2.items():
            hessians[:, k, l] = hessians[:, l, k] = second[bad]
        eigs = np.linalg.eigvalsh(hessians)
        tr = np.trace(hessians, axis1=1, axis2=2)
        f_lower[bad] = -0.5 * (tr + eigs[:, 0])
        f_upper[bad] = -0.5 * (tr + eigs[:, -1])
    return f_lower, f_upper, np.sqrt(grad2)


class TiltedSurface:
    """The tilted surfaces of phi at slope alpha, from one evaluation of
    `curvature_envelope_fields`.

    ``at(t)`` is psi_alpha(t) = phi - t * (F_lower - alpha) and
    ``at(t, upper=True)`` is phi - t * (F_upper + alpha), each a field
    stamped with time t; ``grad_norm`` is |D phi| on the grid.
    """

    def __init__(self, phi: ScalarField, alpha: float):
        f_lower, f_upper, self.grad_norm = curvature_envelope_fields(phi)
        self.phi = phi
        self._shifts = (f_lower - alpha, f_upper + alpha)

    def at(self, t: float, upper: bool = False) -> ScalarField:
        if not t >= 0:
            raise ArgumentError(f"the tilted surface needs a time t >= 0, got {t!r}")
        phi = self.phi
        values = phi.values - t * self._shifts[upper]
        return ScalarField(phi.dim, phi.origin.copy(), phi.spacing, values, time_stamp=t)


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

    surface = TiltedSurface(phi, alpha)
    coords = phi.coordinates()

    def slice_at(t):
        return LazySignedDistance(surface.at(t), coords)

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
