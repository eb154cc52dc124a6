"""g-functions and their structural axioms.

A g-function gives the expected parent Bernoulli parameter when the
children carry independent Bernoulli votes. The univariate version
g(p) = g(p,...,p) drives all the bistability analysis: its fixed points
a < mu < b are the stable equilibria and the unstable midpoint.

Axiom identifiers used in reports (the customary numbering skips "g4"):

* g0 - multivariate monotonicity in every argument
* g1 - three fixed points a < mu < b, a and b stable, mu unstable,
       symmetrically placed (b - mu = mu - a); extra fixed points are
       allowed only at the endpoints 0/1 when a > 0 / b < 1
* g2 - reflection symmetry g(b - d) + g(a + d) = a + b
* g3 - g' > 0, g'(mu) > 1, g'(a) = g'(b) < 1
* g5 - a uniform contraction band: |g'| < 1 - c0 within delta_star of
       both a and b, for some c0 in (0, 1 - g'(a))
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ArgumentError
from .kernels import VotingKernel, eval_multivariate_g

__all__ = [
    "GFunction",
    "GAxiomReport",
    "FixedPoints",
    "kernel_g",
    "iterate_g",
    "find_fixed_points",
    "verify_g_axioms",
]

_DERIV_STEP = 1e-5  # central-difference step for g'


@dataclass
class GAxiomReport:
    """Outcome of the axiom scan for one univariate g."""

    fixed_points: list[float]
    a: float
    mu: float
    b: float
    c0: float
    delta_star: float
    passes: dict[str, bool]
    derivative_at: dict[str, float]
    degenerate: bool = False
    notes: list[str] = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "fixed_points": self.fixed_points,
                "a": self.a,
                "mu": self.mu,
                "b": self.b,
                "c0": self.c0,
                "delta_star": self.delta_star,
                "passes": self.passes,
                "derivative_at": self.derivative_at,
                "degenerate": self.degenerate,
                "notes": self.notes,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GAxiomReport":
        return cls(**json.loads(text))


class GFunction:
    """Univariate + multivariate g with optional cached axiom report.

    ``univariate`` accepts scalars or numpy arrays in [0,1] (values
    outside are clamped: g is extended constant outside the unit
    interval). ``multivariate`` accepts a length-n_children vector.
    """

    def __init__(
        self,
        n_children: int,
        univariate: Callable[[np.ndarray], np.ndarray],
        multivariate: Callable[[Sequence[float]], float],
        label: str = "",
        report: Optional[GAxiomReport] = None,
        metadata: Optional[dict] = None,
    ):
        self.n_children = n_children
        self._univariate = univariate
        self._multivariate = multivariate
        self.label = label
        self.report = report
        self.metadata = metadata or {}

    def __call__(self, p):
        p = np.clip(p, 0.0, 1.0)
        return self._univariate(p)

    def multi(self, probs: Sequence[float]) -> float:
        return self._multivariate(probs)

    def combine_params(self, child_params: np.ndarray) -> np.ndarray:
        """Row-wise multivariate evaluation of an (m, n_children) matrix.

        Rows with equal entries short-circuit through the univariate map.
        """
        child_params = np.asarray(child_params, dtype=float)
        constant = np.all(child_params == child_params[:, :1], axis=1)
        out = np.empty(child_params.shape[0])
        if constant.any():
            out[constant] = np.asarray(self(child_params[constant, 0]), dtype=float)
        for i in np.flatnonzero(~constant):
            out[i] = self._multivariate(child_params[i])
        return out

    def __repr__(self):
        return f"GFunction({self.label or 'anonymous'}, n_children={self.n_children})"

    def to_json(self) -> str:
        """Serialize. Only works for g built from declared metadata
        (polynomial coefficients or kernel levels); opaque callables
        cannot round-trip."""
        meta = dict(self.metadata)
        if "poly_coeffs" not in meta and "kernel_levels" not in meta:
            raise ArgumentError("g-function has no serializable representation")
        payload = {
            "n_children": self.n_children,
            "label": self.label,
            "metadata": meta,
            "report": None if self.report is None else json.loads(self.report.to_json()),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "GFunction":
        payload = json.loads(text)
        meta = payload["metadata"]
        report = payload.get("report")
        report = GAxiomReport(**report) if report else None
        if "poly_coeffs" in meta:
            coeffs = np.array(meta["poly_coeffs"])

            def uni(p, c=coeffs):
                return np.polynomial.polynomial.polyval(p, c)

            g = cls(payload["n_children"], uni, lambda ps: float(uni(np.mean(ps))), label=payload["label"], report=report, metadata=meta)
            return g
        if "kernel_levels" in meta:
            from .kernels import ExchangeableKernel

            kern = ExchangeableKernel(meta["kernel_levels"], label=payload["label"])
            return kernel_g(kern, label=payload["label"], report=report)
        raise ArgumentError("unknown g-function serialization")


def kernel_g(kernel: VotingKernel, label: str = "", report: Optional[GAxiomReport] = None) -> GFunction:
    """GFunction induced by a voting kernel.

    The univariate map is the diagonal of the exact multivariate
    enumeration, so tree recursions and iterate_g agree bit for bit.
    """

    def multivariate(probs):
        return eval_multivariate_g(kernel, probs)

    def univariate(p):
        arr = np.asarray(p, dtype=float)
        flat = arr.reshape(-1)
        params = np.repeat(flat[:, None], kernel.n_children, axis=1)
        vals = kernel.combine_params(params)
        return vals.reshape(arr.shape) if arr.shape else float(vals[0])

    meta = {}
    if hasattr(kernel, "levels"):
        meta["kernel_levels"] = list(map(float, kernel.levels))
    return GFunction(
        kernel.n_children,
        univariate,
        multivariate,
        label=label or getattr(kernel, "label", ""),
        report=report,
        metadata=meta,
    )


def iterate_g(g: GFunction | Callable, p: float, n: int) -> float:
    """n-fold composition of the univariate g, starting from p."""
    if n < 0:
        raise ArgumentError("iteration count must be nonnegative")
    value = float(p)
    if not 0.0 <= value <= 1.0:
        raise ArgumentError("p must lie in [0,1]")
    for _ in range(n):
        value = float(g(value))
    return value


class FixedPoints(list):
    """Sorted fixed points of g on [0,1]; ``degenerate`` lists plateau
    intervals where g(p) - p vanishes identically at scan resolution."""

    def __init__(self, points: Sequence[float], degenerate: Optional[list[tuple[float, float]]] = None):
        super().__init__(sorted(points))
        self.degenerate = degenerate or []


def find_fixed_points(
    g: GFunction | Callable,
    tol: float = 1e-12,
    grid_n: int = 2048,
    degenerate_eps: float = 1e-13,
) -> FixedPoints:
    """Locate all solutions of g(p) = p in [0,1].

    Sign-change scan on a uniform grid followed by bisection to ``tol``;
    endpoint fixed points are included. Plateaus of g(p) - p (within
    ``degenerate_eps`` over consecutive grid points) are reported as
    degenerate intervals instead of being enumerated point by point.
    """
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    h = np.array([float(g(p)) - p for p in grid])

    points: list[float] = []
    plateaus: list[tuple[float, float]] = []

    zero = np.abs(h) <= degenerate_eps
    i = 0
    while i <= grid_n:
        if zero[i]:
            j = i
            while j + 1 <= grid_n and zero[j + 1]:
                j += 1
            if j > i:
                plateaus.append((grid[i], grid[j]))
            else:
                points.append(grid[i])
            i = j + 1
        else:
            i += 1

    for i in range(grid_n):
        if zero[i] or zero[i + 1]:
            continue
        if h[i] * h[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            flo = h[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = float(g(mid)) - mid
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            points.append(0.5 * (lo + hi))

    # de-duplicate roots found from both sides of a grid node
    points = sorted(points)
    merged: list[float] = []
    for p in points:
        if not merged or p - merged[-1] > max(10 * tol, 1e-11):
            merged.append(p)
    return FixedPoints(merged, plateaus)


def _derivative(g, p: float, step: float = _DERIV_STEP) -> float:
    lo = max(p - step, 0.0)
    hi = min(p + step, 1.0)
    return (float(g(hi)) - float(g(lo))) / (hi - lo)


def verify_g_axioms(g: GFunction, tol: float = 1e-8, grid_n: int = 512) -> GAxiomReport:
    """Scan g for the bistability axioms g0-g5 and build a report.

    Never raises on failures: a non-monotone or degenerate g simply gets
    the corresponding ``passes`` entries set to False. Derivatives are
    central differences with step 1e-5; c0 is chosen as (1 - g'(a))/2
    and delta_star as the largest band width (1e-3 grid) on which
    |g'| < 1 - c0 around both a and b.
    """
    notes: list[str] = []
    fps = find_fixed_points(g, tol=min(tol, 1e-12), grid_n=max(grid_n, 512))
    passes: dict[str, bool] = {}

    # g0: multivariate monotonicity, sampled
    passes["g0"] = _check_monotone_multivariate(g, notes)

    degenerate = bool(fps.degenerate)
    if degenerate:
        notes.append(f"degenerate fixed-point plateaus: {fps.degenerate}")

    a, mu, b = _classify_fixed_points(g, fps, notes)
    derivative_at = {
        "a": _derivative(g, a),
        "mu": _derivative(g, mu),
        "b": _derivative(g, b),
    }

    interior = [p for p in fps if a - tol <= p <= b + tol]
    sym_ok = abs((b - mu) - (mu - a)) <= max(100 * tol, 1e-8)
    extra_ok = all(
        p <= a + tol or p >= b - tol or abs(p - mu) <= tol for p in interior
    )
    stable_ok = (
        derivative_at["a"] < 1.0 and derivative_at["b"] < 1.0 and derivative_at["mu"] > 1.0
    )
    passes["g1"] = (
        not degenerate and len(interior) >= 3 and sym_ok and extra_ok and a < mu < b and stable_ok
    )

    # g2: reflection symmetry around (a+b)/2 on a delta-grid
    deltas = np.linspace(0.0, mu - a, 64)[1:-1] if mu > a else np.array([])
    if deltas.size:
        resid = np.array([abs(float(g(b - d)) + float(g(a + d)) - (a + b)) for d in deltas])
        passes["g2"] = bool(np.max(resid) <= max(1000 * tol, 1e-7))
    else:
        passes["g2"] = False

    # g3: positive derivative throughout, expansion at mu, contraction at a and b
    interior_grid = np.linspace(0.0, 1.0, grid_n + 1)[1:-1]
    derivs = np.array([_derivative(g, p) for p in interior_grid])
    passes["g3"] = bool(
        np.all(derivs > -1e-9)
        and derivative_at["mu"] > 1.0
        and derivative_at["a"] < 1.0
        and abs(derivative_at["a"] - derivative_at["b"]) <= 1e-4
    )

    # g5: contraction band around the stable points
    c0 = 0.5 * (1.0 - derivative_at["a"])
    delta_star = 0.0
    if 0.0 < c0 < 1.0:
        bound = 1.0 - c0
        for delta in np.arange(1e-3, 1.0, 1e-3):
            band = np.concatenate(
                [np.linspace(a - delta, a + delta, 21), np.linspace(b - delta, b + delta, 21)]
            )
            # g is extended constant outside [0,1]: derivative 0 there
            band_derivs = [abs(_derivative(g, p)) for p in np.clip(band, 0.0, 1.0)]
            if max(band_derivs) < bound:
                delta_star = float(delta)
            else:
                break
    passes["g5"] = delta_star > 0.0 and 0.0 < c0 < 1.0 - derivative_at["a"]

    return GAxiomReport(
        fixed_points=[float(p) for p in fps],
        a=float(a),
        mu=float(mu),
        b=float(b),
        c0=float(c0),
        delta_star=float(delta_star),
        passes=passes,
        derivative_at=derivative_at,
        degenerate=degenerate,
        notes=notes,
    )


def _classify_fixed_points(g, fps: Sequence[float], notes: list[str]) -> tuple[float, float, float]:
    """Pick (a, mu, b): outermost stable points and the unstable midpoint."""
    if not fps:
        notes.append("no fixed points found; defaulting to (0, 1/2, 1)")
        return 0.0, 0.5, 1.0
    stable = [p for p in fps if _derivative(g, p) < 1.0]
    if len(stable) >= 2:
        a, b = min(stable), max(stable)
    elif len(fps) >= 2:
        a, b = min(fps), max(fps)
        notes.append("fewer than two stable fixed points")
    else:
        a = b = fps[0]
        notes.append("single fixed point")
    between = [p for p in fps if a < p < b]
    if between:
        mid = 0.5 * (a + b)
        mu = min(between, key=lambda p: abs(p - mid))
    else:
        mu = 0.5 * (a + b)
        notes.append("no interior fixed point between a and b")
    return float(a), float(mu), float(b)


def _check_monotone_multivariate(g: GFunction, notes: list[str], n_samples: int = 64) -> bool:
    rng = np.random.Generator(np.random.Philox(key=0xA0))
    n = g.n_children
    try:
        for _ in range(n_samples):
            p = rng.uniform(0.0, 1.0, size=n)
            q = np.minimum(p + rng.uniform(0.0, 1.0, size=n) * (1 - p), 1.0)
            if g.multi(list(p)) > g.multi(list(q)) + 1e-12:
                notes.append(f"monotonicity violated near p={p.round(4).tolist()}")
                return False
    except ArgumentError:
        notes.append("multivariate evaluation unavailable; monotonicity unchecked")
        return False
    return True
