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

Every g here is a polynomial, and a GFunction carries its power-basis
coefficients. The axiom scan reads only those: fixed points are the
polished roots of g(p) - p and derivatives come from the derivative
polynomial, both exact to rounding. Evaluating g(p) is Horner on the
same coefficients: there is no other univariate form.
"""

from __future__ import annotations

import json
from math import comb
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from ..errors import ArgumentError
from ..rng import derive_rng
from .kernels import ExchangeableKernel

__all__ = [
    "GFunction",
    "GAxiomReport",
    "FixedPoints",
    "kernel_g",
    "iterate_g",
    "find_fixed_points",
    "verify_g_axioms",
]

_PLATEAU_BOUND = 1e-13  # sum |coefficient| of g(p) - p below which it vanishes identically
_IMAG_TOL = 1e-7  # a double root splits into a pair about sqrt(eps) off the real axis
_NEWTON_STEPS = 4
_AXIOM_TOL = 1e-8  # fixed-point and symmetry tolerance of the axiom scan
_AXIOM_GRID_N = 512  # the g3 derivative sign is scanned on (0, 1) at spacing 1/_AXIOM_GRID_N


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
    """A g-function: its power-basis polynomial, with the optional
    multivariate form and a cached axiom report.

    ``coeffs`` (ascending powers) are the univariate g, and its only
    form: ``g(p)`` evaluates them at p clipped to [0,1] (g is extended
    constant outside the unit interval), and the axiom scan reads them
    exactly. ``multivariate`` maps an (m, n_children) matrix of
    probabilities to the m parent parameters; it is None when the
    multivariate form is unknown (a gbar restored from JSON, an
    unbalanced ``nlv_polynomial_g``), and `combine_params` then raises.
    """

    def __init__(
        self,
        n_children: int,
        coeffs: Sequence[float],
        multivariate: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        label: str = "",
        report: Optional[GAxiomReport] = None,
        metadata: Optional[dict] = None,
    ):
        coeffs = np.asarray([] if coeffs is None else coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
            raise ArgumentError("a g-function needs its finite power-basis coefficients")
        self.n_children = n_children
        self.coeffs = coeffs
        self._multivariate = multivariate
        self.label = label
        self.report = report
        self.metadata = metadata or {}

    def __call__(self, p):
        return P.polyval(np.clip(p, 0.0, 1.0), self.coeffs)

    def combine_params(self, child_params: np.ndarray) -> np.ndarray:
        """Row-wise multivariate evaluation of an (m, n_children) matrix.

        Rows with equal entries go through the polynomial, so a constant
        passes up a genealogy exactly as :func:`iterate_g` composes g.
        """
        if self._multivariate is None:
            raise ArgumentError(f"{self!r}: the multivariate form was not serialised or does not match g")
        child_params = np.asarray(child_params, dtype=float)
        if child_params.ndim != 2 or child_params.shape[1] != self.n_children:
            raise ArgumentError(f"expected {self.n_children} probabilities per row, got shape {child_params.shape}")
        if np.any(child_params < 0.0) or np.any(child_params > 1.0):
            raise ArgumentError("probabilities must lie in [0,1]")
        constant = np.all(child_params == child_params[:, :1], axis=1)
        out = np.empty(child_params.shape[0])
        if constant.any():
            out[constant] = self(child_params[constant, 0])
        if not constant.all():
            out[~constant] = self._multivariate(child_params[~constant])
        return out

    def __repr__(self):
        return f"GFunction({self.label or 'anonymous'}, n_children={self.n_children})"

    def to_json(self) -> str:
        """Serialise the coefficients, label, metadata and report; the
        multivariate form is rebuilt only from ``metadata["kernel_levels"]``."""
        return json.dumps(
            {
                "n_children": self.n_children,
                "label": self.label,
                "coeffs": self.coeffs.tolist(),
                "metadata": self.metadata,
                "report": None if self.report is None else json.loads(self.report.to_json()),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GFunction":
        payload = json.loads(text)
        if "coeffs" not in payload:
            raise ArgumentError("g-function payload has no power-basis coefficients")
        meta = payload["metadata"]
        levels = meta.get("kernel_levels")
        report = payload.get("report")
        return cls(
            payload["n_children"],
            payload["coeffs"],
            None if levels is None else ExchangeableKernel(levels, label=payload["label"]).combine_params,
            label=payload["label"],
            report=GAxiomReport(**report) if report else None,
            metadata=meta,
        )


def kernel_g(kernel: ExchangeableKernel, label: str = "") -> GFunction:
    """GFunction induced by an exchangeable voting kernel.

    g is the Bernstein sum sum_k levels[k] C(n,k) p^k (1-p)^(n-k),
    expanded in the power basis; the multivariate form is the kernel's
    exact enumeration, whose diagonal equals g up to rounding.
    """
    n = kernel.n_children
    coeffs = np.zeros(n + 1)
    for k, level in enumerate(kernel.levels):
        # C(n,k) p^k (1-p)^(n-k) = sum_j C(n,k) C(n-k,j) (-1)^j p^(k+j)
        for j in range(n - k + 1):
            coeffs[k + j] += level * (comb(n, k) * comb(n - k, j) * (-1) ** j)
    return GFunction(
        n,
        coeffs,
        kernel.combine_params,
        label=label or kernel.label,
        metadata={"kernel_levels": list(map(float, kernel.levels))},
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
    intervals where g(p) - p vanishes identically."""

    def __init__(self, points: Sequence[float], degenerate: Optional[list[tuple[float, float]]] = None):
        super().__init__(sorted(points))
        self.degenerate = degenerate or []


def find_fixed_points(g: GFunction, tol: float = 1e-12) -> FixedPoints:
    """Locate all solutions of g(p) = p in [0,1].

    The roots of the polynomial g(p) - p (``polyroots``: eigenvalues of
    its companion matrix) that are real, up to the splitting of a double
    root, and within ``tol`` of [0,1] are clipped to [0,1] and polished
    by Newton steps on the exact polynomial; roots closer than
    max(10 tol, 1e-11) are merged. When g(p) - p vanishes identically
    (the sum of its absolute coefficients, a bound on |g(p) - p| over
    [0,1], is at most 1e-13) the plateau (0, 1) is reported instead.
    """
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    h = P.polysub(g.coeffs, [0.0, 1.0])
    scale = np.abs(h).sum()
    if scale <= _PLATEAU_BOUND:
        return FixedPoints([], [(0.0, 1.0)])
    # drop leading coefficients at rounding level: they only add roots far outside [0,1]
    roots = P.polyroots(P.polytrim(h, np.finfo(float).eps * scale))
    real = roots.real[(np.abs(roots.imag) <= _IMAG_TOL) & (roots.real >= -tol) & (roots.real <= 1.0 + tol)]
    dh = P.polyder(h)
    x = np.clip(real, 0.0, 1.0)
    for _ in range(_NEWTON_STEPS):
        slope = P.polyval(x, dh)
        step = np.divide(P.polyval(x, h), slope, out=np.zeros_like(x), where=slope != 0.0)
        x = np.clip(x - step, 0.0, 1.0)

    merged: list[float] = []
    for p in np.sort(x):
        if not merged or p - merged[-1] > max(10 * tol, 1e-11):
            merged.append(float(p))
    return FixedPoints(merged)


def verify_g_axioms(g: GFunction) -> GAxiomReport:
    """Scan g for the bistability axioms g0-g5 and build a report.

    Never raises on failures: a non-monotone or degenerate g simply gets
    the corresponding ``passes`` entries set to False. Fixed points come
    from :func:`find_fixed_points` and derivatives from the exact
    derivative polynomial of ``g.coeffs``; c0 is chosen as (1 - g'(a))/2
    and delta_star as the largest band width (1e-3 grid) on which
    |g'| < 1 - c0 at 21 points around each of a and b.
    """
    notes: list[str] = []
    fps = find_fixed_points(g)
    gprime = P.polyder(g.coeffs)
    passes: dict[str, bool] = {}

    # g0: multivariate monotonicity, sampled
    passes["g0"] = _check_monotone_multivariate(g, notes)

    degenerate = bool(fps.degenerate)
    if degenerate:
        notes.append(f"degenerate fixed-point plateaus: {fps.degenerate}")

    a, mu, b = _classify_fixed_points(gprime, fps, notes)
    derivative_at = {name: float(P.polyval(p, gprime)) for name, p in (("a", a), ("mu", mu), ("b", b))}

    interior = [p for p in fps if a - _AXIOM_TOL <= p <= b + _AXIOM_TOL]
    sym_ok = abs((b - mu) - (mu - a)) <= max(100 * _AXIOM_TOL, 1e-8)
    extra_ok = all(
        p <= a + _AXIOM_TOL or p >= b - _AXIOM_TOL or abs(p - mu) <= _AXIOM_TOL for p in interior
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
        resid = np.abs(P.polyval(b - deltas, g.coeffs) + P.polyval(a + deltas, g.coeffs) - (a + b))
        passes["g2"] = bool(np.max(resid) <= max(1000 * _AXIOM_TOL, 1e-7))
    else:
        passes["g2"] = False

    # g3: positive derivative throughout, expansion at mu, contraction at a and b
    interior_grid = np.linspace(0.0, 1.0, _AXIOM_GRID_N + 1)[1:-1]
    passes["g3"] = bool(
        np.all(P.polyval(interior_grid, gprime) > -1e-9)
        and derivative_at["mu"] > 1.0
        and derivative_at["a"] < 1.0
        and abs(derivative_at["a"] - derivative_at["b"]) <= 1e-4
    )

    # g5: contraction band around the stable points; row i holds the 42
    # band points of the i-th width, and delta_star is the width before
    # the first one that fails
    c0 = 0.5 * (1.0 - derivative_at["a"])
    delta_star = 0.0
    if 0.0 < c0 < 1.0:
        widths = np.arange(1e-3, 1.0, 1e-3)
        band = np.concatenate(
            [np.linspace(a - widths, a + widths, 21, axis=1), np.linspace(b - widths, b + widths, 21, axis=1)],
            axis=1,
        )
        # g is extended constant outside [0,1]: band points are clipped to it
        ok = np.max(np.abs(P.polyval(np.clip(band, 0.0, 1.0), gprime)), axis=1) < 1.0 - c0
        n_ok = widths.size if ok.all() else int(np.argmin(ok))
        delta_star = float(widths[n_ok - 1]) if n_ok else 0.0
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


def _classify_fixed_points(gprime: np.ndarray, fps: Sequence[float], notes: list[str]) -> tuple[float, float, float]:
    """Pick (a, mu, b): outermost stable points and the unstable midpoint."""
    if not fps:
        notes.append("no fixed points found; defaulting to (0, 1/2, 1)")
        return 0.0, 0.5, 1.0
    stable = [p for p in fps if P.polyval(p, gprime) < 1.0]
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
    """Sampled monotonicity: g(p) <= g(q) for random pairs p <= q.

    The pairs are the draws of a per-pair loop (p, then the step towards
    1), and all 2 n_samples rows are evaluated in one batch.
    """
    rng = derive_rng(0xA0)
    draws = rng.uniform(0.0, 1.0, size=(n_samples, 2, g.n_children))
    p = draws[:, 0]
    q = np.minimum(p + draws[:, 1] * (1 - p), 1.0)
    try:
        vals = g.combine_params(np.concatenate([p, q]))
    except ArgumentError:
        notes.append("multivariate evaluation unavailable; monotonicity unchecked")
        return False
    bad = np.flatnonzero(vals[:n_samples] > vals[n_samples:] + 1e-12)
    if bad.size:
        notes.append(f"monotonicity violated near p={p[bad[0]].round(4).tolist()}")
        return False
    return True
