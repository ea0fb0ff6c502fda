"""Quantitative comparison of finite-time walks against their limit laws.

"Empirical" here always means exactly computed finite-time
probabilities: the evolution is unitary and deterministic, nothing is
sampled.  The harness rescales positions by time, measures the
Kolmogorov (sup-CDF) distance to a limit law, tracks moment errors, and
produces the per-site point approximation ``density(x/t)/t`` that can be
overlaid on a simulated distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fourier import evolve_fourier
from .limitlaw import VARIANT_LAWS, LimitLaw, _moment_order, make_limit_law
from .walk import VARIANTS, CoinSpinor, Distribution, WalkParams, distribution

__all__ = [
    "ComparisonReport",
    "empirical_moment",
    "kolmogorov_distance",
    "rescaled_density_points",
    "envelope_deviation",
    "run_comparison",
]

_CDF_GRID_NODES = 8193
_SMOOTHING_WIDTH = 5


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of scoring one evolved walk against one limit law.

    ``positions``, ``simulated`` and ``approx`` are parallel arrays over
    the simulated window: exact probabilities beside the rescaled
    limit-density points.  ``moment_errors`` pairs each tested moment
    order with ``|empirical - limit|``.  ``smoothing_width`` records the
    moving-average window (in sites) used when comparing the points
    against the oscillating simulation.
    """

    t: int
    variant: str
    law_kind: str
    ks_distance: float
    moment_errors: tuple[tuple[int, float], ...]
    positions: np.ndarray
    simulated: np.ndarray
    approx: np.ndarray
    smoothing_width: int = _SMOOTHING_WIDTH


def empirical_moment(dist: Distribution, t: int, r: int) -> float:
    """Moment ``sum_x (x/t)^r P(x)`` of the rescaled position, ``t >= 1``,
    ``r`` a nonnegative integer."""
    if t < 1:
        raise ValueError("rescaling time must be at least 1")
    r = _moment_order(r)
    # One array throughout: at t = 1e5 each temporary would be 1.6 MB.
    xs = np.arange(dist.x_min, dist.x_min + len(dist.probs), dtype=float)
    xs /= t
    if r == 2:
        np.square(xs, out=xs)
    elif r != 1:
        np.power(xs, r, out=xs)
    xs *= dist.probs
    return float(np.sum(xs))


# Each table holds two 8193-node arrays (131 KB).  A few entries keep the
# tables of a handful of laws that are scored again and again warm
# without letting a run over many distinct laws grow without bound.
@lru_cache(maxsize=16)
def _cdf_table(law: LimitLaw) -> tuple[np.ndarray, np.ndarray]:
    """Limit CDF sampled on an edge-clustered grid over the support.

    The grid is uniform in the substitution angle ``x = hi * sin(theta)``
    so nodes cluster at the support edges where the density diverges;
    per-panel CDF mass stays ~1e-4 even there, which bounds the
    interpolation error of the Kolmogorov scan.  The integrand is the
    law's density in the angle, finite at both end nodes.
    """
    theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, _CDF_GRID_NODES)
    xs = law.support_hi * np.sin(theta)
    dens = law.substituted_density(theta)
    # cumulative trapezoid, starting at 0 on the left edge
    panels = np.diff(theta) * (dens[1:] + dens[:-1]) / 2.0
    return xs, np.concatenate(([0.0], np.cumsum(panels)))


def kolmogorov_distance(dist: Distribution, t: int, law: LimitLaw) -> float:
    """Sup over lattice sites of ``|F_empirical(x) - F_limit(x/t)|``.

    The empirical CDF is evaluated at (the right limit of) each site;
    the limit CDF comes from a precomputed monotone interpolant.
    """
    if t < 1:
        raise ValueError("rescaling time must be at least 1")
    xs_grid, cdf_grid = _cdf_table(law)
    rescaled = dist.positions() / t
    gap = np.cumsum(dist.probs)
    lim = np.interp(rescaled, xs_grid, cdf_grid, left=0.0, right=cdf_grid[-1])
    np.subtract(gap, lim, out=gap)
    return float(np.max(np.abs(gap, out=gap)))


def rescaled_density_points(
    law: LimitLaw, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site limit approximation ``(x, density(x/t)/t)`` for ``x in [-t, t]``."""
    if t < 1:
        raise ValueError("rescaling time must be at least 1")
    positions = np.arange(-t, t + 1)
    approx = law.density(positions / t) / t
    return positions, approx


def envelope_deviation(report: ComparisonReport) -> float:
    """Mean absolute gap between the limit points and the smoothed simulation.

    Smooths the simulated probabilities with the report's moving-average
    window before comparing, since the finite-time distribution
    oscillates site to site around the density envelope.
    """
    width = report.smoothing_width
    kernel = np.full(width, 1.0 / width)
    smooth = np.convolve(report.simulated, kernel, mode="same")
    return float(np.mean(np.abs(report.approx - smooth)))


def run_comparison(
    params: WalkParams,
    coin: CoinSpinor,
    t: int,
    variant: str = VARIANTS[0],
    law_kind: str = "theorem1",
    n: int = 0,
    moments: tuple[int, ...] = (1, 2),
) -> ComparisonReport:
    """Evolve a walk, score it against a limit law, return the report.

    The walk is evolved by :func:`~qwalk.fourier.evolve_fourier`, which
    is exact and matches the lattice stepper :func:`~qwalk.walk.evolve`
    to within 1e-12 in total variation at O(t log t) cost.  The law kind
    must match the variant (``theorem1``/``standard`` for the full walk,
    ``cmv_only`` for the swap-free walk).  ``t = 0`` is allowed and
    degenerates to rescaling by 1; :func:`~qwalk.fourier.evolve_fourier`
    refuses a negative ``t`` with a ``ValueError``.
    """
    allowed = VARIANT_LAWS.get(variant)
    if allowed is None:
        raise ValueError(f"unknown variant {variant!r}")
    if law_kind not in allowed:
        raise ValueError(
            f"law kind {law_kind!r} inconsistent with variant {variant!r}"
        )
    law = make_limit_law(law_kind, params, coin, n=n)
    dist = distribution(evolve_fourier(coin, params, t, variant=variant))
    scale = max(t, 1)
    ks = kolmogorov_distance(dist, scale, law)
    errors = tuple(
        (r, abs(empirical_moment(dist, scale, r) - law.moment(r)))
        for r in moments
    )
    positions = dist.positions()
    approx = law.density(positions / scale) / scale
    return ComparisonReport(
        t=t,
        variant=variant,
        law_kind=law_kind,
        ks_distance=ks,
        moment_errors=errors,
        positions=positions,
        simulated=dist.probs.copy(),
        approx=approx,
    )
