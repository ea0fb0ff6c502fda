"""Quantitative comparison of finite-time walks against their limit laws.

"Empirical" here always means exactly computed finite-time
probabilities: the evolution is unitary and deterministic, nothing is
sampled.  The harness rescales positions by time, measures the
Kolmogorov (two-sided sup-CDF) distance to a limit law, tracks moment
errors, and produces the per-site point approximation ``density(x/t)/t``
that can be overlaid on a simulated distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import _PIECE, evolve_fourier
from .limitlaw import VARIANT_LAWS, LimitLaw, _moment_order, make_limit_law
from .walk import VARIANTS, CoinSpinor, Distribution, WalkParams, distribution

__all__ = [
    "ComparisonReport",
    "empirical_moment",
    "kolmogorov_distance",
    "run_comparison",
]

# Moment orders a report scores.
_MOMENTS = (1, 2)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of scoring one evolved walk against one limit law.

    ``positions``, ``simulated`` and ``approx`` are parallel arrays over
    the simulated window: exact probabilities beside the rescaled
    limit-density points.  ``moment_errors`` pairs each tested moment
    order with ``|empirical - limit|``.  ``approx`` is the raw
    ``density(x/t)/t``; nothing here smooths.
    """

    t: int
    variant: str
    law_kind: str
    ks_distance: float
    moment_errors: tuple[tuple[int, float], ...]
    positions: np.ndarray
    simulated: np.ndarray
    approx: np.ndarray


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


def kolmogorov_distance(dist: Distribution, t: int, law: LimitLaw) -> float:
    """Sup over the real line of ``|F_empirical(x) - F_limit(x/t)|``.

    With nonnegative masses the empirical CDF only steps up, so it is
    furthest above the monotone limit CDF at a site's right limit and
    furthest below at its left limit; both are scanned, against the
    law's table of its own :meth:`~qwalk.limitlaw.LimitLaw.cdf`.  The
    scan runs in pieces with a running sup, each piece's cumulative sum
    seeded with the mass before it, so every value is the float a
    cumulative sum over the whole window gives, and nothing of the
    window's length is built.
    """
    if t < 1:
        raise ValueError("rescaling time must be at least 1")
    xs_grid, cdf_grid = law._cdf_table
    mass, above, below = 0.0, -np.inf, np.inf
    for lo in range(0, len(dist.probs), _PIECE):
        probs = dist.probs[lo : lo + _PIECE]
        gap = probs.copy()
        gap[0] += mass
        np.cumsum(gap, out=gap)
        mass = gap[-1]
        x_lo = dist.x_min + lo
        gap -= np.interp(np.arange(x_lo, x_lo + len(gap)) / t, xs_grid, cdf_grid)
        above = max(above, gap.max())
        gap -= probs
        below = min(below, gap.min())
    return float(max(above, -below))


def run_comparison(
    params: WalkParams,
    coin: CoinSpinor,
    t: int,
    variant: str = VARIANTS[0],
    law_kind: str | None = None,
    n: int | None = None,
) -> ComparisonReport:
    """Evolve a walk, score it against a limit law, return the report.

    The walk is evolved by :func:`~qwalk.fourier.evolve_fourier`, which
    is exact and matches the lattice stepper :func:`~qwalk.walk.evolve`
    to within 1e-12 in total variation at O(t log t) cost.  The law kind
    must match the variant (``theorem1``/``standard`` for the full walk,
    ``cmv_only`` for the swap-free walk); by default it is the variant's
    first.  ``n`` goes to :func:`~qwalk.limitlaw.make_limit_law`.  ``t =
    0`` is allowed and degenerates to rescaling by 1;
    :func:`~qwalk.fourier.evolve_fourier` refuses a negative ``t`` with a
    ``ValueError``.
    """
    kinds = VARIANT_LAWS.get(variant)
    if kinds is None:
        raise ValueError(f"unknown variant {variant!r}")
    if law_kind is None:
        law_kind = kinds[0]
    if law_kind not in kinds:
        raise ValueError(
            f"law kind {law_kind!r} does not fit variant {variant!r};"
            f" the pairs are {VARIANT_LAWS}"
        )
    law = make_limit_law(law_kind, params, coin, n=n)
    dist = distribution(evolve_fourier(coin, params, t, variant=variant))
    scale = max(t, 1)
    ks = kolmogorov_distance(dist, scale, law)
    errors = tuple(
        (r, abs(empirical_moment(dist, scale, r) - law.moment(r)))
        for r in _MOMENTS
    )
    positions = dist.positions()
    approx = np.empty(len(positions))
    for lo in range(0, len(positions), _PIECE):
        sites = positions[lo : lo + _PIECE]
        np.divide(law.density(sites / scale), scale, out=approx[lo : lo + _PIECE])
    return ComparisonReport(
        t=t,
        variant=variant,
        law_kind=law_kind,
        ks_distance=ks,
        moment_errors=errors,
        positions=positions,
        simulated=dist.probs,
        approx=approx,
    )
