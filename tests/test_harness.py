"""Finite-time vs limit-law comparison machinery."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    COIN_BAL,
    COIN_RIGHT,
    PARAMS_SPECIAL,
    PARAMS_CANONICAL,
    REGRESSION_GRID,
    envelope_deviation,
    whole_kolmogorov_distance,
)

from qwalk import (
    Distribution,
    WalkParams,
    distribution,
    empirical_moment,
    evolve,
    evolve_fourier,
    kolmogorov_distance,
    make_limit_law,
    run_comparison,
    support_halfwidth,
)
from qwalk.fourier import _PIECE


def test_empirical_moment_zeroth_is_total_mass():
    dist = distribution(evolve(COIN_BAL, PARAMS_CANONICAL, 40))
    assert empirical_moment(dist, 40, 0) == pytest.approx(1.0, abs=1e-12)


def test_empirical_moment_point_mass():
    dist = Distribution(x_min=0, probs=np.array([1.0]))
    assert empirical_moment(dist, 5, 1) == 0.0
    assert empirical_moment(dist, 5, 2) == 0.0


def _reference_empirical_moment(dist, t, r):
    """The moment as ``sum((positions/t)**r * probs)``, one new array per step."""
    xs = dist.positions() / t
    return float(np.sum(xs**r * dist.probs))


@pytest.mark.parametrize("params", [PARAMS_CANONICAL, WalkParams(0.3, -2.0)])
def test_empirical_moment_in_place_changes_no_bit(params):
    """Scaling, raising and weighting in one array leaves every bit as the
    array-per-step form gives it, pairwise sum included."""
    for t in (1, 7, 2000, 100_000):
        dist = distribution(evolve_fourier(COIN_BAL, params, t))
        for r in range(6):
            assert empirical_moment(dist, t, r) == _reference_empirical_moment(
                dist, t, r
            )


def test_empirical_moment_rejects_bad_arguments():
    dist = Distribution(x_min=0, probs=np.array([1.0]))
    with pytest.raises(ValueError):
        empirical_moment(dist, 0, 1)
    with pytest.raises(ValueError):
        empirical_moment(dist, 5, -1)


def test_kolmogorov_distance_vanishes_on_discretized_law():
    """On masses sampled from the law itself the metric is the largest mass.

    Masses are CDF increments over ``((x-1)/t, x/t]`` so the empirical
    CDF agrees with the law at every site from the right; from the left
    it is one mass short.  What remains is interpolation error of the
    law's CDF table.
    """
    t = 500
    law = make_limit_law("theorem1", PARAMS_CANONICAL, COIN_BAL)
    xs = np.arange(-t, t + 1)
    masses = law.cdf(xs / t) - law.cdf((xs - 1) / t)
    masses = np.maximum(masses, 0.0)
    masses /= masses.sum()
    dist = Distribution(x_min=-t, probs=masses)
    assert abs(kolmogorov_distance(dist, t, law) - np.max(masses)) <= 5e-4


def test_kolmogorov_distance_bounds_and_validation():
    law = make_limit_law("theorem1", PARAMS_CANONICAL, COIN_BAL)
    dist = distribution(evolve(COIN_BAL, PARAMS_CANONICAL, 30))
    ks = kolmogorov_distance(dist, 30, law)
    assert 0.0 <= ks <= 1.0
    with pytest.raises(ValueError):
        kolmogorov_distance(dist, 0, law)


@pytest.mark.parametrize("params, coin, variant, law_kind, n", REGRESSION_GRID[::3])
def test_kolmogorov_distance_is_the_plain_sup(params, coin, variant, law_kind, n):
    """The in-place scan returns the larger of max |cumsum - interp| and
    max |cumsum - probs - interp| (right and left limits) bit for bit."""
    t = 300
    law = make_limit_law(law_kind, params, coin, n=n)
    dist = distribution(evolve(coin, params, t, variant=variant))
    xs_grid, cdf_grid = law._cdf_table
    lim = np.interp(
        dist.positions() / t, xs_grid, cdf_grid, left=0.0, right=cdf_grid[-1]
    )
    cum = np.cumsum(dist.probs)
    expected = float(
        max(np.max(np.abs(cum - lim)), np.max(np.abs(cum - lim - dist.probs)))
    )
    assert kolmogorov_distance(dist, t, law) == expected


@pytest.mark.parametrize(
    "t", [1, 2, 3, _PIECE // 2, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 5]
)
@pytest.mark.parametrize(
    "params, coin, variant, law_kind, n",
    [REGRESSION_GRID[0], REGRESSION_GRID[5], REGRESSION_GRID[7]],
)
def test_scans_in_pieces_equal_whole_window_scans(
    params, coin, variant, law_kind, n, t
):
    """The Kolmogorov distance and the report's density points, both
    computed a piece at a time, equal their whole-window forms bit for
    bit, for theorem1, standard and cmv_only laws; the window of 2t + 1
    sites ends a site past a piece (t = P/2, P), a site short of one
    (P - 1) or inside several."""
    law = make_limit_law(law_kind, params, coin, n=n)
    report = run_comparison(params, coin, t, variant=variant, law_kind=law_kind, n=n)
    dist = Distribution(x_min=-t, probs=report.simulated)
    assert report.ks_distance == whole_kolmogorov_distance(dist, t, law)
    assert np.array_equal(report.approx, law.density(report.positions / t) / t)


def test_kolmogorov_distance_allocation_at_depth():
    """At t = 1e5 the scan allocates under 1 MB: its arrays are pieces,
    none as long as the window (1.6 MB a float array)."""
    t = 100_000
    law = make_limit_law("theorem1", PARAMS_CANONICAL, COIN_BAL)
    dist = distribution(evolve_fourier(COIN_BAL, PARAMS_CANONICAL, t))
    assert law._cdf_table  # built before tracing: the law caches it
    tracemalloc.start()
    try:
        kolmogorov_distance(dist, t, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_kolmogorov_distance_decreases_along_time():
    law = make_limit_law("theorem1", PARAMS_CANONICAL, COIN_RIGHT)
    previous = None
    for t in (100, 200, 500):
        dist = distribution(evolve(COIN_RIGHT, PARAMS_CANONICAL, t))
        ks = kolmogorov_distance(dist, t, law)
        if previous is not None:
            # allow a little slack: convergence is O(t^(-1/2)), not monotone
            assert ks <= 1.25 * previous
        previous = ks
    assert previous <= 0.05


def test_rescaled_density_points_window_and_mass():
    """The report's per-site points ``density(x/t)/t`` over ``[-t, t]``."""
    params = WalkParams(0.85, -1.3)
    t = 500
    report = run_comparison(params, COIN_RIGHT, t)
    positions, approx = report.positions, report.approx
    assert positions[0] == -t and positions[-1] == t
    # Riemann sum of the lattice approximation over unit cells
    assert abs(float(np.sum(approx)) - 1.0) <= 5e-3
    outside = np.abs(positions) > support_halfwidth(params) * t
    assert np.max(approx[outside]) == 0.0


def test_envelope_tracks_smoothed_simulation():
    """Limit points sit on the local average of the oscillating profile."""
    report = run_comparison(PARAMS_SPECIAL, COIN_BAL, 500, law_kind="standard")
    assert envelope_deviation(report) <= 2e-4


def test_run_comparison_report_fields():
    report = run_comparison(PARAMS_CANONICAL, COIN_BAL, 100)
    assert report.t == 100
    assert report.variant == "full"
    assert report.law_kind == "theorem1"
    assert 0.0 <= report.ks_distance <= 1.0
    assert [r for r, _ in report.moment_errors] == [1, 2]
    assert report.positions[0] == -100 and report.positions[-1] == 100
    assert report.simulated.shape == report.positions.shape
    assert report.approx.shape == report.positions.shape
    assert report.simulated.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_comparison_takes_the_law_the_input_decides():
    """Without a law kind, the variant's own; without ``n``, the standard
    law's branch from nu.  A given kind or ``n`` is still checked."""
    params = WalkParams(0.3, 0.7)
    report = run_comparison(params, COIN_RIGHT, 50, variant="cmv_only")
    assert report.law_kind == "cmv_only"
    assert report.ks_distance == run_comparison(
        params, COIN_RIGHT, 50, variant="cmv_only", law_kind="cmv_only"
    ).ks_distance
    special = WalkParams(PARAMS_SPECIAL.rho, -math.pi / 2)
    report = run_comparison(special, COIN_BAL, 50, law_kind="standard")
    explicit = run_comparison(special, COIN_BAL, 50, law_kind="standard", n=1)
    np.testing.assert_array_equal(report.approx, explicit.approx)
    assert report.moment_errors == explicit.moment_errors
    with pytest.raises(ValueError, match="inconsistent"):
        run_comparison(special, COIN_BAL, 50, law_kind="standard", n=0)
    with pytest.raises(ValueError, match="does not fit"):
        run_comparison(params, COIN_RIGHT, 50, variant="cmv_only", law_kind="theorem1")


def test_run_comparison_validates_inputs():
    with pytest.raises(ValueError, match="unknown variant 'sideways'"):
        run_comparison(PARAMS_CANONICAL, COIN_BAL, 10, variant="sideways")
    with pytest.raises(ValueError):
        run_comparison(PARAMS_CANONICAL, COIN_BAL, 10, law_kind="cmv_only")
    with pytest.raises(ValueError):
        run_comparison(
            PARAMS_CANONICAL, COIN_BAL, 10, variant="cmv_only", law_kind="theorem1"
        )
    with pytest.raises(ValueError):
        run_comparison(PARAMS_CANONICAL, COIN_BAL, -1)


def test_run_comparison_accepts_time_zero():
    report = run_comparison(PARAMS_CANONICAL, COIN_BAL, 0)
    assert report.t == 0
    assert report.positions.tolist() == [0]
    assert math.isfinite(report.ks_distance)


def test_special_parameters_score_identically_under_both_laws():
    """theorem1 and standard coincide on the special set, so do reports."""
    general = run_comparison(PARAMS_SPECIAL, COIN_BAL, 200, law_kind="theorem1")
    special = run_comparison(
        PARAMS_SPECIAL, COIN_BAL, 200, law_kind="standard", n=0
    )
    assert general.ks_distance == pytest.approx(
        special.ks_distance, abs=1e-12
    )
    for (_, err_g), (_, err_s) in zip(
        general.moment_errors, special.moment_errors
    ):
        assert err_g == pytest.approx(err_s, abs=1e-9)


def test_swap_free_comparison_converges():
    report = run_comparison(
        PARAMS_CANONICAL, COIN_BAL, 500, variant="cmv_only", law_kind="cmv_only"
    )
    assert report.ks_distance <= 0.05


@pytest.mark.parametrize(
    "params, coin, variant, law_kind, n", REGRESSION_GRID
)
def test_regression_grid_weak_convergence(params, coin, variant, law_kind, n):
    """Every tracked configuration improves from t=100 to t=500."""
    ks = {
        t: run_comparison(
            params, coin, t, variant=variant, law_kind=law_kind, n=n
        ).ks_distance
        for t in (100, 500)
    }
    assert ks[500] < ks[100]
    assert ks[500] <= 0.05


@pytest.mark.parametrize(
    "params, coin, variant, law_kind, n", REGRESSION_GRID
)
def test_run_comparison_matches_lattice_oracle(params, coin, variant, law_kind, n):
    """The report's probabilities equal the lattice stepper's to 1e-12 TV.

    The grid covers the special set, whose gap-fallback nodes the
    engine powers directly, and the swap-free walk.
    """
    t = 600
    report = run_comparison(
        params, coin, t, variant=variant, law_kind=law_kind, n=n
    )
    oracle = distribution(evolve(coin, params, t, variant=variant))
    np.testing.assert_array_equal(report.positions, oracle.positions())
    assert 0.5 * np.sum(np.abs(report.simulated - oracle.probs)) <= 1e-12


@pytest.mark.parametrize(
    "params, coin, law_kind, n",
    [(params, coin, kind, n) for params, coin, _, kind, n in REGRESSION_GRID]
    + [(PARAMS_SPECIAL, COIN_BAL, "theorem1", 0)],
)
def test_cdf_table_ends_at_unit_mass(params, coin, law_kind, n):
    """The law's CDF table runs from exactly 0 to 1 within 1e-9."""
    _, cdf = make_limit_law(law_kind, params, coin, n=n)._cdf_table
    assert cdf[0] == 0.0
    assert abs(cdf[-1] - 1.0) <= 1e-9
