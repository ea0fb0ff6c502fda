"""Closed-form limit densities: scalar pieces, laws, and moment routes."""

from __future__ import annotations

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import (
    COIN_BAL,
    COIN_GEN,
    COIN_RIGHT,
    PARAM_POINTS,
    PARAMS_SPECIAL,
    PARAMS_CANONICAL,
    REGRESSION_GRID,
    SQ2,
    branch_eigenvectors,
    branch_radicand,
    closed_form_cdf,
    extremal_momentum,
    momentum_branch_derivative,
    phase_rotation,
    subpanel_cdf,
)
from scipy.optimize import brentq, minimize_scalar
from scipy.special import roots_legendre

from qwalk import (
    CoinSpinor,
    Distribution,
    OutOfSupportError,
    WalkParams,
    empirical_moment,
    group_velocity,
    make_limit_law,
    momentum_branch,
    spectral_limit_moment,
    support_halfwidth,
    support_polynomial,
)
from qwalk.limitlaw import (
    _LEGENDRE_NODES,
    _LEGENDRE_WEIGHTS,
    LimitLaw,
    _edge_squares,
    _spectral_nodes,
)

SPECIAL_POINTS = (
    (0, WalkParams(SQ2, math.pi / 2)),
    (1, WalkParams(SQ2, 3 * math.pi / 2)),
)


def _in_edge_angle(law, theta):
    """Density in the edge angle, ``density(h* sin(theta)) * h* cos(theta)``:
    the law's edge form there, the integrand of its cdf and moments."""
    hi = law.support_hi
    return law._edge_form(hi * np.sin(theta), hi * np.cos(theta))


# ---------------------------------------------------------------- scalars


def test_support_polynomial_special_quartic():
    """At the special parameters the quartic collapses to (1-2x^2)^2/4."""
    params = WalkParams(SQ2, math.pi / 2)
    for x in (0.0, 0.3, 0.7):
        expected = (1.0 - 2.0 * x * x) ** 2 / 4.0
        assert support_polynomial(x, params) == pytest.approx(
            expected, abs=1e-15
        )


def test_support_polynomial_at_origin():
    for params in PARAM_POINTS:
        assert support_polynomial(0.0, params) == pytest.approx(
            (params.rho * params.rho0) ** 2, abs=1e-15
        )


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_support_polynomial_vanishes_at_support_edge(params):
    hstar = support_halfwidth(params)
    assert abs(support_polynomial(hstar, params)) < 1e-12
    # and h* is precisely the sign-change point of the quartic
    root = brentq(
        lambda x: support_polynomial(x, params), hstar / 2, hstar + 0.01,
        xtol=1e-14,
    )
    assert root == pytest.approx(hstar, abs=1e-12)


@pytest.mark.parametrize("n, params", SPECIAL_POINTS)
def test_branch_radicands_special_sum(n, params):
    """sqrt(eta+) + sqrt(eta-) collapses to sqrt(1-2x^2) at the special set."""
    xs = np.linspace(-0.7, 0.7, 41)
    total = np.sqrt(np.maximum(branch_radicand(xs, params, 1), 0.0)) + np.sqrt(
        np.maximum(branch_radicand(xs, params, -1), 0.0)
    )
    np.testing.assert_allclose(total, np.sqrt(1.0 - 2.0 * xs**2), atol=1e-7)


def test_branch_radicands_nu_zero_closed_form():
    params = WalkParams(0.6, 0.0)
    p_sq = (params.rho * params.rho0) ** 2
    xs = np.linspace(-0.4, 0.4, 21)
    for sign in (1, -1):
        np.testing.assert_allclose(
            branch_radicand(xs, params, sign),
            (1.0 - p_sq) * (1.0 - xs**2),
            atol=1e-15,
        )


def test_branch_radicands_nonnegative_inside_support():
    params = WalkParams(0.6, 1.0)
    xs = np.linspace(-1.0, 1.0, 2001) * support_halfwidth(params) * 0.9999
    for sign in (1, -1):
        assert np.min(branch_radicand(xs, params, sign)) > -1e-12


def test_branch_radicand_rejects_bad_arguments():
    params = WalkParams(0.6, 1.0)
    with pytest.raises(ValueError):
        branch_radicand(0.1, params, 2)
    with pytest.raises(OutOfSupportError):
        branch_radicand(support_halfwidth(params) + 0.01, params, 1)


def test_coin_weight_right_coin_is_one_plus_x():
    """The right coin has no bias term: the weight ``1 + coeff*x`` is ``1 + x``."""
    law = make_limit_law("theorem1", WalkParams(0.77, -0.9), COIN_RIGHT)
    assert law.coeff == pytest.approx(1.0, abs=1e-15)


def test_coin_weight_real_balanced_coin_nu_zero():
    """(1/sqrt2, 1/sqrt2) at nu=0, rho=1/sqrt2: coefficient -1, weight 1-x."""
    coin = CoinSpinor(SQ2, SQ2)
    law = make_limit_law("theorem1", WalkParams(SQ2, 0.0), coin)
    assert law.coeff == pytest.approx(-1.0, abs=1e-14)


def test_weighted_density_keeps_unit_mass():
    """The affine weight integrates to 1 against the symmetric density."""
    law = make_limit_law("theorem1", WalkParams(0.6, 1.0), COIN_GEN)
    assert law.coeff != 0.0
    assert law.moment(0) == pytest.approx(1.0, abs=1e-8)


def test_support_halfwidth_special_anchor():
    assert support_halfwidth(PARAMS_SPECIAL) == pytest.approx(SQ2, abs=1e-12)


def test_support_halfwidth_nu_zero_values():
    for rho in np.linspace(0.05, 0.95, 10):
        params = WalkParams(float(rho), 0.0)
        assert support_halfwidth(params) == pytest.approx(
            params.rho * params.rho0, abs=1e-12
        )


def _halfwidth_40_digits(rho: float, nu: float) -> mpmath.mpf:
    """h* = (hi - lo)/2 at 40 digits, with rho0 = sqrt(1 - rho^2) from the double rho."""
    with mpmath.workdps(40):
        rho_m = mpmath.mpf(rho)
        p = rho_m * mpmath.sqrt(1 - rho_m**2)
        q = (p * mpmath.sin(mpmath.mpf(nu))) ** 2
        return (mpmath.sqrt((1 + p) ** 2 - q) - mpmath.sqrt((1 - p) ** 2 - q)) / 2


def test_support_halfwidth_matches_extended_precision():
    """h* to 5e-16 relative over seeded (rho, nu): no cancellation for
    small rho*rho0 (hi - lo) or next to the special set ((1 - p)^2 - q)."""
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for rho, nu in zip(rng.uniform(0.001, 0.9, 3000), rng.uniform(-math.pi, math.pi, 3000)):
        ref = _halfwidth_40_digits(rho, nu)
        got = support_halfwidth(WalkParams(float(rho), float(nu)))
        worst = max(worst, abs(float((got - ref) / ref)))
    assert worst <= 5e-16


@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-8])
def test_support_halfwidth_next_to_the_special_set(d):
    """At distance d from (1/sqrt(2), pi/2) along (0.6, 0.8), h* keeps
    every digit; the subtraction (1 - p)^2 - q lost 3.6e-14 relative at
    d = 1e-3 and 1.6e-9 at 1e-8."""
    rho, nu = SQ2 + 0.6 * d, math.pi / 2 + 0.8 * d
    ref = _halfwidth_40_digits(rho, nu)
    got = support_halfwidth(WalkParams(rho, nu))
    assert abs(float((got - ref) / ref)) <= 5e-16


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_support_halfwidth_is_velocity_maximum(params):
    ks = np.linspace(-math.pi, math.pi, 4001)
    speeds = np.abs(group_velocity(ks, params))
    i = int(np.argmax(speeds))
    refined = minimize_scalar(
        lambda k: -abs(group_velocity(float(k), params)),
        bounds=(ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert -refined.fun == pytest.approx(
        support_halfwidth(params), abs=1e-8
    )


def test_extremal_momentum_nu_zero_is_zero():
    assert extremal_momentum(WalkParams(0.37, 0.0)) == 0.0


def test_extremal_momentum_attains_halfwidth():
    params = PARAMS_CANONICAL
    kstar = extremal_momentum(params)
    assert group_velocity(kstar, params) == pytest.approx(
        support_halfwidth(params), abs=1e-10
    )


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_extremal_momentum_is_stationary(params):
    kstar = extremal_momentum(params)
    eps = 1e-6
    deriv = (
        group_velocity(kstar + eps, params)
        - group_velocity(kstar - eps, params)
    ) / (2 * eps)
    assert abs(deriv) < 1e-6


def test_momentum_branches_at_zero_velocity():
    """k+(0) = pi/2 and k-(0) = -pi/2; both are zeros of the velocity."""
    params = WalkParams(0.6, 0.8)
    assert momentum_branch(0.0, params, 1) == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    assert momentum_branch(0.0, params, -1) == pytest.approx(
        -math.pi / 2, abs=1e-12
    )
    for sign in (1, -1):
        k0 = momentum_branch(0.0, params, sign)
        assert group_velocity(k0, params) == pytest.approx(0.0, abs=1e-10)


def test_momentum_branch_derivative_matches_finite_difference():
    params = WalkParams(0.6, 0.8)
    hstar = support_halfwidth(params)
    xs = np.linspace(0.0, hstar, 102)[1:-1]
    eps = np.minimum(1e-6, (hstar - xs) / 4)
    for sign in (1, -1):
        fd = (
            momentum_branch(xs + eps, params, sign)
            - momentum_branch(xs - eps, params, sign)
        ) / (2 * eps)
        np.testing.assert_allclose(
            momentum_branch_derivative(xs, params, sign), fd, atol=1e-6
        )


def _branch_derivative_40_digits(x: float, params: WalkParams, sign: int) -> float:
    """``-sign sqrt(eta_sign) / ((1 - x^2) sqrt(xi))`` at 40 digits, from the
    radicand's defining sum, with ``rho0 = sqrt(1 - rho^2)``."""
    with mpmath.workdps(40):
        rho, nu, x = mpmath.mpf(params.rho), mpmath.mpf(params.nu), mpmath.mpf(x)
        rho0 = mpmath.sqrt(1 - rho**2)
        p, sv, cv = rho * rho0, mpmath.sin(nu), mpmath.cos(nu)
        xi = (rho**2 - x**2) * (rho0**2 - x**2) - (p * cv * x) ** 2
        eta = (
            1 - p**2 * (1 + sv**2) - (1 - (p * cv) ** 2) * x**2
            + 2 * sign * p * sv * mpmath.sqrt(xi)
        )
        return float(-sign * mpmath.sqrt(eta) / ((1 - x**2) * mpmath.sqrt(xi)))


@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("nu_sign", [1, -1])
def test_momentum_branch_derivative_next_to_the_special_set(d, nu_sign):
    """Both branches within 1e-12 relative of 40 digits at x = 0.05..0.95 h*.

    The radicand of the sign opposite to sin(nu) is of order d**2 there.
    Formed by cancellation it was off by 7.6e-11, 4.6e-7 and 1.2e-2
    relative at d = 1e-3, 1e-5 and 1e-7; as the product over the large
    one, by at most 2.2e-15.
    """
    for d_rho, d_nu in ((0.6, 0.8), (-0.6, -0.8), (1.0, 0.0), (0.0, 1.0)):
        params = WalkParams(SQ2 + d_rho * d, nu_sign * (math.pi / 2 + d_nu * d))
        xs = np.linspace(0.05, 0.95, 19) * support_halfwidth(params)
        for sign in (1, -1):
            got = momentum_branch_derivative(xs, params, sign)
            ref = np.array([_branch_derivative_40_digits(x, params, sign) for x in xs])
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def _branch_50_digits(x: float, params: WalkParams, sign: int) -> float:
    """``arcsin((sign sqrt(xi) - p sin(nu) x^2) / (p (1 - x^2)))`` at 50 digits."""
    with mpmath.workdps(50):
        rho, nu, x = mpmath.mpf(params.rho), mpmath.mpf(params.nu), mpmath.mpf(x)
        rho0 = mpmath.sqrt(1 - rho**2)
        p, sv, cv = rho * rho0, mpmath.sin(nu), mpmath.cos(nu)
        xi = (rho**2 - x**2) * (rho0**2 - x**2) - (p * cv * x) ** 2
        return float(mpmath.asin((sign * mpmath.sqrt(xi) - p * sv * x**2) / (p * (1 - x**2))))


@pytest.mark.parametrize(
    "params",
    [
        WalkParams(0.6, 0.7),
        WalkParams(0.85, -1.3),
        WalkParams(0.3, 2.6),
        WalkParams(SQ2 + 1e-8, -math.pi / 2),
        WalkParams(SQ2, -math.pi / 2 + 1e-8),
    ],
)
def test_momentum_branch_near_zero_velocity_and_the_special_set(params):
    """Both branches within 1e-15 of 50 digits at x = 1e-8 ... 0.99 h*.

    Where ``k`` nears +-pi/2 the arcsin of its sine loses digits: it was
    off by up to 1.1e-8 at x = 1e-8 h*, 2.3e-10 at 1e-6 h*, and 8e-9 at
    0.5 h* 1e-8 from the special set; the arctan2 of sine and cosine
    numerators is within 4.5e-16.
    """
    xs = np.array([1e-8, 1e-6, 1e-4, 0.5, 0.99]) * support_halfwidth(params)
    for sign in (1, -1):
        got = momentum_branch(xs, params, sign)
        ref = np.array([_branch_50_digits(x, params, sign) for x in xs])
        assert np.max(np.abs(got - ref)) <= 1e-15


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_momentum_branches_invert_group_velocity(params):
    hstar = support_halfwidth(params)
    xs = np.linspace(0.0, hstar, 102)[1:-1]
    for sign in (1, -1):
        ks = momentum_branch(xs, params, sign)
        np.testing.assert_allclose(
            group_velocity(ks, params), xs, atol=1e-10
        )


def test_momentum_branch_rejects_edge_and_beyond():
    params = WalkParams(0.6, 0.8)
    hstar = support_halfwidth(params)
    for bad in (hstar, hstar + 0.1, -hstar):
        with pytest.raises(OutOfSupportError):
            momentum_branch(bad, params, 1)
        with pytest.raises(OutOfSupportError):
            momentum_branch_derivative(bad, params, -1)
    with pytest.raises(ValueError, match="sign must be"):
        momentum_branch(0.1 * hstar, params, 0)


# ------------------------------------------------------------------ laws


def test_make_limit_law_validates_inputs():
    with pytest.raises(ValueError):
        make_limit_law("gaussian", PARAMS_CANONICAL, COIN_BAL)
    # a non-unit coin cannot be built, so it never reaches a law
    with pytest.raises(ValueError, match="unit norm"):
        CoinSpinor(1.0, 1.0)
    with pytest.raises(ValueError):
        make_limit_law("standard", PARAMS_CANONICAL, COIN_BAL)  # off special set
    with pytest.raises(ValueError):
        make_limit_law("standard", PARAMS_SPECIAL, COIN_BAL, n=1)  # parity


@pytest.mark.parametrize("n, params", SPECIAL_POINTS)
def test_standard_law_takes_its_branch_from_nu(n, params):
    """Without ``n``, the law of the branch nu decides, bit for bit."""
    for coin in (COIN_BAL, COIN_GEN):
        law = make_limit_law("standard", params, coin)
        assert law == make_limit_law("standard", params, coin, n=n)
        assert law == make_limit_law("standard", params, coin, n=n + 2)


@pytest.mark.parametrize("n, params", SPECIAL_POINTS)
def test_theorem_density_reduces_to_standard(n, params):
    """Pointwise equality of the general and special-case densities."""
    for coin in (COIN_BAL, COIN_RIGHT, COIN_GEN):
        general = make_limit_law("theorem1", params, coin)
        special = make_limit_law("standard", params, coin, n=n)
        xs = np.linspace(-0.9, 0.9, 200)
        np.testing.assert_allclose(
            general.density(xs), special.density(xs), atol=1e-12
        )


def test_density_vanishes_outside_support():
    law = make_limit_law("theorem1", WalkParams(0.6, 1.0), COIN_BAL)
    xs = np.array([-1.0, -0.99, law.support_hi, law.support_hi + 1e-9, 0.98, 1.0])
    np.testing.assert_allclose(law.density(xs), 0.0, atol=0.0)
    assert law.density(2.0) == 0.0


def test_density_nonnegative_inside_support():
    for kind, params, coin in (
        ("theorem1", WalkParams(0.85, -1.3), COIN_GEN),
        ("standard", PARAMS_SPECIAL, COIN_BAL),
        ("cmv_only", WalkParams(0.3, 0.7), COIN_RIGHT),
    ):
        law = make_limit_law(kind, params, coin)
        xs = np.linspace(-law.support_hi, law.support_hi, 4001)[1:-1]
        assert np.min(law.density(xs)) >= 0.0


@pytest.mark.parametrize("kind", ["theorem1", "standard", "cmv_only"])
def test_density_integrates_to_one(kind):
    configs = {
        "theorem1": [(p, COIN_BAL) for p in PARAM_POINTS],
        "standard": [(params, COIN_GEN) for _, params in SPECIAL_POINTS],
        "cmv_only": [(WalkParams(0.3, 0.7), COIN_BAL), (PARAMS_CANONICAL, COIN_RIGHT)],
    }[kind]
    for i, (params, coin) in enumerate(configs):
        n = i if kind == "standard" else 0
        law = make_limit_law(kind, params, coin, n=n)
        assert 0.0 < law.support_hi < 1.0
        assert law.moment(0) == pytest.approx(1.0, abs=1e-6)


def test_theorem1_keeps_unit_mass_next_to_the_special_set():
    """At distance 0 and 1e-12 to 1e-3 from (1/sqrt(2), +-pi/2), along six
    directions, moment(0) and cdf(h*) are 1 within 1e-14: the small branch
    radicand, of order d**2 there, keeps its root."""
    for d in (0.0, 1e-12, 1e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 1e-3):
        for d_rho, d_nu in (
            (0.6, 0.8), (-0.6, 0.8), (0.6, -0.8), (-0.6, -0.8), (1.0, 0.0), (0.0, 1.0)
        ):
            for nu_sign in (1, -1):
                params = WalkParams(SQ2 + d_rho * d, nu_sign * (math.pi / 2 + d_nu * d))
                law = make_limit_law("theorem1", params, COIN_GEN)
                assert abs(law.moment(0) - 1.0) <= 1e-14
                assert abs(law.cdf(law.support_hi) - 1.0) <= 1e-14


def test_cdf_endpoints_and_monotonicity():
    law = make_limit_law("theorem1", PARAMS_CANONICAL, COIN_BAL)
    assert law.cdf(-law.support_hi) == pytest.approx(0.0, abs=1e-9)
    assert law.cdf(-2.0) == 0.0
    assert law.cdf(law.support_hi) == pytest.approx(1.0, abs=1e-6)
    assert law.cdf(2.0) == pytest.approx(1.0, abs=1e-6)
    grid = np.linspace(-law.support_hi, law.support_hi, 41)
    vals = law.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-12)


CLOSED_FORM_LAWS = (
    ("standard", PARAMS_SPECIAL, COIN_BAL, 0),
    ("standard", PARAMS_SPECIAL, COIN_GEN, 0),
    ("standard", WalkParams(SQ2, 3 * math.pi / 2), COIN_RIGHT, 1),
    ("cmv_only", PARAMS_CANONICAL, COIN_BAL, 0),
    ("cmv_only", WalkParams(0.3, 0.7), COIN_GEN, 0),
    ("cmv_only", WalkParams(0.9, -2.0), COIN_RIGHT, 0),
)


@pytest.mark.parametrize("kind, params, coin, n", CLOSED_FORM_LAWS)
def test_cdf_matches_closed_form(kind, params, coin, n):
    """The quadrature CDF equals the elementary antiderivative and is monotone."""
    law = make_limit_law(kind, params, coin, n=n)
    hi = law.support_hi
    xs = np.concatenate(
        (np.linspace(-hi, hi, 401), hi * (1.0 - np.geomspace(1e-16, 1e-3, 20)))
    )
    xs.sort()
    vals = law.cdf(xs)
    assert np.max(np.abs(vals - closed_form_cdf(xs, hi, law.coeff))) <= 1e-10
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("params, coin, variant, kind, n", REGRESSION_GRID)
def test_cdf_array_matches_scalar_calls(params, coin, variant, kind, n):
    """One array call gives each scalar call's value, in any order and shape."""
    law = make_limit_law(kind, params, coin, n=n)
    hi = law.support_hi
    rng = np.random.default_rng(7)
    edge = hi * (1.0 - np.geomspace(1e-16, 1e-2, 15))
    xs = np.concatenate(
        (rng.uniform(-1.2 * hi, 1.2 * hi, 87), edge, -edge, [-hi, 0.0, hi])
    )
    rng.shuffle(xs)
    vals = law.cdf(xs)
    scalars = np.array([law.cdf(float(v)) for v in xs])
    assert isinstance(law.cdf(0.0), float)
    assert np.max(np.abs(vals - scalars)) <= 1e-13
    grid = law.cdf(xs.reshape(8, 15))
    assert grid.shape == (8, 15)
    np.testing.assert_array_equal(grid.ravel(), vals)


GRID_AND_SPECIAL_LAWS = [
    (kind, params, coin, n) for params, coin, _, kind, n in REGRESSION_GRID
] + [("theorem1", PARAMS_SPECIAL, COIN_GEN, 0)]


@pytest.mark.parametrize("kind, params, coin, n", GRID_AND_SPECIAL_LAWS)
def test_cdf_and_density_are_nan_at_nan(kind, params, coin, n):
    """NaN points give NaN, without a warning, and move no other point's bits."""
    law = make_limit_law(kind, params, coin, n=n)
    hi = law.support_hi
    xs = np.array([-2.0, -hi, -0.3 * hi, 0.0, 0.7 * hi, hi, 2.0, -np.inf, np.inf])
    with_nan = np.insert(xs, [0, 3, 9], np.nan)
    nan = np.isnan(with_nan)
    for method in (law.cdf, law.density):
        vals = method(with_nan)
        assert np.all(np.isnan(vals[nan]))
        np.testing.assert_array_equal(vals[~nan], method(xs))
        assert math.isnan(method(math.nan))
        assert isinstance(method(math.nan), float)


@pytest.mark.parametrize("kind, params, coin, n", GRID_AND_SPECIAL_LAWS)
def test_cdf_matches_subpanel_reference(kind, params, coin, n):
    """The panel antiderivative of the cached nodes equals the CDF that
    integrates every sub-panel between queries afresh, to 1e-13."""
    law = make_limit_law(kind, params, coin, n=n)
    hi = law.support_hi
    edge = hi * (1.0 - np.geomspace(1e-16, 1e-2, 15))
    xs = np.concatenate((np.linspace(-1.05 * hi, 1.05 * hi, 2001), edge, -edge))
    assert np.max(np.abs(law.cdf(xs) - subpanel_cdf(law, xs))) <= 1e-13


@pytest.mark.parametrize("kind, params, coin, n", GRID_AND_SPECIAL_LAWS)
def test_cdf_table_is_the_cdf_at_its_nodes(kind, params, coin, n):
    """The Kolmogorov table holds ``cdf`` at its 8193 nodes to 1e-13, plus
    what rounding each node ``h* sin(theta)`` to a float moves the CDF by
    (up to 2.4e-13 at the nodes next to the edges, where the density is
    large)."""
    law = make_limit_law(kind, params, coin, n=n)
    xs, table = law._cdf_table
    assert xs.size == table.size == 8193
    rounding = law.density(xs) * np.spacing(np.abs(xs))
    assert np.all(np.abs(table - law.cdf(xs)) <= 1e-13 + rounding)


def _extremal_coin(kind, params):
    """The coin that maximises ``coeff``: its Bloch vector is the unit
    vector along the gradient of ``coeff``, which is affine in it."""
    if kind == "theorem1":
        q = params.rho0 / params.rho
        grad = (-q * math.cos(params.nu), q * math.sin(params.nu), 1.0)
    else:
        q = params.rho / params.rho0
        grad = (-q * math.cos(params.nu), -q * math.sin(params.nu), 1.0)
    bx, by, bz = np.array(grad) / np.linalg.norm(grad)
    half = 0.5 * math.acos(bz)
    phase = cmath.exp(-1j * math.atan2(by, bx))
    return CoinSpinor(math.cos(half), math.sin(half) * phase)


@pytest.mark.parametrize(
    "kind, params",
    [("theorem1", WalkParams(0.3, 2.0)), ("cmv_only", WalkParams(0.3, 0.7))],
)
def test_cdf_is_monotone_when_the_density_vanishes_at_an_edge(kind, params):
    """With ``|coeff| h*`` at 0.99 (theorem1) and 1 (cmv_only) the density
    falls to or near zero at one edge, where the interpolant's shares
    could turn the CDF down; on 20001 points it never does."""
    law = make_limit_law(kind, params, _extremal_coin(kind, params))
    assert abs(law.coeff) * law.support_hi >= 0.99
    vals = law.cdf(np.linspace(-law.support_hi, law.support_hi, 20001))
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("kind, params, coin, n", GRID_AND_SPECIAL_LAWS)
def test_substituted_density_edges_and_interior(kind, params, coin, n):
    """The density in the edge angle has finite edge limits ``(1 +- c h)/(pi
    sqrt(1 - h^2))`` and is the density times the chord inside.

    The theorem1 law at the special set is included: there the density's
    own form is 0/0 at the edges.
    """
    law = make_limit_law(kind, params, coin, n=n)
    hi = law.support_hi
    for sign in (1, -1):
        expected = (1.0 + sign * law.coeff * hi) / (math.pi * math.sqrt(1.0 - hi * hi))
        edge = _in_edge_angle(law, sign * 0.5 * math.pi)
        assert float(edge) == pytest.approx(expected, rel=1e-12)
    theta = np.linspace(-1.5, 1.5, 301)
    np.testing.assert_allclose(
        _in_edge_angle(law, theta),
        law.density(hi * np.sin(theta)) * hi * np.cos(theta),
        rtol=1e-11,
    )


@pytest.mark.parametrize("kind, params, coin, n", GRID_AND_SPECIAL_LAWS)
def test_density_keeps_its_digits_next_to_the_edges(kind, params, coin, n):
    """``density(x) * sqrt(h^2 - x^2)`` is the density in the edge angle at
    ``asin(x/h)`` to 1e-13 at relative distances 1e-8 to 1e-12 from
    either edge: the density cancels the vanishing edge factor just as
    the CDF's integrand does.
    """
    law = make_limit_law(kind, params, coin, n=n)
    hi = law.support_hi
    eps = np.array([1e-8, 1e-10, 1e-12])
    xs = np.concatenate((hi * (1.0 - eps), -hi * (1.0 - eps)))
    chord = np.sqrt((hi - np.abs(xs)) * (hi + np.abs(xs)))
    np.testing.assert_allclose(
        law.density(xs) * chord,
        _in_edge_angle(law, np.arcsin(xs / hi)),
        rtol=1e-13,
        atol=0.0,
    )


@pytest.mark.parametrize("rho", [1e-160, 1e-300])
def test_density_keeps_its_digits_at_tiny_rho(rho):
    """``h* density(u h*)`` depends on ``rho`` only through rounding once
    ``h*`` is tiny: within 1e-10 relative of its value at rho = 1e-100.
    The chord's square ``h*^2 - x^2`` underflows below h* = 2**-511, and
    density(0) was inf at rho = 1e-300 and 5.6e-6 off at 1e-160.
    """
    u = np.array([0.0, 0.5, -0.5, 0.99, -0.99, 0.999999])

    def scaled(rho):
        law = make_limit_law("theorem1", WalkParams(rho, 0.7), COIN_GEN)
        return law.support_hi * law.density(u * law.support_hi)

    np.testing.assert_allclose(scaled(rho), scaled(1e-100), rtol=1e-10, atol=0.0)


def _array_per_step_ratio(params, h, chord):
    """``_theorem1_radical_ratio`` with one new array per step.

    A test-side copy of its sum/product form without reused arrays; the
    in-place evaluation must round every value alike.
    """
    p, lo_sq, hi_sq = _edge_squares(params)
    lo, h_sq = math.sqrt(lo_sq), h * h
    k1 = 1.0 - (p * math.cos(params.nu)) ** 2
    edge = (1.0 - h_sq) * lo * (p + h_sq) / h
    chord_sq = np.square(chord)
    linear = 2.0 * edge * lo * ((1.0 + p) * lo + k1 * h) / (1.0 - h_sq)
    prod = (lo_sq * hi_sq * chord_sq + linear) * chord_sq + edge * edge
    mean = k1 * chord_sq + edge
    outer = chord_sq + edge / (1.0 - h_sq)
    return np.sqrt((mean + np.sqrt(prod)) / (2.0 * outer))


def _array_per_step_edge_form(law, xs, chord):
    """``LimitLaw._edge_form`` with one new array per step (see above)."""
    vals = (1.0 + law.coeff * xs) / (np.pi * (1.0 - np.square(xs)))
    hi = law.support_hi
    if law.kind == "theorem1":
        return vals * _array_per_step_ratio(law.params, hi, chord)
    return vals * math.sqrt(1.0 - hi * hi)


def _law_queries(law):
    """Array and scalar queries of every route through the edge form."""
    hi = law.support_hi
    x = np.linspace(-1.05 * hi, 1.05 * hi, 2001)
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 501)
    return [
        law.density(x),
        law.density(0.3 * hi),
        _in_edge_angle(law, theta),
        _in_edge_angle(law, 0.5 * math.pi),
        law.cdf(np.linspace(-hi, hi, 200)),
        law.cdf(-0.7 * hi),
    ] + [law.moment(r) for r in range(3)]


@pytest.mark.parametrize(
    "kind, params, coin, n",
    [(kind, params, coin, n) for params, coin, _, kind, n in REGRESSION_GRID]
    + [
        ("theorem1", PARAMS_SPECIAL, COIN_GEN, 0),
        ("theorem1", WalkParams(SQ2 + 1e-6, 0.5 * math.pi - 1e-6), COIN_GEN, 0),
    ],
)
def test_in_place_edge_form_changes_no_bit(kind, params, coin, n, monkeypatch):
    """density, the edge form in the angle, cdf and moment(0..2) equal what the
    array-per-step edge form gives, bit for bit; moment(3..6), raised by
    repeated multiplication, are within 1e-15 of ``xs**r``."""
    law = make_limit_law(kind, params, coin, n=n)
    got = _law_queries(law)
    xs, weighted, _ = law._weighted_nodes
    for r in range(3, 7):
        assert abs(law.moment(r) - float(np.vdot(xs**r, weighted))) <= 1e-15
    monkeypatch.setattr(LimitLaw, "_edge_form", _array_per_step_edge_form)
    want = _law_queries(make_limit_law(kind, params, coin, n=n))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_cdf_allocation_peak():
    """``cdf`` on 1e4 points of a theorem1 law allocates at most 12 MB.

    The integrand is not evaluated per query; the peak holds each
    point's 17 Legendre values, their 15 differences, its 16 shares and
    16 gathered node values, 4.39 MB measured.  Splitting the panels at
    the queries and integrating each sub-panel afresh peaked at
    10.95 MB, with the array-per-step edge form at 18.5 MB.
    """
    law = make_limit_law("theorem1", WalkParams(0.6, 0.7), COIN_GEN)
    x = np.linspace(-law.support_hi, law.support_hi, 10_000)
    tracemalloc.start()
    try:
        law.cdf(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("r", [2.5, -1, 2.0])
def test_moment_routes_refuse_orders_other_than_nonnegative_integers(r):
    """A fractional order would raise negative positions to a fractional
    power and return NaN; every route refuses it, as a negative one."""
    params = WalkParams(0.6, 0.7)
    law = make_limit_law("theorem1", params, COIN_BAL)
    dist = Distribution(x_min=-1, probs=np.array([0.25, 0.5, 0.25]))
    routes = (
        law.moment,
        lambda r: spectral_limit_moment(r, params, COIN_BAL),
        lambda r: empirical_moment(dist, 1, r),
    )
    for route in routes:
        with pytest.raises(ValueError, match="nonnegative integer"):
            route(r)


def test_moment_routes_take_numpy_integers():
    params = WalkParams(0.6, 0.7)
    law = make_limit_law("theorem1", params, COIN_BAL)
    dist = Distribution(x_min=-1, probs=np.array([0.25, 0.5, 0.25]))
    for r in range(5):
        order = np.int64(r)
        assert law.moment(order) == law.moment(r)
        assert spectral_limit_moment(order, params, COIN_BAL) == (
            spectral_limit_moment(r, params, COIN_BAL)
        )
        assert empirical_moment(dist, 1, order) == empirical_moment(dist, 1, r)


def test_first_moment_vanishes_for_symmetric_weight():
    """nu = 0 with the balanced complex coin kills the linear coefficient."""
    law = make_limit_law("theorem1", WalkParams(0.6, 0.0), COIN_BAL)
    assert law.coeff == pytest.approx(0.0, abs=1e-15)
    assert law.moment(1) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("n, params", SPECIAL_POINTS)
def test_standard_law_first_moment_closed_form(n, params):
    """Known anchor: m1 = (-1)^(n+1) * (1 - 1/sqrt(2)) for the balanced coin."""
    law = make_limit_law("standard", params, COIN_BAL, n=n)
    expected = (-1.0) ** (n + 1) * (1.0 - SQ2)
    assert law.moment(1) == pytest.approx(expected, abs=1e-9)


def test_standard_law_second_moment_closed_form():
    law = make_limit_law("standard", PARAMS_SPECIAL, COIN_BAL, n=0)
    assert law.moment(2) == pytest.approx(1.0 - SQ2, abs=1e-9)


@pytest.mark.parametrize("rho", [0.3, 0.6])
def test_swap_free_law_second_moment_closed_form(rho):
    """Known anchor for the swap-free law: m2 = 1 - rho, coin-independent."""
    law = make_limit_law("cmv_only", WalkParams(rho, 0.7), COIN_RIGHT)
    assert law.moment(2) == pytest.approx(1.0 - rho, abs=1e-8)


@pytest.mark.parametrize("rho", [0.015, 1e-6, 1e-9])
def test_swap_free_law_refuses_rho_below_its_floor(rho):
    """Below rho = 0.02 the law's theta-rule loses mass (1.5e-9 at 0.01,
    0.99 at 1e-6), so it is refused instead of scored."""
    with pytest.raises(ValueError, match="rho >= 0.02"):
        make_limit_law("cmv_only", WalkParams(rho, 0.3), COIN_GEN)


def test_swap_free_law_keeps_unit_mass_at_its_rho_floor():
    for nu in np.linspace(-3.0, 3.0, 61):
        law = make_limit_law("cmv_only", WalkParams(0.02, nu), COIN_GEN)
        assert abs(law.moment(0) - 1.0) <= 1e-13


def test_density_periodic_in_nu():
    base = make_limit_law("theorem1", WalkParams(0.6, 1.0), COIN_GEN)
    shifted = make_limit_law(
        "theorem1", WalkParams(0.6, 1.0 + 2.0 * math.pi), COIN_GEN
    )
    xs = np.linspace(-0.95, 0.95, 101)
    np.testing.assert_allclose(
        base.density(xs), shifted.density(xs), atol=1e-12
    )


# -------------------------------------------------- spectral moment route


def test_spectral_moment_zeroth_is_one():
    """Also at the special set, where the gap closes, and at a subnormal
    rho, where the grading's eta overflows."""
    for params in (
        WalkParams(0.6, 1.0),
        WalkParams(0.3, -0.7),
        PARAMS_SPECIAL,
        WalkParams(5e-324, 0.3),
    ):
        for coin in (COIN_BAL, COIN_GEN):
            assert spectral_limit_moment(0, params, coin) == pytest.approx(
                1.0, abs=1e-10
            )


def test_spectral_moment_agrees_with_density_quadrature():
    params = WalkParams(0.6, 1.0)
    law = make_limit_law("theorem1", params, COIN_BAL)
    for r in (1, 2):
        assert law.moment(r) == pytest.approx(
            spectral_limit_moment(r, params, COIN_BAL), abs=1e-6
        )


def test_spectral_moment_refuses_negative_order():
    with pytest.raises(ValueError):
        spectral_limit_moment(-1, PARAMS_CANONICAL, COIN_BAL)


def _spectral_integrand(k, params, coin):
    """Second-branch velocity, both branch overlaps and their normaliser at ``k``."""
    rr0 = params.rho * params.rho0
    cos_k, sin_k = np.cos(k), np.sin(k)
    s = rr0 * (sin_k - math.sin(params.nu))
    gap_sq = 1.0 - s * s
    root = np.sqrt(gap_sq)
    velocity = rr0 * cos_k / root
    d = -params.rho**2 * cmath.exp(1j * params.nu) + params.rho0**2 * (
        cos_k - 1j * sin_k
    )
    re_c = rr0 * (cos_k + math.cos(params.nu))
    half = cmath.exp(0.5j * params.nu)
    phi0 = half * coin.a0
    phi1 = half.conjugate() * coin.a1
    overlaps = []
    for sgn in (1.0, -1.0):
        norm_main = 2.0 * (gap_sq + sgn * re_c * root)
        norm_alt = 2.0 * (gap_sq - sgn * re_c * root)
        num_main = np.abs(np.conj(d) * phi0 + (re_c + sgn * root) * phi1) ** 2
        num_alt = np.abs(-(re_c - sgn * root) * phi0 + d * phi1) ** 2
        overlaps.append(np.where(norm_main >= norm_alt, num_main, num_alt))
    # Both branches share the larger normaliser.
    return velocity, overlaps[0], overlaps[1], np.maximum(norm_main, norm_alt)


def _uncached_spectral_moment(r, params, coin):
    """The spectral route as one uncached computation of the same nodes."""
    velocity, weight_plus, weight_minus = _spectral_nodes.__wrapped__(params, coin)
    plus = np.dot((-velocity) ** r, weight_plus)
    return float(plus + np.dot(velocity**r, weight_minus))


def _trapezoid_spectral_moments(params, coin, n_orders, n_nodes=2**16):
    """Spectral moments ``0 .. n_orders - 1`` on a uniform trapezoid in ``k``."""
    k = -np.pi + 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    velocity, over_plus, over_minus, norm = _spectral_integrand(k, params, coin)
    # The + branch moves with -velocity.
    even, odd = (over_minus + over_plus) / norm, (over_minus - over_plus) / norm
    moments, power = [], np.ones_like(velocity)
    for r in range(n_orders):
        moments.append(float(np.mean(power * (odd if r % 2 else even))))
        power *= velocity
    return moments


@pytest.mark.parametrize("params", PARAM_POINTS)
def test_spectral_moment_cache_returns_uncached_values(params):
    """An r-sweep served from the node cache changes no bit of the result."""
    for coin in (COIN_BAL, COIN_GEN, COIN_RIGHT):
        for r in range(5):
            assert spectral_limit_moment(r, params, coin) == (
                _uncached_spectral_moment(r, params, coin)
            )


def _random_coin(rng) -> CoinSpinor:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return CoinSpinor(complex(v[0], v[1]), complex(v[2], v[3]))


def test_spectral_moment_matches_fine_trapezoid_at_generic_points():
    """To 1e-15 against a 65536-node uniform trapezoid, the parent rule's
    refinement, on 200 seeded points with rho out to 0.001 and 0.999, in
    at most 1024 nodes and a median of at most 144."""
    rng = np.random.default_rng(20261019)
    rhos = np.concatenate(([0.001, 0.999], rng.uniform(0.001, 0.999, 198)))
    worst, sizes = 0.0, []
    for rho, nu in zip(rhos, rng.uniform(-math.pi, math.pi, rhos.size)):
        params, coin = WalkParams(float(rho), float(nu)), _random_coin(rng)
        ref = _trapezoid_spectral_moments(params, coin, 5)
        for r in range(5):
            worst = max(worst, abs(spectral_limit_moment(r, params, coin) - ref[r]))
        sizes.append(_spectral_nodes(params, coin)[0].size)
    assert worst <= 1e-15
    assert max(sizes) <= 1024
    assert np.median(sizes) <= 144


def _assert_moment_routes_agree(params, kind="theorem1", n=0):
    """The spectral and quadrature moments r = 0..4 agree to 1e-14."""
    for coin in (COIN_GEN, COIN_BAL, COIN_RIGHT):
        law = make_limit_law(kind, params, coin, n=n)
        for r in range(5):
            assert abs(spectral_limit_moment(r, params, coin) - law.moment(r)) <= 1e-14


# Directions (d_rho, d_nu) of approach to the special set.
APPROACHES = ((0.6, 0.8), (-0.6, -0.8), (1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("nu_sign", [1, -1])
@pytest.mark.parametrize(
    "d", [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3]
)
def test_spectral_moment_next_to_the_special_set(d, nu_sign):
    """At distance d from (1/sqrt(2), +-pi/2) along four directions, the two
    moment routes agree to 1e-14, and at the set itself the spectral route
    matches the standard law; a 4096-node uniform trapezoid missed by
    9.1e-8 at d = 1e-3 and 1.5e-4 at 1e-6."""
    if d == 0.0:
        _assert_moment_routes_agree(
            WalkParams(SQ2, nu_sign * math.pi / 2), "standard", (1 - nu_sign) // 2
        )
    else:
        for d_rho, d_nu in APPROACHES:
            _assert_moment_routes_agree(
                WalkParams(SQ2 + d_rho * d, nu_sign * (math.pi / 2 + d_nu * d))
            )


def test_spectral_rule_stays_small_down_to_the_special_set():
    """Approaching the special set and at it, the graded rule never needs
    more than 1696 nodes."""
    for d_rho, d_nu in APPROACHES:
        for d in np.append(np.geomspace(1e-1, 1e-16, 91), 0.0):
            params = WalkParams(SQ2 + d_rho * d, math.pi / 2 + d_nu * d)
            assert _spectral_nodes(params, COIN_BAL)[0].size <= 1696


def test_spectral_node_cache_is_read_only_and_bounded():
    arrays = _spectral_nodes(WalkParams(0.6, 1.0), COIN_GEN)
    assert len(arrays) == 3
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _spectral_nodes(WalkParams(0.6, 1.0), COIN_GEN)[0] is arrays[0]
    assert _spectral_nodes.cache_info().maxsize is not None


def test_legendre_literals_are_scipys_rule():
    """The hard-coded 16-point rule is scipy's to the last bit."""
    nodes, weights = roots_legendre(16)
    assert np.array_equal(_LEGENDRE_NODES, nodes)
    assert np.array_equal(_LEGENDRE_WEIGHTS, weights)


def overlap_weight(i: int, sign: int, nu_arg: float, k, params: WalkParams):
    """Closed-form spectral overlap helpers ``F_{i,sign}(nu_arg; k)``.

    For ``i`` in 0..3 and ``sign`` +1/-1, with
    ``root = sqrt(1 - rho^2 rho0^2 (sin k - sin nu_arg)^2)``:

    * ``i=0``: ``1/2 - sign * rho rho0 (cos k + cos nu_arg) / (2 root)``
    * ``i=1``: ``1/2 + sign * rho rho0 (cos k + cos nu_arg) / (2 root)``
    * ``i=2``: ``sign * (rho0^2 cos k - rho^2 cos nu_arg) / root``
    * ``i=3``: ``sign * (rho0^2 sin k + rho^2 sin nu_arg) / root``

    These combine the squared eigenvector overlaps of the shifted symbol
    into coin-independent pieces, an oracle for the eigenvectors.
    """
    if i not in (0, 1, 2, 3):
        raise ValueError("helper index must be 0, 1, 2 or 3")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    k_arr = np.asarray(k, dtype=float)
    rr0 = params.rho * params.rho0
    s = rr0 * (np.sin(k_arr) - math.sin(nu_arg))
    root = np.sqrt(1.0 - s * s)
    if i == 0:
        out = 0.5 - sign * rr0 * (np.cos(k_arr) + math.cos(nu_arg)) / (2.0 * root)
    elif i == 1:
        out = 0.5 + sign * rr0 * (np.cos(k_arr) + math.cos(nu_arg)) / (2.0 * root)
    elif i == 2:
        out = sign * (
            params.rho0**2 * np.cos(k_arr) - params.rho**2 * math.cos(nu_arg)
        ) / root
    else:
        out = sign * (
            params.rho0**2 * np.sin(k_arr) + params.rho**2 * math.sin(nu_arg)
        ) / root
    if np.ndim(k) == 0:
        return float(out)
    return out


def test_overlap_weights_partition_unity():
    params = WalkParams(0.6, 1.0)
    ks = np.linspace(-math.pi, math.pi, 33)
    for sign in (1, -1):
        total = overlap_weight(0, sign, params.nu, ks, params) + overlap_weight(
            1, sign, params.nu, ks, params
        )
        np.testing.assert_allclose(total, 1.0, atol=1e-15)


def test_overlap_weights_reproduce_eigenvector_overlaps():
    """|<v_j | phi~>|^2 equals the four-helper combination."""
    for params in (WalkParams(0.6, 1.0), WalkParams(0.3, -0.7)):
        cross = COIN_BAL.a0 * np.conj(COIN_BAL.a1) * np.exp(1j * params.nu)
        phi = phase_rotation(params.nu / 2) @ COIN_BAL.as_array()
        for k in np.linspace(-math.pi, math.pi, 25):
            vectors = branch_eigenvectors(float(k), params)
            for j, sign in ((0, 1), (1, -1)):
                got = abs(np.vdot(vectors[:, j], phi)) ** 2
                want = (
                    overlap_weight(0, sign, params.nu, k, params)
                    * abs(COIN_BAL.a0) ** 2
                    + overlap_weight(1, sign, params.nu, k, params)
                    * abs(COIN_BAL.a1) ** 2
                    + overlap_weight(2, sign, params.nu, k, params) * cross.real
                    - overlap_weight(3, sign, params.nu, k, params) * cross.imag
                )
                assert got == pytest.approx(want, abs=1e-10)


def test_overlap_weights_collapse_to_velocity_weights():
    """Summing the nu and pi-nu helper values yields the (1 +/- h) weights."""
    params = WalkParams(0.6, 1.0)
    reflected = math.pi - params.nu
    for k in np.linspace(-math.pi, math.pi, 41):
        h = group_velocity(float(k), params)
        for sign, vel_sign in ((1, -1.0), (-1, 1.0)):
            s0 = overlap_weight(0, sign, params.nu, k, params) + overlap_weight(
                0, sign, reflected, k, params
            )
            s1 = overlap_weight(1, sign, params.nu, k, params) + overlap_weight(
                1, sign, reflected, k, params
            )
            s2 = overlap_weight(2, sign, params.nu, k, params) + overlap_weight(
                2, sign, reflected, k, params
            )
            d3 = overlap_weight(3, sign, params.nu, k, params) - overlap_weight(
                3, sign, reflected, k, params
            )
            assert s0 == pytest.approx(1.0 + vel_sign * h, abs=1e-10)
            assert s1 == pytest.approx(1.0 - vel_sign * h, abs=1e-10)
            assert s2 == pytest.approx(
                -vel_sign * 2.0 * params.rho0 / params.rho * h, abs=1e-10
            )
            assert d3 == pytest.approx(0.0, abs=1e-10)


def test_overlap_weight_rejects_bad_indices():
    params = WalkParams(0.6, 1.0)
    with pytest.raises(ValueError):
        overlap_weight(4, 1, params.nu, 0.0, params)
    with pytest.raises(ValueError):
        overlap_weight(0, 0, params.nu, 0.0, params)
