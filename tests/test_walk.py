"""Lattice evolution against dense truncated-matrix oracles."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from conftest import (
    COIN_BAL,
    COIN_GEN,
    COIN_RIGHT,
    PARAMS_SPECIAL,
    PARAMS_CANONICAL,
    SQ2,
    dense_factor_product_matrix,
    dense_full_step_matrix,
    dense_swap_free_matrix,
    dense_swap_matrix,
    embed_state,
    origin_vector,
)

from qwalk import (
    CoinSpinor,
    WalkParams,
    WaveState,
    distribution,
    evolve,
    initial_state,
    step_cmv_only,
    step_full,
)

STEP_FUNCS = {"full": step_full, "cmv_only": step_cmv_only}
# The band stencil of each variant, and the full step's four-factor product.
DENSE_BUILDERS = {
    "full": ("full", dense_full_step_matrix),
    "cmv_only": ("cmv_only", dense_swap_free_matrix),
    "full_factors": ("full", dense_factor_product_matrix),
}


def test_params_derived_quantities():
    params = WalkParams(rho=0.3, nu=1.1)
    assert params.rho**2 + params.rho0**2 == pytest.approx(1.0, abs=1e-15)
    assert abs(params.alpha0) == pytest.approx(params.rho, abs=1e-15)
    assert params.alpha0 == pytest.approx(0.3 * np.exp(1.1j), abs=1e-15)


@pytest.mark.parametrize("rho", [0.99, 0.999, 0.9999])
def test_params_rho0_keeps_its_digits_next_to_one(rho):
    """rho0 to 2e-16 relative of a 40-digit sqrt(1 - rho^2); 1 - rho*rho
    cancels and was off by 7.2e-15 at 0.999 and 1.3e-13 at 0.9999."""
    with mpmath.workdps(40):
        ref = mpmath.sqrt(1 - mpmath.mpf(rho) ** 2)
        assert abs(float((WalkParams(rho, 0.0).rho0 - ref) / ref)) <= 2e-16


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.5, math.nan, math.inf])
def test_params_rho_out_of_range(rho):
    with pytest.raises(ValueError):
        WalkParams(rho=rho, nu=0.0)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_nu(nu):
    with pytest.raises(ValueError, match="nu must be finite"):
        WalkParams(rho=0.6, nu=nu)


@pytest.mark.parametrize(
    "a0, a1",
    [
        (math.nan, 0.0),
        (1.0, complex(0.0, math.nan)),
        (complex(math.inf, 0.0), 0.0),
        (0.6, -math.inf),
    ],
)
def test_coin_spinor_rejects_non_finite_amplitudes(a0, a1):
    with pytest.raises(ValueError, match="must be finite"):
        CoinSpinor(a0, a1)


@pytest.mark.parametrize("a0", [1e200, complex(1e300, 1e300), complex(0.0, 1e155)])
def test_coin_spinor_refuses_overflowing_amplitudes(a0):
    """Finite amplitudes whose squares overflow fail the norm check with a
    ValueError; ``abs(a) ** 2`` would raise OverflowError."""
    with pytest.raises(ValueError, match="unit norm"):
        CoinSpinor(a0, 0.0)


def test_coin_spinor_norm_and_array():
    assert COIN_BAL.norm_sq() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(
        COIN_GEN.as_array(), np.array([0.6, 0.8j]), atol=0.0
    )


def test_initial_state_is_point_mass():
    state = initial_state(COIN_RIGHT)
    assert state.time == 0
    assert state.x_min == 0 and len(state.amps) == 1
    np.testing.assert_allclose(state.amps, [[1.0, 0.0]], atol=0.0)


def test_initial_state_keeps_balanced_coin():
    state = initial_state(COIN_BAL)
    np.testing.assert_allclose(state.amps, [[SQ2, 1j * SQ2]], atol=0.0)


def test_initial_state_rejects_unnormalised_coin():
    """The coin refuses a non-unit norm itself, so no state can carry one."""
    with pytest.raises(ValueError, match="unit norm"):
        CoinSpinor(1.0, 1.0)


def test_single_step_distribution_quarter_half_quarter():
    """One full step from (1,0) at the special parameters.

    Hand value via the dense oracle: P(-1) = 1/4, P(0) = 1/2,
    P(+1) = 1/4.
    """
    state = step_full(initial_state(COIN_RIGHT), PARAMS_SPECIAL)
    dist = distribution(state)
    np.testing.assert_allclose(dist.positions(), [-1, 0, 1])
    np.testing.assert_allclose(dist.probs, [0.25, 0.5, 0.25], atol=1e-14)


def test_single_swap_free_step_distribution():
    state = step_cmv_only(initial_state(COIN_RIGHT), PARAMS_CANONICAL)
    dist = distribution(state)
    np.testing.assert_allclose(dist.probs, [0.25, 0.5, 0.25], atol=1e-14)


@pytest.mark.parametrize("oracle", list(DENSE_BUILDERS))
@pytest.mark.parametrize(
    "params",
    [PARAMS_SPECIAL, PARAMS_CANONICAL, WalkParams(0.6, 0.7), WalkParams(0.85, -2.1)],
)
def test_steps_match_dense_truncated_matrix(oracle, params):
    """t <= 12 steps agree with powers of the dense band matrix, and for the
    full walk with powers of its four-factor product, to 1e-12."""
    t_max = 12
    span = t_max + 2
    variant, build = DENSE_BUILDERS[oracle]
    mat = build(params, span)
    vec = origin_vector(COIN_GEN, span)
    state = initial_state(COIN_GEN)
    for _ in range(t_max):
        vec = mat @ vec
        state = STEP_FUNCS[variant](state, params)
        assert np.max(np.abs(embed_state(state, span) - vec)) < 1e-12


@pytest.mark.parametrize("params", [PARAMS_CANONICAL, WalkParams(0.45, 0.9)])
def test_dense_band_matrix_equals_factor_product(params):
    """The band stencil and the four-factor product define the same operator.

    Away from the window edges the two dense constructions must agree
    entry for entry (edge columns differ only by truncation artifacts).
    """
    span = 6
    band = dense_full_step_matrix(params, span)
    product = dense_factor_product_matrix(params, span)
    keep = slice(2 * 2, 2 * (2 * span + 1) - 2 * 2)  # drop 2 edge sites each side
    np.testing.assert_allclose(
        band[keep, keep], product[keep, keep], atol=1e-14
    )


def test_dense_full_step_is_swap_then_swap_free():
    """U = V @ U_f on the dense window (swap applied first)."""
    params = WalkParams(0.35, 2.2)
    span = 5
    full = dense_full_step_matrix(params, span)
    swapfree = dense_swap_free_matrix(params, span)
    swap = dense_swap_matrix(span)
    np.testing.assert_allclose(full, swapfree @ swap, atol=1e-15)


def test_step_full_equals_swap_free_of_swapped_state():
    params = WalkParams(0.6, 1.0)
    state = evolve(COIN_BAL, params, 5)
    via_full = step_full(state, params)
    swapped = WaveState(
        time=state.time, x_min=state.x_min, amps=state.amps[:, ::-1]
    )
    via_swap = step_cmv_only(swapped, params)
    np.testing.assert_allclose(via_full.amps, via_swap.amps, atol=1e-14)


@pytest.mark.parametrize("variant", ["full", "cmv_only"])
def test_norm_preserved_over_hundred_steps(variant):
    state = evolve(COIN_BAL, WalkParams(0.3, 1.1), 100, variant=variant)
    assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("variant", ["full", "cmv_only"])
def test_support_window_after_t_steps(variant):
    state = evolve(COIN_RIGHT, WalkParams(0.7, -0.4), 9, variant=variant)
    assert state.x_min == -9 and state.x_min + len(state.amps) - 1 == 9
    assert state.time == 9


def test_evolve_zero_steps_returns_initial_state():
    state = evolve(COIN_BAL, PARAMS_CANONICAL, 0)
    assert state.time == 0
    np.testing.assert_allclose(state.amps, initial_state(COIN_BAL).amps)


def test_evolve_semigroup_property():
    params = WalkParams(0.52, 0.4)
    direct = evolve(COIN_GEN, params, 7)
    staged = evolve(COIN_GEN, params, 4)
    for _ in range(3):
        staged = step_full(staged, params)
    np.testing.assert_allclose(direct.amps, staged.amps, atol=1e-14)


def test_evolve_rejects_bad_arguments():
    with pytest.raises(ValueError):
        evolve(COIN_BAL, PARAMS_CANONICAL, -1)
    with pytest.raises(ValueError):
        evolve(COIN_BAL, PARAMS_CANONICAL, 3, variant="nope")


def test_distribution_point_mass_and_nonnegative():
    dist = distribution(initial_state(COIN_BAL))
    np.testing.assert_allclose(dist.probs, [1.0], atol=1e-15)
    dist2 = distribution(evolve(COIN_GEN, WalkParams(0.8, 2.9), 25))
    assert np.all(dist2.probs >= 0.0)
    assert dist2.total() == pytest.approx(1.0, abs=1e-12)


def test_two_step_distribution_against_dense_oracle():
    """t = 2 at (0.6, 0.7): distribution from the dense truncation."""
    params = WalkParams(0.6, 0.7)
    span = 4
    mat = dense_full_step_matrix(params, span)
    vec = mat @ (mat @ origin_vector(COIN_RIGHT, span))
    expected = (np.abs(vec) ** 2).reshape(-1, 2).sum(axis=1)
    dist = distribution(evolve(COIN_RIGHT, params, 2))
    got = np.zeros(2 * span + 1)
    got[span - 2 : span + 3] = dist.probs
    np.testing.assert_allclose(got, expected, atol=1e-14)
    assert dist.total() == pytest.approx(1.0, abs=1e-14)
