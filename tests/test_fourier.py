"""Momentum-space symbols, analytic spectra, and exact Fourier evolution."""

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
    PARAMS_CANONICAL,
    PARAMS_SPECIAL,
    REGRESSION_GRID,
    SQ2,
    phase_rotation,
)
from scipy.fft import dct, next_fast_len

from qwalk import (
    CoinSpinor,
    DegenerateSymbolError,
    WalkParams,
    distribution,
    eigensystem,
    evolve,
    evolve_fourier,
    group_velocity,
    initial_state,
    shifted_symbol,
)
from qwalk.fourier import (
    MAX_STEPS,
    _chebyshev_pair,
    _dct1,
    _node_count,
    _swap_free_gap,
    _unit_phases,
)


def lattice_dft(state, k: float) -> np.ndarray:
    """Test-side transform sum_x exp(-1j*k*x) * amp(x)."""
    phases = np.exp(-1j * k * state.positions())
    return phases @ state.amps


def test_phase_rotation_identity_and_quarter_turn():
    np.testing.assert_allclose(phase_rotation(0.0), np.eye(2), atol=0.0)
    np.testing.assert_allclose(
        phase_rotation(math.pi / 2), np.diag([1j, -1j]), atol=1e-16
    )


def test_phase_rotation_group_law():
    a, b = 0.7, -2.3
    np.testing.assert_allclose(
        phase_rotation(a) @ phase_rotation(b),
        phase_rotation(a + b),
        atol=1e-15,
    )


def test_momentum_symbol_unitary_at_random_momenta():
    params = WalkParams(0.3, 2.0)
    rng = np.random.default_rng(7)
    for k in rng.uniform(-math.pi, math.pi, size=64):
        mat = shifted_symbol(float(k) - params.nu, params)
        np.testing.assert_allclose(
            mat.conj().T @ mat, np.eye(2), atol=1e-12
        )


def test_one_step_in_momentum_space_matches_lattice():
    """R(-nu/2) H(k) R(nu/2) applied to the coin equals the DFT of one step."""
    params = WalkParams(0.6, 1.0)
    stepped = evolve(COIN_GEN, params, 1)
    for k in (-2.0, -0.3, 0.0, 0.71, 2.9):
        momentum_step = (
            phase_rotation(-params.nu / 2)
            @ shifted_symbol(k - params.nu, params)
            @ phase_rotation(params.nu / 2)
        )
        np.testing.assert_allclose(
            lattice_dft(stepped, k),
            momentum_step @ COIN_GEN.as_array(),
            atol=1e-13,
        )


@pytest.mark.parametrize("n, nu", [(0, math.pi / 2), (1, 3 * math.pi / 2)])
def test_shifted_symbol_special_two_step_form(n, nu):
    """At rho=1/sqrt(2), nu=pi/2+n*pi the shifted symbol factors as
    -i*(-1)^n * (R(-k/2) W_n)^2 with the explicit 2x2 rotation W_n."""
    params = WalkParams(SQ2, nu)
    phase = cmath.exp(-((-1.0) ** n) * 1j * math.pi / 4)
    w = np.array(
        [[phase, -phase], [-phase.conjugate(), -phase.conjugate()]]
    ) / math.sqrt(2.0)
    for k in np.linspace(-math.pi, math.pi, 23):
        two_step = phase_rotation(-k / 2) @ w
        expected = -1j * (-1.0) ** n * (two_step @ two_step)
        np.testing.assert_allclose(
            shifted_symbol(float(k), params), expected, atol=1e-12
        )
        # expanded form of the same product
        eikm = cmath.exp(-1j * k)
        eikp = cmath.exp(1j * k)
        sgn = (-1.0) ** n
        expanded = 0.5 * np.array(
            [
                [1 - sgn * 1j * eikm, 1 + sgn * 1j * eikm],
                [-1 + sgn * 1j * eikp, 1 + sgn * 1j * eikp],
            ]
        )
        np.testing.assert_allclose(two_step @ two_step, expanded, atol=1e-14)


def test_shifted_symbol_determinant_modulus_one():
    params = WalkParams(0.42, -1.7)
    ks = np.linspace(-math.pi, math.pi, 101)
    dets = np.linalg.det(shifted_symbol(ks, params))
    np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-13)


def test_shifted_symbol_at_zero_momentum_hand_values():
    """(rho, nu) = (0.6, 0): entries reduce to [[-0.96, 0.28], [0.28, 0.96]]."""
    mat = shifted_symbol(0.0, WalkParams(0.6, 0.0))
    np.testing.assert_allclose(
        mat, [[-0.96, 0.28], [0.28, 0.96]], atol=1e-15
    )


def test_eigensystem_residuals_on_k_grid():
    params = WalkParams(0.45, 0.9)
    for k in np.linspace(-math.pi, math.pi, 1000):
        es = eigensystem(float(k), params)
        mat = shifted_symbol(float(k), params)
        for j in range(2):
            assert abs(abs(es.values[j]) - 1.0) < 1e-12
            residual = mat @ es.vectors[:, j] - es.values[j] * es.vectors[:, j]
            assert np.linalg.norm(residual) < 1e-10
        assert abs(np.vdot(es.vectors[:, 0], es.vectors[:, 1])) < 1e-10
        assert es.gap_sq > 0.0
        assert np.all(es.normalizers > 0.0)


def test_eigensystem_gap_matches_imaginary_part():
    """J = 1 - (Im lambda)^2 for both eigenvalues."""
    params = WalkParams(0.7, -0.6)
    for k in np.linspace(-math.pi, math.pi, 50):
        es = eigensystem(float(k), params)
        for j in range(2):
            assert es.gap_sq == pytest.approx(
                1.0 - es.values[j].imag ** 2, abs=1e-12
            )


def test_eigensystem_product_matches_determinant():
    params = WalkParams(0.52, 1.4)
    for k in (-2.5, -0.8, 0.1, 1.9):
        es = eigensystem(k, params)
        det = np.linalg.det(shifted_symbol(k, params))
        assert es.values[0] * es.values[1] == pytest.approx(det, abs=1e-12)


def test_eigensystem_survives_vanishing_normalizer():
    """At rho = 1/sqrt(2) one closed-form row norm vanishes at k = -nu.

    The constructor must fall back to the complementary row and still
    return unit eigenvectors with tiny residuals.
    """
    params = PARAMS_CANONICAL
    k = -params.nu
    es = eigensystem(k, params)
    assert min(es.normalizers) < 1e-12  # the degenerate row really occurs
    mat = shifted_symbol(k, params)
    for j in range(2):
        assert np.linalg.norm(es.vectors[:, j]) == pytest.approx(1.0, abs=1e-12)
        residual = mat @ es.vectors[:, j] - es.values[j] * es.vectors[:, j]
        assert np.linalg.norm(residual) < 1e-12


def test_eigensystem_raises_when_eigenvalues_collide():
    params = WalkParams(SQ2, math.pi / 2)
    with pytest.raises(DegenerateSymbolError):
        eigensystem(-math.pi / 2, params)


def test_group_velocity_zeros_and_nu_zero_value():
    params = WalkParams(0.65, 0.0)
    assert group_velocity(math.pi / 2, params) == pytest.approx(0.0, abs=1e-15)
    assert group_velocity(-math.pi / 2, params) == pytest.approx(0.0, abs=1e-15)
    assert group_velocity(0.0, params) == pytest.approx(
        params.rho * params.rho0, abs=1e-15
    )


def test_group_velocity_matches_eigenvalue_log_derivative():
    """i * lambda'(k) / lambda(k) = -h(k) on the first branch."""
    params = WalkParams(0.6, 1.0)
    eps = 1e-6
    for k in (-2.2, -0.5, 0.3, 1.7):
        lam = lambda kk: eigensystem(kk, params).values[0]  # noqa: E731
        deriv = (lam(k + eps) - lam(k - eps)) / (2 * eps)
        assert (1j * deriv / lam(k)).real == pytest.approx(
            -group_velocity(k, params), abs=1e-8
        )


def test_transformed_coin_stays_normalised():
    for coin in (COIN_BAL, COIN_GEN):
        vec = phase_rotation(1.3 / 2) @ coin.as_array()
        assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_evolve_fourier_zero_steps():
    state = evolve_fourier(COIN_BAL, PARAMS_CANONICAL, 0)
    np.testing.assert_allclose(state.amps, initial_state(COIN_BAL).amps)


@pytest.mark.parametrize("variant", ["full", "cmv_only"])
@pytest.mark.parametrize(
    "params", [PARAMS_CANONICAL, WalkParams(0.3, 0.7), WalkParams(0.85, -1.3)]
)
def test_evolve_fourier_matches_lattice_amplitudes(variant, params):
    t = 50
    lattice = evolve(COIN_RIGHT, params, t, variant=variant)
    fourier = evolve_fourier(COIN_RIGHT, params, t, variant=variant)
    assert fourier.x_min == lattice.x_min
    np.testing.assert_allclose(fourier.amps, lattice.amps, atol=1e-12)
    tv = 0.5 * np.sum(
        np.abs(distribution(lattice).probs - distribution(fourier).probs)
    )
    assert tv < 1e-10


def test_evolve_fourier_handles_degenerate_momenta():
    """At the special parameter set the gap closes at one momentum
    node, where sin(delta) = 0; the Chebyshev values there must take
    their limit U_n = +/-n so the answer stays exact."""
    params = WalkParams(SQ2, math.pi / 2)
    t = 64  # power of two: the degenerate node k = -pi/2 is sampled exactly
    lattice = evolve(COIN_BAL, params, t)
    fourier = evolve_fourier(COIN_BAL, params, t)
    np.testing.assert_allclose(fourier.amps, lattice.amps, atol=1e-12)


def test_symbol_power_spectrum_is_degree_bounded():
    """The t-th symbol power has trigonometric degree <= t.

    Inverting sample powers on more than 2t+1 nodes must place no mass
    outside [-t, t]; this is what makes the engine's inversion exact.
    """
    params = WalkParams(0.6, 1.0)
    t, m_count = 37, 128
    ks = 2.0 * math.pi * np.arange(m_count) / m_count
    syms = shifted_symbol(ks, params)
    half = cmath.exp(0.5j * params.nu)
    phi = np.array([half * COIN_BAL.a0, half.conjugate() * COIN_BAL.a1])
    hat = np.array(
        [np.linalg.matrix_power(syms[m], t) @ phi for m in range(m_count)]
    )
    real_space = np.fft.ifft(hat, axis=0)
    xs = np.arange(-m_count // 2, m_count // 2)
    rows = real_space[np.mod(xs, m_count)]
    assert np.max(np.abs(rows[np.abs(xs) > t])) < 1e-12


def test_evolve_fourier_rejects_bad_arguments():
    with pytest.raises(ValueError):
        evolve_fourier(COIN_BAL, PARAMS_CANONICAL, -2)
    # refused before any array is built; never run a step count near the cap
    with pytest.raises(ValueError, match="exceeds the limit"):
        evolve_fourier(COIN_BAL, PARAMS_CANONICAL, MAX_STEPS + 1)
    with pytest.raises(ValueError):
        evolve_fourier(COIN_BAL, PARAMS_CANONICAL, 3, variant="bogus")
    # a non-unit coin cannot be built, so it never reaches the engine
    with pytest.raises(ValueError, match="unit norm"):
        CoinSpinor(1.0, 1.0)


@pytest.mark.parametrize(
    "params, coin, variant",
    [
        (WalkParams(0.85, -1.3), COIN_RIGHT, "full"),
        (PARAMS_SPECIAL, COIN_BAL, "full"),
        (WalkParams(0.5, 1.2), COIN_RIGHT, "cmv_only"),
    ],
)
def test_evolve_fourier_matches_flushed_lattice_at_depth(params, coin, variant):
    """At t = 3000 the engine and the flushed lattice agree to 1e-12 TV.

    The special set and the swap-free walk each have momenta where the
    eigenvalue gap closes; the engine must keep its eigenvalue phases
    accurate next to them, since t multiplies any phase error.  The
    lattice flushes amplitudes below 1e-150 to zero, so none of its
    floats is subnormal, and its window stays [-t, t].
    """
    t = 3000
    lattice = evolve(coin, params, t, variant=variant)
    fourier = evolve_fourier(coin, params, t, variant=variant)
    assert lattice.x_min == fourier.x_min == -t
    assert lattice.amps.shape == fourier.amps.shape == (2 * t + 1, 2)
    floats = np.abs(lattice.amps.view(np.float64))
    assert not np.any((floats > 0.0) & (floats < np.finfo(np.float64).tiny))
    tv = 0.5 * np.sum(
        np.abs(distribution(lattice).probs - distribution(fourier).probs)
    )
    assert tv <= 1e-12



def test_node_count_is_a_multiple_of_four_above_two_t_plus_three():
    for t in list(range(1, 3000)) + [99_999, 100_000, 10**6, MAX_STEPS]:
        m_count = _node_count(t)
        assert m_count % 4 == 0 and m_count >= 2 * t + 3
    # next_fast_len, not the next power of two (262144 nodes)
    assert _node_count(100_000) == 202_500


def test_node_count_follows_scipy_next_fast_len():
    """The numpy-only 5-smooth search picks the node count scipy would."""
    for t in list(range(1, 5000)) + [100_000, 10**6, MAX_STEPS]:
        quarter = -(-(2 * t + 3) // 4)
        assert _node_count(t) == 4 * next_fast_len(quarter, real=True), t


@pytest.mark.parametrize("t", [1, 2, 37, 100_000])
def test_dct1_matches_scipy_bit_for_bit(t):
    """The real FFT of the even extension is scipy's type-I DCT, exactly."""
    m_count = _node_count(t)
    rows = np.random.default_rng(t).normal(size=(2, m_count // 2 + 1))
    ext = np.empty((2, m_count))
    ext[:, : m_count // 2 + 1] = rows
    out = np.empty((2, m_count // 2 + 1), dtype=np.complex128)
    assert _dct1(ext, out) is out
    assert np.array_equal(out.real, dct(rows, type=1))


@pytest.mark.parametrize("t", [37, 70, 1100])
@pytest.mark.parametrize("variant", ["full", "cmv_only"])
def test_evolve_fourier_matches_lattice_off_power_of_two_nodes(t, variant):
    """Node counts with factors 3 and 5, as every large t uses."""
    m_count = _node_count(t)
    assert m_count & (m_count - 1) != 0
    params = WalkParams(0.6, 1.0)
    lattice = evolve(COIN_GEN, params, t, variant=variant)
    fourier = evolve_fourier(COIN_GEN, params, t, variant=variant)
    np.testing.assert_allclose(fourier.amps, lattice.amps, atol=1e-12)


@pytest.mark.parametrize("params, coin, variant, kind, n", REGRESSION_GRID)
def test_evolve_fourier_keeps_unit_mass_at_depth(params, coin, variant, kind, n):
    """At t = 1e5 the engine's mass stays within 1e-13 of 1.

    Phases like 1j**t taken in floating point, or U_t and U_(t-1) from
    separately rounded angles, each break this by 1e-12 or more.
    """
    t = 100_000
    state = evolve_fourier(coin, params, t, variant=variant)
    assert state.amps.shape == (2 * t + 1, 2)
    assert abs(distribution(state).total() - 1.0) <= 1e-13


def test_chebyshev_pair_next_to_closing_gaps():
    """U_t and U_(t-1) stay accurate where sin(delta) is tiny or zero.

    Reference: the three-term recurrence in extended precision, from
    cos(delta) alone.  Near delta = pi the angle must be reflected
    before it is multiplied by t; arctan2(sin, cos) there rounds away
    the small part that sets U_t.
    """
    t = 1000
    etas = np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 0.3, 0.95])
    sin_d = np.concatenate((etas, etas))
    cos_ld = np.sqrt(1.0 - np.longdouble(etas) ** 2)
    cos_ld = np.concatenate((cos_ld, -cos_ld))
    got = _chebyshev_pair(cos_ld.astype(np.float64), sin_d, t)
    prev, cur = np.zeros_like(cos_ld), np.ones_like(cos_ld)
    for _ in range(t - 2):
        prev, cur = cur, 2 * cos_ld * cur - prev
    for row, ref in zip(got, (2 * cos_ld * cur - prev, cur)):
        assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("coin", [COIN_RIGHT, COIN_BAL, COIN_GEN])
@pytest.mark.parametrize("variant", ["full", "cmv_only"])
def test_evolve_fourier_matches_lattice_at_every_small_t(variant, coin):
    """Every amplitude within 1e-12 of the lattice for t = 1..16.

    Covers the site x = 0, which reads U_t[1] for both neighbours, and a
    last phase block shorter than the rest at every t.
    """
    params = WalkParams(0.85, -1.3)
    for t in range(1, 17):
        lattice = evolve(coin, params, t, variant=variant)
        fourier = evolve_fourier(coin, params, t, variant=variant)
        assert fourier.x_min == lattice.x_min == -t
        assert np.max(np.abs(fourier.amps - lattice.amps)) <= 1e-12, t


def test_evolve_fourier_allocation_peak_at_depth():
    """At t = 1e5 (full walk) the engine allocates at most 14 MB in all.

    One 9.6 MB block ends in the 6.4 MB result; the largest other arrays
    are the 0.8 MB ones on the M/2 + 1 nodes.
    """
    tracemalloc.start()
    try:
        evolve_fourier(COIN_GEN, WalkParams(0.6, 0.7), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def _swap_free_full_basis(coin, params, t):
    """Swap-free amplitudes with the per-site basis over all 2t + 1 sites.

    A test-side copy of the site stage the half basis replaced: column
    j of site x holds U_t at |x|, |x - 1| and |x + 1|, then U_(t-1) at
    |x|, each read off the DCT by its own index.
    """
    m_count = _node_count(t)
    half_m = m_count // 2
    n_sites = 2 * t + 1
    theta = (2.0 * np.pi / m_count) * np.arange(half_m + 1)
    ext = np.empty((2, m_count))
    tau, sin_ang = _swap_free_gap(np.cos(theta), np.sin(theta), params)
    _chebyshev_pair(tau, sin_ang, t, out=ext[:, : half_m + 1])
    coef = _dct1(ext, np.empty((2, half_m + 1), dtype=np.complex128))
    phi = coin.as_array()
    half = cmath.exp(0.5j * params.nu)
    rr0 = params.rho * params.rho0
    rho2, rho02 = params.rho**2, params.rho0**2
    v0, v1 = half.conjugate() * phi[0], half * phi[1]
    weights = np.array(
        [
            [-rho2 * v0 - rr0 * v1, rr0 * v0 - rho2 * v1],
            [rho02 * v0 - rr0 * v1, 0.0],
            [0.0, rr0 * v0 + rho02 * v1],
            [-v0, -v1],
        ]
    ) * np.array([half, half.conjugate()])
    u_t, u_prev = coef.real
    basis = np.empty((n_sites, 4))
    for j, (row, centre) in enumerate(
        ((u_t, t), (u_t, t + 1), (u_t, t - 1), (u_prev, t))
    ):
        basis[centre:, j] = row[: n_sites - centre]
        basis[:centre, j] = row[centre:0:-1]
    weights /= m_count
    return (basis @ weights.view(np.float64)).view(np.complex128)


@pytest.mark.parametrize("t", [1, 2, 5, 37, 1100, 4999])
@pytest.mark.parametrize(
    "params, coin",
    [(WalkParams(0.5, 1.2), COIN_RIGHT), (PARAMS_CANONICAL, COIN_BAL)],
)
def test_swap_free_half_basis_is_bit_identical_to_full_basis(params, coin, t):
    """Mirroring the basis moves no swap-free amplitude by a single bit."""
    state = evolve_fourier(coin, params, t, variant="cmv_only")
    assert np.array_equal(state.amps, _swap_free_full_basis(coin, params, t))


@pytest.mark.parametrize("nu", [0.7, -1.3, math.pi / 2, 3 * math.pi / 2, 3.1])
def test_unit_phases_match_extended_precision(nu):
    """exp(1j*nu*m) to 1e-15 for |m| up to MAX_STEPS, against 40 digits.

    Rounding nu*m first would be off by up to half an ulp of nu*m in
    angle, about 1e-10 at the largest m.
    """
    m = np.concatenate(
        (np.arange(-5, 6), np.linspace(-MAX_STEPS, MAX_STEPS, 41).astype(np.int64))
    )
    got = _unit_phases(nu, m)
    with mpmath.workdps(40):
        ref = [complex(mpmath.expj(mpmath.mpf(nu) * int(k))) for k in m]
    assert np.max(np.abs(got - np.array(ref))) <= 1e-15
