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
    shifted_symbol,
)
from scipy.fft import dct, next_fast_len

from qwalk import (
    CoinSpinor,
    WalkParams,
    distribution,
    evolve,
    evolve_fourier,
    group_velocity,
    initial_state,
)
from qwalk.fourier import (
    _PIECE,
    _QUARTER_TURNS,
    MAX_STEPS,
    _chebyshev_pair,
    _gap_parts,
    _node_count,
    _node_table,
    _one_plus_minus,
    _split_dct1,
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


def _branch_values(k, params):
    """The eigenvalues ``1j*s +/- sqrt(gap_sq)`` of :func:`_gap_parts` at ``k``."""
    s, root = _gap_parts(np.cos(k), np.sin(k), params)
    return 1j * s + root, 1j * s - root


def test_gap_parts_gap_matches_eigenvalue_imaginary_part():
    """gap_sq = 1 - (Im lambda)^2 for both eigenvalues of the symbol."""
    params = WalkParams(0.7, -0.6)
    for k in np.linspace(-math.pi, math.pi, 50):
        gap_sq = float(_gap_parts(math.cos(k), math.sin(k), params)[1]) ** 2
        for value in np.linalg.eigvals(shifted_symbol(float(k), params)):
            assert gap_sq == pytest.approx(1.0 - value.imag**2, abs=1e-12)


def test_gap_parts_eigenvalue_product_matches_determinant():
    params = WalkParams(0.52, 1.4)
    for k in (-2.5, -0.8, 0.1, 1.9):
        plus, minus = _branch_values(k, params)
        det = np.linalg.det(shifted_symbol(k, params))
        assert complex(plus * minus) == pytest.approx(det, abs=1e-12)


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
        lam = lambda kk: complex(_branch_values(kk, params)[0])  # noqa: E731
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


@pytest.mark.parametrize("variant", ["full", "cmv_only"])
def test_evolve_fourier_phases_nu_up_to_its_bound(variant):
    """At |nu| = 2**1000 the engine matches the lattice; past it it refuses
    ``nu``, as from |nu| near 4.3e301 the split of ``nu`` in
    ``_unit_phases`` overflows and every amplitude would be NaN."""
    for nu in (2.0**1000, -(2.0**1000)):
        params = WalkParams(0.6, nu)
        got = distribution(evolve_fourier(COIN_GEN, params, 200, variant=variant))
        want = distribution(evolve(COIN_GEN, params, 200, variant=variant))
        assert 0.5 * np.sum(np.abs(got.probs - want.probs)) <= 1e-12
    for nu in (4.3e301, -1e308):
        with pytest.raises(ValueError, match="nu"):
            evolve_fourier(COIN_GEN, WalkParams(0.6, nu), 5, variant=variant)


@pytest.mark.parametrize(
    "params, coin, variant",
    [
        (WalkParams(0.85, -1.3), COIN_RIGHT, "full"),
        (PARAMS_SPECIAL, COIN_BAL, "full"),
        (WalkParams(0.5, 1.2), COIN_RIGHT, "cmv_only"),
    ],
)
def test_evolve_fourier_matches_flushed_lattice_at_depth(params, coin, variant):
    """At t = 1, 2, 3 and 3000 the engine and the flushed lattice agree
    to 1e-12 TV.

    The special set and the swap-free walk each have momenta where the
    eigenvalue gap closes; the engine must keep its eigenvalue phases
    accurate next to them, since t multiplies any phase error.  The
    lattice flushes amplitudes below 1e-150 to zero, so none of its
    floats is subnormal, and its window stays [-t, t].  For t <= 3 the
    engine's basis overlaps its Chebyshev rows.  Step counts at
    the engine's piece length are checked against its whole-array stages
    (``test_engine_pieces_are_bit_identical_to_whole_arrays``): the
    lattice takes minutes there.
    """
    for t in (1, 2, 3, 3000):
        lattice = evolve(coin, params, t, variant=variant)
        fourier = evolve_fourier(coin, params, t, variant=variant)
        assert lattice.x_min == fourier.x_min == -t
        assert lattice.amps.shape == fourier.amps.shape == (2 * t + 1, 2)
        floats = np.abs(lattice.amps.view(np.float64))
        assert not np.any((floats > 0.0) & (floats < np.finfo(np.float64).tiny))
        tv = 0.5 * np.sum(
            np.abs(distribution(lattice).probs - distribution(fourier).probs)
        )
        assert tv <= 1e-12, t



def test_node_count_is_a_multiple_of_eight_above_two_t_plus_three():
    for t in list(range(1, 3000)) + [99_999, 100_000, 10**6, MAX_STEPS]:
        m_count = _node_count(t)
        assert m_count % 8 == 0 and m_count >= 2 * t + 3
    # next_fast_len, not the next power of two (262144 nodes)
    assert _node_count(100_000) == 204_800


def test_node_count_follows_scipy_next_fast_len():
    """The numpy-only 5-smooth search picks the node count scipy would."""
    for t in list(range(1, 5000)) + [100_000, 10**6, MAX_STEPS]:
        eighth = -(-(2 * t + 3) // 8)
        assert _node_count(t) == 8 * next_fast_len(eighth, real=True), t


@pytest.mark.parametrize("t", [1, 2, 3, 9, 37, 100, 1100, 100_000])
def test_split_dct1_matches_scipy(t):
    """The split DCT-I is scipy's type-I DCT to a few ulp of each row's scale.

    t = 1 and 2 give the least node count, M = 8, t = 3 gives 16 and
    t = 9 gives 24; the second split's length L/2 = M/8 is odd at t = 1,
    9 and 100 and even at 3, 37, 1100 and 1e5.
    """
    m_count = _node_count(t)
    rows = np.random.default_rng(t).normal(size=(2, m_count // 2 + 1))
    nodes = _node_table(m_count, np.empty((2, m_count // 2 + 1)))
    got = rows.copy()
    assert _split_dct1(got, nodes, np.empty(m_count + 4)) is got
    ref = dct(rows, type=1)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(np.float64).eps * scale)


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
    """At t = 1e5 the engine allocates at most its amplitudes and 1 MB.

    Its one block holds the 6.4 MB of amplitudes and little more (4M + 4
    floats, M >= 2t + 3); the Chebyshev stage, the matmuls and the site
    phases work in pieces, whose arrays are each a small fraction of a MB.
    """
    for variant in ("full", "cmv_only"):
        tracemalloc.start()
        try:
            state = evolve_fourier(COIN_GEN, WalkParams(0.6, 0.7), 100_000, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.amps.nbytes + 1e6, variant


def test_kept_state_holds_only_its_block():
    """The amplitudes are a view of one block of 4M + 4 floats, nothing more."""
    t = 100_000
    for variant in ("full", "cmv_only"):
        state = evolve_fourier(COIN_GEN, WalkParams(0.6, 0.7), t, variant)
        assert state.amps.base.nbytes <= 8 * (4 * _node_count(t) + 4), variant


def _site_weights(coin, params, variant):
    """The engine's (4, 2) site weights, in its own double arithmetic.

    Rows: U_t at x, at x - 1 and at x + 1, then U_(t-1) at x; the full
    walk's site phase exp(1j*nu*x) * 1j**(x + t - 1) comes on top.
    """
    phi = coin.as_array()
    half = cmath.exp(0.5j * params.nu)
    rr0 = params.rho * params.rho0
    rho2, rho02 = params.rho**2, params.rho0**2
    if variant == "full":
        v0, v1 = half * phi[0], half.conjugate() * phi[1]
        eiv = cmath.exp(1j * params.nu)
        return np.array(
            [
                [
                    -eiv * (rr0 * v0 + rho2 * v1),
                    eiv.conjugate() * (rr0 * v1 - rho2 * v0),
                ],
                [-1j * (rho02 * v1 - rr0 * v0), 0.0],
                [0.0, 1j * (rho02 * v0 + rr0 * v1)],
                [-1j * v0, -1j * v1],
            ]
        ) * np.array([half.conjugate(), half])
    v0, v1 = half.conjugate() * phi[0], half * phi[1]
    return np.array(
        [
            [-rho2 * v0 - rr0 * v1, rr0 * v0 - rho2 * v1],
            [rho02 * v0 - rr0 * v1, 0.0],
            [0.0, rr0 * v0 + rho02 * v1],
            [-v0, -v1],
        ]
    ) * np.array([half, half.conjugate()])


def _full_basis(u_t, u_prev, t):
    """Per-site basis over all 2t + 1 sites: column j of site x holds U_t
    at |x|, |x - 1| and |x + 1|, then U_(t-1) at |x|, each read off the
    DCT by its own index."""
    n_sites = 2 * t + 1
    basis = np.empty((n_sites, 4), dtype=u_t.dtype)
    for j, (row, centre) in enumerate(
        ((u_t, t), (u_t, t + 1), (u_t, t - 1), (u_prev, t))
    ):
        basis[centre:, j] = row[: n_sites - centre]
        basis[:centre, j] = row[centre:0:-1]
    return basis


def _whole_array_amplitudes(coin, params, t, variant):
    """Amplitudes with every stage over whole arrays.

    A test-side copy of the engine's stages before they ran in pieces, on
    its own nodes, Chebyshev rows and DCT: one Chebyshev call over all
    nodes, the per-site basis over all 2t + 1 sites in one matmul and,
    for the full walk, the site phases as one array.
    """
    m_count = _node_count(t)
    nodes = _node_table(m_count, np.empty((2, m_count // 2 + 1)))
    cos_th, sin_th = nodes
    if variant == "full":
        coef = _chebyshev_pair(*_gap_parts(sin_th, cos_th, params), t)
    else:
        coef = _chebyshev_pair(*_swap_free_gap(cos_th, sin_th, params), t)
    _split_dct1(coef, nodes, np.empty(2 * m_count))
    weights = _site_weights(coin, params, variant) / m_count
    basis = _full_basis(*coef, t)
    amps = (basis @ weights.view(np.float64)).view(np.complex128)
    if variant == "full":
        width = 4 * (math.isqrt(len(amps)) // 4 + 1)
        r = np.arange(width)
        inner = _unit_phases(params.nu, r) * _QUARTER_TURNS[(r - 1) % 4]
        outer = _unit_phases(params.nu, np.arange(-t, t + 1, width))
        amps *= (outer[:, None] * inner).reshape(-1)[: len(amps), None]
    return amps


def _long_double_amplitudes(coin, params, t, variant):
    """The engine's Chebyshev/DCT formula with every node and site in long double.

    The constants (rho*rho0, sin nu, the site weights) are the engine's
    doubles, so only the rounding of the nodes, the Chebyshev rows, the
    DCT and the site sums and phases differs.  Nodes are direct calls,
    ``U_n = sin(n*eps)/sin(eps)`` at the reflected angle, the DCT-I is
    the real FFT of the full even extension, and each site has its own
    basis row.
    """
    ld = np.longdouble
    m_count = _node_count(t)
    theta = 2 * np.arccos(ld(-1)) * np.arange(m_count // 2 + 1) / m_count
    cos_th, sin_th = np.cos(theta), np.sin(theta)
    rr0 = params.rho * params.rho0
    small = sin_th**2 / (1 + np.abs(cos_th))
    one_plus = np.where(cos_th >= 0, 1 + cos_th, small)  # 1 + cos theta
    one_minus = np.where(cos_th >= 0, small, 1 - cos_th)
    if variant == "full":
        # k = pi/2 - theta: sin k = cos theta
        nu_plus, nu_minus = _one_plus_minus(math.sin(params.nu), math.cos(params.nu))
        base = (params.rho - params.rho0) ** 2
        cos_d = rr0 * (cos_th - math.sin(params.nu))
        sin_d = np.sqrt(
            (base + rr0 * (one_plus + float(nu_minus)))
            * (base + rr0 * (one_minus + float(nu_plus)))
        )
    else:
        cos_d = params.rho0**2 * cos_th - params.rho**2
        sin_d = params.rho0 * np.sqrt(
            one_plus * (2.0 * params.rho**2 + params.rho0**2 * one_minus)
        )
    eps = np.arctan2(sin_d, np.abs(cos_d))
    sin_eps = np.sin(eps)
    positive = sin_eps > 0
    rows = []
    for n in (t, t - 1):
        u = np.where(positive, np.sin(n * eps) / np.where(positive, sin_eps, 1), n)
        rows.append(np.where(cos_d < 0, (-1) ** (n + 1) * u, u))
    rows = np.array(rows)
    coef = np.fft.rfft(np.concatenate((rows, rows[:, -2:0:-1]), axis=1)).real
    weights = _site_weights(coin, params, variant).astype(np.clongdouble)
    amps = _full_basis(*coef, t) @ weights
    amps /= m_count
    if variant == "full":
        x = np.arange(-t, t + 1)
        turns = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)[(x + t - 1) % 4]
        amps *= (np.exp(1j * ld(params.nu) * x) * turns)[:, None]
    return amps


@pytest.mark.parametrize("t, bound", [(3000, 4e-14), (100_000, 3e-13)])
@pytest.mark.parametrize("variant", ["full", "cmv_only"])
@pytest.mark.parametrize(
    "params, coin",
    [
        (WalkParams(0.6, 0.7), COIN_GEN),
        (WalkParams(0.3, 2.9), COIN_BAL),
        (WalkParams(0.85, -1.3), COIN_RIGHT),
    ],
)
def test_evolve_fourier_matches_long_double_at_depth(params, coin, variant, t, bound):
    """Every amplitude within the bound of the same formula in long double.

    Measured: at most 2.1e-14 at t = 3000 and 1.1e-13 at t = 1e5, the
    largest at (0.3, 2.9) swap-free.  Direct node calls and the real FFT
    of the full even extension were off by up to 1.2e-13 and 1.3e-12.
    """
    got = evolve_fourier(coin, params, t, variant=variant).amps
    ref = _long_double_amplitudes(coin, params, t, variant)
    assert np.max(np.abs(got - ref)) <= bound


@pytest.mark.parametrize("t", [1, 3, 37, 1100, 100_000])
def test_node_table_matches_long_double(t):
    """Each cos and sin of the table within 2e-16 of long double (1.3e-16
    measured at t = 1e5; direct calls on the rounded angles give 3.8e-16)."""
    m_count = _node_count(t)
    got = _node_table(m_count, np.empty((2, m_count // 2 + 1)))
    theta = (
        2 * np.arccos(np.longdouble(-1)) * np.arange(m_count // 2 + 1) / m_count
    )
    for row, ref in zip(got, (np.cos(theta), np.sin(theta))):
        assert np.max(np.abs(row - ref)) <= 2e-16


# Step counts around the engine's piece length P: t + 1 basis rows that
# fill one piece, one row more (the last piece takes it) and two more (a
# second piece of two rows); 16382 leaves the Chebyshev stage a last
# piece of one node; 3P + 5 spans several pieces of every stage.
_PIECE_STEPS = [_PIECE - 1, _PIECE, _PIECE + 1, 16382, 3 * _PIECE + 5]


@pytest.mark.parametrize("t", [1, 2, 3, 5, 37, 1100, 4999] + _PIECE_STEPS[:3])
@pytest.mark.parametrize(
    "params, coin",
    [(WalkParams(0.5, 1.2), COIN_RIGHT), (PARAMS_CANONICAL, COIN_BAL)],
)
def test_swap_free_half_basis_is_bit_identical_to_full_basis(params, coin, t):
    """Mirroring the basis and working in pieces moves no swap-free
    amplitude by a single bit."""
    state = evolve_fourier(coin, params, t, variant="cmv_only")
    assert np.array_equal(
        state.amps, _whole_array_amplitudes(coin, params, t, "cmv_only")
    )


@pytest.mark.parametrize("t", [1, 2, 3, 5, 37, 1100] + _PIECE_STEPS)
@pytest.mark.parametrize(
    "params, coin, variant",
    [
        (WalkParams(0.6, 0.7), COIN_GEN, "full"),
        (PARAMS_SPECIAL, COIN_BAL, "full"),
        (WalkParams(0.3, 2.9), COIN_BAL, "cmv_only"),
    ],
)
def test_engine_pieces_are_bit_identical_to_whole_arrays(params, coin, variant, t):
    """The Chebyshev stage, the basis matmuls and the full walk's site
    phases, each run a piece at a time, give every amplitude the bits of
    the same stage over whole arrays; the special set has a node where
    the gap closes."""
    state = evolve_fourier(coin, params, t, variant=variant)
    assert np.array_equal(
        state.amps, _whole_array_amplitudes(coin, params, t, variant)
    )


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
