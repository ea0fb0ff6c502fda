"""Shared test fixtures: dense-matrix oracles and canonical parameter sets.

The dense operators below are assembled directly from the three-band
(interleaved five-diagonal) form of the step unitary and, independently,
from its four local factors.  They never touch the vectorised stepping
code in ``qwalk.walk``, so agreement between the two is a genuine
cross-check rather than a tautology.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qwalk import CoinSpinor, WalkParams, WaveState

SQ2 = math.sqrt(0.5)

#: coin held entirely in the first component
COIN_RIGHT = CoinSpinor(1.0, 0.0)
#: balanced coin with a quarter-turn relative phase
COIN_BAL = CoinSpinor(SQ2, 1j * SQ2)
#: a generic unbalanced complex coin
COIN_GEN = CoinSpinor(0.6, 0.8j)

PARAMS_SPECIAL = WalkParams(rho=SQ2, nu=math.pi / 2)
PARAMS_CANONICAL = WalkParams(rho=SQ2, nu=math.pi / 4)

#: off-special parameter points used by grid-style checks
PARAM_POINTS = (
    WalkParams(0.6, 1.0),
    WalkParams(0.85, -1.3),
    WalkParams(0.3, 0.7),
    WalkParams(SQ2, math.pi / 4),
    WalkParams(0.45, 2.6),
)

#: (params, coin, variant, law kind, branch index) regression grid;
#: every entry satisfies ks(t=500) <= 0.05 and ks(500) < ks(100).
REGRESSION_GRID = (
    (PARAMS_CANONICAL, COIN_BAL, "full", "theorem1", 0),
    (PARAMS_CANONICAL, COIN_RIGHT, "full", "theorem1", 0),
    (WalkParams(0.6, 1.0), COIN_BAL, "full", "theorem1", 0),
    (WalkParams(0.85, -1.3), COIN_RIGHT, "full", "theorem1", 0),
    (WalkParams(0.3, 0.7), COIN_BAL, "full", "theorem1", 0),
    (PARAMS_SPECIAL, COIN_BAL, "full", "standard", 0),
    (WalkParams(SQ2, 3 * math.pi / 2), COIN_RIGHT, "full", "standard", 1),
    (PARAMS_CANONICAL, COIN_BAL, "cmv_only", "cmv_only", 0),
    (WalkParams(0.3, 0.7), COIN_BAL, "cmv_only", "cmv_only", 0),
    (WalkParams(0.5, 1.2), COIN_RIGHT, "cmv_only", "cmv_only", 0),
)


def closed_form_cdf(x, half_width: float, coeff: float) -> np.ndarray:
    """CDF of the density ``K (1 + c x) / (pi (1 - x^2) sqrt(a^2 - x^2))``.

    This is the shape of the ``cmv_only`` and ``standard`` laws, with
    ``a = half_width``, ``c = coeff`` and ``K = sqrt(1 - a^2)`` for unit
    mass.  With ``s = sqrt(a^2 - x^2)`` and ``b = sqrt(1 - a^2)`` the
    elementary antiderivative is ``1/2 + (atan2(b x, s) - c atan2(s, b)) / pi``.
    """
    a = half_width
    b = math.sqrt(1.0 - a * a)
    xs = np.clip(np.asarray(x, dtype=float), -a, a)
    s = np.sqrt((a - xs) * (a + xs))
    return 0.5 + (np.arctan2(b * xs, s) - coeff * np.arctan2(s, b)) / np.pi


def _idx(x: int, c: int, span: int) -> int:
    """Interleaved basis index of (site, component) on [-span, span]."""
    return 2 * (x + span) + c


def dense_full_step_matrix(params: WalkParams, span: int) -> np.ndarray:
    """Dense one-step matrix of the full walk on the truncated window.

    Built entry by entry from the three-band sum form of the operator:
    the output pair at site y receives

        a'(y) = -alpha0*rho0*a(y-1) + rho0^2*b(y-1)
                - alpha0*rho0*a(y)  - rho^2*b(y)
        b'(y) =  rho0^2*a(y+1) + rho0*conj(alpha0)*b(y+1)
                - rho^2*a(y)   + rho0*conj(alpha0)*b(y)
    """
    size = 2 * (2 * span + 1)
    mat = np.zeros((size, size), dtype=np.complex128)
    rho_sq = params.rho**2
    r0 = params.rho0
    a0 = params.alpha0
    a0c = a0.conjugate()
    for y in range(-span, span + 1):
        row_a = _idx(y, 0, span)
        row_b = _idx(y, 1, span)
        mat[row_a, _idx(y, 0, span)] += -a0 * r0
        mat[row_a, _idx(y, 1, span)] += -rho_sq
        mat[row_b, _idx(y, 0, span)] += -rho_sq
        mat[row_b, _idx(y, 1, span)] += r0 * a0c
        if y - 1 >= -span:
            mat[row_a, _idx(y - 1, 0, span)] += -a0 * r0
            mat[row_a, _idx(y - 1, 1, span)] += r0 * r0
        if y + 1 <= span:
            mat[row_b, _idx(y + 1, 0, span)] += r0 * r0
            mat[row_b, _idx(y + 1, 1, span)] += r0 * a0c
    return mat


def dense_swap_free_matrix(params: WalkParams, span: int) -> np.ndarray:
    """Dense one-step matrix of the swap-free (banded-factor-only) walk."""
    size = 2 * (2 * span + 1)
    mat = np.zeros((size, size), dtype=np.complex128)
    rho_sq = params.rho**2
    r0 = params.rho0
    a0 = params.alpha0
    a0c = a0.conjugate()
    for y in range(-span, span + 1):
        row_a = _idx(y, 0, span)
        row_b = _idx(y, 1, span)
        mat[row_a, _idx(y, 0, span)] += -rho_sq
        mat[row_a, _idx(y, 1, span)] += -a0 * r0
        mat[row_b, _idx(y, 0, span)] += r0 * a0c
        mat[row_b, _idx(y, 1, span)] += -rho_sq
        if y - 1 >= -span:
            mat[row_a, _idx(y - 1, 0, span)] += r0 * r0
            mat[row_a, _idx(y - 1, 1, span)] += -a0 * r0
        if y + 1 <= span:
            mat[row_b, _idx(y + 1, 0, span)] += r0 * a0c
            mat[row_b, _idx(y + 1, 1, span)] += r0 * r0
    return mat


def dense_swap_matrix(span: int) -> np.ndarray:
    """Dense per-site component swap on the truncated window."""
    size = 2 * (2 * span + 1)
    mat = np.zeros((size, size), dtype=np.complex128)
    for y in range(-span, span + 1):
        mat[_idx(y, 0, span), _idx(y, 1, span)] = 1.0
        mat[_idx(y, 1, span), _idx(y, 0, span)] = 1.0
    return mat


def dense_factor_product_matrix(params: WalkParams, span: int) -> np.ndarray:
    """One full step assembled as the product of its four local factors.

    Order of application (rightmost factor first): site-wise coin A,
    shift of component 0 to x+1, site-wise coin B, shift of component 1
    to x-1.  Independent of both the band-stencil oracle above and the
    implementation under test.
    """
    size = 2 * (2 * span + 1)
    h = cmath.exp(0.5j * params.nu)
    hc = h.conjugate()
    rho, r0 = params.rho, params.rho0
    coin_a = np.array([[-rho * h, r0 * hc], [-r0 * h, -rho * hc]])
    coin_b = np.array([[r0 * h, rho * h], [rho * hc, -r0 * hc]])

    def sitewise(coin: np.ndarray) -> np.ndarray:
        return np.kron(np.eye(2 * span + 1), coin).astype(np.complex128)

    shift0 = np.zeros((size, size), dtype=np.complex128)
    shift1 = np.zeros((size, size), dtype=np.complex128)
    for y in range(-span, span + 1):
        if y + 1 <= span:
            shift0[_idx(y + 1, 0, span), _idx(y, 0, span)] = 1.0
        shift0[_idx(y, 1, span), _idx(y, 1, span)] = 1.0
        shift1[_idx(y, 0, span), _idx(y, 0, span)] = 1.0
        if y - 1 >= -span:
            shift1[_idx(y - 1, 1, span), _idx(y, 1, span)] = 1.0
    return shift1 @ sitewise(coin_b) @ shift0 @ sitewise(coin_a)


def embed_state(state: WaveState, span: int) -> np.ndarray:
    """Interleaved amplitude vector of a WaveState on [-span, span]."""
    if state.x_min < -span or state.x_max > span:
        raise ValueError("window too small to embed the state")
    vec = np.zeros(2 * (2 * span + 1), dtype=np.complex128)
    for i, x in enumerate(state.positions()):
        vec[_idx(int(x), 0, span)] = state.amps[i, 0]
        vec[_idx(int(x), 1, span)] = state.amps[i, 1]
    return vec


def origin_vector(coin: CoinSpinor, span: int) -> np.ndarray:
    """Point-mass initial vector at the origin on [-span, span]."""
    vec = np.zeros(2 * (2 * span + 1), dtype=np.complex128)
    vec[_idx(0, 0, span)] = coin.a0
    vec[_idx(0, 1, span)] = coin.a1
    return vec
