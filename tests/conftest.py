"""Shared test fixtures: dense-matrix oracles and canonical parameter sets.

The dense operators below are assembled directly from the three-band
(interleaved five-diagonal) form of the step unitary and, independently,
from its four local factors.  They never touch the vectorised stepping
code in ``qwalk.walk``, so agreement between the two is a genuine
cross-check rather than a tautology.  The module also holds the
reference functions that only the tests call (``shifted_symbol``,
``branch_eigenvectors``, ``phase_rotation``, ``branch_radicand``,
``momentum_branch_derivative``, ``extremal_momentum``,
``envelope_deviation``, ``whole_kolmogorov_distance``), the closed-form
CDF that the ``cmv_only`` and ``standard`` laws are checked against, and
the sub-panel CDF that every law's CDF is checked against.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qwalk import ComparisonReport, CoinSpinor, WalkParams, WaveState
from qwalk.fourier import _like_input
from qwalk.limitlaw import (
    _PANEL_EDGES,
    OutOfSupportError,
    _branch_parts,
    _edge_squares,
    _panel_rule,
    _radicand_given_root,
    support_polynomial,
)

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


# Reference implementations that only the tests call, kept as the
# package had them.


def subpanel_cdf(law, x):
    """``law``'s CDF with the query angles ``asin(x/h*)`` splitting its panels.

    Each sub-panel is integrated by its own 16-point rule on fresh edge-form
    values, and a cumulative sum of the sub-panel integrals is read back at
    each query: the package's CDF before it read the law's cached nodes.
    """
    hi = law.support_hi
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.ravel()
    # asin(x/h*) in half-angle form: rounding x/h* next to +-1 would
    # move the angle by ~1e-8, this keeps it to ~1e-16.
    tail = np.sqrt(np.maximum(hi - np.abs(flat), 0.0) / (2.0 * hi))
    abs_theta = np.maximum(0.5 * np.pi - 2.0 * np.arcsin(tail), 0.0)
    theta_q = np.copysign(abs_theta, flat)
    points = np.concatenate((_PANEL_EDGES, theta_q))
    order = np.argsort(points, kind="stable")
    bounds = points[order]
    theta, weights = _panel_rule(bounds[:-1], bounds[1:])
    integrand = law._edge_form(hi * np.sin(theta), hi * np.cos(theta))
    panels = np.sum(weights * integrand, axis=1)
    cum = np.concatenate(([0.0], np.cumsum(panels)))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return _like_input(x, cum[rank[_PANEL_EDGES.size :]].reshape(x_arr.shape))


def shifted_symbol(k, params: WalkParams) -> np.ndarray:
    """Shifted momentum symbol of the full walk.

    With ``c = rho*rho0*(exp(1j*nu) + exp(-1j*k))`` and
    ``d = -rho**2*exp(1j*nu) + rho0**2*exp(-1j*k)`` the matrix is
    ``[[-c, d], [conj(d), conj(c)]]``.  Accepts a scalar momentum or an
    array; an array of shape ``shape`` yields ``shape + (2, 2)``.
    """
    ek = np.exp(-1j * np.asarray(k, dtype=float))
    eiv = cmath.exp(1j * params.nu)
    c = params.rho * params.rho0 * (eiv + ek)
    d = -params.rho**2 * eiv + params.rho0**2 * ek
    out = np.empty(np.shape(ek) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = -c
    out[..., 0, 1] = d
    out[..., 1, 0] = np.conj(d)
    out[..., 1, 1] = np.conj(c)
    return out


def branch_eigenvectors(k: float, params: WalkParams) -> np.ndarray:
    """Unit eigenvectors of :func:`shifted_symbol` at ``k`` as columns, by
    ``numpy.linalg.eig``: first that of ``1j*s + sqrt(gap_sq)``, the
    eigenvalue with the larger real part, then that of ``1j*s - sqrt(gap_sq)``.
    """
    values, vectors = np.linalg.eig(shifted_symbol(k, params))
    return vectors[:, np.argsort(-values.real)]


def phase_rotation(phi: float) -> np.ndarray:
    """Diagonal phase rotation ``diag(exp(1j*phi), exp(-1j*phi))``."""
    e = cmath.exp(1j * phi)
    return np.array([[e, 0.0], [0.0, e.conjugate()]], dtype=np.complex128)


def branch_radicand(x, params: WalkParams, sign: int):
    """One of the two radicands in the density numerator.

    ``1 - p^2 (1+sin(nu)^2) - (1 - p^2 cos(nu)^2) x^2 +/- 2 p sin(nu) sqrt(xi)``
    with ``p = rho*rho0`` and ``xi`` the support polynomial.  ``sign``
    is +1 or -1 and selects the branch.

    Raises
    ------
    OutOfSupportError
        If the support polynomial is negative anywhere in ``x``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    xi = support_polynomial(x, params)
    if np.any(np.asarray(xi) < 0.0):
        raise OutOfSupportError("argument outside the support interval")
    x_sq = np.square(np.asarray(x, dtype=float))
    return _like_input(x, _radicand_given_root(x_sq, np.sqrt(xi), params, sign))


def momentum_branch_derivative(x, params: WalkParams, sign: int):
    """Derivative ``dk_sign/dx = -sign * sqrt(radicand_sign) / ((1-x^2) sqrt(xi))``.

    Matches the derivative of :func:`~qwalk.limitlaw.momentum_branch` on
    the positive half of the support (see there for the even-function
    convention).
    """
    x_arr, root, eta = _branch_parts(x, params, sign)
    out = -sign * np.sqrt(eta) / ((1.0 - np.square(x_arr)) * root)
    return _like_input(x, out)


def extremal_momentum(params: WalkParams) -> float:
    """Momentum in ``[-pi/2, pi/2]`` where the group velocity peaks at ``h*``."""
    sv = math.sin(params.nu)
    if sv == 0.0:
        return 0.0
    p, lo_sq, hi_sq = _edge_squares(params)
    num = -1.0 + p * p * (1.0 + sv * sv) + math.sqrt(lo_sq * hi_sq)
    return math.asin(max(-1.0, min(1.0, num / (2.0 * p * p * sv))))


#: Moving-average window, in sites, of :func:`envelope_deviation`.
ENVELOPE_WINDOW = 5


def envelope_deviation(report: ComparisonReport) -> float:
    """Mean absolute gap between the limit points and the smoothed simulation.

    Smooths the simulated probabilities with a moving average of
    ``ENVELOPE_WINDOW`` sites before comparing, since the finite-time
    distribution oscillates site to site around the density envelope.
    """
    kernel = np.full(ENVELOPE_WINDOW, 1.0 / ENVELOPE_WINDOW)
    smooth = np.convolve(report.simulated, kernel, mode="same")
    return float(np.mean(np.abs(report.approx - smooth)))


def whole_kolmogorov_distance(dist, t: int, law) -> float:
    """The Kolmogorov distance scanned over the whole window at once.

    One cumulative sum and one interpolation over every site, against
    which the package's scan in pieces must agree bit for bit.
    """
    xs_grid, cdf_grid = law._cdf_table
    gap = np.cumsum(dist.probs)
    gap -= np.interp(dist.positions() / t, xs_grid, cdf_grid)
    above = gap.max()
    gap -= dist.probs
    return float(max(above, -gap.min()))


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
