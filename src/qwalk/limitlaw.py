"""Closed-form long-time limit densities of the walk and their calculus.

After rescaling by time, the walker position converges in distribution
to an absolutely continuous law supported on an interval ``(-h*, h*)``.
This module evaluates that law and every scalar function entering it:

* ``support_polynomial`` -- the quartic whose positivity delimits the
  support,
* ``branch_radicand`` -- the two radicands combined in the density
  numerator,
* ``coin_weight`` -- the affine weight carrying the initial-coin bias,
* ``support_halfwidth`` / ``extremal_momentum`` -- the support edge and
  the momentum where the group velocity attains it,
* ``momentum_branch`` / ``momentum_branch_derivative`` -- the two
  inverse branches of the group velocity and their derivative,
* ``spectral_limit_moment`` -- limit moments straight from the
  momentum-space spectral decomposition, an independent route used to
  cross-check the quadrature of the density.

Three law kinds are built by :func:`make_limit_law`:

``"theorem1"``
    the general law, valid for every parameter pair;
``"standard"``
    the two-branch special-parameter law (``rho = 1/sqrt(2)``,
    ``nu = pi/2 + n*pi``), with sign index ``n``;
``"cmv_only"``
    the law of the swap-free walk variant.

Densities diverge like an inverse square root at the support edges, so
cdf/moment quadrature substitutes ``x = support_hi * sin(theta)``; the
substituted integrand (:meth:`LimitLaw.substituted_density`) is finite
on the closed theta-interval and is evaluated with the vanishing edge
factor cancelled analytically, so it keeps its digits up to the edges.
One composite Gauss-Legendre rule per law, 64 equal theta-panels of 16
nodes, integrates it; equal panels keep the error local where the
integrand varies fast, next to the special parameter set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fourier import DegenerateSymbolError
from .walk import CoinSpinor, WalkParams

__all__ = [
    "LAW_KINDS",
    "OutOfSupportError",
    "LimitLaw",
    "make_limit_law",
    "support_polynomial",
    "branch_radicand",
    "coin_weight",
    "support_halfwidth",
    "extremal_momentum",
    "momentum_branch",
    "momentum_branch_derivative",
    "spectral_limit_moment",
    "overlap_weight",
]

LAW_KINDS = ("theorem1", "standard", "cmv_only")

_SPECTRAL_NODES = 4096
# Radicand values below this are analytic zeros buried in rounding noise
# (at the special parameter set one branch radicand is identically zero
# but evaluates to ~1e-16); clamping keeps sqrt from turning that noise
# into 1e-8 density errors.
_RADICAND_CLAMP = 1e-13
_SPECIAL_PARAM_TOL = 1e-9

_PANEL_EDGES = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 65)
# The 16-point Gauss-Legendre rule on [-1, 1] exactly as
# scipy.special.roots_legendre(16) gives it, as (node, weight) for the
# positive nodes of the symmetric rule.  numpy's leggauss(16) differs in
# the last bits (weights by up to 2.3e-15), which would move every
# quadrature result.
_LEGENDRE_HALF = np.array([
    (0.09501250983763745, 0.1894506104550681),
    (0.2816035507792589, 0.18260341504492328),
    (0.4580167776572274, 0.16915651939500212),
    (0.6178762444026438, 0.14959598881657638),
    (0.755404408355003, 0.12462897125553363),
    (0.8656312023878318, 0.09515851168249231),
    (0.9445750230732326, 0.06225352393864763),
    (0.9894009349916499, 0.027152459411756466),
])
_LEGENDRE_NODES = np.concatenate((-_LEGENDRE_HALF[::-1, 0], _LEGENDRE_HALF[:, 0]))
_LEGENDRE_WEIGHTS = np.concatenate((_LEGENDRE_HALF[::-1, 1], _LEGENDRE_HALF[:, 1]))


def _panel_rule(lo: np.ndarray, hi: np.ndarray):
    """Legendre nodes and weights on panels ``[lo[i], hi[i]]``, each ``(P, 16)``."""
    half = 0.5 * (hi - lo)[:, None]
    return lo[:, None] + half * (_LEGENDRE_NODES + 1.0), half * _LEGENDRE_WEIGHTS


class OutOfSupportError(ValueError):
    """Raised when an argument lies outside the open support interval."""


def support_polynomial(x, params: WalkParams):
    """Quartic ``(rho^2 - x^2)(rho0^2 - x^2) - rho^2 rho0^2 cos(nu)^2 x^2``.

    Strictly positive on the open support of the limit law and zero at
    its edges.  Scalar or array ``x``.
    """
    x_sq = np.square(np.asarray(x, dtype=float))
    rho_sq = params.rho**2
    rho0_sq = params.rho0**2
    out = (rho_sq - x_sq) * (rho0_sq - x_sq) - rho_sq * rho0_sq * math.cos(
        params.nu
    ) ** 2 * x_sq
    if np.ndim(x) == 0:
        return float(out)
    return out


def _radicand_given_root(x_sq, sqrt_xi, params: WalkParams, sign: int):
    p_sq = (params.rho * params.rho0) ** 2
    sv = math.sin(params.nu)
    const = 1.0 - p_sq * (1.0 + sv * sv)
    slope = 1.0 - p_sq * (1.0 - sv * sv)  # = 1 - p^2 cos(nu)^2
    return const - slope * x_sq + 2.0 * sign * params.rho * params.rho0 * sv * sqrt_xi


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
    out = _radicand_given_root(x_sq, np.sqrt(xi), params, sign)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _coin_cross(coin: CoinSpinor) -> complex:
    return coin.a0 * complex(coin.a1).conjugate()


def _general_coefficient(params: WalkParams, coin: CoinSpinor) -> float:
    cross = _coin_cross(coin)
    return (
        abs(coin.a0) ** 2
        - abs(coin.a1) ** 2
        - (2.0 * params.rho0 / params.rho)
        * (cross.real * math.cos(params.nu) - cross.imag * math.sin(params.nu))
    )


def coin_weight(x, params: WalkParams, coin: CoinSpinor):
    """Affine weight ``1 + coeff * x`` carrying the initial-coin bias.

    ``coeff = |a0|^2 - |a1|^2 - (2 rho0/rho)(Re(a0 conj(a1)) cos(nu)
    - Im(a0 conj(a1)) sin(nu))``.
    """
    out = 1.0 + _general_coefficient(params, coin) * np.asarray(x, dtype=float)
    if np.ndim(x) == 0:
        return float(out)
    return out


def support_halfwidth(params: WalkParams) -> float:
    """Half-width ``h*`` of the limit-law support, in (0, 1)."""
    p = params.rho * params.rho0
    q = (p * math.sin(params.nu)) ** 2
    hi = math.sqrt(max((1.0 + p) ** 2 - q, 0.0))
    lo = math.sqrt(max((1.0 - p) ** 2 - q, 0.0))
    return 0.5 * (hi - lo)


def extremal_momentum(params: WalkParams) -> float:
    """Momentum in ``[-pi/2, pi/2]`` where the group velocity peaks at ``h*``."""
    sv = math.sin(params.nu)
    if sv == 0.0:
        return 0.0
    p = params.rho * params.rho0
    q = (p * sv) ** 2
    disc = math.sqrt(max(((1.0 - p) ** 2 - q) * ((1.0 + p) ** 2 - q), 0.0))
    num = -1.0 + p * p * (1.0 + sv * sv) + disc
    return math.asin(max(-1.0, min(1.0, num / (2.0 * p * p * sv))))


def momentum_branch(x, params: WalkParams, sign: int):
    """Inverse branch ``k_sign(x)`` of the group velocity, principal arcsin.

    Defined for ``|x| < h*``; both branches are even functions of ``x``
    and parameterize the positive velocity ``|x|``, so the identities
    ``group_velocity(momentum_branch(x)) = x`` and the derivative
    formula below apply on the positive half ``x in (0, h*)``.

    Raises
    ------
    OutOfSupportError
        If any ``|x| >= h*``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    hstar = support_halfwidth(params)
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) >= hstar):
        raise OutOfSupportError("argument outside the open support interval")
    p = params.rho * params.rho0
    sv = math.sin(params.nu)
    xi = support_polynomial(x_arr, params)
    num = -p * sv * np.square(x_arr) + sign * np.sqrt(np.maximum(xi, 0.0))
    out = np.arcsin(np.clip(num / (p * (1.0 - np.square(x_arr))), -1.0, 1.0))
    if np.ndim(x) == 0:
        return float(out)
    return out


def momentum_branch_derivative(x, params: WalkParams, sign: int):
    """Derivative ``dk_sign/dx = -sign * sqrt(radicand_sign) / ((1-x^2) sqrt(xi))``.

    Matches the derivative of :func:`momentum_branch` on the positive
    half of the support (see there for the even-function convention).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    hstar = support_halfwidth(params)
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) >= hstar):
        raise OutOfSupportError("argument outside the open support interval")
    xi = np.maximum(support_polynomial(x_arr, params), 0.0)
    eta = _radicand_given_root(np.square(x_arr), np.sqrt(xi), params, sign)
    out = -sign * np.sqrt(np.maximum(eta, 0.0)) / (
        (1.0 - np.square(x_arr)) * np.sqrt(xi)
    )
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LimitLaw:
    """A fully specified limit density.

    Built by :func:`make_limit_law`; carries the support half-width and
    the linear coefficient of its weight so that evaluation needs no
    revalidation.
    """

    kind: str
    params: WalkParams
    coin: CoinSpinor
    n: int
    support_hi: float
    coeff: float

    def density(self, x):
        """Density value(s) at ``x``; zero outside the open support."""
        x_arr = np.asarray(x, dtype=float)
        out = _DENSITY_FUNCS[self.kind](self, x_arr)
        if x_arr.ndim == 0:
            return float(out)
        return out

    def substituted_density(self, theta):
        """Density in the edge angle: ``density(h* sin(theta)) * h* cos(theta)``.

        Finite on the closed interval ``[-pi/2, pi/2]``, edges included,
        where it equals ``(1 +- coeff*h*) / (pi sqrt(1 - h*^2))`` for every
        kind.  The ``cos(theta)`` factor is cancelled analytically, so no
        value near an edge loses digits to ``h*^2 - x^2``.
        """
        theta = np.asarray(theta, dtype=float)
        hi = self.support_hi
        xs = hi * np.sin(theta)
        vals = (1.0 + self.coeff * xs) / (np.pi * (1.0 - np.square(xs)))
        if self.kind == "theorem1":
            return vals * _theorem1_radical_ratio(self.params, hi, hi * np.cos(theta))
        return vals * math.sqrt(1.0 - hi * hi)

    @cached_property
    def _weighted_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``x`` of the composite rule and integrand times weight there."""
        theta, weights = _panel_rule(_PANEL_EDGES[:-1], _PANEL_EDGES[1:])
        theta, weights = theta.ravel(), weights.ravel()
        xs = self.support_hi * np.sin(theta)
        return xs, weights * self.substituted_density(theta)

    def cdf(self, x):
        """Cumulative distribution at ``x``, any shape; a float for scalar ``x``.

        The query angles ``asin(x/h*)`` split the composite rule's panels;
        one integrand call covers every sub-panel and a cumulative sum of
        the sub-panel integrals is read back at each query.  The sums are
        non-negative, so the result is monotone in ``x``; it is 0 for
        ``x <= -h*``.
        """
        hi = self.support_hi
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
        panels = np.sum(weights * self.substituted_density(theta), axis=1)
        cum = np.concatenate(([0.0], np.cumsum(panels)))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        out = cum[rank[_PANEL_EDGES.size :]].reshape(x_arr.shape)
        if x_arr.ndim == 0:
            return float(out)
        return out

    def moment(self, r: int) -> float:
        """r-th moment of the law, ``r >= 0``."""
        if r < 0:
            raise ValueError("moment order must be nonnegative")
        xs, weighted = self._weighted_nodes
        return float(np.dot(xs**r, weighted))


def _theorem1_radical_ratio(params: WalkParams, hi: float, chord) -> np.ndarray:
    """``(sqrt(eta+) + sqrt(eta-)) / (2 sqrt(H^2 - x^2))``, ``chord^2 = hi^2 - x^2``.

    The support quartic factors as ``(hi^2 - x^2)(H^2 - x^2)`` with
    ``H^2 = rho^2 rho0^2 / hi^2``.  Written with ``E = (1 - hi^2)(H^2 -
    hi^2)``, the radicands' common edge value, both radicands and ``H^2 -
    x^2`` are sums of non-cancelling terms in ``chord``, and the ratio
    tends to ``sqrt(1 - hi^2)`` at the edge, special set included.
    """
    p = params.rho * params.rho0
    edge = max(_radicand_given_root(hi * hi, 0.0, params, 1), 0.0)
    chord_sq = np.square(chord)
    outer = edge / (1.0 - hi * hi) + chord_sq
    mean = edge + (1.0 - (p * math.cos(params.nu)) ** 2) * chord_sq
    split = 2.0 * p * math.sin(params.nu) * chord * np.sqrt(outer)
    total = 0.0
    for eta in (mean + split, mean - split):
        # Relative to the radicands' scale, which vanishes at the edge.
        total = total + np.sqrt(np.where(eta < _RADICAND_CLAMP * mean, 0.0, eta))
    return total / (2.0 * np.sqrt(outer))


def _special_branch_index(params: WalkParams) -> int | None:
    """Return n with nu = pi/2 + n*pi (mod 2pi) at the special set, else None."""
    if abs(params.rho - math.sqrt(0.5)) > _SPECIAL_PARAM_TOL:
        return None
    if abs(math.cos(params.nu)) > _SPECIAL_PARAM_TOL:
        return None
    return 0 if math.sin(params.nu) > 0.0 else 1


def make_limit_law(
    kind: str, params: WalkParams, coin: CoinSpinor, n: int = 0
) -> LimitLaw:
    """Construct a limit law of the given kind.

    Parameters
    ----------
    kind:
        One of ``"theorem1"``, ``"standard"``, ``"cmv_only"``.
    params, coin:
        Walk parameters and normalised initial coin.
    n:
        Branch index of the standard law; must satisfy
        ``nu = pi/2 + n*pi`` (mod 2pi).  Ignored by the other kinds.

    Raises
    ------
    ValueError
        On unknown kind, non-normalised coin, or a standard law
        requested away from its special parameter set.
    """
    if kind not in LAW_KINDS:
        raise ValueError(f"unknown law kind {kind!r}")
    if abs(coin.norm_sq() - 1.0) > 1e-9:
        raise ValueError("coin state must have unit norm")
    cross = _coin_cross(coin)
    base = abs(coin.a0) ** 2 - abs(coin.a1) ** 2
    if kind == "theorem1":
        support_hi = support_halfwidth(params)
        coeff = _general_coefficient(params, coin)
    elif kind == "standard":
        branch = _special_branch_index(params)
        if branch is None:
            raise ValueError(
                "standard law requires rho = 1/sqrt(2) and nu = pi/2 + n*pi"
            )
        if (n - branch) % 2 != 0:
            raise ValueError(
                f"branch index n={n} inconsistent with nu={params.nu!r}"
            )
        support_hi = math.sqrt(0.5)
        coeff = base + (-1.0) ** (n % 2) * 2.0 * cross.imag
    else:
        support_hi = params.rho0
        coeff = base - (2.0 * params.rho / params.rho0) * (
            cross.real * math.cos(params.nu) + cross.imag * math.sin(params.nu)
        )
    return LimitLaw(
        kind=kind,
        params=params,
        coin=coin,
        n=n,
        support_hi=support_hi,
        coeff=coeff,
    )


def _density_theorem1(law: LimitLaw, x_arr: np.ndarray) -> np.ndarray:
    params = law.params
    xi = np.asarray(support_polynomial(x_arr, params))
    mask = (np.abs(x_arr) < law.support_hi) & (xi > 0.0)
    sqrt_xi = np.sqrt(np.where(mask, xi, 1.0))
    x_sq = np.square(x_arr)
    eta_pos = _radicand_given_root(x_sq, sqrt_xi, params, 1)
    eta_neg = _radicand_given_root(x_sq, sqrt_xi, params, -1)
    eta_pos = np.where(eta_pos < _RADICAND_CLAMP, 0.0, eta_pos)
    eta_neg = np.where(eta_neg < _RADICAND_CLAMP, 0.0, eta_neg)
    weight = 1.0 + law.coeff * x_arr
    denom = np.where(mask, 2.0 * np.pi * (1.0 - x_sq) * sqrt_xi, 1.0)
    vals = (np.sqrt(eta_pos) + np.sqrt(eta_neg)) * weight / denom
    return np.where(mask, vals, 0.0)


def _density_standard(law: LimitLaw, x_arr: np.ndarray) -> np.ndarray:
    x_sq = np.square(x_arr)
    rad = 1.0 - 2.0 * x_sq
    mask = (np.abs(x_arr) < law.support_hi) & (rad > 0.0)
    denom = np.where(mask, np.pi * (1.0 - x_sq) * np.sqrt(np.where(mask, rad, 1.0)), 1.0)
    vals = (1.0 + law.coeff * x_arr) / denom
    return np.where(mask, vals, 0.0)


def _density_cmv_only(law: LimitLaw, x_arr: np.ndarray) -> np.ndarray:
    x_sq = np.square(x_arr)
    rad = law.params.rho0**2 - x_sq
    mask = (np.abs(x_arr) < law.support_hi) & (rad > 0.0)
    denom = np.where(mask, np.pi * (1.0 - x_sq) * np.sqrt(np.where(mask, rad, 1.0)), 1.0)
    vals = law.params.rho * (1.0 + law.coeff * x_arr) / denom
    return np.where(mask, vals, 0.0)


_DENSITY_FUNCS = {
    "theorem1": _density_theorem1,
    "standard": _density_standard,
    "cmv_only": _density_cmv_only,
}


def overlap_weight(i: int, sign: int, nu_arg: float, k, params: WalkParams):
    """Closed-form spectral overlap helpers ``F_{i,sign}(nu_arg; k)``.

    For ``i`` in 0..3 and ``sign`` +1/-1, with
    ``root = sqrt(1 - rho^2 rho0^2 (sin k - sin nu_arg)^2)``:

    * ``i=0``: ``1/2 - sign * rho rho0 (cos k + cos nu_arg) / (2 root)``
    * ``i=1``: ``1/2 + sign * rho rho0 (cos k + cos nu_arg) / (2 root)``
    * ``i=2``: ``sign * (rho0^2 cos k - rho^2 cos nu_arg) / root``
    * ``i=3``: ``sign * (rho0^2 sin k + rho^2 sin nu_arg) / root``

    These combine the squared eigenvector overlaps of the shifted symbol
    into coin-independent pieces; used in verification only.
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


# Each entry holds three 4096-node arrays (96 KB): an r-sweep over one
# (params, coin) pair reuses them, and a run over many pairs stays bounded.
@lru_cache(maxsize=16)
def _spectral_nodes(
    params: WalkParams, coin: CoinSpinor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-branch velocity and both branch weights on the momentum grid.

    The weights are the squared overlaps of the rotated coin with the
    ``+`` and ``-`` eigenvectors of the shifted symbol; the ``+`` branch
    moves with ``-velocity``.  The arrays are read-only, as they are shared
    between calls.
    """
    k = -np.pi + 2.0 * np.pi * np.arange(_SPECTRAL_NODES) / _SPECTRAL_NODES
    rr0 = params.rho * params.rho0
    s = rr0 * (np.sin(k) - math.sin(params.nu))
    gap_sq = 1.0 - s * s
    if np.any(gap_sq < 1e-12):
        raise DegenerateSymbolError(
            "spectral gap closes on the momentum grid (special parameter set)"
        )
    root = np.sqrt(gap_sq)
    velocity = rr0 * np.cos(k) / root
    d = -params.rho**2 * cmath.exp(1j * params.nu) + params.rho0**2 * np.exp(
        -1j * k
    )
    re_c = rr0 * (np.cos(k) + math.cos(params.nu))
    half = cmath.exp(0.5j * params.nu)
    phi0 = half * coin.a0
    phi1 = half.conjugate() * coin.a1
    weights = []
    for sgn in (1.0, -1.0):
        norm_main = 2.0 * (gap_sq + sgn * re_c * root)
        norm_alt = 2.0 * (gap_sq - sgn * re_c * root)
        num_main = np.abs(np.conj(d) * phi0 + (re_c + sgn * root) * phi1) ** 2
        num_alt = np.abs(-(re_c - sgn * root) * phi0 + d * phi1) ** 2
        use_main = norm_main >= norm_alt
        weights.append(
            np.where(use_main, num_main, num_alt)
            / np.where(use_main, norm_main, norm_alt)
        )
    for arr in (velocity, *weights):
        arr.flags.writeable = False
    return velocity, weights[0], weights[1]


def spectral_limit_moment(r: int, params: WalkParams, coin: CoinSpinor) -> float:
    """Limit moment from the momentum-space spectral decomposition.

    Integrates ``(branch velocity)^r`` times the squared overlap of each
    symbol eigenvector with the rotated coin over one momentum period
    (uniform trapezoid, spectrally accurate for this periodic analytic
    integrand).  Independent of the density quadrature route, which it
    cross-checks to 1e-6.  The node arrays are computed once per
    ``(params, coin)`` and kept in a small cache.

    Raises
    ------
    DegenerateSymbolError
        At the special parameter set, where the eigenvector formulas
        degenerate at isolated momenta.
    """
    if r < 0:
        raise ValueError("moment order must be nonnegative")
    velocity, weight_plus, weight_minus = _spectral_nodes(params, coin)
    total = np.zeros_like(velocity)
    for vel_sign, weight in ((-1.0, weight_plus), (1.0, weight_minus)):
        total = total + (vel_sign * velocity) ** r * weight
    return float(np.mean(total))
