"""Closed-form long-time limit densities of the walk and their calculus.

After rescaling by time, the walker position converges in distribution
to an absolutely continuous law supported on an interval ``(-h*, h*)``.
This module evaluates that law and every scalar function entering it:

* ``support_polynomial`` -- the quartic whose positivity delimits the
  support,
* ``support_halfwidth`` -- the support edge ``h*``, the peak of the
  group velocity,
* ``momentum_branch`` -- the two inverse branches of the group
  velocity,
* ``spectral_limit_moment`` -- limit moments straight from the
  symbol's branch velocities and closed-form branch weights in momentum,
  an independent route used to cross-check the quadrature of the density.

Three law kinds (:data:`LAW_KINDS`) are built by :func:`make_limit_law`:

``theorem1``
    the general law, valid for every parameter pair;
``standard``
    the two-branch special-parameter law (``rho = 1/sqrt(2)``,
    ``nu = pi/2 + n*pi``), with sign index ``n``;
``cmv_only``
    the law of the swap-free walk variant.

Densities diverge like an inverse square root at the support edges.
Each law has one formula, its edge form: the density times the chord
``sqrt(h*^2 - x^2)``, written with the vanishing edge factor cancelled
analytically, so it is finite up to the edges and keeps its digits
there.  theorem1's takes its branch radicands' roots from their sum and
product, sums of nonnegative terms, so it keeps them next to the special
set too, where one radicand vanishes.  :meth:`LimitLaw.density` divides
it by the chord, and cdf/moment quadrature substitutes ``x = h*
sin(theta)``, where the chord is ``h* cos(theta)`` and the integrand is
the edge form itself.  One composite Gauss-Legendre rule per law, 64
equal theta-panels of 16 nodes, integrates it; equal panels keep the
error local where the integrand varies fast, next to the special
parameter set.  The law's one CDF is the antiderivative of each panel's
interpolant through the rule.

The spectral route integrates over momentum instead: each symbol branch
moves with its group velocity and weighs the squared overlap of its
eigenvector with the coin, a closed form in ``k`` (Grimmett, Janson and
Scudo, PRE 69, 026119, 2004).  It uses the same 16-point rule on panels
that halve towards ``k = -/+pi/2``, a panel edge, where the symbol's gap
comes closest to closing; the panels reach as deep as the gap is narrow,
so the route stays accurate at and next to the special set.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fourier import _gap_parts, _like_input
from .walk import CoinSpinor, WalkParams

__all__ = [
    "LAW_KINDS",
    "OutOfSupportError",
    "LimitLaw",
    "make_limit_law",
    "support_polynomial",
    "support_halfwidth",
    "momentum_branch",
    "spectral_limit_moment",
]

#: Law kinds admissible for each evolution variant of :mod:`qwalk.walk`.
VARIANT_LAWS = {"full": ("theorem1", "standard"), "cmv_only": ("cmv_only",)}
LAW_KINDS = tuple(kind for kinds in VARIANT_LAWS.values() for kind in kinds)

_SPECIAL_PARAM_TOL = 1e-9
# Smallest rho of a cmv_only law: its theta-rule loses mass below it
# (worst over nu 9.4e-14 at 0.02, 1.5e-9 at 0.01, 0.99 at 1e-6).
_CMV_ONLY_RHO_MIN = 0.02

_PANELS = 64
_PANEL_EDGES = np.linspace(-0.5 * np.pi, 0.5 * np.pi, _PANELS + 1)
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


def _legendre_table(s: np.ndarray, top: int) -> np.ndarray:
    """Rows ``P_0(s) .. P_top(s)`` by recurrence, exactly ``(+-1)**n`` at ``+-1``."""
    table = np.empty((top + 1, s.size))
    table[0], table[1] = 1.0, s
    for n in range(1, top):
        table[n + 1] = ((2 * n + 1) * s * table[n] - n * table[n - 1]) / (n + 1)
    return table


def _left_shares(s: np.ndarray) -> np.ndarray:
    """Share of each node's weight left of ``s`` in ``[-1, 1]``, ``(len(s), 16)``.

    The interpolant's Lagrange basis is ``l_k = w_k sum_n (n + 1/2) P_n(x_k)
    P_n``, and ``P_n`` integrates from -1 to ``(P_(n+1) - P_(n-1))/(2n + 1)``;
    the shares are exactly 0 at ``s = -1`` and 1 at ``s = 1``.
    """
    table = _legendre_table(s, 16)
    shares = (table[2:] - table[:-2]).T @ _NODE_LEGENDRE
    return 0.5 * (shares + (s + 1.0)[:, None])


_NODE_LEGENDRE = _legendre_table(_LEGENDRE_NODES, 15)[1:]
# The Kolmogorov table steps 128 times per panel, uniformly in theta.
_TABLE_SHARES = _left_shares(np.arange(128) / 64.0 - 1.0)
_TABLE_SINES = np.sin(np.linspace(-0.5 * np.pi, 0.5 * np.pi, _PANELS * 128 + 1))


def _moment_order(r) -> int:
    """``r`` as an ``int``; ``ValueError`` unless a nonnegative integer, as a
    fractional power of a negative position or velocity is NaN."""
    if not hasattr(r, "__index__") or operator.index(r) < 0:
        raise ValueError("moment order must be a nonnegative integer")
    return operator.index(r)


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
    return _like_input(x, out)


def _radicand_given_root(x_sq, sqrt_xi, params: WalkParams, sign: int):
    p_sq = (params.rho * params.rho0) ** 2
    sv = math.sin(params.nu)
    const = 1.0 - p_sq * (1.0 + sv * sv)
    slope = 1.0 - p_sq * (1.0 - sv * sv)  # = 1 - p^2 cos(nu)^2
    return const - slope * x_sq + 2.0 * sign * params.rho * params.rho0 * sv * sqrt_xi


def _coin_cross(coin: CoinSpinor) -> complex:
    return coin.a0 * complex(coin.a1).conjugate()


def _edge_squares(params: WalkParams) -> tuple[float, float, float]:
    """``p = rho*rho0`` and ``(1 -/+ p)**2 - (p*sin(nu))**2``, lower first.

    With ``a = |sin nu|`` both are products ``(1 -/+ p - p*a)(1 -/+ p + p*a)``,
    and since ``1 = (rho - rho0)**2 + 2p``, the one factor that can
    vanish is ``1 - p - p*a = (rho - rho0)**2 + p*cos(nu)**2/(1 + a)``, a
    sum of nonnegative terms, as in :func:`~qwalk.fourier._gap_parts`.
    ``rho - rho0`` is ``(2 rho**2 - 1)/(rho + rho0)`` with the numerator
    rounded once: next to the special set the rounding of ``rho0`` alone
    would be as large as the difference.
    """
    p = params.rho * params.rho0
    a = abs(math.sin(params.nu))
    num, den = params.rho.as_integer_ratio()
    diff = (2 * num * num - den * den) / (den * den) / (params.rho + params.rho0)
    lo_sq = (diff * diff + p * math.cos(params.nu) ** 2 / (1.0 + a)) * (
        1.0 - p + p * a
    )
    hi_sq = (1.0 + p - p * a) * (1.0 + p + p * a)
    return p, lo_sq, hi_sq


def support_halfwidth(params: WalkParams) -> float:
    """Half-width ``h*`` of the limit-law support, in (0, 1).

    ``h* = (hi - lo)/2`` with ``hi**2 - lo**2 = 4p``.  The difference
    cancels unless ``lo`` is small beside ``hi``, which happens only next
    to the special set, so elsewhere it is taken as ``2p/(hi + lo)``.  At
    the special pair itself the difference gives ``sqrt(2)/2``, the edge
    of the ``standard`` law.
    """
    p, lo_sq, hi_sq = _edge_squares(params)
    hi, lo = math.sqrt(hi_sq), math.sqrt(lo_sq)
    if lo <= 0.25 * hi:
        return 0.5 * (hi - lo)
    return 2.0 * p / (hi + lo)


def _branch_parts(x, params: WalkParams, sign: int):
    """``x`` as a float array, ``sqrt(xi)`` and the radicand ``eta_sign``,
    both nonnegative, once ``sign`` is +-1 and every ``|x| < h*``.

    The radicand of the sign opposite to sin(nu) is the small one, and
    vanishes on the special set: it is the product over the large one.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x_arr = np.asarray(x, dtype=float)
    h = support_halfwidth(params)
    if (np.abs(x_arr) >= h).any():
        raise OutOfSupportError("argument outside the open support interval")
    root = np.sqrt(np.maximum(support_polynomial(x_arr, params), 0.0))
    big_sign = 1 if math.sin(params.nu) >= 0.0 else -1
    eta = _radicand_given_root(np.square(x_arr), root, params, big_sign)
    if sign != big_sign:
        chord_sq = (h - x_arr) * (h + x_arr)
        eta = _radicand_parts(params, h, chord_sq)[2] / eta
    return x_arr, root, np.maximum(eta, 0.0)


def momentum_branch(x, params: WalkParams, sign: int):
    """Inverse branch ``k_sign(x)`` of the group velocity, in ``[-pi/2, pi/2]``.

    ``sin k = (sign sqrt(xi) - p sin(nu) x^2) / (p (1 - x^2))`` and ``cos k
    = |x| sqrt(eta_sign) / (p (1 - x^2))``, ``p = rho rho0``, so ``k`` is
    the ``arctan2`` of the two numerators.  It keeps its digits where
    ``k`` nears ``+-pi/2`` (small ``x``, and next to the special set),
    where the arcsin of the first would lose them.

    Defined for ``|x| < h*``; both branches are even functions of ``x``
    and parameterize the positive velocity ``|x|``, so the identity
    ``group_velocity(momentum_branch(x)) = x`` holds on the positive
    half ``x in (0, h*)``.

    Raises
    ------
    OutOfSupportError
        If any ``|x| >= h*``.
    """
    x_arr, root, eta = _branch_parts(x, params, sign)
    p = params.rho * params.rho0
    num = sign * root - p * math.sin(params.nu) * np.square(x_arr)
    out = np.arctan2(num, np.abs(x_arr) * np.sqrt(eta))
    return _like_input(x, out)


@dataclass(frozen=True)
class LimitLaw:
    """A fully specified limit density.

    Built by :func:`make_limit_law`; carries the support half-width and
    the coefficient ``coeff`` of the affine weight ``1 + coeff*x`` that
    carries the initial-coin bias, so that evaluation needs no
    revalidation.
    """

    kind: str
    params: WalkParams
    support_hi: float
    coeff: float

    def _edge_form(self, xs, chord):
        """``density(xs) * chord`` for ``chord = sqrt(h*^2 - xs^2)``, ``|xs| <= h*``.

        Equals ``(1 +- coeff*h*) / (pi sqrt(1 - h*^2))`` at the edges for
        every kind.  The chord is cancelled analytically, so no value
        near an edge loses digits to ``h*^2 - x^2``.
        """
        hi = self.support_hi
        if self.kind == "theorem1":
            # First, so that its work arrays are freed before the two below,
            # which round as (1 + coeff*xs) / (pi (1 - xs^2)), exist.
            ratio = _theorem1_radical_ratio(self.params, hi, chord)
        else:
            ratio = math.sqrt(1.0 - hi * hi)
        vals = np.multiply(self.coeff, xs, out=np.empty(np.shape(xs)))
        vals += 1.0
        den = np.square(xs, out=np.empty(np.shape(xs)))
        np.subtract(1.0, den, out=den)
        den *= np.pi
        vals /= den
        vals *= ratio
        return vals

    def density(self, x):
        """Density value(s) at ``x``; zero outside the open support, NaN
        at NaN.

        The edge form over the chord ``sqrt((h* - |x|)(h* + |x|))``, a
        product of two accurate factors, taken in units of ``2**e`` with
        ``h* = f 2**e``, ``f`` in [0.5, 1): the power of two scales exactly,
        and the product would underflow once ``h* < 2**-511``.
        """
        x_arr = np.asarray(x, dtype=float)
        hi = self.support_hi
        inside = np.abs(x_arr) < hi
        # Outside points are evaluated at 0 and dropped, so no division
        # there can overflow or divide by zero.
        xs = np.where(inside, x_arr, 0.0)
        unit = 2.0 ** math.frexp(hi)[1]
        ax = np.abs(xs) / unit
        chord = np.sqrt((hi / unit - ax) * (hi / unit + ax)) * unit
        out = np.where(inside, self._edge_form(xs, chord) / chord, 0.0)
        out[np.isnan(x_arr)] = np.nan
        return _like_input(x, out)

    @cached_property
    def _weighted_nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes ``x`` of the composite rule, integrand times weight there,
        each ``(64, 16)``, and the CDF at the 65 panel edges."""
        theta, weights = _panel_rule(_PANEL_EDGES[:-1], _PANEL_EDGES[1:])
        xs = self.support_hi * np.sin(theta)
        weights *= self._edge_form(xs, self.support_hi * np.cos(theta))
        return xs, weights, np.concatenate(([0.0], np.cumsum(weights.sum(axis=1))))

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x, cdf(x))`` at 8193 nodes uniform in theta, for interpolation:
        clustered at the edges, where the density diverges, so each step
        holds about 1e-4 of the mass."""
        _, weighted, cum = self._weighted_nodes
        steps = weighted @ _TABLE_SHARES.T + cum[:-1, None]
        return self.support_hi * _TABLE_SINES, np.append(steps, cum[-1])

    def cdf(self, x):
        """Cumulative distribution at ``x``, any shape; a float for scalar ``x``.

        The CDF at the left edge of the panel of ``asin(x/h*)`` plus each
        node's weighted value times its share left of it (the interpolant's
        antiderivative, :func:`_left_shares`); 0 for ``x <= -h*``, NaN at
        NaN.
        """
        hi = self.support_hi
        x_arr = np.asarray(x, dtype=float)
        flat = x_arr.ravel()
        # theta + pi/2 for theta = asin(x/h*), in panel widths; the angle to
        # the nearer edge in half-angle form: rounding x/h* next to +-1
        # would move it by ~1e-8, this keeps it to ~1e-16.  fmax takes a
        # NaN point to the right edge, so its panel index stays an integer.
        rim = 2.0 * np.arcsin(np.sqrt(np.fmax(hi - np.abs(flat), 0.0) / hi / 2.0))
        u = np.where(flat < 0.0, rim, np.pi - rim) * (_PANELS / np.pi)
        panel = np.minimum(u.astype(np.intp), _PANELS - 1)
        shares = _left_shares(np.minimum(2.0 * (u - panel) - 1.0, 1.0))
        _, weighted, cum = self._weighted_nodes
        vals = cum[panel] + np.einsum("ij,ij->i", shares, weighted[panel])
        vals[np.isnan(flat)] = np.nan
        return _like_input(x, vals.reshape(x_arr.shape))

    def moment(self, r: int) -> float:
        """r-th moment of the law, ``r`` a nonnegative integer; the nodes'
        powers by repeated multiplication, for ``r <= 2`` exactly ``xs**r``."""
        r = _moment_order(r)
        xs, weighted, _ = self._weighted_nodes
        power = np.ones_like(xs)
        for _ in range(r):
            power *= xs
        return float(np.dot(power.ravel(), weighted.ravel()))


def _radicand_parts(params: WalkParams, h: float, c):
    """``k1``, ``E`` and ``eta+ eta-`` (a new array) at ``c = h^2 - x^2``.

    ``h = h*``, ``p = rho rho0``, ``k1 = 1 - p^2 cos(nu)^2``, ``lo^2, hi^2``
    of :func:`_edge_squares`, and ``E = (1 - h^2) lo (p + h^2)/h`` is the
    radicands' common value at the edge (as ``p - h^2 = h lo``).  Their
    mean is ``k1 c + E`` and their product ``lo^2 hi^2 c^2 + 2 E lo ((1 +
    p) lo + k1 h)/(1 - h^2) c + E^2``, both sums of nonnegative terms.
    """
    p, lo_sq, hi_sq = _edge_squares(params)
    lo, h_sq = math.sqrt(lo_sq), h * h
    k1 = 1.0 - (p * math.cos(params.nu)) ** 2
    edge = (1.0 - h_sq) * lo * (p + h_sq) / h
    prod = np.multiply(c, lo_sq * hi_sq, out=np.empty(np.shape(c)))
    prod += 2.0 * edge * lo * ((1.0 + p) * lo + k1 * h) / (1.0 - h_sq)
    prod *= c
    prod += edge * edge
    return k1, edge, prod


def _theorem1_radical_ratio(params: WalkParams, h: float, chord) -> np.ndarray:
    """``(sqrt(eta+) + sqrt(eta-)) / (2 sqrt(H^2 - x^2))``, ``chord^2 = h^2 - x^2``.

    ``h = h*``; the support quartic is ``(h^2 - x^2)(H^2 - x^2)``, ``H = p/h``,
    ``p = rho rho0``, and with ``c = chord^2`` and :func:`_radicand_parts`,
    ``H^2 - x^2 = c + E/(1 - h^2)``.  The ratio is the root of ``(mean +
    sqrt(product)) / (2 (H^2 - x^2))``: nothing cancels where a radicand
    vanishes, and it tends to ``sqrt(1 - h^2)`` at the edge.
    """
    # Three arrays of the chord's shape (0-d for a scalar), reused in place.
    shape = np.shape(chord)
    c = np.square(chord, out=np.empty(shape))
    outer = np.empty(shape)
    k1, edge, prod = _radicand_parts(params, h, c)
    np.add(c, edge / (1.0 - h * h), out=outer)  # H^2 - x^2
    np.sqrt(prod, out=prod)  # sqrt(eta+ eta-)
    ratio = np.multiply(c, k1, out=c)
    ratio += edge
    ratio += prod
    outer *= 2.0
    ratio /= outer
    return np.sqrt(ratio, out=ratio)


def _special_branch_index(params: WalkParams) -> int | None:
    """Return n with nu = pi/2 + n*pi (mod 2pi) at the special set, else None."""
    if abs(params.rho - math.sqrt(0.5)) > _SPECIAL_PARAM_TOL:
        return None
    if abs(math.cos(params.nu)) > _SPECIAL_PARAM_TOL:
        return None
    return 0 if math.sin(params.nu) > 0.0 else 1


def make_limit_law(
    kind: str, params: WalkParams, coin: CoinSpinor, n: int | None = None
) -> LimitLaw:
    """Construct a limit law of the given kind.

    Parameters
    ----------
    kind:
        One of :data:`LAW_KINDS`.
    params, coin:
        Walk parameters and initial coin.
    n:
        Branch index of the standard law, which ``nu = pi/2 + n*pi``
        (mod 2pi) decides; a given ``n`` must agree with ``nu``.
        Ignored by the other kinds.

    Raises
    ------
    ValueError
        On unknown kind, a standard law requested away from its special
        parameter set or with an ``n`` of the wrong parity, or a cmv_only
        law with ``rho`` below 0.02.
    """
    if kind not in LAW_KINDS:
        raise ValueError(f"unknown law kind {kind!r}")
    cross = _coin_cross(coin)
    base = abs(coin.a0) ** 2 - abs(coin.a1) ** 2
    if kind == "theorem1":
        support_hi = support_halfwidth(params)
        coeff = base - (2.0 * params.rho0 / params.rho) * (
            cross.real * math.cos(params.nu) - cross.imag * math.sin(params.nu)
        )
    elif kind == "standard":
        branch = _special_branch_index(params)
        if branch is None:
            raise ValueError(
                "standard law requires rho = 1/sqrt(2) and nu = pi/2 + n*pi"
            )
        if n is not None and (n - branch) % 2 != 0:
            raise ValueError(
                f"branch index n={n} inconsistent with nu={params.nu!r}"
            )
        support_hi = math.sqrt(0.5)
        coeff = base + (-2.0 if branch else 2.0) * cross.imag
    else:
        if params.rho < _CMV_ONLY_RHO_MIN:
            raise ValueError(
                f"cmv_only law requires rho >= {_CMV_ONLY_RHO_MIN}, got {params.rho!r}"
            )
        support_hi = params.rho0
        coeff = base - (2.0 * params.rho / params.rho0) * (
            cross.real * math.cos(params.nu) + cross.imag * math.sin(params.nu)
        )
    return LimitLaw(kind=kind, params=params, support_hi=support_hi, coeff=coeff)


# Each entry holds three arrays of at most 1664 nodes (39 KB): an r-sweep
# over one (params, coin) pair reuses them, and a run over many pairs
# stays bounded.
@lru_cache(maxsize=16)
def _spectral_nodes(
    params: WalkParams, coin: CoinSpinor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-branch velocity and both branch weights at the momentum nodes.

    Branch ``+/-`` moves with ``-/+velocity`` and weighs ``n/2 +/- lean``,
    the squared overlap of its eigenvector with the rotated coin, times
    the node's quadrature weight over ``2 pi``.  With ``n`` and ``b`` the
    sum and difference of ``|a0|**2`` and ``|a1|**2``, ``X + iY = a0
    conj(a1) exp(1j nu)`` and ``gap_sq`` of :func:`~qwalk.fourier._gap_parts`,
    ``lean = (-p b (cos k + cos nu)/2 + X (rho0**2 cos k - rho**2 cos nu)
    - Y (rho0**2 sin k + rho**2 sin nu)) / sqrt(gap_sq)``.  The rule is
    the composite Gauss-Legendre rule of :func:`_panel_rule` over one
    period centred on ``k* = -/+ pi/2`` (the sign of ``sin nu``), where
    ``|s(k)|`` peaks and the gap comes closest to closing.  Its panels
    halve towards ``k*``, ``k* +/- [pi 2**-(j+1), pi 2**-j]`` for
    ``j < J``, plus ``k* +/- [0, pi 2**-J]``: ``k*`` is a panel edge, so
    each half of the integrand is smooth even where the gap closes there,
    at the special parameter set.  Next to it the integrand's nearest
    singularities are the branch points of ``1 - s(k)**2`` at ``k* +/-
    i*eta`` with ``cosh(eta) = 1 + g/p``, ``g = 1 - p(1 + |sin nu|)``.
    ``J = ceil(log2(4 pi/eta)) - 1`` (at least 1, at most 51, where a
    panel is about 6 ulp of ``pi/2`` wide) makes the two centre panels at
    most ``eta/2`` wide, and every other panel is as wide as its distance
    from ``k*``.  The arrays are read-only, as they are shared between
    calls.
    """
    p, lo_sq, _ = _edge_squares(params)
    sin_nu = math.sin(params.nu)
    a = abs(sin_nu)
    # 1 - p - p*a without cancellation: lo_sq is it times 1 - p + p*a.
    g = lo_sq / (1.0 - p + p * a)
    eta = 2.0 * math.asinh(math.sqrt(g / (2.0 * p)))
    # eta is 0 at the special set and inf at a subnormal rho: clamped to
    # where the depth reaches its bounds, 51 and 1, so log2 sees neither.
    eta = min(max(eta, 4.0 * math.pi * 0.5**52), math.pi)
    depth = math.ceil(math.log2(4.0 * math.pi / eta)) - 1
    widths = math.pi * 0.5 ** np.arange(depth + 1)
    k_star = -0.5 * math.pi if sin_nu >= 0.0 else 0.5 * math.pi
    edges = k_star + np.concatenate((-widths, [0.0], widths[::-1]))
    k, weights = _panel_rule(edges[:-1], edges[1:])
    k, weights = k.ravel(), weights.ravel() / (2.0 * np.pi)
    rr0 = params.rho * params.rho0
    cos_k, sin_k = np.cos(k), np.sin(k)
    root = _gap_parts(cos_k, sin_k, params)[1]
    velocity = rr0 * cos_k / root
    a0_sq, a1_sq = abs(coin.a0) ** 2, abs(coin.a1) ** 2
    cross = _coin_cross(coin) * cmath.exp(1j * params.nu)
    lean = (
        -0.5 * rr0 * (a0_sq - a1_sq) * (cos_k + math.cos(params.nu))
        + cross.real * (params.rho0**2 * cos_k - params.rho**2 * math.cos(params.nu))
        - cross.imag * (params.rho0**2 * sin_k + params.rho**2 * sin_nu)
    ) / root
    half_n = 0.5 * (a0_sq + a1_sq)
    weight_plus, weight_minus = (half_n + lean) * weights, (half_n - lean) * weights
    for arr in (velocity, weight_plus, weight_minus):
        arr.flags.writeable = False
    return velocity, weight_plus, weight_minus


def spectral_limit_moment(r: int, params: WalkParams, coin: CoinSpinor) -> float:
    """Limit moment from the momentum-space spectral decomposition.

    ``r`` is a nonnegative integer.  Integrates ``(branch velocity)^r``
    times each branch's closed-form weight, the squared overlap of its
    symbol eigenvector with the rotated coin, over one momentum period,
    with a composite Gauss-Legendre rule graded towards the momentum
    where the gap comes closest to closing (:func:`_spectral_nodes`).
    Away from the special set it takes 64 to a few hundred nodes and
    matches a 65536-node uniform trapezoid to 1e-15; at distance 1e-6
    from it 704 to 768 nodes, and at the set itself 1664, match
    :meth:`LimitLaw.moment` to 1e-15.  Independent of the density
    quadrature route, which it cross-checks.  The node arrays are
    computed once per ``(params, coin)`` and kept in a small cache.
    """
    r = _moment_order(r)
    velocity, weight_plus, weight_minus = _spectral_nodes(params, coin)
    plus = np.dot((-velocity) ** r, weight_plus)
    return float(plus + np.dot(velocity**r, weight_minus))
