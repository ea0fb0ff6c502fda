"""Momentum-space engine: symbols, analytic spectra, exact evolution.

Under the transform ``psi_hat(k) = sum_x exp(-1j*k*x) psi(x)`` one walk
step acts at each momentum as a 2x2 unitary multiplier.  Conjugating by
a nu-dependent phase rotation and shifting the momentum argument brings
that multiplier to a form (the shifted symbol) whose spectrum has simple
closed expressions; its eigenvalue powers drive the exact evolution
below and all long-time analysis in :mod:`qwalk.limitlaw`.

Conventions used throughout:

* ``s(k) = rho*rho0*(sin k - sin nu)`` and ``gap_sq = 1 - s**2``; the
  eigenvalues of the shifted symbol are ``1j*s +/- sqrt(gap_sq)``, with
  the ``+`` branch stored first.
* Amplitudes of the full walk at time t are recovered from the shifted
  symbol by ``psi_t(x) = exp(1j*nu*x) * R(-nu/2) @ idft[ S(k)^t @ R(nu/2) phi ](x)``
  where ``R(phi) = diag(exp(1j*phi), exp(-1j*phi))``.  A 2x2 unitary
  ``A`` with eigenvalues ``sigma*exp(+/-1j*delta)`` satisfies
  ``A^t = sigma^(t-1) U_t A - sigma^t U_(t-1)`` with the Chebyshev
  values ``U_n = sin(n*delta) / sin(delta)``; for ``S`` that is
  ``sigma = 1j`` and ``cos(delta) = s(k)``.  Since ``S(k) v`` has only
  the harmonics ``1, exp(-1j*k), exp(1j*k)``, the state is a fixed
  combination of the Fourier coefficients of ``U_t`` and ``U_(t-1)``
  at neighbouring sites.  Those are even trigonometric polynomials of
  degree < t, so a type-I DCT over ``M >= 2*t + 3`` equispaced nodes
  (a real FFT of the even extension) gives them exactly, and the result
  matches lattice evolution to rounding.  Sites ``x`` and ``-x`` read
  the same four coefficients, so one basis over ``|x| <= t`` serves
  both halves, and the site phase ``exp(1j*nu*x)`` with its powers of
  ``1j`` is an outer product of about ``sqrt(t)`` block phases and as
  many in-block ones, each taken without rounding ``nu*x``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .walk import VARIANTS, CoinSpinor, WalkParams, WaveState, initial_state

__all__ = [
    "DegenerateSymbolError",
    "EigenSystem",
    "shifted_symbol",
    "eigensystem",
    "group_velocity",
    "evolve_fourier",
]

#: Largest step count evolve_fourier() accepts.  Its arrays grow with
#: ``t`` and are built before any work starts: the engine peaks near 150
#: MB RSS at t = 1e6 and 275 MB at t = 2e6 (``qwalk simulate`` near 175
#: and 300 MB), so a larger cap could exhaust memory where a lattice run
#: would only be slow.
MAX_STEPS = 2_000_000

# Below this squared half-gap the two eigenvalues are treated as
# colliding: eigensystem() refuses.
_GAP_SQ_TOL = 1e-14

# i**n for n mod 4; powers of 1j taken in floating point drift in phase.
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


class DegenerateSymbolError(ValueError):
    """Raised when the two symbol eigenvalues collide at a momentum."""


def _like_input(x, out):
    """``out`` as a float when ``x`` is a scalar, else ``out`` unchanged."""
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral data of the shifted symbol at one momentum.

    Attributes
    ----------
    k:
        The momentum.
    values:
        The two unimodular eigenvalues, ``1j*s + sqrt(gap_sq)`` first.
    vectors:
        Unit eigenvectors as columns, ``vectors[:, j]`` for ``values[j]``.
    gap_sq:
        ``1 - s**2``; the eigenvalue gap is ``2*sqrt(gap_sq)``.
    normalizers:
        Closed-form squared norms of the two unnormalised kernel rows
        used to build the eigenvectors.  Either may vanish at isolated
        momenta; the construction then falls back to the complementary
        row, which is nonzero whenever ``gap_sq`` is.
    """

    k: float
    values: np.ndarray
    vectors: np.ndarray
    gap_sq: float
    normalizers: np.ndarray


def _symbol_entries(ek, params: WalkParams):
    """``c`` and ``d`` of :func:`shifted_symbol` from ``ek = exp(-1j*k)``."""
    eiv = cmath.exp(1j * params.nu)
    c = params.rho * params.rho0 * (eiv + ek)
    return c, -params.rho**2 * eiv + params.rho0**2 * ek


def shifted_symbol(k, params: WalkParams) -> np.ndarray:
    """Shifted momentum symbol of the full walk.

    With ``c = rho*rho0*(exp(1j*nu) + exp(-1j*k))`` and
    ``d = -rho**2*exp(1j*nu) + rho0**2*exp(-1j*k)`` the matrix is
    ``[[-c, d], [conj(d), conj(c)]]``.  Accepts a scalar momentum or an
    array; an array of shape ``shape`` yields ``shape + (2, 2)``.
    """
    ek = np.exp(-1j * np.asarray(k, dtype=float))
    c, d = _symbol_entries(ek, params)
    out = np.empty(np.shape(ek) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = -c
    out[..., 0, 1] = d
    out[..., 1, 0] = np.conj(d)
    out[..., 1, 1] = np.conj(c)
    return out


def _one_plus_minus(sin_y, cos_y):
    """``(1 + sin y, 1 - sin y)``, each to full relative accuracy.

    The factor that may be small is formed as ``cos(y)**2`` over the
    other, which is at least 1, instead of by cancellation.  Two new
    arrays of ``sin_y``'s shape, 0-d for a scalar, built in place.
    """
    big = np.abs(sin_y, out=np.empty(np.shape(sin_y)))
    big += 1.0
    small = np.multiply(cos_y, cos_y, out=np.empty(np.shape(sin_y)))
    small /= big
    # A ufunc, not ``>=``: on a float that gives a bool, and ~True is -2.
    up = np.greater_equal(sin_y, 0.0)
    minus = np.where(up, small, big)
    np.copyto(big, small, where=~up)
    return big, minus


def _gap_parts(cos_k, sin_k, params: WalkParams):
    """``s(k)`` and ``gap_sq = 1 - s**2`` from ``cos k`` and ``sin k``.

    Since ``1 = (rho - rho0)**2 + 2*rho*rho0``, the factors of
    ``gap_sq = (1 + s)(1 - s)`` are sums of nonnegative terms
    ``(rho - rho0)**2 + rho*rho0*((1 +/- sin k) + (1 -/+ sin nu))``, so
    ``gap_sq`` keeps its relative accuracy where the two eigenvalues
    nearly collide.  Both are new arrays, 0-d for a scalar ``sin_k``.
    """
    rr0 = params.rho * params.rho0
    nu_plus, nu_minus = _one_plus_minus(math.sin(params.nu), math.cos(params.nu))
    base = (params.rho - params.rho0) ** 2
    k_plus, k_minus = _one_plus_minus(sin_k, cos_k)
    s = np.subtract(sin_k, math.sin(params.nu), out=np.empty(np.shape(sin_k)))
    s *= rr0
    for part, nu_part in ((k_plus, nu_minus), (k_minus, nu_plus)):
        part += nu_part
        part *= rr0
        part += base
    k_plus *= k_minus
    return s, k_plus


def eigensystem(k: float, params: WalkParams) -> EigenSystem:
    """Analytic spectral decomposition of the shifted symbol at ``k``.

    Both eigenvectors are closed-form kernel rows, not a generic
    eigensolver's: ``(d, Re c +/- root)`` (:func:`shifted_symbol`), or
    where that is the shorter, ``(-(Re c -/+ root), conj(d))``.  Both then
    have squared norm ``max(normalizers)``, nonzero whenever ``gap_sq`` is.

    Raises
    ------
    DegenerateSymbolError
        If the squared half-gap falls below 1e-14 (eigenvalue collision;
        only possible at the special parameter set ``rho = 1/sqrt(2)``,
        ``nu = pi/2 + n*pi``).
    """
    s, gap_sq = _gap_parts(math.cos(float(k)), math.sin(float(k)), params)
    s = float(s)
    gap_sq = float(gap_sq)
    if gap_sq < _GAP_SQ_TOL:
        raise DegenerateSymbolError(
            f"symbol eigenvalues collide at k={k!r} (squared half-gap {gap_sq:.2e})"
        )
    root = math.sqrt(gap_sq)
    values = np.array([1j * s + root, 1j * s - root], dtype=np.complex128)
    c, d = _symbol_entries(cmath.exp(-1j * float(k)), params)
    re_c = c.real
    normalizers = (2.0 * (gap_sq + re_c * root), 2.0 * (gap_sq - re_c * root))
    rows = []
    for j, sgn in enumerate((1.0, -1.0)):
        if normalizers[j] >= normalizers[1 - j]:
            rows.append((d, re_c + sgn * root))
        else:
            rows.append((-(re_c - sgn * root), d.conjugate()))
    vectors = np.array(rows).T / math.sqrt(max(normalizers))
    return EigenSystem(
        k=float(k),
        values=values,
        vectors=vectors,
        gap_sq=gap_sq,
        normalizers=np.array(normalizers),
    )


def group_velocity(k, params: WalkParams):
    """Momentum-resolved asymptotic velocity of the second branch.

    ``h(k) = rho*rho0*cos(k) / sqrt(1 - rho**2*rho0**2*(sin k - sin nu)**2)``;
    the first branch moves with ``-h(k)``.  Accepts scalar or array ``k``.
    """
    k_arr = np.asarray(k, dtype=float)
    cos_k = np.cos(k_arr)
    s, gap_sq = _gap_parts(cos_k, np.sin(k_arr), params)
    return _like_input(k, params.rho * params.rho0 * cos_k / np.sqrt(gap_sq))


def _swap_free_gap(cos_k, sin_k, params: WalkParams):
    """``cos`` and ``sin`` of the swap-free eigenphase, from ``cos k`` and ``sin k``.

    ``tau = rho0**2 cos k - rho**2``, and
    ``1 - tau**2 = rho0**2 (1 + cos k) (2 rho**2 + rho0**2 (1 - cos k))``
    is a product of nonnegative factors, so the sine stays accurate near
    ``k = pi``, where the gap closes for every ``rho``.
    """
    c_plus, sin_ang = _one_plus_minus(cos_k, sin_k)
    tau = np.multiply(cos_k, params.rho0**2)
    tau -= params.rho**2
    sin_ang *= params.rho0**2
    sin_ang += 2.0 * params.rho**2
    sin_ang *= c_plus
    del c_plus
    np.sqrt(sin_ang, out=sin_ang)
    sin_ang *= params.rho0
    return tau, sin_ang


def _next_5_smooth(n: int) -> int:
    """Smallest integer ``>= n >= 1`` with no prime factor above 5."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the least power of two times f35 that reaches n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _node_count(t: int) -> int:
    """Node count ``M`` of the engine's transforms for ``t >= 1`` steps.

    ``M >= 2t + 3`` makes the discrete Fourier sums exact; ``M`` is a
    multiple of 4, so the nodes ``theta`` of the full walk's substitution
    ``k = pi/2 - theta`` are momentum nodes as well; and ``M/4`` is the
    least integer with only the prime factors 2, 3 and 5 that is large
    enough, so the real FFT of length ``M`` stays fast with at most a
    few percent more nodes than needed (202 500 at t = 1e5).
    """
    return 4 * _next_5_smooth(-(-(2 * t + 3) // 4))


def _unit_phases(nu: float, m: np.ndarray) -> np.ndarray:
    """``exp(1j*nu*m)`` for integers ``|m| < 2**21``, without rounding ``nu*m``.

    ``nu`` splits into a head of at most 31 significant bits, whose
    products with such ``m`` are exact, and a tail whose products are
    below 0.005, so each phase is accurate to a few ulp where
    ``exp(1j*(nu*m))`` would carry the rounding of ``nu*m``: up to
    3e-11 in angle at ``|nu*m|`` near 5e5.
    """
    split = nu * 4194305.0  # 2**22 + 1: Veltkamp's split
    head = split - (split - nu)
    out = np.exp(1j * (head * m))
    out *= np.exp(1j * ((nu - head) * m))
    return out


def _chebyshev_pair(cos_d, sin_d, t: int, out=None) -> np.ndarray:
    """Rows ``U_t`` and ``U_(t-1)`` at angles ``delta`` in ``[0, pi]``.

    ``U_n = sin(n*delta) / sin(delta)``, from ``cos(delta)`` and
    ``sin(delta) >= 0``, written into ``out`` (shape
    ``(2,) + cos_d.shape``, a view is fine) or a new array.  The angle
    is reflected to ``eps = arctan2(sin, |cos|)`` in ``[0, pi/2]``
    (arctan2 of both accurate parts: arccos would amplify the rounding
    of ``cos`` next to a closing gap, and ``t`` multiplies the angle), where
    ``U_n(pi - eps) = (-1)**(n+1) U_n(eps)`` and ``U_n(0) = n``, so no
    node needs a fallback.  Both rows come from the one rounded angle
    ``t*eps`` (``U_(t-1) = U_t cos(eps) - cos(t*eps)``): the pair is
    then that of a unitary power however ``t*eps`` rounds, which keeps
    unit mass at large ``t``.
    """
    if out is None:
        out = np.empty((2,) + np.shape(cos_d))
    cos_e = np.abs(cos_d)
    angle = np.arctan2(sin_d, cos_e)
    angle *= t
    u_t, u_prev = out
    np.sin(angle, out=u_t)
    np.divide(u_t, sin_d, out=u_t, where=sin_d > 0.0)
    u_t[sin_d <= 0.0] = t
    np.multiply(u_t, cos_e, out=u_prev)
    u_prev -= np.cos(angle, out=angle)
    # (-1)**(n+1) is -1 for n = t when t is even, for n = t-1 when t is odd
    np.negative(out[t % 2], out=out[t % 2], where=cos_d < 0.0)
    return out


def _dct1(ext: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Type-I DCT of the rows of ``ext[:, :M/2 + 1]``, as ``out.real``.

    ``ext`` has shape ``(rows, M)`` with ``M`` even; its last ``M/2 - 1``
    columns are overwritten with the even extension of the first
    ``M/2 + 1``, whose real FFT (into the complex ``out``, shape
    ``(rows, M/2 + 1)``) has the DCT as its real part.  Row by row, the
    FFT's own buffer holds one row at a time.
    """
    half_m = ext.shape[1] // 2
    ext[:, half_m + 1 :] = ext[:, half_m - 1 : 0 : -1]
    for row, row_out in zip(ext, out):
        np.fft.rfft(row, out=row_out)
    return out


def evolve_fourier(
    coin: CoinSpinor, params: WalkParams, t: int, variant: str = VARIANTS[0]
) -> WaveState:
    """Evolve ``t`` steps exactly through the symbol's Chebyshev form.

    The t-th power of the step's symbol applied to the coin is
    ``sigma^(t-1) U_t A v - sigma^t U_(t-1) v`` (module docstring), and
    ``U_t``, ``U_(t-1)`` depend on the momentum only through ``sin k``
    (full walk, ``sigma = 1j``) or ``cos k`` (swap-free walk,
    ``sigma = 1``).  Their Fourier coefficients are the type-I DCT of
    each row over ``M/2 + 1`` nodes (``M >= 2t + 3``, a multiple of 4
    with small prime factors), computed as the real FFT of the row's
    even extension to ``M`` nodes; each site then combines them with
    the three harmonics of ``A v``.  At t = 1e5 this takes about 30 ms
    and allocates at most 13 MB in all, 9.6 MB of which is one block
    that ends in the 6.4 MB of amplitudes (full walk, one thread of a
    2-vCPU VM, numpy 2.4).  The amplitudes are a view into that block,
    so a state that is kept holds all of it, ``12t + 8`` floats.

    Returns a :class:`~qwalk.walk.WaveState` on the window ``[-t, t]``
    whose distribution matches lattice evolution within 1e-12 in total
    variation (checked up to t = 3000).  This is the engine behind
    :func:`~qwalk.harness.run_comparison` and ``qwalk simulate``.

    Raises
    ------
    ValueError
        If ``t`` is negative or above :data:`MAX_STEPS`, or the variant
        is not one of :data:`~qwalk.walk.VARIANTS`; both before any array
        of size ``M`` is built.  ``coin`` has unit norm:
        :class:`~qwalk.walk.CoinSpinor` refuses any other.
    """
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if t > MAX_STEPS:
        raise ValueError(f"step count {t} exceeds the limit of {MAX_STEPS}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if t == 0:
        return initial_state(coin)

    full_walk = variant == VARIANTS[0]
    m_count = _node_count(t)
    half_m = m_count // 2
    n_sites = 2 * t + 1
    # One block holds every large array, the result included: with two
    # large blocks of about the same size a call's heap outgrows twice the
    # larger one, and glibc then trims the heap after each call and the
    # next call faults it back in.  Regions, in floats: [0, 2M) takes the
    # Chebyshev rows and their even extension, and [2M, 4M + 4) first the
    # node angles, cosines and sines, then the DCT's complex output.
    # [0, 4t + 4), clear of that output as 2M >= 4t + 6, then takes the
    # half basis and after it the site phases, and the rest of the block
    # the amplitudes, which the result keeps as a view.
    block = np.empty(max(12 * t + 8, 4 * m_count + 4))
    ext = block[: 2 * m_count].reshape(2, m_count)
    cheb = ext[:, : half_m + 1]
    upper = block[2 * m_count : 4 * m_count + 4]
    coef = upper.view(np.complex128).reshape(2, half_m + 1)
    theta, cos_th, sin_th = upper[: 3 * (half_m + 1)].reshape(3, half_m + 1)
    np.multiply(2.0 * np.pi / m_count, np.arange(half_m + 1), out=theta)
    np.cos(theta, out=cos_th)
    np.sin(theta, out=sin_th)
    phi = coin.as_array()
    half = cmath.exp(0.5j * params.nu)
    rr0 = params.rho * params.rho0
    rho2, rho02 = params.rho**2, params.rho0**2

    if full_walk:
        # At k = pi/2 - theta, sin k = cos theta, and the coefficient of
        # U at site x is 1j**x times its DCT value at |x|, over M.
        s, gap_sq = _gap_parts(sin_th, cos_th, params)
        _chebyshev_pair(s, np.sqrt(gap_sq, out=gap_sq), t, out=cheb)
        del s, gap_sq
        v0, v1 = half * phi[0], half.conjugate() * phi[1]
        eiv = cmath.exp(1j * params.nu)
        # Rows: A v = a + b exp(-1j*k) + c exp(1j*k) read off
        # shifted_symbol, for U_t at site x, at x - 1 (b) and x + 1 (c),
        # then -v for U_(t-1) at x.  The neighbours' 1j**(x -/+ 1) and
        # sigma's powers are taken relative to the common phase
        # 1j**(x + t - 1), applied per site below.
        weights = np.array(
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
    else:
        # The swap-free multiplier is R(nu/2) G(k) R(-nu/2) with
        # G = [[rho0**2 e - rho**2, -rr0 (e + 1)],
        #      [rr0 (conj(e) + 1), rho0**2 conj(e) - rho**2]], e = exp(-1j*k).
        tau, sin_ang = _swap_free_gap(cos_th, sin_th, params)
        _chebyshev_pair(tau, sin_ang, t, out=cheb)
        del tau, sin_ang
        v0, v1 = half.conjugate() * phi[0], half * phi[1]
        weights = np.array(
            [
                [-rho2 * v0 - rr0 * v1, rr0 * v0 - rho2 * v1],
                [rho02 * v0 - rr0 * v1, 0.0],
                [0.0, rr0 * v0 + rho02 * v1],
                [-v0, -v1],
            ]
        ) * np.array([half, half.conjugate()])

    _dct1(ext, out=coef)
    # Sites x and -x both take U_t at |x|, |x| - 1 and |x| + 1 (U_t[1] for
    # both neighbours of x = 0) and U_(t-1) at |x|; only the two
    # neighbours swap sides.  So one basis over |x| = 0..t serves both
    # halves, the left one with weight rows 1 and 2 swapped.
    u_t, u_prev = coef.real
    basis = block[: 4 * (t + 1)].reshape(t + 1, 4)
    basis[:, 0] = u_t[: t + 1]
    basis[0, 1] = u_t[1]
    basis[1:, 1] = u_t[:t]
    basis[:, 2] = u_t[1 : t + 2]
    basis[:, 3] = u_prev[: t + 1]
    weights /= m_count
    weights = weights.view(np.float64)
    row_parts = block[4 * (t + 1) : 12 * t + 8].reshape(n_sites, 4)
    rows = row_parts.view(np.complex128)
    np.matmul(basis, weights, out=row_parts[t:])
    np.matmul(basis, weights[[0, 2, 1, 3]], out=row_parts[t::-1])
    if full_walk:
        # Site x = i - t takes exp(1j*nu*x) * 1j**(i - 1).  With
        # i = q*width + r and width a multiple of 4 that is the block phase
        # exp(1j*nu*(q*width - t)) times the in-block phase
        # exp(1j*nu*r) * 1j**(r - 1): about 2*sqrt(n) exponentials.  The
        # site count is odd, so the last block is the one cut short.
        width = 4 * (math.isqrt(n_sites) // 4 + 1)
        r = np.arange(width)
        inner = _unit_phases(params.nu, r) * _QUARTER_TURNS[(r - 1) % 4]
        outer = _unit_phases(params.nu, np.arange(-t, t + 1, width))
        cut = n_sites - width * (outer.size - 1)
        phase = block[: 2 * n_sites].view(np.complex128)
        np.multiply(outer[:-1, None], inner, out=phase[:-cut].reshape(-1, width))
        np.multiply(outer[-1], inner[:cut], out=phase[-cut:])
        rows *= phase[:, None]
    return WaveState(time=t, x_min=-t, amps=rows)
