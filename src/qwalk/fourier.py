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
  gives them exactly, and the result matches lattice evolution to
  rounding.  The DCT is split twice: inverse real FFTs of lengths
  ``M/4`` and ``M/8`` give the odd coefficients and those of the form
  ``4i + 2``, and a real FFT of length ``M/4`` the multiples of 4.  The
  nodes' cosines and sines, which are also its twiddles, come from one
  eighth of a period.  Sites ``x`` and ``-x`` read
  the same four coefficients, so one basis over ``|x| <= t`` serves
  both halves, and the site phase ``exp(1j*nu*x)`` with its powers of
  ``1j`` is an outer product of about ``sqrt(t)`` block phases and as
  many in-block ones, each taken without rounding ``nu*x``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .walk import VARIANTS, CoinSpinor, WalkParams, WaveState, initial_state
from .walk import _count, _variant

__all__ = [
    "group_velocity",
    "evolve_fourier",
]

#: Largest step count evolve_fourier() accepts.  Its arrays grow with
#: ``t`` and are built before any work starts: the engine peaks near 100
#: MB RSS at t = 1e6 and 170 MB at t = 2e6 and returns all but its result
#: (``qwalk compare`` near 110 and 185 MB, ``qwalk simulate`` near 145
#: and 235 MB), so a larger cap could exhaust memory where a lattice run
#: would only be slow.
MAX_STEPS = 2_000_000

# Length of the pieces that the engine's Chebyshev stage, matmuls and
# site phases, and the harness's scans, work through: long arrays are
# never built whole, and each piece's temporaries stay near the cache.
_PIECE = 16384

# i**n for n mod 4; powers of 1j taken in floating point drift in phase.
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def _like_input(x, out):
    """``out`` as a float when ``x`` is a scalar, else ``out`` unchanged."""
    return float(out) if np.ndim(x) == 0 else out


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
    """``s(k)`` and ``sqrt(gap_sq)``, ``gap_sq = 1 - s**2``, from ``cos k``
    and ``sin k``: the cosine and sine of the shifted symbol's eigenphase.

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
    return s, np.sqrt(k_plus, out=k_plus)


def group_velocity(k, params: WalkParams):
    """Momentum-resolved asymptotic velocity of the second branch.

    ``h(k) = rho*rho0*cos(k) / sqrt(1 - rho**2*rho0**2*(sin k - sin nu)**2)``;
    the first branch moves with ``-h(k)``.  Accepts scalar or array ``k``.
    """
    k_arr = np.asarray(k, dtype=float)
    cos_k = np.cos(k_arr)
    root = _gap_parts(cos_k, np.sin(k_arr), params)[1]
    return _like_input(k, params.rho * params.rho0 * cos_k / root)


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
    ``k = pi/2 - theta`` are momentum nodes as well, and of 8, so
    :func:`_split_dct1` can split its even half a second time; and
    ``M/8`` is the least integer with only the prime factors 2, 3 and 5
    that is large enough, so the real FFTs stay fast with at most a few
    percent more nodes than needed (204 800 at t = 1e5).
    """
    return 8 * _next_5_smooth(-(-(2 * t + 3) // 8))


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


def _node_table(m_count: int, out: np.ndarray) -> np.ndarray:
    """``cos`` and ``sin`` of ``theta_j = 2*pi*j/M``, ``j = 0..M/2``, into ``out``.

    ``out`` has shape ``(2, M/2 + 1)``; ``M`` is a multiple of 4.  Only
    the nodes up to ``pi/4`` (``j <= M/8``) call ``cos`` and ``sin``; the
    others are exact copies by ``pi/2 - theta_j = theta_(M/4 - j)`` and
    ``pi - theta_j = theta_(M/2 - j)``.  That is a quarter of the calls,
    and every node stays within 1.3e-16 of its true value, where the
    rounding of angles up to ``pi`` puts direct calls up to 3.8e-16 off
    (``M = 204800``).
    """
    cos_th, sin_th = out
    quarter = m_count // 4
    eighth = quarter // 2
    theta = sin_th[quarter + 1 : quarter + eighth + 2]  # filled last
    np.multiply(2.0 * np.pi / m_count, np.arange(eighth + 1), out=theta)
    np.cos(theta, out=cos_th[: eighth + 1])
    np.sin(theta, out=sin_th[: eighth + 1])
    cos_th[eighth + 1 : quarter + 1] = sin_th[quarter - eighth - 1 :: -1]
    sin_th[eighth + 1 : quarter + 1] = cos_th[quarter - eighth - 1 :: -1]
    np.negative(cos_th[quarter - 1 :: -1], out=cos_th[quarter + 1 :])
    sin_th[quarter + 1 :] = sin_th[quarter - 1 :: -1]
    return out


def _odd_outputs(y, wave, twiddle, out) -> None:
    """Odd outputs of the DCT-I of ``y`` (``2n + 1`` points) into ``out``.

    Makhoul's split: the inverse real FFT of length ``n = len(out)`` of
    ``W_k = exp(1j*pi*k/(2n)) (z_k - 1j*z_(n-k))``, ``z_j = y_j - y_(2n-j)``,
    built on the first ``n//2 + 1`` entries of ``wave``, with the twiddles
    for ``k = 1..n//2`` in ``twiddle``.  Output ``2i + 1`` is ``out[i/2]``
    for even ``i`` and ``out[n - 1 - (i - 1)/2]`` for odd ``i``.
    """
    n = len(out)
    h = n // 2
    w = wave[: h + 1]
    np.subtract(y[: h + 1], y[2 * n : 2 * n - h - 1 : -1], out=w.real)
    np.subtract(y[n : n + h + 1], y[n : n - h - 1 : -1], out=w.imag)
    w[1:] *= twiddle
    np.fft.irfft(w, n, norm="forward", out=out)


def _split_dct1(rows: np.ndarray, nodes: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Type-I DCT of each row of ``rows`` (shape ``(r, N + 1)``, ``r <= 2``), in place.

    ``N = M/2`` with ``M`` a multiple of 8, ``nodes`` is the
    :func:`_node_table` of ``M``, and ``scratch`` is a float array of at
    least ``M + 4`` elements.  With ``L = M/4`` and ``x`` a row, Makhoul's
    split (IEEE TASSP 28(1), 1980) is applied twice.  The odd outputs come
    from an inverse real FFT of length ``L`` (:func:`_odd_outputs`).  The
    even outputs are the DCT-I of the fold ``f_j = x_j + x_(N-j)`` over
    ``L + 1`` points, split once more: its odd outputs, ``x[2::4]``, come
    from an inverse real FFT of length ``L/2`` whose twiddles are every
    other one of the first level's, and its even outputs, ``x[::4]``, are
    the real part of the real FFT of length ``L`` of the even extension
    of ``f_j + f_(L-j)``.

    Each transform is a quarter or an eighth the length of the real FFT
    of the full even extension, whose rows of ``M`` floats and their
    spectra overflow a 2 MB L2 cache once ``M`` nears 2e5.  The twiddles
    are the table's first eighth, so the transform makes no
    trigonometric call.

    Every inverse FFT, of both levels and both rows, runs before any
    forward FFT.  Each row's fold is written over ``x[:L + 1]``, and the
    inverse FFTs' outputs, ``L`` and ``L/2`` floats a row, are parked on
    ``nodes`` (``3L`` of its ``4L + 2`` floats for two rows), which is
    overwritten once its first eighth has been copied into the scratch
    as the twiddles; so the call builds no array.  The order is for
    glibc, which raises its mmap threshold to the size of each mapped
    block it frees: after the forward FFT's temporaries, the inverse FFTs'
    would come from the heap and stay on it after the call (16 MB at
    :data:`MAX_STEPS`), while before them they are mapped and returned.
    """
    half_m = rows.shape[1] - 1
    quarter = half_m // 2
    eighth = quarter // 2
    # Scratch, in floats: the second fold's spectrum, W, the twiddles
    # exp(2j*pi*k/M) for k = 1..M/8 (W_0 = z_0 needs none), the second
    # fold's even extension.
    ends = (0, quarter + 2, quarter + 2 * eighth + 4, quarter + 4 * eighth + 4)
    spec, wave, twiddle = (
        scratch[lo:hi].view(np.complex128) for lo, hi in zip(ends, ends[1:])
    )
    ext = scratch[ends[-1] : ends[-1] + quarter]
    twiddle.real = nodes[0, 1 : eighth + 1]
    twiddle.imag = nodes[1, 1 : eighth + 1]
    # The table is dead from here on: the inverse FFTs' outputs park on it.
    n_rows = len(rows)
    parked = nodes.reshape(-1)
    odds = parked[: n_rows * quarter].reshape(n_rows, quarter)
    odds2 = parked[odds.size : odds.size + n_rows * eighth].reshape(n_rows, eighth)
    for x, odd, odd2 in zip(rows, odds, odds2):
        _odd_outputs(x, wave, twiddle, odd)
        # The fold, f_L = 2 x_L, whose own odd outputs take every other
        # twiddle.
        np.add(x[:quarter], x[half_m:quarter:-1], out=x[:quarter])
        x[quarter] *= 2.0
        _odd_outputs(x[: quarter + 1], wave, twiddle[1::2], odd2)
    for x, odd, odd2 in zip(rows, odds, odds2):
        np.add(x[: eighth + 1], x[quarter : eighth - 1 : -1], out=ext[: eighth + 1])
        ext[eighth + 1 :] = ext[eighth - 1 : 0 : -1]
        np.fft.rfft(ext, out=spec)
        x[::4] = spec.real
        x[2::8] = odd2[: (eighth + 1) // 2]
        x[6::8] = odd2[: (eighth - 1) // 2 : -1]
        x[1::4] = odd[:eighth]
        x[3::4] = odd[: eighth - 1 : -1]
    return rows


def evolve_fourier(
    coin: CoinSpinor, params: WalkParams, t: int, variant: str = VARIANTS[0]
) -> WaveState:
    """Evolve ``t`` steps exactly through the symbol's Chebyshev form.

    The t-th power of the step's symbol applied to the coin is
    ``sigma^(t-1) U_t A v - sigma^t U_(t-1) v`` (module docstring), and
    ``U_t``, ``U_(t-1)`` depend on the momentum only through ``sin k``
    (full walk, ``sigma = 1j``) or ``cos k`` (swap-free walk,
    ``sigma = 1``).  Their Fourier coefficients are the type-I DCT of
    each row over ``M/2 + 1`` nodes (``M >= 2t + 3``, a multiple of 8
    with small prime factors), computed by :func:`_split_dct1` from
    real FFTs of lengths ``M/4`` and ``M/8`` on the
    :func:`_node_table`; each site then combines them with the three
    harmonics of ``A v``.  At t = 1e5 this takes about 11 ms and
    allocates at most 7.3 MB in all, 6.6 MB of which is one block of
    ``4M + 4`` floats whose first ``8t + 4`` are the amplitudes; every
    other array is a piece of at most 16384 rows (full walk, one thread
    of a 2-vCPU VM, numpy 2.4).  A call peaks about 7 MB RSS above the
    process before it, and it returns its temporaries: at
    :data:`MAX_STEPS` the heap keeps 0.4 MB of them.  The amplitudes are
    a view into that block, so a state that is kept holds only them and
    the few floats past them.

    Returns a :class:`~qwalk.walk.WaveState` on the window ``[-t, t]``
    whose distribution matches lattice evolution within 1e-12 in total
    variation (checked up to t = 3000, and at t = 16385 in CI) and whose
    amplitudes are within 3e-13 of the same formula in long double at
    t = 1e5.  This is the engine behind
    :func:`~qwalk.harness.run_comparison` and ``qwalk simulate``.

    Raises
    ------
    ValueError
        If ``t`` is not an integer (numpy integers are) in ``[0,``
        :data:`MAX_STEPS`], the variant is not one of
        :data:`~qwalk.walk.VARIANTS`, or ``|nu| > 2**1000`` (where
        :func:`_unit_phases` would overflow), all before any array of
        size ``M`` is built.  ``coin`` has unit norm:
        :class:`~qwalk.walk.CoinSpinor` refuses any other.
    """
    t = _count(t, "step count")
    full_walk = _variant(variant) == VARIANTS[0]
    if t > MAX_STEPS:
        raise ValueError(f"step count {t} exceeds the limit of {MAX_STEPS}")
    if abs(params.nu) > 2.0**1000:
        raise ValueError(f"nu {params.nu!r} exceeds the engine's limit of 2**1000")
    if t == 0:
        return initial_state(coin)

    m_count = _node_count(t)
    half_m = m_count // 2
    n_sites = 2 * t + 1
    # One block holds every large array, the result included: with two
    # large blocks of about the same size a call's heap outgrows twice the
    # larger one, and glibc then trims the heap after each call and the
    # next call faults it back in.  Regions, in floats: [0, M + 2) holds
    # the Chebyshev rows and then, in place, their DCT, [M + 2, 2M + 4) the
    # node table and then the DCT's parked outputs, and [2M + 4, 3M + 8) the
    # DCT's scratch.  The amplitudes, 4 floats a site, then take
    # [0, 8t + 4), which fits as M >= 2t + 3: the basis row of |x| = j goes
    # where site x = j's amplitudes will be, at [4t, 8t + 4), the left half
    # is written below it over the dead coefficients, and the right half
    # replaces its basis rows in place.  The result keeps the block as its
    # base.
    block = np.empty(4 * m_count + 4)
    coef = block[: m_count + 2].reshape(2, half_m + 1)
    nodes = block[m_count + 2 : 2 * m_count + 4].reshape(2, half_m + 1)
    _node_table(m_count, out=nodes)
    phi = coin.as_array()
    half = cmath.exp(0.5j * params.nu)
    rr0 = params.rho * params.rho0
    rho2, rho02 = params.rho**2, params.rho0**2

    if full_walk:
        v0, v1 = half * phi[0], half.conjugate() * phi[1]
        eiv = cmath.exp(1j * params.nu)
        # A is the shifted symbol [[-c, d], [conj(d), conj(c)]] with
        # c = rr0 (exp(1j*nu) + e), d = -rho**2 exp(1j*nu) + rho0**2 e and
        # e = exp(-1j*k).  Rows: A v = f + g e + h conj(e), for U_t at site
        # x, at x - 1 (g) and x + 1 (h), then -v for U_(t-1) at x.  The
        # neighbours' 1j**(x -/+ 1) and sigma's powers are taken relative
        # to the common phase 1j**(x + t - 1), applied per site below.
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
        v0, v1 = half.conjugate() * phi[0], half * phi[1]
        weights = np.array(
            [
                [-rho2 * v0 - rr0 * v1, rr0 * v0 - rho2 * v1],
                [rho02 * v0 - rr0 * v1, 0.0],
                [0.0, rr0 * v0 + rho02 * v1],
                [-v0, -v1],
            ]
        ) * np.array([half, half.conjugate()])

    for lo in range(0, half_m + 1, _PIECE):
        cos_th, sin_th = nodes[:, lo : lo + _PIECE]
        if full_walk:
            # At k = pi/2 - theta, sin k = cos theta, and the coefficient
            # of U at site x is 1j**x times its DCT value at |x|, over M.
            cos_d, sin_d = _gap_parts(sin_th, cos_th, params)
        else:
            cos_d, sin_d = _swap_free_gap(cos_th, sin_th, params)
        _chebyshev_pair(cos_d, sin_d, t, out=coef[:, lo : lo + _PIECE])
    _split_dct1(coef, nodes, block[2 * m_count + 4 :])
    # Sites x and -x both take U_t at |x|, |x| - 1 and |x| + 1 (U_t[1] for
    # both neighbours of x = 0) and U_(t-1) at |x|; only the two
    # neighbours swap sides.  So one basis over |x| = 0..t serves both
    # halves, the left one with weight rows 1 and 2 swapped.  U_(t-1)
    # goes first: at t = 1 the basis covers the start of its row, while
    # the first t + 2 values of U_t always lie below the basis.
    u_t, u_prev = coef
    row_parts = block[: 4 * n_sites].reshape(n_sites, 4)
    basis = row_parts[t:]
    basis[:, 3] = u_prev[: t + 1]
    basis[:, 0] = u_t[: t + 1]
    basis[0, 1] = u_t[1]
    basis[1:, 1] = u_t[:t]
    basis[:, 2] = u_t[1 : t + 2]
    weights /= m_count
    weights = weights.view(np.float64)
    # Both halves go through the basis in pieces, the last up to one row
    # longer, as matmul takes a single row through gemv, which rounds
    # otherwise.  The left half runs backwards, and matmul copies a
    # reversed operand whole (64 MB at MAX_STEPS) unless it comes in
    # pieces; its first piece ends at x = 0, over basis row 0.  The right
    # half then replaces its basis rows in place, matmul copying each
    # piece, with x = 0 kept aside.
    pieces = [
        (lo, lo + _PIECE if lo + _PIECE < t else t + 1)
        for lo in range(0, t, _PIECE)
    ]
    left, swapped = row_parts[t::-1], weights[[0, 2, 1, 3]]
    for lo, hi in pieces:
        np.matmul(basis[lo:hi], swapped, out=left[lo:hi])
    centre = basis[0].copy()
    for lo, hi in pieces:
        np.matmul(basis[lo:hi], weights, out=basis[lo:hi])
    basis[0] = centre
    rows = row_parts.view(np.complex128)
    if full_walk:
        # Site x = i - t takes exp(1j*nu*x) * 1j**(i - 1).  With
        # i = q*width + r and width a multiple of 4 that is the block phase
        # exp(1j*nu*(q*width - t)) times the in-block phase
        # exp(1j*nu*r) * 1j**(r - 1): about 2*sqrt(n) exponentials, applied
        # a piece of whole blocks at a time.  The site count is odd, so the
        # last block is the one cut short.
        width = 4 * (math.isqrt(n_sites) // 4 + 1)
        r = np.arange(width)
        inner = _unit_phases(params.nu, r) * _QUARTER_TURNS[(r - 1) % 4]
        outer = _unit_phases(params.nu, np.arange(-t, t + 1, width))
        count = _PIECE // width
        phase = np.empty((count, width), dtype=np.complex128)
        for q in range(0, outer.size, count):
            block_phases = outer[q : q + count, None]
            part = phase[: len(block_phases)]
            np.multiply(block_phases, inner, out=part)
            sites = rows[q * width : (q + count) * width]
            sites *= part.reshape(-1)[: len(sites), None]
    return WaveState(time=t, x_min=-t, amps=rows)
