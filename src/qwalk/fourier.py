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
  where ``R`` is :func:`phase_rotation` and the inverse DFT runs over
  ``M >= 2*t + 3`` equispaced nodes.  The integrand is a trigonometric
  polynomial of degree <= t, so the discrete sum equals the integral
  exactly and the result matches lattice evolution to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .walk import CoinSpinor, WalkParams, WaveState, initial_state

__all__ = [
    "DegenerateSymbolError",
    "EigenSystem",
    "phase_rotation",
    "momentum_symbol",
    "shifted_symbol",
    "eigensystem",
    "group_velocity",
    "evolve_fourier",
]

#: Largest step count evolve_fourier() accepts.  Its arrays hold
#: ``M = next_pow2 >= 2t + 3`` nodes, built before any work starts:
#: t = 1e6 peaks near 744 MB, so a larger cap could exhaust memory
#: where a lattice run would only have been slow.
MAX_STEPS = 2_000_000

# Below this squared half-gap the two eigenvalues are treated as
# colliding: eigensystem() refuses, evolve_fourier() switches to direct
# matrix powers for the affected nodes.
_GAP_SQ_TOL = 1e-14
_POWER_GAP_SQ_TOL = 1e-9


class DegenerateSymbolError(ValueError):
    """Raised when the two symbol eigenvalues collide at a momentum."""


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


def phase_rotation(phi: float) -> np.ndarray:
    """Diagonal phase rotation ``diag(exp(1j*phi), exp(-1j*phi))``."""
    e = cmath.exp(1j * phi)
    return np.array([[e, 0.0], [0.0, e.conjugate()]], dtype=np.complex128)


def shifted_symbol(k, params: WalkParams) -> np.ndarray:
    """Shifted momentum symbol of the full walk.

    With ``c = rho*rho0*(exp(1j*nu) + exp(-1j*k))`` and
    ``d = -rho**2*exp(1j*nu) + rho0**2*exp(-1j*k)`` the matrix is
    ``[[-c, d], [conj(d), conj(c)]]``.  Accepts a scalar momentum or an
    array; an array of shape ``shape`` yields ``shape + (2, 2)``.
    """
    return _shifted_symbol_at(np.exp(-1j * np.asarray(k, dtype=float)), params)


def _shifted_symbol_at(ek: np.ndarray, params: WalkParams) -> np.ndarray:
    """:func:`shifted_symbol` from the phases ``ek = exp(-1j*k)``."""
    rr0 = params.rho * params.rho0
    eiv = cmath.exp(1j * params.nu)
    c = rr0 * (eiv + ek)
    d = -params.rho**2 * eiv + params.rho0**2 * ek
    out = np.empty(np.shape(ek) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = -c
    out[..., 0, 1] = d
    out[..., 1, 0] = np.conj(d)
    out[..., 1, 1] = np.conj(c)
    return out


def momentum_symbol(k, params: WalkParams) -> np.ndarray:
    """Momentum symbol of the full walk before the nu-shift.

    Equal to ``shifted_symbol(k - nu, params)``; the walk step itself is
    recovered as ``phase_rotation(-nu/2) @ momentum_symbol(k) @ phase_rotation(nu/2)``.
    """
    return shifted_symbol(np.asarray(k, dtype=float) - params.nu, params)


def _one_plus_minus(sin_y, cos_y):
    """``(1 + sin y, 1 - sin y)``, each to full relative accuracy.

    The factor that may be small is formed as ``cos(y)**2`` over the
    other, which is at least 1, instead of by cancellation.
    """
    big = 1.0 + np.abs(sin_y)
    small = cos_y * cos_y / big
    up = sin_y >= 0.0
    return np.where(up, big, small), np.where(up, small, big)


def _gap_parts(ek, params: WalkParams):
    """``s(k)`` and ``gap_sq = 1 - s**2`` from ``ek = exp(-1j*k)``.

    Since ``1 = (rho - rho0)**2 + 2*rho*rho0``, the factors of
    ``gap_sq = (1 + s)(1 - s)`` are sums of nonnegative terms
    ``(rho - rho0)**2 + rho*rho0*((1 +/- sin k) + (1 -/+ sin nu))``, so
    ``gap_sq`` keeps its relative accuracy where the two eigenvalues
    nearly collide.
    """
    rr0 = params.rho * params.rho0
    sk = -np.imag(ek)
    s = rr0 * (sk - math.sin(params.nu))
    k_plus, k_minus = _one_plus_minus(sk, np.real(ek))
    nu_plus, nu_minus = _one_plus_minus(math.sin(params.nu), math.cos(params.nu))
    base = (params.rho - params.rho0) ** 2
    one_plus = base + rr0 * (k_plus + nu_minus)
    one_minus = base + rr0 * (k_minus + nu_plus)
    return s, one_plus * one_minus


def eigensystem(k: float, params: WalkParams) -> EigenSystem:
    """Analytic spectral decomposition of the shifted symbol at ``k``.

    Both eigenvectors come from closed-form kernel rows, not a generic
    eigensolver.  For each branch the construction picks whichever of
    the two row formulas has the larger squared norm, so it stays stable
    at the isolated momenta where one closed-form normalizer vanishes.

    Raises
    ------
    DegenerateSymbolError
        If the squared half-gap falls below 1e-14 (eigenvalue collision;
        only possible at the special parameter set ``rho = 1/sqrt(2)``,
        ``nu = pi/2 + n*pi``).
    """
    s, gap_sq = _gap_parts(cmath.exp(-1j * float(k)), params)
    s = float(s)
    gap_sq = float(gap_sq)
    if gap_sq < _GAP_SQ_TOL:
        raise DegenerateSymbolError(
            f"symbol eigenvalues collide at k={k!r} (squared half-gap {gap_sq:.2e})"
        )
    root = math.sqrt(gap_sq)
    values = np.array([1j * s + root, 1j * s - root], dtype=np.complex128)
    d = (
        -params.rho**2 * cmath.exp(1j * params.nu)
        + params.rho0**2 * cmath.exp(-1j * float(k))
    )
    rr0 = params.rho * params.rho0
    re_c = rr0 * (math.cos(float(k)) + math.cos(params.nu))
    normalizers = np.array(
        [2.0 * (gap_sq + re_c * root), 2.0 * (gap_sq - re_c * root)]
    )
    vectors = np.empty((2, 2), dtype=np.complex128)
    for j, sgn in enumerate((1.0, -1.0)):
        if normalizers[j] >= normalizers[1 - j]:
            vec = np.array([d, re_c + sgn * root], dtype=np.complex128)
            nrm = normalizers[j]
        else:
            # complementary kernel row for the same eigenvalue
            vec = np.array(
                [-(re_c - sgn * root), d.conjugate()], dtype=np.complex128
            )
            nrm = normalizers[1 - j]
        vectors[:, j] = vec / math.sqrt(nrm)
    return EigenSystem(
        k=float(k),
        values=values,
        vectors=vectors,
        gap_sq=gap_sq,
        normalizers=normalizers,
    )


def group_velocity(k, params: WalkParams):
    """Momentum-resolved asymptotic velocity of the second branch.

    ``h(k) = rho*rho0*cos(k) / sqrt(1 - rho**2*rho0**2*(sin k - sin nu)**2)``;
    the first branch moves with ``-h(k)``.  Accepts scalar or array ``k``.
    """
    ek = np.exp(-1j * np.asarray(k, dtype=float))
    s, gap_sq = _gap_parts(ek, params)
    out = params.rho * params.rho0 * ek.real / np.sqrt(gap_sq)
    if np.ndim(k) == 0:
        return float(out)
    return out


def _swap_free_gap(ek, params: WalkParams):
    """``cos`` and ``sin`` of the swap-free eigenphase, from ``ek = exp(-1j*k)``.

    ``tau = rho0**2 cos k - rho**2``, and
    ``1 - tau**2 = rho0**2 (1 + cos k) (2 rho**2 + rho0**2 (1 - cos k))``
    is a product of nonnegative factors, so the sine stays accurate near
    ``k = pi``, where the gap closes for every ``rho``.
    """
    ck = np.real(ek)
    c_plus, c_minus = _one_plus_minus(ck, np.imag(ek))
    tau = params.rho0**2 * ck - params.rho**2
    sin_ang = params.rho0 * np.sqrt(
        c_plus * (2.0 * params.rho**2 + params.rho0**2 * c_minus)
    )
    return tau, sin_ang


def _swap_free_symbol(ekm: np.ndarray, params: WalkParams) -> np.ndarray:
    """Symbol of the swap-free step, at phases ``ekm = exp(-1j*k)``, with
    the nu-rotation peeled off.

    The swap-free multiplier is ``R(nu/2) @ G(k) @ R(-nu/2)`` with
    ``G(k) = (R(-k/2) @ W)**2`` for the real rotation
    ``W = [[rho0, -rho], [rho, rho0]]``; this returns ``G``.
    """
    rho2 = params.rho**2
    rho02 = params.rho0**2
    rr0 = params.rho * params.rho0
    ekp = np.conj(ekm)
    out = np.empty(ekm.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = rho02 * ekm - rho2
    out[..., 0, 1] = -rr0 * (ekm + 1.0)
    out[..., 1, 0] = rr0 * (ekp + 1.0)
    out[..., 1, 1] = rho02 * ekp - rho2
    return out


def _apply_powered(
    sym: np.ndarray,
    vec: np.ndarray,
    t: int,
    lam1: np.ndarray,
    lam2: np.ndarray,
    lam1_t: np.ndarray,
    lam2_t: np.ndarray,
    safe: np.ndarray,
) -> np.ndarray:
    """Apply ``sym[m]**t`` to ``vec[m]`` for every node ``m``.

    Uses the resolvent form
    ``A^t = (lam1^t (A - lam2 I) - lam2^t (A - lam1 I)) / (lam1 - lam2)``
    where the gap is safe, and exact binary matrix powers elsewhere.
    """
    av = np.einsum("mij,mj->mi", sym, vec)
    gap = np.where(safe, lam1 - lam2, 1.0)[:, None]
    out = (
        lam1_t[:, None] * (av - lam2[:, None] * vec)
        - lam2_t[:, None] * (av - lam1[:, None] * vec)
    ) / gap
    for m in np.nonzero(~safe)[0]:
        out[m] = np.linalg.matrix_power(sym[m], t) @ vec[m]
    return out


def evolve_fourier(
    coin: CoinSpinor, params: WalkParams, t: int, variant: str = "full"
) -> WaveState:
    """Evolve ``t`` steps by powering the symbol in momentum space.

    Samples the t-th symbol power on ``M >= 2t + 3`` equispaced nodes
    (next power of two), applies it to the transformed coin, and inverts
    with an FFT; the node count makes the inversion exact for the
    degree-<= t trigonometric polynomial integrand.  Eigenvalue powers
    are taken analytically, with a direct matrix-power fallback at nodes
    where the spectral gap nearly closes.

    Returns a :class:`~qwalk.walk.WaveState` on the window ``[-t, t]``
    whose distribution matches lattice evolution within 1e-12 in total
    variation (checked up to t = 3000).  This is the engine behind
    :func:`~qwalk.harness.run_comparison` and ``qwalk simulate``.

    Raises
    ------
    ValueError
        If ``t`` is negative or above :data:`MAX_STEPS`, the variant is
        unknown, or the coin is not normalised; all before any array of
        size ``M`` is built.
    """
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if t > MAX_STEPS:
        raise ValueError(f"step count {t} exceeds the limit of {MAX_STEPS}")
    if variant not in ("full", "cmv_only"):
        raise ValueError(f"unknown variant {variant!r}")
    if t == 0:
        return initial_state(coin)

    if not abs(coin.norm_sq() - 1.0) <= 1e-9:
        raise ValueError("initial coin state must have unit norm")
    m_count = 1 << max(2, (2 * t + 2).bit_length())
    if m_count < 2 * t + 3:
        m_count <<= 1
    k_nodes = 2.0 * np.pi * np.arange(m_count) / m_count
    ek = np.exp(-1j * k_nodes)
    phi = coin.as_array()
    half = cmath.exp(0.5j * params.nu)

    if variant == "full":
        sym = _shifted_symbol_at(ek, params)
        s, gap_sq = _gap_parts(ek, params)
        root = np.sqrt(gap_sq)
        # arctan2 of accurate parts, not arcsin(s): near a closing gap
        # arcsin amplifies the rounding of s, and t multiplies the angle.
        ang = np.arctan2(s, root)
        lam1 = root + 1j * s
        lam2 = -root + 1j * s
        lam1_t = np.exp(1j * t * ang)
        lam2_t = (-1.0) ** t * np.conj(lam1_t)
        safe = gap_sq >= _POWER_GAP_SQ_TOL
        vec0 = np.array([half * phi[0], half.conjugate() * phi[1]])
    else:
        sym = _swap_free_symbol(ek, params)
        tau, sin_ang = _swap_free_gap(ek, params)
        ang = np.arctan2(sin_ang, tau)
        lam1 = tau + 1j * sin_ang
        lam2 = np.conj(lam1)
        lam1_t = np.exp(1j * t * ang)
        lam2_t = np.conj(lam1_t)
        safe = sin_ang * sin_ang >= _POWER_GAP_SQ_TOL
        vec0 = np.array([half.conjugate() * phi[0], half * phi[1]])

    # Not needed below; freed before the (M, 2) arrays raise peak memory.
    del k_nodes, ek
    vec = np.broadcast_to(vec0, (m_count, 2))
    hat = _apply_powered(sym, vec, t, lam1, lam2, lam1_t, lam2_t, safe)
    real_space = np.fft.ifft(hat, axis=0)
    x = np.arange(-t, t + 1)
    rows = real_space[np.mod(x, m_count)]
    if variant == "full":
        rows = rows * np.array([half.conjugate(), half])
        rows = rows * np.exp(1j * params.nu * x)[:, None]
    else:
        rows = rows * np.array([half, half.conjugate()])
    return WaveState(time=t, x_min=-t, amps=np.ascontiguousarray(rows))
