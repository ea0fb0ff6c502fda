"""Reference values computed apart from the package's own formulas.

Two oracles feed the workload checks:

* ``spectral_moments`` -- limit moments of ``X_t / t`` from a numerical
  eigendecomposition of the one-step symbol.  The symbol is read off by
  applying one lattice step to the two unit coin states at the origin,
  so the only package code it relies on is the definition of the walk
  step; eigenvalues, eigenvectors and velocities come from
  ``numpy.linalg.eig`` and the Hellmann-Feynman identity, not from the
  closed forms in ``qwalk.fourier``/``qwalk.limitlaw``.
* ``closed_form_cdf`` -- the elementary antiderivative of
  ``(1 + c x) / ((1 - x^2) sqrt(a^2 - x^2))``, the density shape of the
  ``cmv_only`` and ``standard`` laws.
"""

from __future__ import annotations

import math

import numpy as np

from qwalk.walk import WaveState, step_cmv_only, step_full

_SPECTRAL_NODES = 2048


def step_stencil(params, variant: str) -> np.ndarray:
    """Matrices ``A[d + 1]`` with ``psi'(y) = sum_d A[d + 1] psi(y - d)``."""
    step = step_full if variant == "full" else step_cmv_only
    stencil = np.zeros((3, 2, 2), dtype=np.complex128)
    for c in range(2):
        amps = np.zeros((1, 2), dtype=np.complex128)
        amps[0, c] = 1.0
        out = step(WaveState(time=0, x_min=0, amps=amps), params)
        if out.x_min != -1 or len(out.amps) != 3:
            raise RuntimeError("one walk step must reach exactly x = -1..1")
        stencil[:, :, c] = out.amps
    return stencil


def spectral_moments(params, coin, variant: str, orders) -> dict[int, float]:
    """Limit moments ``E[V^r]`` of the asymptotic velocity ``V``.

    With ``psi_hat(k) = sum_x exp(-ikx) psi(x)`` one step multiplies by
    ``U(k) = sum_d A_d exp(-ikd)``.  Each eigenvalue ``exp(i w_j(k))``
    moves with velocity ``-w_j'(k)`` and carries weight
    ``|<v_j(k), coin>|^2``; averaging over a uniform momentum grid (the
    integrand is periodic and analytic) gives the moments.
    """
    stencil = step_stencil(params, variant)
    k = 2.0 * np.pi * (np.arange(_SPECTRAL_NODES) + 0.5) / _SPECTRAL_NODES
    d = np.array([-1.0, 0.0, 1.0])
    phase = np.exp(-1j * np.outer(k, d))
    sym = np.einsum("nd,dij->nij", phase, stencil)
    dsym = np.einsum("nd,dij->nij", -1j * d * phase, stencil)
    values, vectors = np.linalg.eig(sym)
    phi = np.array([coin.a0, coin.a1], dtype=np.complex128)
    out = {r: 0.0 for r in orders}
    for j in range(2):
        vec = vectors[:, :, j]
        vec = vec / np.linalg.norm(vec, axis=1)[:, None]
        weight = np.abs(vec.conj() @ phi) ** 2
        dlam = np.einsum("ni,nij,nj->n", vec.conj(), dsym, vec)
        velocity = -np.imag(np.conj(values[:, j]) * dlam)
        for r in orders:
            out[r] += float(np.mean(velocity**r * weight))
    return out


def closed_form_cdf(x, half_width: float, coeff: float) -> np.ndarray:
    """CDF of the law with density ``K (1 + c x) / (pi (1 - x^2) sqrt(a^2 - x^2))``.

    ``a`` is ``half_width`` and ``K = sqrt(1 - a^2)`` makes the mass 1.
    With ``s = sqrt(a^2 - x^2)`` and ``b = sqrt(1 - a^2)`` the
    antiderivative is ``1/2 + (atan2(b x, s) - c atan2(s, b)) / pi``.
    """
    a = half_width
    b = math.sqrt(1.0 - a * a)
    xs = np.clip(np.asarray(x, dtype=float), -a, a)
    s = np.sqrt(np.maximum(a * a - xs * xs, 0.0))
    return 0.5 + (np.arctan2(b * xs, s) - coeff * np.arctan2(s, b)) / np.pi
