"""Lattice-side evolution of a two-component unitary walk on the integers.

The walker carries a two-dimensional internal ("coin") state at each
site.  One time step of the full walk is the per-site component swap
followed by a banded, five-diagonal factor; that factor alone is the
step of the swap-free ``cmv_only`` variant.  The step also factors into
four local passes (two site-wise coins, each followed by a conditional
shift of one component); the tests keep that product,
``dense_factor_product_matrix``, as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VARIANTS",
    "WalkParams",
    "CoinSpinor",
    "WaveState",
    "Distribution",
    "initial_state",
    "step_full",
    "step_cmv_only",
    "evolve",
    "distribution",
]

_COIN_NORM_TOL = 1e-9
# evolve() sets amplitudes with |amp|**2 below this to exact zero after
# each step.  Far beyond the ballistic front amplitudes decay without
# bound, and once they reach IEEE subnormals every step slows sharply;
# 1e-300 is far below any probability a double can add to unit mass.
_FLUSH_SQ = 1e-300


@dataclass(frozen=True)
class WalkParams:
    """Parameters ``(rho, nu)`` of the walk unitary.

    ``rho`` in (0, 1) is the reflection weight and ``nu`` a phase angle
    in radians.  The complementary weight ``rho0 = sqrt(1 - rho**2)``
    and the complex coefficient ``alpha0 = rho * exp(1j * nu)`` are
    derived once at construction and cached.

    Raises
    ------
    ValueError
        If ``rho`` does not lie strictly between 0 and 1, or ``nu`` is
        not finite.
    """

    rho: float
    nu: float
    rho0: float = field(init=False, repr=False, compare=False)
    alpha0: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(
                f"rho must lie strictly between 0 and 1, got {self.rho}"
            )
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu}")
        # Factored, 1 - rho**2 would lose digits to cancellation next to 1.
        rho0 = math.sqrt((1.0 - self.rho) * (1.0 + self.rho))
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "alpha0", self.rho * cmath.exp(1j * self.nu))


@dataclass(frozen=True)
class CoinSpinor:
    """Internal two-component amplitude pair ``(a0, a1)`` of unit norm.

    Evolutions and limit laws rely on this check and do not repeat it.

    Raises
    ------
    ValueError
        If either amplitude is not finite, or ``|a0|**2 + |a1|**2``
        differs from 1 by more than 1e-9.
    """

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.a0) and cmath.isfinite(self.a1)):
            raise ValueError(
                f"coin amplitudes must be finite, got ({self.a0}, {self.a1})"
            )
        if not abs(self.norm_sq() - 1.0) <= _COIN_NORM_TOL:
            raise ValueError(
                "coin amplitudes must have unit norm within 1e-9, got"
                f" |a0|^2 + |a1|^2 = {self.norm_sq()!r}"
            )

    def norm_sq(self) -> float:
        # Products: ``abs(a) ** 2`` raises OverflowError where they are inf.
        return sum(a.real * a.real + a.imag * a.imag for a in (self.a0, self.a1))

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class WaveState:
    """Walker amplitudes on a contiguous window of lattice sites.

    ``amps[i, c]`` is the amplitude of component ``c`` at position
    ``x_min + i``.  The window always contains the support of the
    state; sites outside it carry amplitude zero.
    """

    time: int
    x_min: int
    amps: np.ndarray

    def positions(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + len(self.amps))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Position distribution ``P(x)`` on a contiguous window of sites."""

    x_min: int
    probs: np.ndarray

    def positions(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + len(self.probs))

    def total(self) -> float:
        return float(np.sum(self.probs))


def _count(value, what: str, least: int = 0) -> int:
    """``value`` (a step count, moment order or rescaling time) as an
    ``int``; ``ValueError`` unless an integer of at least ``least``, 0 or 1."""
    if hasattr(value, "__index__") and operator.index(value) >= least:
        return operator.index(value)
    kind = "positive" if least else "nonnegative"
    raise ValueError(f"{what} must be a {kind} integer, got {value!r}")


def initial_state(coin: CoinSpinor) -> WaveState:
    """Point mass at the origin carrying ``coin`` as internal state.

    ``coin`` has unit norm: :class:`CoinSpinor` refuses any other.
    """
    return WaveState(time=0, x_min=0, amps=coin.as_array().reshape(1, 2))


def step_full(state: WaveState, params: WalkParams) -> WaveState:
    """Advance one step of the full walk: swap the two components at every
    site, then apply the banded factor (:func:`step_cmv_only`).  The window
    grows by one site on each side.  The tests check it against the
    four-factor product of the step (``dense_factor_product_matrix``).
    """
    swapped = WaveState(time=state.time, x_min=state.x_min, amps=state.amps[:, ::-1])
    return step_cmv_only(swapped, params)


def step_cmv_only(state: WaveState, params: WalkParams) -> WaveState:
    """Advance one step of the swap-free walk (the banded factor alone).

    The three-band stencil feeding site ``y`` reads, with ``a``/``b`` the
    two input components:

    ``a'(y) = rho0^2 a(y-1) - alpha0 rho0 b(y-1) - rho^2 a(y) - alpha0 rho0 b(y)``
    ``b'(y) = conj(alpha0) rho0 a(y+1) + rho0^2 b(y+1) + conj(alpha0) rho0 a(y) - rho^2 b(y)``
    """
    rho, rho0 = params.rho, params.rho0
    ar0 = params.alpha0 * rho0
    ac0 = params.alpha0.conjugate() * rho0
    a = state.amps[:, 0]
    b = state.amps[:, 1]
    n = len(a)
    out = np.zeros((n + 2, 2), dtype=np.complex128)
    out[2:, 0] += rho0 * rho0 * a - ar0 * b
    out[1:-1, 0] += -(rho * rho) * a - ar0 * b
    out[:-2, 1] += ac0 * a + rho0 * rho0 * b
    out[1:-1, 1] += ac0 * a - (rho * rho) * b
    return WaveState(time=state.time + 1, x_min=state.x_min - 1, amps=out)


_STEP_FUNCS = {"full": step_full, "cmv_only": step_cmv_only}
#: Recognised evolution variants: the full walk (the default) and the
#: swap-free walk.
VARIANTS = tuple(_STEP_FUNCS)


def _variant(variant: str) -> str:
    """``variant``; ``ValueError`` unless one of :data:`VARIANTS`."""
    if variant in VARIANTS:
        return variant
    raise ValueError(f"unknown variant {variant!r}")


def evolve(
    coin: CoinSpinor, params: WalkParams, t: int, variant: str = VARIANTS[0]
) -> WaveState:
    """Evolve the point-mass initial condition for ``t`` steps.

    Parameters
    ----------
    coin:
        Normalised initial internal state, placed at the origin.
    params:
        Walk parameters.
    t:
        Number of steps, a nonnegative integer (numpy integers too).
    variant:
        One of :data:`VARIANTS`: ``full`` for the complete walk or
        ``cmv_only`` for the variant without the per-site component swap.

    Returns
    -------
    WaveState
        The state at time ``t``, on the window ``[-t, t]``.  Amplitudes
        whose squared modulus falls below 1e-300 are flushed to exact
        zero after every step.

    This band stepper costs O(t**2); the production paths use
    :func:`qwalk.fourier.evolve_fourier`, and the tests keep this one as
    its reference.
    """
    t = _count(t, "step count")
    step = _STEP_FUNCS[_variant(variant)]
    state = initial_state(coin)
    for _ in range(t):
        state = step(state, params)
        amps = state.amps
        amps[amps.real**2 + amps.imag**2 < _FLUSH_SQ] = 0.0
    return state


def distribution(state: WaveState) -> Distribution:
    """Position distribution ``P(x) = |amp0(x)|^2 + |amp1(x)|^2``.

    Summed in one pass over the four real parts of each row.
    """
    f = np.ascontiguousarray(state.amps, dtype=np.complex128).view(np.float64)
    probs = np.einsum("ij,ij->i", f, f)
    return Distribution(x_min=state.x_min, probs=probs)
