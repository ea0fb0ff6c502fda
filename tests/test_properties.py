"""Property tests over random parameters and coins.

For the limit laws, some parameters are drawn at distance 1e-12 to 1e-3
from a special point ``(1/sqrt(2), +-pi/2)``; the special set itself
enters through its ``standard`` laws.  The evolution engines are
compared everywhere, the special set included.  Runs are derandomized,
so the suite draws the same examples every time.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from conftest import SQ2
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwalk import CoinSpinor, WalkParams, evolve, evolve_fourier, make_limit_law

PROPERTY_SETTINGS = settings(
    max_examples=50, deadline=None, derandomize=True, database=None
)

_phases = st.floats(-math.pi, math.pi)


@st.composite
def _next_to_special_set(draw):
    """``(rho, nu)`` at distance ``10**U(-12, -3)`` from ``(1/sqrt(2), +-pi/2)``."""
    d = 10.0 ** draw(st.floats(-12.0, -3.0))
    angle = draw(_phases)
    nu_sign = draw(st.sampled_from((1, -1)))
    return SQ2 + d * math.cos(angle), nu_sign * (0.5 * math.pi + d * math.sin(angle))


@st.composite
def coins(draw):
    tilt = draw(st.floats(0.0, 0.5 * math.pi))
    return CoinSpinor(
        math.cos(tilt) * cmath.exp(1j * draw(_phases)),
        math.sin(tilt) * cmath.exp(1j * draw(_phases)),
    )


@st.composite
def limit_laws(draw):
    kind = draw(st.sampled_from(("theorem1", "standard", "cmv_only")))
    coin = draw(coins())
    if kind == "standard":
        n = draw(st.integers(0, 1))
        return make_limit_law(kind, WalkParams(SQ2, (0.5 + n) * math.pi), coin, n=n)
    rho, nu = draw(
        st.one_of(st.tuples(st.floats(0.05, 0.95), _phases), _next_to_special_set())
    )
    return make_limit_law(kind, WalkParams(rho, nu), coin)


@PROPERTY_SETTINGS
@given(limit_laws())
def test_cdf_is_monotone_from_zero_to_one(law):
    hi = law.support_hi
    vals = law.cdf(np.linspace(-hi, hi, 257))
    assert np.all(np.diff(vals) >= 0.0)
    assert law.cdf(-hi) == 0.0
    assert abs(law.cdf(hi) - 1.0) <= 1e-9


def _theorem1_next_to_special_set(d: float, nu_sign: int):
    """theorem1 law at distance ``d`` from ``(1/sqrt(2), nu_sign*pi/2)``."""
    params = WalkParams(SQ2 + 0.6 * d, nu_sign * (0.5 * math.pi + 0.8 * d))
    return make_limit_law("theorem1", params, CoinSpinor(0.6, 0.8j))


@PROPERTY_SETTINGS
@given(limit_laws())
@example(_theorem1_next_to_special_set(1e-12, 1))
@example(_theorem1_next_to_special_set(1e-12, -1))
@example(_theorem1_next_to_special_set(1e-9, 1))
@example(_theorem1_next_to_special_set(1e-9, -1))
@example(_theorem1_next_to_special_set(1e-6, 1))
@example(_theorem1_next_to_special_set(1e-6, -1))
def test_unit_mass_in_moments_and_table(law):
    assert abs(law.moment(0) - 1.0) <= 1e-9
    assert abs(law._cdf_table[1][-1] - 1.0) <= 1e-9


_SPECIAL_SET = tuple(WalkParams(SQ2, nu) for nu in (0.5 * math.pi, -0.5 * math.pi))


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.sampled_from(_SPECIAL_SET),
        st.builds(WalkParams, st.floats(0.05, 0.95), _phases),
    ),
    coins(),
    st.sampled_from(("full", "cmv_only")),
    st.integers(0, 200),
)
def test_fourier_engine_equals_lattice(params, coin, variant, t):
    lattice = evolve(coin, params, t, variant=variant)
    fourier = evolve_fourier(coin, params, t, variant=variant)
    assert fourier.x_min == lattice.x_min
    assert np.max(np.abs(fourier.amps - lattice.amps)) <= 1e-12
