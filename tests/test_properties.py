"""Property tests of the limit laws over random parameters and coins.

Parameters are drawn outside a box of half-widths 0.03 in ``rho`` and
0.1 in ``nu`` around each special point ``(1/sqrt(2), +-pi/2)``; the
special set itself enters through its ``standard`` laws.  Runs are
derandomized, so the suite draws the same examples every time.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from conftest import SQ2
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import CoinSpinor, WalkParams, make_limit_law
from qwalk.harness import _cdf_table

PROPERTY_SETTINGS = settings(
    max_examples=50, deadline=None, derandomize=True, database=None
)

_phases = st.floats(-math.pi, math.pi)


def _near_special(rho: float, nu: float) -> bool:
    return abs(rho - SQ2) < 0.03 and abs(abs(nu) - 0.5 * math.pi) < 0.1


@st.composite
def limit_laws(draw):
    kind = draw(st.sampled_from(("theorem1", "standard", "cmv_only")))
    tilt = draw(st.floats(0.0, 0.5 * math.pi))
    coin = CoinSpinor(
        math.cos(tilt) * cmath.exp(1j * draw(_phases)),
        math.sin(tilt) * cmath.exp(1j * draw(_phases)),
    )
    if kind == "standard":
        n = draw(st.integers(0, 1))
        return make_limit_law(kind, WalkParams(SQ2, (0.5 + n) * math.pi), coin, n=n)
    rho, nu = draw(
        st.tuples(st.floats(0.05, 0.95), _phases).filter(
            lambda p: not _near_special(*p)
        )
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


@PROPERTY_SETTINGS
@given(limit_laws())
def test_unit_mass_in_moments_and_table(law):
    assert abs(law.moment(0) - 1.0) <= 1e-9
    assert abs(_cdf_table(law)[1][-1] - 1.0) <= 1e-9
