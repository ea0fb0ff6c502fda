"""Row rendering: every value's text is what Python writes, byte for byte."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import render
from qwalk.render import _decompose, render_rows

FORMATS = [False, True]  # '%.17g' and json.dumps (repr when finite)


def _texts(values, shortest: bool) -> list[str]:
    column = np.asarray(values, dtype=float)
    blob = b"".join(render_rows(["", "\n"], [column], shortest))
    return blob.decode().split("\n")[:-1]


def _python(values, shortest: bool) -> list[str]:
    values = np.asarray(values, dtype=float).tolist()
    return [json.dumps(v) if shortest else "%.17g" % v for v in values]


def _fallbacks(values, shortest: bool) -> int:
    """How many of ``values`` the kernel leaves to Python."""
    return int(_decompose(values, shortest)[3].sum())


def _format_rows(template: str, columns) -> list[str]:
    """One ``template % row`` per row: the renderer's reference."""
    return [template % row for row in zip(*(c.tolist() for c in columns))]


def _sweep_values(seed: int) -> np.ndarray:
    """Raw bit patterns (every exponent, NaN, inf and subnormals among
    them), uniform draws, values over 80 decades and short decimals."""
    rng = np.random.default_rng(seed)
    n = 50_000
    bits = rng.integers(0, 2**63, n, dtype=np.int64) | (
        rng.integers(0, 2, n, dtype=np.int64) << 63
    )
    short = [
        float(f"{a}e{b}")
        for a, b in zip(rng.integers(1, 10 ** rng.integers(1, 12, n)), rng.integers(-30, 30, n))
    ]
    return np.concatenate(
        [bits.view(np.float64), rng.random(n), 10.0 ** rng.uniform(-40, 40, n), short]
    )


def _edge_values() -> np.ndarray:
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    switches = [1e-5, 1e-4, 1e15, 1e16, 1e17]
    ulps = [np.nextafter(v, to) for v in switches for to in (0.0, math.inf)]
    ties = [
        0.1,
        9.5,
        # 18 significant digits ending in 5: halfway between two 17-digit
        # decimals.
        3 * 2.0**-25,
        44663543447567.6875,
        1393602620860975.75,
    ]
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    specials = [0.0, math.inf, math.nan]
    edges = np.array(powers + switches + ulps + ties + extremes + specials)
    return np.concatenate([edges, -edges])


@pytest.mark.parametrize("shortest", FORMATS)
def test_floats_match_python_on_a_seeded_sweep(shortest):
    values = _sweep_values(20_261_019)
    assert values.size >= 200_000
    assert _texts(values, shortest) == _python(values, shortest)
    assert _fallbacks(values, shortest) > 0


@pytest.mark.parametrize("shortest", FORMATS)
def test_floats_match_python_on_edge_values(shortest):
    values = _edge_values()
    assert _texts(values, shortest) == _python(values, shortest)
    assert _fallbacks(values, shortest) > 0


def test_half_ulp_stays_below_the_shortest_search_bound(monkeypatch):
    """The shortest-digit search tries 16 and 15 digits only, as v's
    half-ulp in units of ``y`` in ``[1e16, 1e17)`` is below 2**-53 * 1e17."""
    halves = []
    scaled = render._scaled

    def spy(m, q, k):
        n, frac, half_ulp = scaled(m, q, k)
        halves.append(half_ulp[(n >= 10**16) & (n < 10**17)])
        return n, frac, half_ulp

    monkeypatch.setattr(render, "_scaled", spy)
    values = np.concatenate([_sweep_values(20_261_019), _edge_values()])
    _decompose(values, True)
    seen = np.concatenate(halves)
    # Every finite normal value but the powers of two, which Python writes.
    mantissa = values.view(np.int64) & ((1 << 52) - 1)
    normal = np.isfinite(values) & (np.abs(values) >= 2.2250738585072014e-308)
    assert seen.size == np.count_nonzero(normal & (mantissa != 0))
    assert seen.max() < 11.2


# Each example carries a subnormal and two exact 18-digit ties, one of them
# a power of two, which Python writes in either format.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40), st.booleans())
def test_floats_match_python_on_any_bit_pattern(patterns, shortest):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = np.append(values, [5e-324, 3 * 2.0**-25, 2.0**-25])
    assert _texts(values, shortest) == _python(values, shortest)
    assert _fallbacks(values, shortest) >= 2


def test_zeros_and_short_values_need_no_fallback():
    values = np.array([0.0, -0.0, 1.5, -2.75])
    for shortest in FORMATS:
        assert _texts(values, shortest) == _python(values, shortest)
        assert _fallbacks(values, shortest) == 0


def test_integers_match_python():
    edges = [10**k + d for k in range(19) for d in (-1, 0, 1)] + [2**63 - 1, 0]
    rng = np.random.default_rng(3)
    values = np.array(edges + [-v for v in edges] + rng.integers(-(2**62), 2**62, 1000).tolist())
    blob = b"".join(render_rows(["", "\n"], [values], False))
    assert blob.decode().split("\n")[:-1] == [str(v) for v in values.tolist()]


@pytest.mark.parametrize("block, compact", [(1, 1 << 16), (7, 13), (1 << 14, 1 << 16)])
def test_rows_match_the_percent_oracle(monkeypatch, block, compact):
    """CSV (``%.17g``) and JSON (``%r``) rows in any block size, compacted
    any number of bytes at a time."""
    monkeypatch.setattr("qwalk.render._ROW_BLOCK", block)
    monkeypatch.setattr("qwalk.render._COMPACT_SLICE", compact)
    rng = np.random.default_rng(11)
    n = 301
    columns = [
        np.arange(-150, 151),
        rng.random(n) * 10.0 ** rng.integers(-40, 40, n),
        np.where(rng.random(n) < 0.5, 0.0, -rng.random(n)),
    ]
    csv = b"".join(render_rows(["", ",", ",", "\n"], columns, False)).decode()
    assert csv == "".join(row + "\n" for row in _format_rows("%d,%.17g,%.17g", columns))
    names = [json.dumps(name) for name in ("x", "simulated", "approx")]
    pieces = [f"<{names[0]}: ", f", {names[1]}: ", f", {names[2]}: ", ">"]
    rows = b"".join(render_rows(pieces, columns, True)).decode()
    template = "<%s: %%r, %s: %%r, %s: %%r>" % tuple(names)
    assert rows == "".join(_format_rows(template, columns))
