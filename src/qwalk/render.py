"""Text rows from numpy columns, one vectorised pass per column.

:func:`render_rows` lays out the rows of a table in a fixed-width
``uint8`` slot matrix, literal text in fixed columns and each value in
its own slot, NUL in unused slots, and drops the NULs in place.
Integers are written as ``'%d'``; floats exactly as Python writes them,
byte for byte: ``'%.17g' % v`` or, for ``shortest=True``,
``json.dumps(v)``: ``repr(v)`` (the fewest digits that read back as
``v``) if finite, else ``NaN``/``Infinity``/``-Infinity``.  The rows
come a block at a time, each block made only when the last is used.

Digits.  A finite nonzero normal ``|v| = m * 2**q`` (``m`` a 53-bit
integer) is scaled to ``y = |v| * 10**(16 - k)`` in ``[1e16, 1e17)``,
``k = floor(log10|v|)``.  ``10**p`` is held as ``(h1 + h2 + h3) *
2**g``, built exactly from Python ints, with 26-bit ``h1`` and ``h2``;
splitting ``m`` into a 26-bit and a 27-bit part makes four of the five
partial products exact doubles, so ``floor(y)`` comes out exact and the
fraction of ``y`` to within 2**-42.  ``'%.17g'`` rounds ``y`` to an
integer.  ``repr`` keeps the fewest digits whose nearest rounding of
``y`` lies in ``v``'s rounding interval, half an ulp either side.  This
is the split of Grisu3 (Loitsch, PLDI 2010) and Ryu (Adams, PLDI 2018):
approximate arithmetic plus detection of the cases it cannot decide.

Fallback.  An element whose decision lies within 2**-38 of a rounding
tie or an interval edge (exact ties among them), a subnormal, a
non-finite value and, for ``repr``, a power of two (its interval is
lopsided) is written by Python's own ``%`` or ``json.dumps``, that
element only.  Zeros are written by the kernel.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator

import numpy as np

__all__ = ["render_rows"]

# Rows laid out per slot matrix: memory is bounded by this, not by the
# length of the table.
_ROW_BLOCK = 1 << 14
# Bytes of the slot matrix compacted at a time.
_COMPACT_SLICE = 1 << 16

_DIGITS = 17
# Margin of every decision: the fraction of y is exact to 2**-42.
_SLACK = 2.0**-38
# Range of p in 10**p: k = floor(log10|v|) lies in [-308, 308], give or
# take the one-off correction.
_P_MIN, _P_MAX = -300, 330
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.int64)
# A float's slot: sign and "0.000"-style prefix, the first digit, the
# point slot, 16 more digits, the exponent text.
_HEAD = 6
_EXPONENT = 5
_FIELD = _HEAD + _DIGITS + 1 + _EXPONENT
_EXP_MIN = -330


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables, built on first use (a few ms) rather than at import.

    ``h1, h2, h3, g`` with ``10**p ~ (h1 + h2 + h3) * 2**g`` to 2**-104
    relative, ``h1`` in ``[1, 2)`` and ``h1``, ``h2`` of 26 bits, for
    ``p`` in ``[_P_MIN, _P_MAX]``; the four ASCII digits of 0..9999 as one
    ``uint32`` each, then the same with trailing zeros as NUL, then with
    leading zeros as NUL (but the last); "", "0.", ..., "0.000" and the
    same after "-"; the exponent texts of ``_EXP_MIN`` to 330, then "".
    Each head and exponent text is one ``uint64`` word, as it lies in the
    first and the last 8 bytes of a float's slot.
    """
    rows = []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            n = 10**p
            g = n.bit_length() - 1
            x = n << (105 - g) if g <= 105 else n >> (g - 105)
        else:
            d = 10**-p
            g = -d.bit_length()
            x = (1 << (105 - g)) // d
        # x = floor(10**p * 2**(105 - g)), in [2**105, 2**106).
        rows.append(
            (
                (x >> 80) * 2.0**-25,
                ((x >> 54) & ((1 << 26) - 1)) * 2.0**-51,
                float(x & ((1 << 54) - 1)) * 2.0**-105,
                g,
            )
        )
    h1, h2, h3, g = np.array(rows).T
    # Column by column, in small types: the build's transient memory
    # stays near the tables' own 120 KB.
    quads = np.empty((3, 10_000, 4), dtype=np.uint8)
    n = np.arange(10_000, dtype=np.int16)
    trailing = np.zeros(10_000, dtype=bool)
    leading = np.zeros(10_000, dtype=bool)
    for i, place in enumerate((1000, 100, 10, 1)):
        quads[0, :, i] = n // place % 10 + ord("0")
    for i in range(4):
        trailing |= quads[0, :, 3 - i] != ord("0")
        quads[1, :, 3 - i] = quads[0, :, 3 - i] * trailing
        leading |= (quads[0, :, i] != ord("0")) | (i == 3)
        quads[2, :, i] = quads[0, :, i] * leading
    prefixes = [""] + ["0." + "0" * i for i in range(4)]
    return (
        h1,
        h2,
        h3,
        g.astype(np.int64),
        quads.view(np.uint32).ravel(),
        _text_words(prefixes + ["-" + p for p in prefixes], 0),
        _text_words(
            [f"e{x:+03d}" for x in range(_EXP_MIN, 331)] + [""], 8 - _EXPONENT
        ),
    )


def _text_words(texts: list[str], start: int) -> np.ndarray:
    """The ASCII bytes of each text from byte ``start`` of an 8-byte word,
    NUL elsewhere, one ``uint64`` each."""
    data = b"".join((bytes(start) + text.encode()).ljust(8, b"\0") for text in texts)
    return np.frombuffer(data, dtype=np.uint64)


def _scaled(m: np.ndarray, q: np.ndarray, k: np.ndarray):
    """``floor(y)``, the fraction of ``y`` and ``v``'s half-ulp in units of
    ``y``, for ``y = m * 2**q * 10**(16 - k)``.  In place where it can be,
    as this step holds the most arrays at once."""
    row = 16 - _P_MIN - k
    h1, h2, h3, scale = (np.take(t, row) for t in _tables()[:4])
    del row
    # 2**(q + g) from its bits.
    scale += q
    scale += 1023
    scale <<= 52
    scale = scale.view(float)
    # m = mh + ml, of 26 and 27 significant bits: mh*h1, ml*h1, mh*h2 and
    # ml*h2 are exact, m*h3 < 2**(2 + q + g) is rounded.
    mh = (m & ~np.int64((1 << 27) - 1)).astype(float)
    mh *= scale
    ml = (m & np.int64((1 << 27) - 1)).astype(float)
    ml *= scale
    # v's half-ulp: half of 2**q * 10**p, here to 2**-51 relative.
    half_ulp = h1 + h2
    half_ulp *= scale
    half_ulp *= 0.5
    del scale
    # The integer parts (n, then w) and fractions of the exact products.
    t = mh * h1
    n = np.floor(t)
    frac = t - n
    w = np.zeros_like(t)
    for a, b in ((ml, h1), (mh, h2), (ml, h2)):
        np.multiply(a, b, out=t)
        whole = np.floor(t)
        w += whole
        frac += t - whole
    del h1, h2
    # The rounded one, m*h3 < 2**(2 + q + g).
    mh += ml
    mh *= h3
    frac += mh
    whole = np.floor(frac)
    frac -= whole
    # The integer parts but the first are below 2**40, so w is exact.
    w += whole
    n = n.astype(np.int64)
    n += w.astype(np.int64)
    return n, frac, half_ulp


def _decimal(v: np.ndarray, shortest: bool):
    """For finite nonzero normal ``v``: the 17-digit integer ``d`` and the
    exponent ``x`` with ``text(|v|) = d * 10**(x - 16)``, and the mask of
    elements the kernel cannot decide."""
    bits = v.view(np.int64)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    q = ((bits >> 52) & 0x7FF) - 1075
    k = np.floor(np.log10(np.abs(v))).astype(np.int64)
    n, frac, half_ulp = _scaled(m, q, k)
    # log10 rounds next to powers of ten: move k by one where y left
    # [1e16, 1e17).
    off = (n >= _POW10[17]).astype(np.int64) - (n < _POW10[16])
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] += off[fix]
        n[fix], frac[fix], half_ulp[fix] = _scaled(m[fix], q[fix], k[fix])
    if shortest:
        # Keep 17 - j digits for the largest j whose nearest multiple of
        # 10**j lies inside [y - half_ulp, y + half_ulp]; on its edge the
        # element is unsure, and whether the edge belongs (even m) is left
        # to Python.  j = 0 always does, as half_ulp > 0.55, and a j that
        # does implies every smaller one, so j counts, and its edge makes
        # the element unsure, only where every smaller j did (``kept``).
        # No j past 2 is tried: half_ulp = y/(2m) < 2**-53 * 1e17 < 11.1,
        # so a multiple of 10**j, j >= 3, inside the interval is also y's
        # nearest multiple of 100, and gives the same digits.
        step = np.ones_like(n)
        rem = np.zeros_like(n)
        unsure = np.zeros(v.shape, dtype=bool)
        kept = np.ones(v.shape, dtype=bool)
        for j in (1, 2):
            r = n % _POW10[j]
            gap = np.minimum(r + frac, (_POW10[j] - r) - frac)
            unsure |= kept & (np.abs(gap - half_ulp) < _SLACK)
            kept &= gap < half_ulp
            np.copyto(step, _POW10[j], where=kept)
            np.copyto(rem, r, where=kept)
        below = rem + frac
        above = (step - rem) - frac
        unsure |= np.abs(below - above) < _SLACK
        d = n - rem + np.where(above < below, step, 0)
    else:
        unsure = np.abs(frac - 0.5) < _SLACK
        d = n + (frac > 0.5)
    carry = d == _POW10[17]
    return np.where(carry, _POW10[16], d), k + carry, unsure


def _decompose(values: np.ndarray, shortest: bool):
    """The values as a contiguous float array ``v``; ``d`` and ``x`` of
    :func:`_decimal` for every element, 0 and 0 for zeros; and the mask
    of elements that Python must write."""
    v = np.ascontiguousarray(values, dtype=float)
    bits = v.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    mantissa = bits & ((1 << 52) - 1)
    python = (biased == 0x7FF) | ((biased == 0) & (mantissa != 0))
    if shortest:
        python |= (mantissa == 0) & (biased != 0)
    regular = ~python & (biased != 0)
    del biased, mantissa
    if regular.all():
        # The usual column, every value one the kernel writes: no gather
        # and no scatter.
        d, exponent, python = _decimal(v, shortest)
        return v, d, exponent.astype(np.int16), python
    regular = np.flatnonzero(regular)
    digits, exponent, unsure = _decimal(v[regular], shortest)
    d = np.zeros(v.size, dtype=np.int64)
    x = np.zeros(v.size, dtype=np.int16)
    d[regular], x[regular] = digits, exponent
    python[regular[unsure]] = True
    return v, d, x, python


def _write_floats(cell: np.ndarray, decomposed, shortest: bool) -> None:
    """Write the text of each value of :func:`_decompose` into its row of
    the ``_FIELD``-wide ``cell``, NUL where it has no character."""
    v, d, x, python = decomposed

    # Digits before the point: x + 1 in fixed notation ("0.00" prefix
    # instead when x < 0), 1 in scientific notation.
    fixed = (x >= -4) & (x < (16 if shortest else 17))
    whole = np.where(fixed, np.where(x >= 0, x + 1, 0), 1)
    # The first digit, the point slot, then 16 digits in groups of four.
    # Trailing zeros of d are NUL, but not among the first ``need`` digits:
    # the integer part and repr's ".0".
    need = np.where(fixed & (x >= 0), whole + shortest, 1)
    *_, quads, heads, exponents = _tables()
    # The exponent and head texts, one 8-byte store each: the exponent's
    # word reaches back over the last three digit slots and the head's
    # over the first two, and the digits, written after them, fill those.
    cell[:, _FIELD - 8 :].view(np.uint64)[:, 0] = np.take(
        exponents, np.where(fixed, len(exponents) - 1, x - _EXP_MIN)
    )
    cell[:, :8].view(np.uint64)[:, 0] = np.take(
        heads, np.where(fixed & (x < 0), -x, 0) + 5 * np.signbit(v)
    )
    digits = cell[:, _HEAD : _HEAD + _DIGITS + 1]
    rest = d
    trailing = np.ones(v.size, dtype=bool)
    for col in range(_DIGITS - 3, 1, -4):
        head = rest // 10_000
        group = rest - head * 10_000
        # The group holds digits col - 1 to col + 2.  Its trailing zeros
        # are NUL if every later group is zero, unless all are needed;
        # where only some are, the first need - col + 1 digits are kept.
        blank = trailing & (need < col + 3)
        words = digits[:, col : col + 4].view(np.uint32)[:, 0]
        words[:] = np.take(quads, group + 10_000 * blank)
        part = np.flatnonzero(blank & (need >= col))
        if part.size:
            keep = (np.uint32(1) << (8 * (need[part] - col + 1)).astype(np.uint32)) - 1
            words[part] = np.take(quads, group[part]) & keep | words[part] & ~keep
        trailing &= group == 0
        rest = head
    digits[:, 0] = rest + 48
    digits[:, 1] = np.where((whole == 1) & (digits[:, 2] != 0), ord("."), 0)
    # With more than one integer digit the point moves right.
    rows = np.flatnonzero(whole > 1)
    if rows.size:
        w = whole[rows][:, None]
        sub = digits[rows]
        cols = np.arange(1, _DIGITS + 1)
        moved = np.take_along_axis(sub, np.where(cols < w, cols + 1, cols), axis=1)
        fraction = np.take_along_axis(sub, np.minimum(w + 1, _DIGITS), axis=1)
        moved[cols == w] = np.where((w < _DIGITS) & (fraction != 0), ord("."), 0)[:, 0]
        sub[:, 1:] = moved
        digits[rows] = sub
    for i in np.flatnonzero(python).tolist():
        value = float(v[i])
        text = (json.dumps(value) if shortest else "%.17g" % value).encode()
        cell[i] = 0
        cell[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)


def _int_width(values: np.ndarray) -> int:
    """Slot width of an integer column: a sign, then groups of four digits."""
    top = int(np.abs(values).max()) if values.size else 0
    return 1 + 4 * -(-len(str(top)) // 4)


def _write_ints(cell: np.ndarray, values: np.ndarray) -> None:
    """Write ``'%d'`` of each integer into its row of ``cell``: the sign,
    then the digits right-aligned, NUL for the leading zeros."""
    v = np.asarray(values, dtype=np.int64)
    quads = _tables()[4]
    cell[:, 0] = np.where(v < 0, ord("-"), 0)
    words = cell[:, 1:].view(np.uint32)
    groups = words.shape[1]
    rest = np.abs(v)
    for col in range(groups - 1, -1, -1):
        head = rest // 10_000
        group = rest - head * 10_000
        # All four digits, the leading ones only, or none: digits
        # past the number's first are NUL, but a lone zero.
        block = np.where(head != 0, 0, np.where((rest != 0) | (col == groups - 1), 2, 1))
        words[:, col] = np.take(quads, group + 10_000 * block)
        rest = head


def render_rows(
    pieces: list[str], columns: list[np.ndarray], shortest: bool
) -> Iterator[np.ndarray]:
    """Yield the ASCII text of the rows ``pieces[0] + text(columns[0][i])
    + pieces[1] + ... + pieces[-1]`` as ``uint8`` arrays of at most
    ``_ROW_BLOCK`` rows each, nothing for an empty table.

    Integer columns are written as ``'%d'``, float columns as
    ``json.dumps`` if ``shortest`` else as ``'%.17g'``.
    """
    literals = [piece.encode() for piece in pieces]
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = [c[start : start + _ROW_BLOCK] for c in columns]
        ints = [c.dtype.kind in "iu" for c in block]
        widths = [_int_width(c) if i else _FIELD for c, i in zip(block, ints)]
        # Floats are decomposed before the slot matrix is made: these are
        # the two largest working sets.
        fields = [c if i else _decompose(c, shortest) for c, i in zip(block, ints)]
        # One row of literal text with NUL cells, copied to every row.
        template = b"".join(
            literal + bytes(width) for literal, width in zip(literals, [*widths, 0])
        )
        slots = np.empty((len(block[0]), len(template)), dtype=np.uint8)
        slots[:] = np.frombuffer(template, dtype=np.uint8)
        col = 0
        for field, is_int, width, literal in zip(fields, ints, widths, literals):
            col += len(literal)
            cell = slots[:, col : col + width]
            if is_int:
                _write_ints(cell, field)
            else:
                _write_floats(cell, field, shortest)
            col += width
        del fields
        # Drop the NULs in place, a slice at a time: the kept bytes of a
        # slice never reach past it.
        flat = slots.ravel()
        end = 0
        for lo in range(0, flat.size, _COMPACT_SLICE):
            kept = flat[lo : lo + _COMPACT_SLICE]
            kept = kept[kept != 0]
            flat[end : end + kept.size] = kept
            end += kept.size
        yield flat[:end]
