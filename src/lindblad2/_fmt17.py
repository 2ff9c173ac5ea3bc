"""Rows of doubles as CSV text, byte for byte as ``'%.17g' % x`` writes each.

CPython prints a double to 17 digits with bignum arithmetic, about 0.5 us a
number. Here every cell of a table is formatted at once with numpy.

Digits. A nonzero |x| with decimal exponent k = floor(log10 |x|) has the
17 digits N = round(|x| 10^(16-k)), an integer in [10^16, 10^17). 10^p is
kept as a pair of doubles hi + lo, rounded from exact Python ints. |x| hi
is formed error-free (Veltkamp split and Dekker product), and |x| lo is
added to its low part, so the product is known to about 1e-14. In
[10^16, 10^17) the high part is an integer-valued double, and N is that
integer plus the rounded low part.

Rendering. A cell is laid out in one fixed row that holds every byte any
layout could show, in order: a sign, the "0.000" of 1e-4 <= |x| < 0.1, the
17 digits with a slot for a point after each, an exponent and a separator.
The cell's layout (positional for -4 <= k <= 16, scientific otherwise)
fills the fixed bytes from a table. The digits come four at a time from a
table of ASCII bytes, and their trailing zeros are stripped. Bytes that
'%.17g' does not print, such as the sign of a positive number and the
unused point slots, stay zero, and dropping every zero byte joins the cells.

Fallback. A cell the fast path cannot decide is printed by '%.17g' itself:
inf and NaN, |k| > K_MAX, a low part within FORMAT_TIE_TOL of a rounding tie,
and a k that log10 got wrong by one next to a power of ten (then
floor(|x| 10^(16-k)) < 10^16 or N >= 10^17).

The tables are built when this module is imported, on the first write.
"""

from __future__ import annotations

import numpy as np

from .tolerances import FORMAT_TIE_TOL

# The fast path's range of k: it keeps the exponent at two digits and the
# table of powers quick to build (far inside the range where a Veltkamp
# split could overflow).
K_MAX = 99

# A cell's row: sign, "0.000", digit j at 6 + 2j with a point slot after it
# at 7 + 2j, "e", exponent sign, two exponent digits, separator.
_SIGN, _DIGITS, _E, _SEPARATOR = 0, 6, 39, 43
_SCIENTIFIC = 21  # layouts 0..20 are positional, k + 4


def _split(a):
    """Veltkamp: a = hi + lo, each of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _powers():
    """10^(16-k) for k in [-K_MAX, K_MAX]: hi, its Veltkamp split, lo.

    hi is 10^(16-k) rounded and lo the remainder 10^(16-k) - hi rounded,
    both from exact Python integers.
    """
    hi, lo = [], []
    for p in range(16 + K_MAX, 15 - K_MAX, -1):
        if p >= 0:
            exact = 10**p
            h = float(exact)
            low = float(exact - int(h))
        else:
            q = 10**-p
            h = 1 / q
            num, den = h.as_integer_ratio()
            low = (den - num * q) / (den * q)
        hi.append(h)
        lo.append(low)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _layout_rows():
    """The fixed bytes of each layout's row."""
    rows = np.zeros((_SCIENTIFIC + 1, _SEPARATOR + 1), dtype=np.uint8)
    for k in range(-4, 0):
        prefix = b"0." + b"0" * (-k - 1)
        rows[k + 4, 1:1 + len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    rows[_SCIENTIFIC, _E] = ord("e")
    rows[:, _SEPARATOR] = ord(",")
    return rows


_P_HI, _P_HI_HI, _P_HI_LO, _P_LO = _powers()
_ROWS = _layout_rows()
# The ASCII digits of 0000..9999, four bytes read as one uint32.
_QUADS = (48 + np.indices((10,) * 4).reshape(4, -1).T).astype(np.uint8, order="C")
_QUADS = _QUADS.view(np.uint32).ravel()
# Row w: '0' at the first w of 16 places, OR-ed into the digits so that the
# whole digits of a positional cell show where they are trailing zeros.
_WHOLE = (48 * (np.arange(16) < np.arange(17)[:, None])).astype(np.uint8)
# "+kk" and "-kk" for k in [-K_MAX, K_MAX].
_EXPONENTS = np.array([b"%+03d" % k for k in range(-K_MAX, K_MAX + 1)], dtype="S3")
_EXPONENTS = _EXPONENTS.view(np.uint8).reshape(-1, 3)


def format_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-d float table as CSV lines of '%.17g' cells."""
    rows, cols = table.shape
    x = np.ascontiguousarray(table, dtype=float).ravel()
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    fast = np.abs(k) <= K_MAX  # False for zero, inf and NaN
    k = np.where(fast, k, 0.0).astype(np.intp)
    a = np.where(fast, a, 0.0)

    # N = round(a 10^(16-k)) from ph + r, ph = fl(a hi) integer-valued.
    i = k + K_MAX
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _P_HI_HI[i], _P_HI_LO[i]
    ph = a * _P_HI[i]
    r = ((a_hi * b_hi - ph) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * _P_LO[i]
    floor_r = np.floor(r)
    frac = r - floor_r
    floor_n = ph.astype(np.int64) + floor_r.astype(np.int64)
    n17 = floor_n + (frac > 0.5)
    decided = (floor_n >= 10**16) & (n17 < 10**17) & (np.abs(frac - 0.5) >= FORMAT_TIE_TOL)
    fallback = np.flatnonzero(~(zero | (fast & decided)))
    n17[zero] = 0  # shown as the one digit 0
    n17[fallback] = 10**16

    scientific = (k < -4) | (k > 16)
    layout = np.where(scientific, _SCIENTIFIC, k + 4)
    # The place of the last digit before the point.
    whole = np.where(scientific | (k < 0), 0, k)
    out = _ROWS.take(layout.reshape(rows, cols), axis=0)
    out[:, -1, _SEPARATOR] = ord("\n")
    cells = out.reshape(n, _SEPARATOR + 1)
    cells[:, _SIGN] = np.signbit(x) * ord("-")

    top, rest = np.divmod(n17, 10**16)
    high, low = np.divmod(rest, 10**8)
    quads = np.empty((n, 4), dtype=np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10**4)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10**4)
    # The 16 digits after the first, without trailing zeros.
    tail = np.char.rstrip(_QUADS[quads].view("S16").ravel(), b"0").astype("S16", copy=False)
    shown = np.char.str_len(tail)
    cells[:, _DIGITS] = 48 + top
    cells[:, _DIGITS + 2:_E:2] = tail.view(np.uint8).reshape(n, 16)
    short = np.flatnonzero(shown < whole)
    cells[short, _DIGITS + 2:_E:2] |= _WHOLE[whole[short]]
    point = (shown > whole) & (layout >= 4)
    cells.ravel()[np.arange(_DIGITS + 1, out.size, _SEPARATOR + 1) + 2 * whole] = point * ord(".")
    sci = np.flatnonzero(scientific)
    cells[sci, _E + 1:_SEPARATOR] = _EXPONENTS[k[sci] + K_MAX]

    text = np.array(["%.17g" % v for v in x[fallback].tolist()], dtype=f"S{_SEPARATOR}")
    cells[fallback, :_SEPARATOR] = text.view(np.uint8).reshape(-1, _SEPARATOR)
    return out.tobytes().translate(None, b"\0")
