"""Rows of doubles as CSV text, byte for byte as ``'%.17g' % x`` writes each.

CPython prints a double to 17 digits with bignum arithmetic, about 0.5 us a
number. Here every cell of a table is formatted at once with numpy:
format_rows turns one table into text, and write_columns writes a run's
columns to a file, BLOCK_CELLS cells at a time.

Digits. A nonzero |x| with decimal exponent k = floor(log10 |x|) has the
17 digits N = round(|x| 10^(16-k)), an integer in [10^16, 10^17). 10^p is
kept as a pair of doubles hi + lo, rounded from exact Python ints. |x| hi
is formed error-free (Veltkamp split and Dekker product), and |x| lo is
added to its low part, so the product is known to about 1e-14. In
[10^16, 10^17) the high part is an integer-valued double, and N is that
integer plus the rounded low part.

Rendering. A cell is laid out in one fixed row of six 8-byte words that
holds every byte any layout could show, in order: a sign, the "0.000" of
1e-4 <= |x| < 0.1, the 17 digits with a slot for a point after each, an
exponent and a separator. The cell's layout (positional for -4 <= k <= 16,
scientific otherwise, with its exponent) fills the fixed bytes from a
table, and a positional row holds a '0' at each digit before the point.
The sign and first digit, then the other 16 digits four at a time, are
OR-ed into the row as words from tables of ASCII bytes; the last quad with
a nonzero digit stops there. Bytes that '%.17g' does not print, such as the
sign of a positive number and the unused point slots, stay zero, and
dropping every zero byte joins the cells.

Fallback. A cell the fast path cannot decide is printed by '%.17g' itself:
inf and NaN, |k| > K_MAX (|x| below about 1e-284, subnormals included, or
from 1e285 up), a low part within FORMAT_TIE_TOL of a rounding tie, and a k
that log10 got wrong by one next to a power of ten (then
floor(|x| 10^(16-k)) < 10^16 or N >= 10^17).

Memory. Every working array of a table lives in a per-thread scratch set
that grows to the largest table the thread has formatted and is kept for
the life of the process. write_columns copies the run's rows into it one
block of BLOCK_CELLS cells at a time (about 1 MB of scratch for the evolve
CSV's 512 x 6 cells), so a run of any length adds no copy of its own
columns. Every step writes into the scratch with ``out=``, so a table
allocates only its output: the bytes of its cells and the text joined from
them, _TEXT_CELLS cells at a time. Arrays freed after each block would
leave the top of the C heap free, the allocator would return those pages
to the system, and the next block would fault them back in, one minor page
fault each.

The tables are built when this module is imported, on the first write.
"""

from __future__ import annotations

import threading

import numpy as np

from .tolerances import FORMAT_TIE_TOL

# The fast path's range of k, the largest at which both Veltkamp splits stay
# finite: 10^(16 + K_MAX) (2^27 + 1), the largest product a split forms, is
# 1.3e308, and the split of |x| < 10^(K_MAX + 1) forms less. Every Dekker
# partial product and every remainder of the table is then a normal double.
K_MAX = 284

# A cell's row: sign, "0.000", digit j at 6 + 2j with a point slot after it
# at 7 + 2j ("e" after digit 16, which no point follows), exponent sign,
# two or three exponent digits, separator, and zeros to a whole number of
# 8-byte words. Word 0 holds the sign and the first digit, word 1 + j digits
# 4j + 1 ... 4j + 4 and their point slots.
_SIGN, _DIGITS, _E, _SEPARATOR, _WIDTH = 0, 6, 39, 44, 48
# Layouts 0..20 are positional, k + 4; layout _SCIENTIFIC + K_MAX + k is
# scientific with the exponent k.
_SCIENTIFIC = 21
# Cells whose bytes are copied and joined at a time: 48 KiB, so that every
# copy freed stays below 64 KiB, the size of a free() after which glibc
# may return the top of its heap to the system.
_TEXT_CELLS = 1024


def _split(a, hi, lo):
    """Veltkamp: a = hi + lo, each of at most 26 significant bits."""
    np.multiply(a, 134217729.0, out=lo)  # c = a (2**27 + 1)
    np.subtract(lo, np.subtract(lo, a, out=hi), out=hi)  # c - (c - a)
    np.subtract(a, hi, out=lo)
    return hi, lo


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
    return (hi, *_split(hi, np.empty_like(hi), np.empty_like(hi)), np.array(lo))


def _layout_rows():
    """The fixed bytes of each layout's row.

    A positional row with k >= 1 has '0' at digits 1..k, which the digits
    are OR-ed into, so that whole digits show where they are trailing zeros.
    """
    rows = np.zeros((_SCIENTIFIC + 2 * K_MAX + 1, _WIDTH), dtype=np.uint8)
    for k in range(-4, 0):
        prefix = b"0." + b"0" * (-k - 1)
        rows[k + 4, 1:1 + len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    for k in range(1, 17):
        rows[k + 4, _DIGITS + 2:_DIGITS + 2 + 2 * k:2] = ord("0")
    exponents = np.array([b"e%+03d" % k for k in range(-K_MAX, K_MAX + 1)], dtype="S5")
    rows[_SCIENTIFIC:, _E:_SEPARATOR] = exponents.view(np.uint8).reshape(-1, 5)
    rows[:, _SEPARATOR] = ord(",")
    return rows


def _digit_tables():
    """Word 0 of each sign and first digit, and the words of each quad.

    Lead: at d + 10 s, the first digit d, after a '-' if s is 1.
    Quads: at q, the four ASCII digits of q, 0000..9999, in the digit
    places of a word; at q + 10000 the same up to the last nonzero digit
    of q (nothing for q = 0).
    """
    lead = np.zeros((20, 8), dtype=np.uint8)
    lead[10:, _SIGN] = ord("-")
    lead[:, _DIGITS] = 48 + np.arange(20) % 10
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    quads = np.zeros((2, 10000, 8), dtype=np.uint8)
    kept = np.zeros(10000, dtype=bool)
    for m in (3, 2, 1, 0):
        kept |= digits[m] != 0
        quads[0, :, 2 * m] = 48 + digits[m]
        quads[1, :, 2 * m] = quads[0, :, 2 * m] * kept
    return lead.view(np.uint64).ravel(), quads.view(np.uint64).ravel()


_P_HI, _P_HI_HI, _P_HI_LO, _P_LO = _powers()
_ROWS = _layout_rows()
_LEAD, _QUADS = _digit_tables()


def _divmod(a, d, q, r):
    """a // d into q and a % d into r; neither q nor r may be a.

    Integer-exact, and faster than np.divmod: numpy divides by the constant
    with a multiply and a shift (libdivide).
    """
    np.floor_divide(a, d, out=q)
    np.subtract(a, np.multiply(q, d, out=r), out=r)
    return q, r


# The cells write_columns copies and formats at a time: 512 rows of the
# evolve CSV's six columns. The scratch grows to one block (about 1 MB) and
# is kept, so that later blocks allocate only their text. Smaller blocks pay
# format_rows' fixed cost per call more often: 256 rows are about 20 %
# slower per row.
BLOCK_CELLS = 512 * 6


class _Scratch(threading.local):
    """One thread's working arrays, grown to the most cells it has formatted."""

    size = 0

    def grow(self, n: int) -> None:
        if n > self.size:
            self.table = np.empty(n)
            self.floats = np.empty((7, n))
            self.ints = np.empty((8, n), dtype=np.int64)
            self.flags = np.empty((5, n), dtype=bool)
            self.quads = np.empty((2, 4, n), dtype=np.int64)
            self.cut = np.empty((4, n), dtype=bool)
            self.words = np.empty((5, n), dtype=np.uint64)
            self.points = np.empty(n, dtype=np.uint8)
            # Where the point slot after the first digit of each cell lies.
            self.slots = np.arange(_DIGITS + 1, n * _WIDTH, _WIDTH)
            self.cells = np.empty(n * _WIDTH, dtype=np.uint8)
            self.size = n

    def block(self, rows: int, cols: int) -> np.ndarray:
        """A rows x cols table of doubles for write_columns to fill."""
        self.grow(rows * cols)
        return self.table[:rows * cols].reshape(rows, cols)

    def views(self, n: int):
        """The first n cells of every working array but the table."""
        self.grow(n)
        return (
            self.floats[:, :n], self.ints[:, :n], self.flags[:, :n], self.quads[:, :, :n],
            self.cut[:, :n], self.words[:, :n], self.points[:n], self.slots[:n],
            self.cells[:n * _WIDTH].reshape(n, _WIDTH),
        )


_SCRATCH = _Scratch()


def format_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-d float table as CSV lines of '%.17g' cells."""
    rows, cols = table.shape
    x = np.ascontiguousarray(table, dtype=float).ravel()
    n = x.size
    floats, ints, flags, (quads, index), cut, words, points, slots, cells = _SCRATCH.views(n)
    a, kf, a_hi, a_lo, ph, r, t = floats
    k, i, floor_n, n17, layout, whole, top, spot = ints
    zero, fast, ok, scientific, flag = flags

    np.abs(x, out=a)
    np.equal(a, 0.0, out=zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(a, out=kf)
    np.floor(kf, out=kf)
    np.less_equal(np.abs(kf, out=t), K_MAX, out=fast)  # False for zero, inf and NaN
    np.logical_not(fast, out=flag)
    np.copyto(kf, 0.0, where=flag)
    np.copyto(a, 0.0, where=flag)
    np.copyto(k, kf, casting="unsafe")

    # N = round(a 10^(16-k)) from ph + r, ph = fl(a hi) integer-valued:
    # r = ((a_hi b_hi - ph) + a_hi b_lo + a_lo b_hi) + a_lo b_lo + a lo.
    # Every take's indices are in range; its default mode="raise" would
    # copy `out` through a new array.
    np.add(k, K_MAX, out=i)
    _split(a, a_hi, a_lo)
    np.multiply(a, _P_HI.take(i, out=t, mode="clip"), out=ph)
    b_hi = _P_HI_HI.take(i, out=t, mode="clip")
    np.subtract(np.multiply(a_hi, b_hi, out=r), ph, out=r)
    b_lo = _P_HI_LO.take(i, out=kf, mode="clip")
    np.add(r, np.multiply(a_hi, b_lo, out=a_hi), out=r)
    np.add(r, np.multiply(a_lo, b_hi, out=t), out=r)
    np.add(r, np.multiply(a_lo, b_lo, out=a_lo), out=r)
    np.add(r, np.multiply(a, _P_LO.take(i, out=t, mode="clip"), out=t), out=r)
    floor_r = np.floor(r, out=t)
    frac = np.subtract(r, floor_r, out=r)
    np.copyto(floor_n, ph, casting="unsafe")
    np.copyto(n17, floor_r, casting="unsafe")
    np.add(floor_n, n17, out=floor_n)
    np.add(floor_n, np.greater(frac, 0.5, out=flag), out=n17)
    # Decided: floor_n >= 10^16, n17 < 10^17 and |frac - 1/2| >= the tie
    # tolerance, or zero.
    np.greater_equal(floor_n, 10**16, out=ok)
    np.logical_and(ok, np.less(n17, 10**17, out=flag), out=ok)
    np.abs(np.subtract(frac, 0.5, out=frac), out=frac)
    np.logical_and(ok, np.greater_equal(frac, FORMAT_TIE_TOL, out=flag), out=ok)
    np.logical_or(np.logical_and(ok, fast, out=ok), zero, out=ok)
    undecided = np.logical_not(ok, out=flag)
    fallback = np.flatnonzero(undecided)
    np.copyto(n17, 0, where=zero)  # shown as the one digit 0
    np.copyto(n17, 10**16, where=undecided)

    np.logical_or(np.less(k, -4, out=scientific), np.greater(k, 16, out=flag), out=scientific)
    np.multiply(scientific, _SCIENTIFIC + K_MAX - 4, out=spot)
    np.add(np.add(k, 4, out=layout), spot, out=layout)
    # The place of the last digit before the point.
    np.copyto(np.maximum(k, 0, out=whole), 0, where=scientific)
    _ROWS.take(layout, axis=0, out=cells, mode="clip")
    cells.reshape(rows, cols, _WIDTH)[:, -1, _SEPARATOR] = ord("\n")

    # The first digit and the sign, then the 16 digits after the first in
    # quads, each up to its last nonzero digit where no later quad has one.
    rest = _divmod(n17, 10**16, top, i)[1]
    np.add(top, np.multiply(np.signbit(x, out=flag), 10, out=spot), out=spot)
    _LEAD.take(spot, out=words[0], mode="clip")
    high, low = _divmod(rest, 10**8, floor_n, spot)
    _divmod(high, 10**4, quads[0], quads[1])
    _divmod(low, 10**4, quads[2], quads[3])
    cut[3] = True
    for j in (2, 1, 0):
        np.logical_and(cut[j + 1], np.equal(quads[j + 1], 0, out=cut[j]), out=cut[j])
    np.add(quads, np.multiply(cut, 10000, out=index), out=index)
    _QUADS.take(index, out=words[1:], mode="clip")
    cell_words = cells.view(np.uint64)
    for j, word in enumerate(words):
        np.bitwise_or(cell_words[:, j], word, out=cell_words[:, j])
    # A point follows digit `whole` where the digit after it shows.
    flat = cells.reshape(-1)
    np.add(slots, np.multiply(whole, 2, out=spot), out=spot)
    np.not_equal(flat.take(np.add(spot, 1, out=floor_n), out=points, mode="clip"), 0, out=flag)
    np.logical_and(flag, np.greater_equal(layout, 4, out=ok), out=flag)
    flat[spot] = np.multiply(flag, np.uint8(ord(".")), out=points)

    text = np.array(["%.17g" % v for v in x[fallback].tolist()], dtype=f"S{_SEPARATOR}")
    cells[fallback, :_SEPARATOR] = text.view(np.uint8).reshape(-1, _SEPARATOR)
    pieces = range(0, n, _TEXT_CELLS)
    return b"".join([cells[s:s + _TEXT_CELLS].tobytes().translate(None, b"\0") for s in pieces])


def write_columns(fh, *columns) -> None:
    """Write side-by-side columns to the binary file fh as CSV rows.

    Each column is 1-d, or 2-d for several; all have the same length. The
    rows are copied into the scratch BLOCK_CELLS cells at a time, with -0.0
    made 0.0 as the CLI prints it, and each block is written as format_rows
    renders it.
    """
    parts = [np.reshape(column, (len(column), -1)) for column in columns]
    cols = sum(part.shape[1] for part in parts)
    step = BLOCK_CELLS // cols
    for start in range(0, len(parts[0]), step):
        pieces = [part[start:start + step] for part in parts]
        block = _SCRATCH.block(len(pieces[0]), cols)
        np.concatenate(pieces, axis=1, out=block)
        # Adding 0.0 turns -0.0 into 0.0.
        fh.write(format_rows(np.add(block, 0.0, out=block)))
