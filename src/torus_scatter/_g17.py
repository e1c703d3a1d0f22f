"""Exact vectorised ``%.17g``: the float fields of the ``traj`` and ``ep`` CSV.

For x = m 2^e (m < 2^53) with 10^d <= |x| < 10^(d+1), ``%.17g`` prints the
17 digits of N = round-half-even(|x| 10^(16 - d)), an integer in [10^16,
10^17), laid out by the ``%g`` rules: fixed notation for -4 <= d < 17, else
d.dddde-XX, with trailing zeros and a bare point dropped.  N is formed
exactly in uint64 arithmetic from m 5^q 2^(e + q), q = 16 - d; ``np.log10``
only estimates d, and a product outside [10^16, 10^17) moves it by one.

``into`` writes the bytes ``'%.17g' % x`` writes, for zero and magnitudes
in [1e-11, 1e17) (``covers``); ``csv_rows`` lays out CSV rows of such values
in one byte matrix.  ``cli`` imports this module only when it writes a CSV.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["LOW", "HIGH", "WIDTH", "covers", "into", "digits", "tables", "csv_rows"]

#: The magnitudes the formatter writes.  Their d runs over [-12, 16] (the float
#: 1e-11 is below 10^-11), so q = 16 - d is at most 28.  Zero is written
#: directly; any other value goes through its row's ``%`` template.
LOW, HIGH = 1e-11, 1e17
_D_MIN, _D_MAX = -12, 16
_MASK32 = 0xFFFFFFFF
#: 5^q = _FIVE_SMALL[q] * 5^min(q, 27), the second below 2^63 and stored as
#: its high and low 32-bit halves, _FIVE_HIGH[q] and _FIVE_LOW[q], for q <= 28.
_FIVE_SMALL = np.array([5 ** max(q - 27, 0) for q in range(29)], dtype=np.uint64)
_FIVE_HIGH, _FIVE_LOW = (
    np.array([5 ** min(q, 27) >> shift & _MASK32 for q in range(29)], dtype=np.uint64)
    for shift in (32, 0)
)


def _scaled(m, e, q):
    """(floor, rounds up) of m 2^e 10^q, exactly, for uint64 m < 2^53 and int64
    q in [0, 28] where the floor is in [10^15, 10^18): the floor as uint64,
    and whether round-half-even rounds it up.

    m 5^q has at most 119 bits: m 5^(q - 27) (at most 56 bits) times
    5^min(q, 27) (at most 63 bits), multiplied in 32-bit halves into a high
    and a low word.  It is shifted right by s = -(e + q) <= 63 bits, rounding
    on the bits dropped; where s <= 0 (x >= 2^53) the floor is m 5^q 2^-s.
    """
    mm = m * _FIVE_SMALL[q]
    f_hi, f_lo = _FIVE_HIGH[q], _FIVE_LOW[q]
    m_hi, m_lo = mm >> 32, mm & _MASK32
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo + (low >> 32)
    lo = (mid << 32) | (low & _MASK32)
    hi = m_hi * f_hi + (mid >> 32)
    s = -(e + q)
    r = np.maximum(s, 1).astype(np.uint64)
    n = (hi << (64 - r)) | (lo >> r)
    # Above half, or at half with n odd: (dropped + (n & 1)) > half.
    up = (lo & ((np.uint64(1) << r) - 1)) + (n & 1) > (np.uint64(1) << (r - 1))
    whole = s <= 0
    if whole.any():
        n[whole] = lo[whole] << (-s[whole]).astype(np.uint64)
        up[whole] = False
    return n, up


def digits(ax, estimate):
    """(N, d) for float64 magnitudes ``ax`` in [1e-11, 1e17): the exponent d of
    each value's %.17g and the 17-digit integer N of its digits.

    ``estimate`` is an array within one of d = floor(log10 ax); where the
    floor of ax 10^(16 - estimate) is outside [10^16, 10^17), it moves by one
    to d.  No double in the range rounds up to 10^17 at its d: the largest
    double below each power of ten is more than half a unit of the 17th digit
    below it.
    """
    frac, exp2 = np.frexp(ax)
    m = (frac * 2.0**53).astype(np.uint64)
    e = exp2.astype(np.int64) - 53
    d = np.minimum(np.maximum(estimate, _D_MIN), _D_MAX).astype(np.int64)
    n, up = _scaled(m, e, 16 - d)
    low, high = n < 10**16, n >= 10**17
    moved = low | high
    if moved.any():
        d[moved] += high[moved].astype(np.int64) - low[moved]
        n[moved], up[moved] = _scaled(m[moved], e[moved], 16 - d[moved])
    return n + up, d


#: Each value's source row of 9 words: the digit t of N = t 10^16 + g as the
#: last byte of the first word, g's four groups of four digits, then this
#: alphabet; every byte a layout does not name is NUL.
_ALPHABET = b"-.e0123456789\0\0\0"
_SOURCE = 36
#: The widest field: -0.000ddddddddddddddddd and -d.dddddddddddddddde-12.
WIDTH = 23


@functools.cache
def tables() -> tuple:
    """The formatter's tables, built on first use (``cli._csv_blocks``
    builds them before a stripe forks):

    - the text of each (sign, exponent, significant digits) as positions in
      a value's source row, NUL-padded to ``WIDTH``, at row
      (neg * 30 + slot) * 17 + sig - 1, slot d + 12 for d in [-12, 16] and
      29 for zero;
    - ASCII "0000" to "9999" as little-endian 32-bit words;
    - the trailing zero digits of each group of four, 4 for 0000.
    """
    at = {c: 20 + k for k, c in enumerate("-.e0123456789")}
    digit = list(range(3, 20))
    layouts = np.zeros((2, 30, 17, WIDTH), dtype=np.uint8)
    for neg in (0, 1):
        for slot in range(30):
            d = slot + _D_MIN
            for sig in range(1, 18):
                if slot == 29:
                    body = [at["0"]]
                elif d >= 0:
                    body = digit[: d + 1] + ([at["."]] + digit[d + 1:sig] if sig > d + 1 else [])
                elif d >= -4:
                    body = [at["0"], at["."]] + [at["0"]] * (-d - 1) + digit[:sig]
                else:
                    body = digit[:1] + ([at["."]] + digit[1:sig] if sig > 1 else [])
                    body += [at["e"], at["-"]] + [at[c] for c in "%02d" % -d]
                text = [at["-"]] * neg + body
                layouts[neg, slot, sig - 1, : len(text)] = text
    decimal = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    four = (decimal + ord("0")).astype(np.uint8).view("<u4").ravel()
    trailing = np.cumprod(decimal[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.uint8)
    return layouts.reshape(-1, WIDTH), four, trailing


def covers(x) -> np.ndarray:
    """Where a float64 of ``x`` is one ``into`` writes: zero, or of a
    magnitude in [1e-11, 1e17)."""
    ax = np.abs(x)
    return (ax == 0) | ((ax >= LOW) & (ax < HIGH))


def into(x, out) -> np.ndarray:
    """Write ``'%.17g' % v`` of each float64 v of the 1-D array ``x`` that
    ``covers`` into its row of the uint8 array ``out`` (len(x),
    ``WIDTH``), left-aligned and NUL-padded; the row of any other value
    is all NUL.  Returns where those other values are."""
    other = ~covers(x)
    ax = np.abs(x)
    zero = ax == 0
    ax[zero | other] = 1.0
    n, d = digits(ax, np.floor(np.log10(ax)))
    # N = t 10^16 + g, g as four groups of four digits, most significant first.
    upper = n // 10**8
    top = upper // 10**8
    halves = np.stack([upper - top * 10**8, n - upper * 10**8], axis=1).astype(np.uint32)
    groups = np.empty((len(x), 4), dtype=np.uint32)
    groups[:, 0::2] = halves // 10000
    groups[:, 1::2] = halves - groups[:, 0::2] * 10000
    layouts, four, trailing = tables()
    source = np.empty((len(x), _SOURCE // 4), dtype="<u4")
    source[:, 0] = (top.astype(np.uint32) + ord("0")) << 24
    source[:, 1:5] = four[groups]
    source[:, 5:] = np.frombuffer(_ALPHABET, dtype="<u4")
    # The trailing zeros of g: those of its last group, then those of each
    # group before a 0000, read only where there is such a group.
    zeros = trailing[groups[:, 3]]
    tail = np.flatnonzero(zeros == 4)
    for k in (2, 1, 0):
        more = trailing[groups[tail, k]]
        zeros[tail] += more
        tail = tail[more == 4]
    slot = np.where(zero, 29, d - _D_MIN)
    index = (np.arange(len(x)) * _SOURCE)[:, None] + layouts[
        (np.signbit(x) * 30 + slot) * 17 + 16 - zeros
    ]
    out[...] = source.view(np.uint8).ravel()[index]
    out[other] = 0
    return other


def csv_rows(xs, blank, texts) -> str:
    """CSV rows of the float columns ``xs`` (one row of the 2-D array per
    column, each value one ``covers``), then of the ASCII string columns
    ``texts`` (str arrays), with the float fields where ``blank`` (rows x
    float columns) is set left empty.

    The rows are laid out in one byte matrix, one NUL-padded slot per field,
    the floats written by ``into`` one column at a time, and the matrix
    is compressed once by dropping the NULs.
    """
    stride = WIDTH + 1
    # A str array holds each character as one UCS-4 word; an ASCII one's low
    # byte is the character, its padding NUL.
    chars = [text.view(np.uint32).reshape(len(text), text.itemsize // 4) for text in texts]
    matrix = np.empty((len(blank), len(xs) * stride + sum(c.shape[1] + 1 for c in chars)),
                      dtype=np.uint8)
    for j, x in enumerate(xs):
        field = matrix[:, j * stride:(j + 1) * stride]
        into(x, field[:, :WIDTH])
        field[blank[:, j]] = 0
        field[:, WIDTH] = ord(",")
    at = len(xs) * stride
    for c in chars:
        matrix[:, at:at + c.shape[1]] = c
        at += c.shape[1]
        matrix[:, at] = ord(",")
        at += 1
    matrix[:, -1] = ord("\n")
    return matrix[matrix != 0].tobytes().decode("ascii")
