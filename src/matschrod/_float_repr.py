"""``repr`` of many float64 values at once, with numpy: the same bytes, in bulk.

``repr(x)`` is the shortest decimal that reads back as x, the closest one
where several are that short, laid out positionally for 1e-4 <= |x| < 1e16
(``.0`` on whole numbers) and as ``d.ddde±XX`` otherwise.  ``repr_bytes``
finds those digits with Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020): three round-to-odd products of the significand
against a 126-bit power of ten bracket x and its rounding interval at one
decimal scale, and the shortest decimal inside the interval is read off them.
Each string is then cut from a padded row of its digits, 24 bytes at a time,
and the point, the sign and the exponent are masked in word by word.
Exact zeros are ``0.0`` and ``-0.0`` without any of that; subnormals,
infinities and nan, and every value on a build whose ``float_repr_style`` is
not ``"short"``, go to ``repr`` itself.
"""
from __future__ import annotations

import functools
import sys

import numpy as np

#: decimal exponents k of the scales 10^k at which Schubfach reads normal doubles
_K_MIN, _K_MAX = -324, 292
_MASK_32, _MASK_63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
#: the widest ``repr`` of a float, ``-1.2345678901234567e-308``
_WIDTH = 24
#: items per sign in the mask tables: positions 0 .. _WIDTH + 2
_SIGNED = _WIDTH + 3
#: a value's digit row: 7 pad columns, its 17 significant digits, 8 more pad
#: columns; digits 1-16 fill the row's second and third 8-byte words
_PAD, _ROW = 7, 32
_WORD = np.dtype("<u8")


@functools.cache
def _powers():
    """(g1, g0): 10^-k = beta 2^r with 2^125 <= beta < 2^126, g = floor(beta) + 1 = g1 2^63 + g0."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            beta = (1 << -r) // 10**k
        else:
            beta = 10**-k >> r if r >= 0 else 10**-k << -r
        g = beta + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    return _frozen(np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64))


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _mul(a, b):
    """(high, low) 64-bit words of the 128-bit products a b, uint64 arrays."""
    a0, a1, b0, b1 = a & _MASK_32, a >> 32, b & _MASK_32, b >> 32
    ll, hl = a0 * b0, a1 * b0
    cross = (ll >> 32) + (hl & _MASK_32) + a0 * b1
    return a1 * b1 + (hl >> 32) + (cross >> 32), (cross << 32) | (ll & _MASK_32)


def _round_to_odd(g1, g0, cp):
    """floor(g cp / 2^127), its last bit set when the quotient is inexact."""
    x1 = _mul(g0, cp)[0]
    y1, y0 = _mul(g1, cp)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _MASK_63) + _MASK_63) >> 63)


def _shortest(bits):
    """Shortest decimals (f, k), x = f 10^k and f of 16 or 17 digits, of positive normal doubles."""
    t = bits & np.uint64(2**52 - 1)
    bq = (bits >> 52).astype(np.int64)
    c = t | np.uint64(2**52)
    q = bq - 1075
    # the rounding interval is (c -+ 1/2) 2^q, but (c - 1/4) 2^q below a power of 2
    irregular = (t == 0) & (bq > 1)
    # k = floor(log10 2^q), or floor(log10 (3/4) 2^q) for an irregular interval
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (g[k - _K_MIN] for g in _powers())
    cb = c << 2
    # the interval's ends read back as x only when c is even: reading rounds ties to even
    odd = c & 1
    # vb = 4 x 10^-k, x at the scale 10^k in quarters, and vbl, vbr the interval's ends
    vbl, vb, vbr = (_round_to_odd(g1, g0, cp << h) for cp in (cb - 2 + irregular, cb, cb + 2))
    s = vb >> 2
    # one digit shorter, when exactly one of the neighbouring multiples of 10 is in the interval
    sp10 = s // 10 * 10
    upin, wpin = vbl + odd <= sp10 << 2, ((sp10 + 10) << 2) + odd <= vbr
    # else s or s + 1, whichever is in; the closer one, ties to even, when both are
    uin, win = vbl + odd <= s << 2, ((s + 1) << 2) + odd <= vbr
    mid = (s << 2) + 2
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), np.where(lower, s, s + 1))
    return f, k


def _digit_bytes(x):
    """The 8 decimal digits of each x < 10^8 as the bytes of one little-endian word, most significant first."""
    a = x // 10_000
    v = a | ((x - a * 10_000) << 32)  # 32-bit lanes of 4 digits
    q = ((v * 5243) >> 19) & np.uint64(0x0000007F0000007F)  # y // 100 in each lane, for y < 43699
    v = q | ((v - q * 100) << 16)  # 16-bit lanes of 2 digits
    q = ((v * 103) >> 10) & np.uint64(0x000F000F000F000F)  # y // 10 in each lane, for y < 179
    return q | ((v - q * 10) << 8)


@functools.cache
def _tables():
    """Byte masks and their characters, as 24-byte items, and the exponent suffixes.

    Item p + _SIGNED sign of ``before`` masks the bytes sign <= j < p, and
    the same item of ``marks`` holds '.' at byte p and, for sign 1, '-' at
    byte 0.  ``suffixes[e + 324]`` is ``e±XX`` for the exponent e, zero-padded
    to one word.
    """
    col = np.arange(_WIDTH)
    p = np.arange(_SIGNED)[:, None]
    before = np.concatenate([(col >= sign) & (col < p) for sign in (0, 1)]) * np.uint8(0xFF)
    marks = np.where(col == p, ord("."), 0).astype(np.uint8)
    marks = np.concatenate([marks, marks | np.where(col == 0, ord("-"), 0).astype(np.uint8)])
    suffixes = np.array([f"e{e:+03d}".encode() for e in range(-324, 309)], dtype="S8").view(_WORD)
    return _frozen(before.view(f"V{_WIDTH}").ravel(), marks.view(f"V{_WIDTH}").ravel(), suffixes)


def _frozen(*tables):
    """The tables, made read-only: every caller shares the cached arrays."""
    for table in tables:
        table.setflags(write=False)
    return tables


def _windows(flat, width):
    """Every run of ``width`` consecutive bytes of ``flat``, as one item each."""
    return np.ndarray((flat.size - width + 1,), dtype=f"V{width}", buffer=flat, strides=(1,))


def _gather(items, index):
    """``items[index]`` for 24-byte items, as rows of three words."""
    return items[index].view(_WORD).reshape(len(index), -1)


def repr_bytes(values) -> list:
    """``[repr(float(v)).encode() for v in values]`` for a 1-d float64 array, computed in bulk."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if sys.float_repr_style != "short" or not len(values):
        return [repr(v).encode() for v in values.tolist()]
    bits = values.view(np.uint64)
    magnitude = bits & _MASK_63
    zero = magnitude == 0
    if zero.any():
        # only the nonzero values need digits; a slice without zeros skips this merge
        out = np.full(len(values), b"0.0", dtype=object)
        out[zero & (bits >> 63 != 0)] = b"-0.0"
        out[~zero] = repr_bytes(values[~zero])
        return out.tolist()
    special = (magnitude >> 52 == 0x7FF) | (magnitude < 2**52)  # inf, nan, subnormal
    text = _layout((bits >> 63).astype(bool), *_digits(magnitude, special))
    out = text.view(f"S{_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(special).tolist():
        out[i] = repr(float(values[i])).encode()
    return out


def _digits(magnitude, special):
    """(lead, words, decpt, n) of |x| > 0: x = 0.d1d2...d17 10^decpt with d1 = lead, d2..d17 the
    bytes of the two words and n significant digits."""
    # the special values are read as 1.0
    f, k = _shortest(np.where(special, np.uint64(0x3FF0000000000000), magnitude))
    short = f < 10**16
    f = np.where(short, f * 10, f)  # now exactly 17 digits
    lead = f // 10**16
    f = f - lead * 10**16
    high = f // 10**8
    words = _digit_bytes(np.stack([high, f - high * 10**8]))
    # trailing zero digits: the zero bytes at the top of the words (their bytes
    # are at most 9, so no word rounds up to a power of 2 as a float)
    zeros = (64 - np.frexp(words.astype(np.float64))[1]) // 8
    n = 17 - zeros[1] - (zeros[1] == 8) * zeros[0]
    return lead, words, k + 17 - short, n


def _layout(neg, lead, words, decpt, n):
    """Each value's ``repr``, zero-padded to _WIDTH bytes, as rows of three words."""
    n_rows = len(neg)
    pad = np.uint64(0x3030303030303030)  # eight '0' characters
    src = np.empty((n_rows, _ROW // 8), dtype=_WORD)
    src[:, 0] = (pad >> 8) | ((lead + ord("0")) << 56)
    src[:, 1:3] = (words | pad).T
    src[:, 3] = pad
    sci = (decpt <= -4) | (decpt > 16)
    ip = np.maximum(decpt, 1)  # characters before the point, positional form
    first = np.where(sci, 0, decpt - ip) - neg  # digit index of the string's first character
    start = np.arange(n_rows) * _ROW + _PAD + first
    windows = _windows(src.view(np.uint8).ravel(), _WIDTH)
    here, earlier = _gather(windows, start), _gather(windows, start - 1)

    before, marks, suffixes = _tables()
    point = np.where(sci, np.where(n > 1, 1, _WIDTH), ip) + neg
    signed = point + _SIGNED * neg
    text = (here & _gather(before, signed)) | (earlier & ~_gather(before, point + 1)) | _gather(marks, signed)
    # the exponential form's mantissa ends where its suffix begins, at ``cut``
    cut = np.where(sci, n + (n > 1), ip + 1 + np.maximum(n - decpt, 1)) + neg
    text &= _gather(before, cut)
    # the suffix sits at byte _WIDTH of a zero row twice as wide; the window
    # starting ``cut`` bytes before it moves it to byte ``cut``
    tail = np.zeros((n_rows, 2 * _WIDTH // 8), dtype=_WORD)
    tail[:, _WIDTH // 8] = np.where(sci, suffixes[decpt + 323], 0)
    text |= _gather(_windows(tail.view(np.uint8).ravel(), _WIDTH), np.arange(n_rows) * 2 * _WIDTH + _WIDTH - cut)
    return text
