"""CSV rows of numeric columns, rendered by numpy array operations alone.

Integer columns, which must be nonnegative, render as ``%d`` and float
columns as ``%.17g``, byte for byte what Python's ``'%.17g' % v`` gives:
Gay's correctly rounded dtoa ("Correctly rounded binary-decimal and
decimal-binary conversions", AT&T 1990) rounds the exact binary value
half-even to 17 significant digits, then ``%g`` lays them out.

The digits are computed exactly, not estimated.  With |x| = m * 2**e
(m < 2**53) and X = floor(log10 |x|), the significand
D = round-half-even(|x| * 10**(16 - X)) is m * 5**k / 2**s with k = 16 - X
and s = -(e + k).  A float falls in one of two classes by magnitude:

- every nonzero |x| below 1e17, subnormals included, where X is -324 to 16
  and k is 0 to 340.  X is read from the bits of |x|: a table gives the X
  at the bottom of each binade and the bits where the next decade starts.
  D comes from m times 5**k out of one table of two 63-bit words, as
  fixed-precision Ryu prints from truncated powers of five (Adams, "Ryu
  revisited: printf floating point conversion", OOPSLA 2019): 5**k itself
  up to k = 54, truncated to 126 bits beyond.  Past k = 27, s >= 61, so no
  tie is possible (2**(s - 1) would have to divide m < 2**53).  A truncated
  power leaves the product short by less than m; the tests prove, for
  every binade and decade past k = 54, that this never moves the quotient
  or its half bit.  Rounding can carry D to 1e17 (at the doubles nearest
  1e-79, 1e-174, 1e-176, 1e-243 and 1e-305), which is D = 1e16 at X + 1.
- the fallback: zero, nan, inf and |x| from 1e17 up, rendered by
  ``'%.17g' % v`` itself.

Layout works on little-endian uint64 words of eight characters, with NUL
wherever a character is absent, so every row has a fixed width; one
``bytearray.translate(None, b"\\0")`` per chunk squeezes the NULs out.  A
float field is four words: the sign, the "0.000" of fixed form below 1 and
the first digit; the other 16 digits with the point inserted; the digit the
point pushed out, "e-XX" or "e-XXX" and the separator.  An integer field has
room for its longest value and the separator.

Every array is updated in place or dropped once used, so a float column
holds about a dozen arrays of its length at once, not two dozen: less
scratch for the allocator to return to the system after each call and to
fault back in on the next.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Rows per chunk: a few MiB of scratch whatever the column length.
CHUNK_ROWS = 16384

_U64 = np.uint64
_WORD = np.dtype("<u8")  # byte j of a word is character j of its eight
_LOW32 = _U64(0xFFFFFFFF)
_NARROW_K = 27  # 5**27 < 2**63
_MIN_X = -324  # X of the smallest subnormal, 4.9e-324, where k = 340
_D_LOW, _D_HIGH = _U64(10**16), _U64(10**17)
_E8 = _U64(10**8)
_BYTE = _U64(8)
_FLAGS = _U64(0x8080808080808080)
_ALL = _U64(0xFFFFFFFFFFFFFFFF)
_DOTS = _U64(0x2E2E2E2E2E2E2E2E)
_PREFIX = _U64(int.from_bytes(b"\x000.000\x00\x00", "little"))
_FLOAT_WORDS = 4


def write_csv(handle, header: str, blocks) -> None:
    """Write ``header`` and then one comma-separated row per index of each
    block's columns, ``CHUNK_ROWS`` rows per ``handle.write``.  ``blocks``
    is an iterable of column lists, read one at a time, so a caller may
    yield each block as it computes it.  A block's columns are equal-length
    float arrays and nonnegative integer arrays (an integer column may be a
    ``range``)."""
    handle.write(header + "\n")
    for columns in blocks:
        rows = len(columns[0])
        for start in range(0, rows, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, rows)
            handle.write(_render_rows([_chunk(col, start, stop) for col in columns]))


def _chunk(column, start: int, stop: int) -> np.ndarray:
    if isinstance(column, range):
        part = column[start:stop]
        return np.arange(part.start, part.stop, part.step)
    return np.asarray(column[start:stop])


def _render_rows(parts: list) -> str:
    widths = [_int_words(p) if p.dtype.kind in "iu" else _FLOAT_WORDS for p in parts]
    offsets = np.cumsum([0] + widths)
    # the words live in a bytearray, whose translate squeezes out the NULs
    # without a bytes copy of the whole matrix first
    text = bytearray(8 * offsets[-1] * parts[0].size)
    out = np.frombuffer(text, dtype=_WORD).reshape(parts[0].size, offsets[-1])
    for i, part in enumerate(parts):
        field = out[:, offsets[i] : offsets[i + 1]]
        separator = b"\n" if i == len(parts) - 1 else b","
        if part.dtype.kind in "iu":
            _render_ints(np.asarray(part, dtype=_U64), field, separator)
        else:
            _render_floats(np.asarray(part, dtype=np.float64), field, separator)
    del out, field
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def _digit_bytes(values: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each value below 1e8 as byte values 0-9,
    the most significant in byte 0.  Each step splits every lane of the
    word in two by a multiply-shift quotient that is exact over the lane's
    range: by 10**4 (below 1e8), then by 100 in 32-bit lanes (below 1e4),
    then by 10 in 16-bit lanes (below 100)."""
    high = (values * _U64(109951163)) >> _U64(40)
    x = high | ((values - high * _U64(10000)) << _U64(32))
    high = ((x * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)
    x = high | ((x - high * _U64(100)) << _U64(16))
    high = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return high | ((x - high * _U64(10)) << _BYTE)


def _nonzero(digits: np.ndarray) -> np.ndarray:
    """0x80 in every byte of ``digits`` that is not 0 (bytes hold 0-9)."""
    return (digits + _U64(0x7F7F7F7F7F7F7F7F)) & _FLAGS


def _through_highest(flags: np.ndarray) -> np.ndarray:
    """0x80 in every byte at or below the highest flagged byte."""
    for shift in (8, 16, 32):
        flags = flags | (flags >> _U64(shift))
    return flags


def _as_text(flags: np.ndarray) -> np.ndarray:
    """The ASCII "0" offset in every flagged byte, to add to digit bytes."""
    return (flags >> _U64(7)) * _U64(0x30)


def _int_words(values: np.ndarray) -> int:
    """Words of an integer field: room for the longest value and a separator."""
    return -(-(len(str(int(values.max()))) + 1) // 8)


def _render_ints(values: np.ndarray, field: np.ndarray, separator: bytes) -> None:
    """``%d`` of nonnegative ``values`` into ``field``: the digits right-aligned
    with leading zeros NUL, then the separator."""
    words = field.shape[1]
    pieces = [values]  # 8-digit groups, most significant first
    for _ in range(words - 1):
        pieces[:1] = np.divmod(pieces[0], _E8)
    text = []
    seen = np.zeros(values.size, dtype=bool)
    for piece in pieces:
        digits = _digit_bytes(piece)
        flags = _nonzero(digits)
        if len(text) == words - 1:
            flags |= _U64(0x80) << _U64(56)  # the units digit shows even for 0
        first = flags & (~flags + _U64(1))
        shown = np.where(seen, _FLAGS, ~(first - _U64(1)) & _FLAGS)
        text.append(digits | _as_text(shown))
        seen |= flags != 0
    # one byte down, over the leading zero that the width leaves, for the separator
    text.append(_U64(separator[0]))
    for j in range(words):
        field[:, j] = (text[j] >> _BYTE) | (text[j + 1] << _U64(56))


def _product(low: np.ndarray, high: np.ndarray, power: np.ndarray):
    """(upper, lower), the 128-bit product of the mantissa m = high * 2**32 +
    low below 2**53 and ``power`` below 2**63, multiplied as 32-bit halves;
    ``power`` is overwritten."""
    upper = power >> _U64(32)
    power &= _LOW32
    lower = low * power
    middle = high * power
    middle += np.multiply(low, upper, out=power)  # below 2**53 + 2**63
    del power
    upper *= high
    summed = middle << _U64(32)
    summed += lower
    upper += middle >> _U64(32)
    upper += summed < lower
    return upper, summed


def _scaled(low: np.ndarray, high: np.ndarray, shift: np.ndarray, exponent: np.ndarray):
    """Truncated quotient q = floor(m * 5**k / 2**shift) of the mantissa
    m = high * 2**32 + low, with k = 16 - exponent, and whether the discarded
    part rounds it up, half to even.

    Every row multiplies m by b of 5**k = (a * 2**63 + b) * 2**drop.  Up to
    k = 27, where a = drop = 0, the shift lies in [-7, 62], and a negative
    one multiplies by 2**-shift a product that fits one limb.  Past k = 27
    the rows add m * a * 2**63 and keep V, the sum P from bit 63 up, which
    they shift by shift - drop - 63, in [6, 62]; no tie is possible, so bit
    0 of V is set."""
    high_words, low_words, drops = _pow5_words()
    upper, lower = _product(low, high, low_words[16 - exponent])
    right = np.maximum(shift, 0)
    if exponent.min() < 16 - _NARROW_K:
        rows = np.flatnonzero(exponent < 16 - _NARROW_K)
        k = 16 - exponent[rows]
        top, bottom = _product(low[rows], high[rows], high_words[k])
        carried = upper[rows] << _U64(1)
        carried |= lower[rows] >> _U64(63)
        bottom += carried
        top += bottom < carried
        bottom |= _U64(1)
        upper[rows], lower[rows] = top, bottom
        right[rows] -= drops[k] + 63
        del k, top, bottom, carried
    right = right.view(_U64)
    one = _U64(1) << right
    twice_rest = one - _U64(1)
    twice_rest &= lower
    twice_rest <<= _U64(1)
    # numpy shifts a word by 64 bits or more to 0, here upper when right is 0
    upper <<= _U64(64) - right
    upper |= lower >> right
    del lower, right
    quotient = np.left_shift(upper, np.maximum(-shift, 0).view(_U64), out=upper)
    # up above half, or at half with q odd: twice_rest is even, so adding
    # q's low bit carries only a tie past one
    twice_rest += quotient & _U64(1)
    return quotient, twice_rest > one


def _significands(values: np.ndarray):
    """17-digit significand D, decimal exponent X, and the rows left to the
    fallback, where D = round-half-even(|x| * 10**(16 - X)).  In those rows
    D is 1e16 and X is 0."""
    magnitude = np.abs(values)
    inside = (magnitude > 0.0) & (magnitude < 1e17)
    # |x| = m * 2**binary; rows outside run through meaningless words, and
    # are dropped.  X and the 32-bit halves of m are taken apart from the
    # bits, implicit bit and all.
    bits = magnitude.view(_U64)
    del magnitude
    starts, lowest, steps = _decades()
    shift = (bits >> _U64(52)).view(np.int64)
    exponent = lowest[shift]
    exponent += bits >= steps[shift]
    low = bits & _LOW32
    high = bits >> _U64(32)
    high &= _U64(2**20 - 1)
    high |= _U64(2**20)
    if shift.min() == 0:
        # a subnormal spans decades, and has no implicit bit and the binary
        # exponent of biased 1
        subnormal = np.flatnonzero(shift == 0)
        exponent[subnormal] = _MIN_X + np.searchsorted(starts, bits[subnormal], "right")
        high[subnormal] ^= _U64(2**20)
        shift[subnormal] = 1
    del bits
    # -(binary + k) for binary = biased - 1075 and k = 16 - X
    np.subtract(exponent, shift, out=shift)
    shift += 1059
    quotient, up = _scaled(low, high, shift, exponent)
    del low, high, shift
    quotient += up
    del up
    outside = np.flatnonzero(~inside)
    del inside
    quotient[outside] = _D_LOW
    exponent[outside] = 0
    # Rounding carries D to 1e17 at the doubles nearest 1e-79, 1e-174,
    # 1e-176, 1e-243 and 1e-305: that is D = 1e16 at X + 1.
    if quotient.max() == _D_HIGH:
        carried = quotient == _D_HIGH
        quotient[carried] = _D_LOW
        exponent[carried] += 1
    return quotient, exponent, outside


@functools.cache
def _decades():
    """(starts, lowest, steps), to read X from the bits of |x|.  ``starts``
    holds the bits of the smallest double at or above 10**X for X = _MIN_X + 1
    to 16.  By biased exponent, ``lowest`` is the X at the bottom of the
    binade and ``steps`` the bits of the next start, all ones past the last.
    A normal binade spans less than a decade, so X = lowest + (bits >= step);
    subnormals search ``starts``.  Zero maps to _MIN_X, and nan, inf and
    every |x| from 1e17 up to at most 16."""
    starts = []
    for decade in range(_MIN_X + 1, 17):
        start = float(f"1e{decade}")  # correctly rounded, so at most one ulp below
        numerator, denominator = start.as_integer_ratio()
        if numerator * 10 ** max(-decade, 0) < denominator * 10 ** max(decade, 0):
            start = math.nextafter(start, math.inf)
        starts.append(start)
    starts = np.array(starts).view(_U64)
    count = np.searchsorted(starts, np.arange(2048, dtype=_U64) << _U64(52), "right")
    return starts, _MIN_X + count, np.append(starts, _ALL)[count]


@functools.cache
def _exponent_words() -> np.ndarray:
    """For -X = 0 to -_MIN_X, "e-05" to "e-324" from byte 1 of a word."""
    return np.array([int.from_bytes(f"\0e-{decade:02d}".encode(), "little")
                     for decade in range(1 - _MIN_X)], dtype=_U64)


@functools.cache
def _pow5_words():
    """5**k for k = 0 to 16 - _MIN_X as (a * 2**63 + b) * 2**drop, in arrays
    of a, b and drop indexed by k.  Up to k = _NARROW_K, b = 5**k and
    a = drop = 0; past it, a * 2**63 + b is 5**k scaled to 126 bits with the
    top bit set, exact while drop <= 0 (up to k = 54) and truncated beyond."""
    words = []
    for k in range(17 - _MIN_X):
        power, drop = 5**k, 0
        if k > _NARROW_K:
            drop = power.bit_length() - 126
            power = power >> drop if drop > 0 else power << -drop
        words.append((power >> 63, power & (2**63 - 1), drop))
    high, low, drop = zip(*words)
    return np.array(high, dtype=_U64), np.array(low, dtype=_U64), np.array(drop)


def _render_floats(values: np.ndarray, field: np.ndarray, separator: bytes) -> None:
    """``%.17g`` into the four words of ``field``."""
    significand, exponent, fallback = _significands(values)
    # D = lead * 1e16 + tail * 1e8 + last: one digit, then two 8-digit words
    tail, last = np.divmod(significand, _E8)
    del significand
    lead = (tail * _U64(720575941)) >> _U64(56)  # tail // 1e8, exact below 1e9
    tail -= lead * _E8
    tail, last = _digit_bytes(tail), _digit_bytes(last)

    # %g: fixed form for -4 <= X < 17, else scientific.  Trailing zeros go,
    # but not those of the integer part: digits 1 to X, the low X bytes of
    # (tail, last), which take `integer` bits (`in_last` of them in last).
    # The masks here rely on numpy shifting a word by 64 bits or more to 0.
    integer = np.maximum(exponent, 0).view(_U64)
    integer *= _BYTE
    in_last = np.maximum(integer, _U64(64))
    in_last -= _U64(64)
    shown_last = _through_highest(_nonzero(last))
    shown_last |= ~(_ALL << in_last) & _FLAGS
    shown_tail = _through_highest(_nonzero(tail))
    shown_tail |= (shown_last != 0) * _FLAGS | (~(_ALL << integer) & _FLAGS)
    tail |= _as_text(shown_tail)
    last |= _as_text(shown_last)

    # The point goes after digit P, at byte P of (tail, last): P = X in fixed
    # form from 0 up and 0 in scientific form, none below 1 or where no digit
    # follows it (a shown last implies a fully shown tail).  `start` is its
    # bit, 192 (past both words) for none.
    below_one = (exponent < 0) & (exponent >= -4)
    shown_tail >>= integer
    shown_last >>= in_last
    shown_tail |= shown_last
    del shown_last, in_last
    start = np.where((shown_tail & _U64(0x80) != 0) & ~below_one, integer, _U64(192))
    del shown_tail, integer
    pushed = _U64(0)
    for word, digits in enumerate((tail, last)):
        base = _U64(64 * word)
        ahead = np.maximum(start, base)
        ahead -= base
        np.left_shift(_ALL, ahead, out=ahead)  # the point and after
        after = np.maximum(start + _BYTE, base)
        after -= base
        np.left_shift(_ALL, after, out=after)  # after the point, within ahead
        text = digits << _BYTE
        text |= pushed
        text &= after
        after ^= ahead
        after &= _DOTS
        text |= after
        np.invert(ahead, out=ahead)
        ahead &= digits
        text |= ahead
        field[:, 1 + word] = text
        pushed = digits >> _U64(56)
    del tail, last, digits, ahead, after, text

    # below 1: "0." and -X - 1 zeros, the low 2 - X bytes of _PREFIX
    lead += _U64(ord("0"))
    lead <<= _U64(56)
    lead |= (values < 0) * _U64(ord("-"))
    lead |= (_PREFIX & ~(_ALL << (_BYTE * np.maximum(2 - exponent, 0).astype(_U64)))) * below_one
    field[:, 0] = lead
    del lead, below_one
    pushed *= start < _U64(128)
    field[:, 3] = pushed | _U64(separator[0]) << _U64(56)
    del pushed, start
    scientific = np.flatnonzero(exponent < -4)
    if scientific.size:
        field[scientific, 3] |= _exponent_words()[-exponent[scientific]]
    _fill_fallback(field, values, fallback, separator)


def _fill_fallback(field: np.ndarray, values: np.ndarray, index: np.ndarray,
                   separator: bytes) -> None:
    """Overwrite the rows ``index`` of ``field`` with Python's ``'%.17g' % value``,
    padded with NUL up to the ``separator`` that ends the field."""
    if index.size == 0:
        return
    width = 8 * field.shape[1] - len(separator)
    text = b"".join(("%.17g" % v).encode("ascii").ljust(width, b"\0") + separator
                    for v in values[index].tolist())
    field[index] = np.frombuffer(text, dtype=_WORD).reshape(index.size, field.shape[1])
