"""CSV rows of numeric columns, rendered by numpy array operations alone.

Integer columns, which must be nonnegative, render as ``%d`` and float
columns as ``%.17g``, byte for byte what Python's ``'%.17g' % v`` gives:
Gay's correctly rounded dtoa ("Correctly rounded binary-decimal and
decimal-binary conversions", AT&T 1990) rounds the exact binary value
half-even to 17 significant digits, then ``%g`` lays them out.

The digits are computed exactly, not estimated.  With |x| = m * 2**e
(m < 2**53) and X = floor(log10 |x|), the significand
D = round-half-even(|x| * 10**(16 - X)) is m * 5**k / 2**s with k = 16 - X
and s = -(e + k).  A float falls in one of three classes by magnitude:

- the window, 1e-11 < |x| < 1e17, where X is -11 to 16 (the double 1e-11
  lies below 10**-11, and 1e17 is exact).  D comes from a two-limb product
  of uint64s (5**k < 2**63 for k <= 27); a log10 estimate of X, clamped
  into the window, that is one off leaves the truncated quotient outside
  [1e16, 1e17) and is stepped and recomputed.
- below the window, 0 < |x| <= 1e-11, subnormals included.  X is found
  exactly in a table of the smallest double at or above each power of ten,
  and m * 5**k (k up to 340) is carried in 32-bit limbs, as Ryu (Adams,
  PLDI 2018) carries exact powers of five to every exponent.  There
  s >= 61, so no tie is possible (2**(s - 1) would have to divide
  m < 2**53), and D is the quotient plus bit s - 1 of the product.
  Rounding can carry D to 1e17 there (at the doubles nearest 1e-79,
  1e-174, 1e-176, 1e-243 and 1e-305), which is D = 1e16 at X + 1.
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
_MAX_K = 27
_MIN_X = -324  # X of the smallest subnormal, 4.9e-324, where k = 340
_LIMBS = 26  # 5**340 < 2**790 fills 25; the product's limb 25 needs a 26th
_POW5 = np.array([5**k for k in range(_MAX_K + 1)], dtype=_U64)
_D_LOW, _D_HIGH = _U64(10**16), _U64(10**17)
_E8 = _U64(10**8)
_BYTE = _U64(8)
_FLAGS = _U64(0x8080808080808080)
_ALL = _U64(0xFFFFFFFFFFFFFFFF)
_DOTS = _U64(0x2E2E2E2E2E2E2E2E)
_PREFIX = _U64(int.from_bytes(b"\x000.000\x00\x00", "little"))
_FLOAT_WORDS = 4


def write_csv(handle, header: str, columns) -> None:
    """Write ``header`` and then one comma-separated row per index of
    ``columns``, a list of equal-length float arrays and nonnegative integer
    arrays (an integer column may be a ``range``), ``CHUNK_ROWS`` rows per
    ``handle.write``."""
    handle.write(header + "\n")
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
    if values.size == 0:
        return 1
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


def _scaled(low: np.ndarray, high: np.ndarray, shift: np.ndarray, exponent: np.ndarray):
    """Truncated quotient q = floor(m * 5**k / 2**shift) of the mantissa
    m = high * 2**32 + low, with k = 16 - exponent, and whether the discarded
    part rounds it up, half to even.

    m < 2**53 and 5**k < 2**63 multiply as 32-bit halves into the 128-bit
    (upper, lower).  Over the window the shift lies in [-7, 62], and a
    negative shift multiplies by 2**-shift a product that fits one limb."""
    power = _POW5[16 - exponent]
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
    del lower, middle
    right = np.maximum(shift, 0).view(_U64)
    one = _U64(1) << right
    twice_rest = one - _U64(1)
    twice_rest &= summed
    twice_rest <<= _U64(1)
    # numpy shifts a word by 64 bits or more to 0, here upper when right is 0
    upper <<= _U64(64) - right
    upper |= summed >> right
    del summed, right
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
    # X is -11 to 16 exactly in the window: the double 1e-11 lies below
    # 10**-11, and 1e17 is exact
    window = (magnitude > 1e-11) & (magnitude < 1e17)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.log10(magnitude)  # -inf at 0, nan at nan
    np.floor(exponent, out=exponent)
    # clamped into the window, nan included, so the redo below cannot leave it
    np.fmax(exponent, 16 - _MAX_K, out=exponent)
    np.fmin(exponent, 16, out=exponent)
    exponent = exponent.astype(np.int64)
    # |x| = m * 2**binary for a normal double, the only kind in the window;
    # rows outside it run through meaningless words, and are dropped.  The
    # 32-bit halves of m are taken apart from the bits, implicit bit and all.
    bits = magnitude.view(_U64)
    low = bits & _LOW32
    high = bits >> _U64(32)
    high &= _U64(2**20 - 1)
    high |= _U64(2**20)
    shift = (bits >> _U64(52)).view(np.int64)
    del magnitude, bits
    # -(binary + k) for binary = biased - 1075 and k = 16 - X
    np.subtract(exponent, shift, out=shift)
    shift += 1059
    quotient, up = _scaled(low, high, shift, exponent)
    # a one-off log10 estimate puts the truncated quotient outside [1e16, 1e17)
    redo = np.flatnonzero((quotient - _D_LOW >= _D_HIGH - _D_LOW) & window)
    if redo.size:
        step = np.where(quotient[redo] < _D_LOW, -1, 1)
        exponent[redo] += step
        quotient[redo], up[redo] = _scaled(low[redo], high[redo], shift[redo] + step,
                                           exponent[redo])
    del low, high, shift
    # No double in the window lies within 5e-18 below a power of ten (the
    # tests render those nearest each), so rounding never carries D to 1e17.
    quotient += up
    del up
    outside = np.flatnonzero(~window)
    del window
    quotient[outside] = _D_LOW
    exponent[outside] = 0

    # X <= -12 exactly for the nonzero |x| up to the double 1e-11, which lies
    # below 10**-11
    small = np.abs(values[outside])
    tiny = (small <= 1e-11) & (small > 0.0)
    below, outside = outside[tiny], outside[~tiny]
    if below.size:
        small = small[tiny]
        quotient[below], exponent[below] = _below_window(small)
    return quotient, exponent, outside


@functools.cache
def _exponent_words() -> np.ndarray:
    """For -X = 0 to -_MIN_X, "e-05" to "e-324" from byte 1 of a word."""
    return np.array([int.from_bytes(f"\0e-{decade:02d}".encode(), "little")
                     for decade in range(1 - _MIN_X)], dtype=_U64)


@functools.cache
def _decade_starts() -> np.ndarray:
    """For X = _MIN_X to -11, the smallest double at or above 10**X, so that a
    double x has floor(log10 x) >= X exactly where x >= this entry."""
    starts = []
    for decade in range(-_MIN_X, 10, -1):
        nearest = float(f"1e-{decade}")
        numerator, denominator = nearest.as_integer_ratio()
        if numerator * 10**decade < denominator:
            nearest = math.nextafter(nearest, math.inf)
        starts.append(nearest)
    return np.array(starts)


@functools.cache
def _pow5_limbs() -> np.ndarray:
    """5**k for k up to 16 - _MIN_X as _LIMBS little-endian 32-bit limbs in
    uint64s, limb j of every power in row j."""
    powers = b"".join((5**k).to_bytes(4 * _LIMBS, "little") for k in range(17 - _MIN_X))
    limbs = np.frombuffer(powers, dtype="<u4").reshape(-1, _LIMBS)
    return np.ascontiguousarray(limbs.T, dtype=_U64)


def _wide_rounded(low: np.ndarray, high: np.ndarray, point: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
    """round(m * 5**k / 2**(point + 1)) for the mantissa m = high * 2**32 +
    low below 2**53, k from 28 to 340 and point >= 60, where the quotient
    lies below 2**57; the rows come in ascending order of point.

    The product P (below 2**843) is carried limb by limb in 32-bit limbs:
    high * 5**k (high < 2**21) with one carry, then its limb j - 1 plus
    low * (limb j of 5**k) with a second; each partial sum stays below
    2**64.  A row leaves the loop two limbs above `top`, the limb that holds
    bit `point`: limbs top to top + 2 hold bits point to point + 63.  The
    loop allocates nothing, and rows that are done drop off its front.

    No tie is possible: it would need P = (2j + 1) * 2**point, so 2**point
    would divide P and hence m (5**k is odd), yet m < 2**53 <= 2**point.  So
    P rounds up exactly where its bit `point` is set."""
    top = point >> 5
    last = int(top[-1])
    starts = np.searchsorted(top, np.arange(last + 2))  # the first row of each top
    del top
    table = _pow5_limbs()
    window = np.empty((3, low.size), dtype=np.uint32)  # limbs top, top + 1, top + 2
    carry_high, carry, high_limb = np.zeros((3, low.size), dtype=_U64)
    partial, power = np.empty((2, low.size), dtype=_U64)
    first = 0  # the rows before it have all three limbs
    for j in range(last + 3):
        done = starts[max(j - 2, 0)] - first
        if done:
            low, high, k = low[done:], high[done:], k[done:]
            carry_high, carry, high_limb = carry_high[done:], carry[done:], high_limb[done:]
            partial, power = partial[done:], power[done:]
            first += done
        table[j].take(k, out=power, mode="clip")
        np.multiply(high, power, out=partial)
        partial += carry_high
        np.right_shift(partial, _U64(32), out=carry_high)
        partial &= _LOW32  # limb j of high * 5**k, for limb j + 1 of P
        np.multiply(low, power, out=power)
        power += high_limb
        power += carry
        np.right_shift(power, _U64(32), out=carry)
        power &= _LOW32  # limb j of P
        high_limb, partial = partial, high_limb
        for i in range(3):
            if 0 <= j - i <= last:
                rows = slice(starts[j - i], starts[j - i + 1])  # top == j - i
                window[i, rows] = power[rows.start - first : rows.stop - first]
    del low, high, k, carry_high, carry, high_limb, partial, power
    bit = (point & 31).view(_U64)  # bit `point` within limb top
    rounded = window[0] >> bit
    rounded += _U64(1)
    rounded >>= _U64(1)
    rounded += window[1].astype(_U64) << (_U64(31) - bit)
    rounded += window[2].astype(_U64) << (_U64(63) - bit)
    return rounded


def _below_window(magnitude: np.ndarray):
    """D and X of nonzero |x| below 1e-11, subnormals included, with X found
    exactly by a search of _decade_starts.  Past the window, rounding can
    carry D to 1e17 (at the doubles nearest 1e-79, 1e-174, 1e-176, 1e-243 and
    1e-305); that is D = 1e16 at X + 1."""
    exponent = np.searchsorted(_decade_starts(), magnitude, side="right") + (_MIN_X - 1)
    bits = magnitude.view(_U64)
    biased = (bits >> _U64(52)).view(np.int64)
    low = np.minimum(biased, 1).view(_U64) << _U64(52)  # the implicit bit of a normal
    low |= bits & _U64(2**52 - 1)
    # the rounding bit of |x| * 10**(16 - X) = m * 2**binary * 5**k * 2**k
    # is bit -(binary + k) - 1 = 1058 - max(biased, 1) + X of m * 5**k
    point = np.maximum(biased, 1)
    del bits, biased
    point -= exponent
    np.subtract(1058, point, out=point)
    order = np.argsort(point, kind="stable")
    low, point, k = low[order], point[order], 16 - exponent[order]
    high = low >> _U64(32)
    low &= _LOW32
    rounded = _wide_rounded(low, high, point, k)
    del low, high, point, k
    significand = np.empty_like(rounded)
    significand[order] = rounded
    carried = significand == _D_HIGH
    significand[carried] = _D_LOW
    exponent[carried] += 1
    return significand, exponent


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
