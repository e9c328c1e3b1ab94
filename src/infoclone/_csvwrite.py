"""CSV rows of numeric columns, rendered by numpy array operations.

Integer columns render as ``%d`` and float columns as ``%.17g``, byte for
byte what Python's ``'%.17g' % v`` gives: Gay's correctly rounded dtoa
("Correctly rounded binary-decimal and decimal-binary conversions", AT&T
1990) rounds the exact binary value half-even to 17 significant digits, then
``%g`` lays them out.

The digits are computed exactly, not estimated.  With |x| = m * 2**e
(m < 2**53) and X = floor(log10 |x|), the significand
D = round-half-even(|x| * 10**(16 - X)) is m * 5**k / 2**s with k = 16 - X
and s = -(e + k), taken from a two-limb product of uint64s (5**k < 2**63 for
k <= 27).  A log10 estimate of X that is one off leaves the truncated
quotient outside [1e16, 1e17) and is stepped and recomputed.  Anything
outside that window (|x| below 1e-11 or from 1e17 up, zero, nan, inf and
subnormals) is rendered by ``'%.17g' % v`` itself.

Layout works on little-endian uint64 words of eight characters, with NUL
wherever a character is absent, so every row has a fixed width; one
``bytes.translate(None, b"\\0")`` per chunk squeezes the NULs out.  A float
field is four words: the sign, the "0.000" of fixed form below 1 and the
first digit; the other 16 digits with the point inserted; the digit the
point pushed out, "e-XX" and the separator.  An integer field has room for its
longest value and the separator.
"""

from __future__ import annotations

import numpy as np

from .measurement import TRIAL_BATCH

# Rows per chunk: a few MiB of scratch whatever the column length.
CHUNK_ROWS = 4 * TRIAL_BATCH

_U64 = np.uint64
_WORD = np.dtype("<u8")  # byte j of a word is character j of its eight
_LOW32 = _U64(0xFFFFFFFF)
_MAX_K = 27
_POW5 = np.array([5**k for k in range(_MAX_K + 1)], dtype=_U64)
_D_LOW, _D_HIGH = _U64(10**16), _U64(10**17)
_E8 = _U64(10**8)
_BYTE = _U64(8)
_FLAGS = _U64(0x8080808080808080)
_ALL = _U64(0xFFFFFFFFFFFFFFFF)
_DOTS = _U64(0x2E2E2E2E2E2E2E2E)
_PREFIX = _U64(int.from_bytes(b"\x000.000\x00\x00", "little"))
_SUFFIX = _U64(int.from_bytes(b"\x00e-00\x00\x00\x00", "little"))
_FLOAT_WORDS = 4


def write_csv(handle, header: str, columns) -> None:
    """Write ``header`` and then one comma-separated row per index of
    ``columns``, a list of equal-length integer or float arrays (an integer
    column may be a ``range``), ``CHUNK_ROWS`` rows per ``handle.write``."""
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
    out = np.empty((parts[0].size, offsets[-1]), dtype=_WORD)
    for i, part in enumerate(parts):
        field = out[:, offsets[i] : offsets[i + 1]]
        separator = b"\n" if i == len(parts) - 1 else b","
        if part.dtype.kind in "iu":
            _render_ints(np.asarray(part, dtype=np.int64), field, separator)
        else:
            _render_floats(np.asarray(part, dtype=np.float64), field, separator)
    return out.tobytes().translate(None, b"\0").decode("ascii")


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
    longest = max(len(str(int(values.min()))), len(str(int(values.max()))))
    return -(-(longest + 1) // 8)


def _render_ints(values: np.ndarray, field: np.ndarray, separator: bytes) -> None:
    """``%d`` into ``field``: the digits right-aligned with leading zeros NUL,
    then the separator; negative values take the fallback."""
    words = field.shape[1]
    magnitude = np.where(values >= 0, values, 0).astype(_U64)
    pieces = [magnitude]  # 8-digit groups, most significant first
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
    _fill_fallback(field, values, values < 0, "%d", separator)


def _scaled(mantissa: np.ndarray, shift: np.ndarray, k: np.ndarray):
    """Truncated quotient q = floor(mantissa * 5**k / 2**shift) and whether
    the discarded part rounds it up, half to even.

    mantissa < 2**53 and 5**k < 2**63 multiply as 32-bit halves into the
    128-bit (high, low).  Over the window the shift lies in [-4, 62], and a
    negative shift multiplies by 2**-shift a product that fits one limb."""
    power = _POW5[k]
    m1, m0 = mantissa >> _U64(32), mantissa & _LOW32
    p1, p0 = power >> _U64(32), power & _LOW32
    low = m0 * p0
    middle = m1 * p0 + m0 * p1  # below 2**53 + 2**63
    summed = low + (middle << _U64(32))
    high = m1 * p1 + (middle >> _U64(32)) + (summed < low)
    right = np.maximum(shift, 0).astype(_U64)
    left = np.maximum(-shift, 0).astype(_U64)
    # numpy shifts a word by 64 bits or more to 0, here high when right is 0
    quotient = ((high << (_U64(64) - right)) | (summed >> right)) << left
    one = _U64(1) << right
    twice_rest = (summed & (one - _U64(1))) << _U64(1)
    # up above half, or at half with q odd: twice_rest is even, so adding
    # q's low bit carries only a tie past one
    up = twice_rest + (quotient & _U64(1)) > one
    return quotient, up


def _significands(values: np.ndarray):
    """17-digit significand D, decimal exponent X, and whether the value lies
    in the exact window, where D = round-half-even(|x| * 10**(16 - X)).
    Outside the window D is 1e16 and X is 0."""
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.floor(np.log10(magnitude))  # -inf at 0, nan at nan
    exact = (exponent >= 16 - _MAX_K) & (exponent <= 16)
    exponent = np.where(exact, exponent, 0.0).astype(np.int64)
    # |x| = mantissa * 2**binary for a normal double, the only kind in the
    # window; rows outside it run through meaningless words, and are dropped
    bits = magnitude.view(_U64)
    mantissa = (bits & _U64(2**52 - 1)) | _U64(2**52)
    binary = (bits >> _U64(52)).astype(np.int64) - 1075

    k = 16 - exponent
    quotient, up = _scaled(mantissa, -(binary + k), k)
    # a one-off log10 estimate puts the truncated quotient outside [1e16, 1e17)
    redo = np.flatnonzero((quotient - _D_LOW >= _D_HIGH - _D_LOW) & exact)
    if redo.size:
        exponent[redo] += np.where(quotient[redo] < _D_LOW, -1, 1)
        k_redo = 16 - exponent[redo]
        inside = (k_redo >= 0) & (k_redo <= _MAX_K)
        exact[redo[~inside]] = False
        k_redo = np.where(inside, k_redo, 0)
        quotient[redo], up[redo] = _scaled(mantissa[redo], -(binary[redo] + k_redo), k_redo)
    # No double in the window lies within 5e-18 below a power of ten (the
    # tests render those nearest each), so rounding never carries D to 1e17.
    return np.where(exact, quotient + up, _D_LOW), np.where(exact, exponent, 0), exact


def _render_floats(values: np.ndarray, field: np.ndarray, separator: bytes) -> None:
    """``%.17g`` into the four words of ``field``."""
    significand, exponent, exact = _significands(values)
    # D = lead * 1e16 + tail * 1e8 + last: one digit, then two 8-digit words
    rest, last = np.divmod(significand, _E8)
    lead = (rest * _U64(720575941)) >> _U64(56)  # rest // 1e8, exact below 1e9
    tail = _digit_bytes(rest - lead * _E8)
    last = _digit_bytes(last)

    # %g: fixed form for -4 <= X < 17, else scientific.  Trailing zeros go,
    # but not those of the integer part: digits 1 to X, the low X bytes of
    # (tail, last), which take `integer` bits (`in_last` of them in last).
    # The masks here rely on numpy shifting a word by 64 bits or more to 0.
    integer = _BYTE * np.maximum(exponent, 0).astype(_U64)
    in_last = np.maximum(integer, _U64(64)) - _U64(64)
    shown_last = _through_highest(_nonzero(last)) | (~(_ALL << in_last) & _FLAGS)
    shown_tail = (_through_highest(_nonzero(tail)) | (shown_last != 0) * _FLAGS
                  | (~(_ALL << integer) & _FLAGS))
    tail |= _as_text(shown_tail)
    last |= _as_text(shown_last)

    # The point goes after digit P, at byte P of (tail, last): P = X in fixed
    # form from 0 up and 0 in scientific form, none below 1 or where no digit
    # follows it (a shown last implies a fully shown tail).  `start` is its
    # bit, 192 (past both words) for none.
    below_one = (exponent < 0) & (exponent >= -4)
    follows = ((shown_tail >> integer) | (shown_last >> in_last)) & _U64(0x80)
    start = np.where((follows != 0) & ~below_one, integer, _U64(192))
    pushed = _U64(0)
    for word, digits in enumerate((tail, last)):
        base = _U64(64 * word)
        ahead = _ALL << (np.maximum(start, base) - base)  # the point and after
        after = _ALL << (np.maximum(start + _BYTE, base) - base)
        field[:, 1 + word] = ((digits & ~ahead) | (((digits << _BYTE) | pushed) & after)
                              | (ahead & ~after & _DOTS))
        pushed = digits >> _U64(56)

    # below 1: "0." and -X - 1 zeros, the low 2 - X bytes of _PREFIX
    prefix = _PREFIX & ~(_ALL << (_BYTE * np.maximum(2 - exponent, 0).astype(_U64)))
    field[:, 0] = ((values < 0) * _U64(ord("-")) | (lead + _U64(ord("0"))) << _U64(56)
                   | prefix * below_one)
    field[:, 3] = pushed * (start < _U64(128)) | _U64(separator[0]) << _U64(56)
    scientific = np.flatnonzero(exponent < -4)  # -X is 5 to 11 in the window
    if scientific.size:
        decade = (-exponent[scientific]).astype(_U64)
        tens = decade >= 10
        field[scientific, 3] |= (_SUFFIX | tens.astype(_U64) << _U64(24)
                                 | (decade - _U64(10) * tens) << _U64(32))
    _fill_fallback(field, values, ~exact, "%.17g", separator)


def _fill_fallback(field: np.ndarray, values: np.ndarray, rows: np.ndarray, fmt: str,
                   separator: bytes) -> None:
    """Overwrite ``rows`` of ``field`` with Python's ``fmt % value``, padded
    with NUL up to the ``separator`` that ends the field."""
    index = np.flatnonzero(rows)
    if index.size == 0:
        return
    width = 8 * field.shape[1] - len(separator)
    text = b"".join((fmt % v).encode("ascii").ljust(width, b"\0") + separator
                    for v in values[index].tolist())
    field[index] = np.frombuffer(text, dtype=_WORD).reshape(index.size, field.shape[1])
