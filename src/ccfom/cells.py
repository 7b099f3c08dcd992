"""CSV cells as fixed-width byte slots: the "%.17g" writer and the reader that inverts it.

Writing, each cell of a chunk of rows gets a slot of bytes, padded with NUL
and followed by its comma or newline; the chunk's text is the grid without
its NULs, decoded once.  A float is spelt as "%.17g" spells it.  Its 17-digit
mantissa m = round(|x| 10^(16-e)), with e = floor(log10|x|), comes from
Dekker's two-product of |x| with a double-double 10^(16-e).  As in Grisu
(Loitsch, PLDI 2010), m is used only where its rounding is certified: every
other value (an exact or near tie, a value next to a power of ten, |x|
outside the fast range) is spelt by fmt.  The text is then one gather from
the digits, keyed by (sign, layout class, count of significant digits).

Reading, the data block of a CSV is split at its commas and newlines in one
pass, and a column of cells is a pair of byte offsets per cell, decoded only
when a cell is read.  :func:`parse` converts columns as ``np.asarray(column,
dtype)`` does, bit for bit and with its errors: it reads a cell spelt
``[-]digits[.digits][e(+|-)XX[X]]`` from its slot by the exact-arithmetic fast
path of Clinger (PLDI 1990) and Lemire (Softw. Pract. Exp. 51(8), 2021), and
leaves every other cell, and every value whose rounding it cannot certify,
to numpy.
"""

from __future__ import annotations

import csv
import functools
from collections.abc import Sequence
from typing import NamedTuple, Optional

import numpy as np

from .config import fmt

__all__ = [
    "FAST_EXP",
    "TextColumn",
    "byte_slots",
    "float_slots",
    "grid",
    "grid_text",
    "int_slots",
    "parse",
    "read_cells",
    "same_text",
    "split_rows",
]

# ---------------------------------------------------------------------------
# the writer

# The exponents e of the fast path.  Over them 10^(16-e) lies within
# 10^-264..10^296 and |x| below 10^281, so no product, split or partial
# product below overflows or leaves the normal range.
FAST_EXP = (-280, 280)
# Veltkamp's splitter: fl(x s) - (fl(x s) - x) is the upper 26 bits of x.
_SPLIT = 2.0**27 + 1
# For the right e, |x| 10^(16-e) = p + r, where p = fl(|x| t_hi) is an
# integer below 2^57 and the computed r is off by less than 2^-47: 2^-49
# from t_lo's own rounding, 2^-49 from fl(|x| t_lo) and 2^-48 from its sum
# with p's exact low part.  A fraction of r farther than this from 1/2
# certifies m = round(p + r).  An e off by one (log10 next to a power of
# ten) puts m at or outside 10^16 or 10^17, so m strictly between them
# certifies e.
_HALF_MARGIN = 2.0**-45

# A float's source row, 36 bytes as nine 4-digit words: "000" and the first
# mantissa digit, the other 16 digits, "0" and the three digits of |e|, then
# these constant bytes.  Its layout picks from them.
_SRC_CONST = np.frombuffer(b"\0-.e+naif\0\0\0", np.uint32)
_SRC_POS = {"0": 0, "h": 21, "t": 22, "u": 23,
            **{chr(c): 24 + i for i, c in enumerate(b"\0-.e+naif")}}
# The longest "%.17g" text, e.g. "-1.2345678901234567e-308".
_FLOAT_SLOT = 24
# Layout classes: 0..20 fixed notation (e = class - 4); 21..24 e+XX, e+XXX,
# e-XX and e-XXX; then zero, the infinities, NaN, and the values fmt spells.
_ZERO, _INF, _NAN, _BY_FMT = 25, 26, 27, 28
_CLASSES = 29


def _exp_class(e: int) -> int:
    if -4 <= e <= 16:
        return e + 4
    return 21 + 2 * (e < 0) + (abs(e) >= 100)


def _float_layout(neg: bool, cls: int, s: int) -> list[int]:
    """The source positions that spell a float of sign ``neg``, layout class
    ``cls`` and ``s`` significant digits (mantissa digit j at 3 + j),
    NUL-padded to the slot."""
    if cls <= 20:
        e = cls - 4
        if e < 0:
            text = ["0", "."] + ["0"] * (-e - 1) + list(range(s))
        else:
            text = list(range(e + 1)) + (["."] + list(range(e + 1, s)) if s > e + 1 else [])
    elif cls < _ZERO:
        exp_neg, three = divmod(cls - 21, 2)
        text = [0] + (["."] + list(range(1, s)) if s > 1 else [])
        text += ["e", "-" if exp_neg else "+"] + ["h", "t", "u"][1 - three:]
    else:
        text = {_ZERO: ["0"], _INF: list("inf"), _NAN: list("nan"), _BY_FMT: []}[cls]
    if neg and cls not in (_NAN, _BY_FMT):
        text = ["-"] + text
    text += ["\0"] * (_FLOAT_SLOT - len(text))
    return [3 + c if isinstance(c, int) else _SRC_POS[c] for c in text]


class _Tables(NamedTuple):
    digits4: np.ndarray  # (10^4,) uint32 whose bytes are the 4 digits of 0..9999
    zeros4: np.ndarray  # the trailing zeros of those 4 digits
    t_hi: np.ndarray  # 10^(16-e) rounded, for e over FAST_EXP
    t_hi1: np.ndarray  # the upper and lower halves of t_hi (Veltkamp)
    t_hi2: np.ndarray
    t_lo: np.ndarray  # 10^(16-e) - t_hi, rounded
    exp_class: np.ndarray  # the layout class of each e over FAST_EXP
    layout: np.ndarray  # (2 * _CLASSES * 17, _FLOAT_SLOT) source positions


def _powers_of_ten(exps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10^j for each j of ``exps`` as a double-double t_hi + t_lo, each term
    rounded to nearest, and t_hi's upper and lower halves (Veltkamp)."""
    t_hi, t_lo = [], []
    for j in exps:  # 10^j = a/b; int / int is correctly rounded
        a, b = 10 ** max(j, 0), 10 ** max(-j, 0)
        t_hi.append(a / b)
        num, den = t_hi[-1].as_integer_ratio()
        t_lo.append((a * den - num * b) / (b * den))
    t_hi, t_lo = np.array(t_hi), np.array(t_lo)
    c = t_hi * _SPLIT
    t_hi1 = c - (c - t_hi)
    return t_hi, t_hi1, t_hi - t_hi1, t_lo


@functools.cache
def _tables() -> _Tables:
    """The writer's constant tables, built exactly on first use."""
    d = np.arange(10_000, dtype=np.int32)
    digits4 = np.empty((10_000, 4), np.uint8)
    for j in range(4):
        digits4[:, 3 - j] = d // 10**j % 10 + ord("0")
    exps = range(FAST_EXP[0], FAST_EXP[1] + 1)
    keys = [(neg, cls, s) for neg in (False, True) for cls in range(_CLASSES) for s in range(1, 18)]
    layout = np.empty((len(keys), _FLOAT_SLOT), np.intp)
    for row, key in zip(layout, keys):
        row[:] = _float_layout(*key)
    zeros4 = sum((d % 10**j == 0).astype(np.int8) for j in range(1, 5))
    return _Tables(digits4.view(np.uint32).ravel(), zeros4,
                   *_powers_of_ten(16 - e for e in exps),
                   np.array([_exp_class(e) for e in exps]), layout)


def float_slots(x: np.ndarray) -> np.ndarray:
    """(n, 24) NUL-padded bytes: each float as "%.17g" spells it."""
    t = _tables()
    x = x.astype(np.float64, copy=False)
    n = x.size
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= FAST_EXP[0]) & (e <= FAST_EXP[1])  # no zero, NaN or infinity
    a[~fast] = 1.0
    i = np.where(fast, e - FAST_EXP[0], -FAST_EXP[0]).astype(np.intp)
    th1, th2 = t.t_hi1[i], t.t_hi2[i]
    # Dekker's two-product |x| t_hi = p + r, exactly; then r += |x| t_lo
    p = a * t.t_hi[i]
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    r = a2 * th2 - (((p - a1 * th1) - a2 * th1) - a1 * th2)
    r += a * t.t_lo[i]
    whole = np.floor(r)
    frac = r - whole
    m = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok = fast & (np.abs(frac - 0.5) > _HALF_MARGIN) & (m > 10**16) & (m < 10**17)
    m[~ok] = 10**16  # digits in range for the rows spelt otherwise

    hi, lo = np.divmod(m, 10**8)
    lead, hi = np.divmod(hi, 10**8)
    groups = (lead, *np.divmod(hi, 10**4), *np.divmod(lo, 10**4))
    src = np.empty((n, 9), np.uint32)
    for j, g in enumerate(groups):
        src[:, j] = t.digits4[g]
    src[:, 5] = t.digits4[np.abs(i + FAST_EXP[0])]
    src[:, 6:] = _SRC_CONST
    src = src.view(np.uint8)
    # the count of significant digits, 17 less the trailing zeros of m
    zeros = [t.zeros4[g] for g in groups[1:]]
    s = 17 - np.where(lo == 0, 8 + np.where(groups[2] == 0, 4 + zeros[0], zeros[1]),
                      np.where(groups[4] == 0, 4 + zeros[2], zeros[3]))

    cls = t.exp_class[i]
    odd = np.flatnonzero(~ok)
    if odd.size:
        y = x[odd]
        cls[odd] = np.where(y == 0, _ZERO, np.where(np.isinf(y), _INF,
                                                     np.where(np.isnan(y), _NAN, _BY_FMT)))
    idx = t.layout.take((np.signbit(x) * _CLASSES + cls) * 17 + (s - 1), axis=0)
    idx += np.arange(0, src.size, src.shape[1])[:, None]
    out = src.ravel().take(idx)
    by_fmt = odd[cls[odd] == _BY_FMT]
    if by_fmt.size:
        out[by_fmt] = byte_slots([fmt(v).encode() for v in x[by_fmt].tolist()], _FLOAT_SLOT)
    return out


def int_slots(v: np.ndarray) -> np.ndarray:
    """(n, w) bytes: each integer in decimal, a NUL for its sign if it has none
    and for each leading zero."""
    t = _tables()
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    width = len(str(int(mag.max()))) if v.size else 1
    groups = np.empty((v.size, -(-width // 4)), np.intp)
    for j in reversed(range(groups.shape[1])):
        mag, groups[:, j] = np.divmod(mag, 10**4)
    digits = t.digits4[groups].view(np.uint8)[:, -width:]
    digits[:, :-1][np.logical_and.accumulate(digits[:, :-1] == ord("0"), axis=1)] = 0
    if not neg.any():
        return digits
    return np.concatenate([np.where(neg, ord("-"), 0).astype(np.uint8)[:, None], digits], axis=1)


def byte_slots(cells: list[bytes], width: int = 1) -> np.ndarray:
    """(n, w) NUL-padded bytes of ``cells``, w at least ``width``."""
    width = max([width, *map(len, cells)])
    return np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(len(cells), width)


def grid(slots: Sequence[np.ndarray]) -> np.ndarray:
    """The slots side by side, each followed by a comma, the last by a newline."""
    out = np.empty((len(slots[0]), sum(s.shape[1] + 1 for s in slots)), np.uint8)
    at = 0
    for s in slots:
        out[:, at : at + s.shape[1]] = s
        at += s.shape[1] + 1
        out[:, at - 1] = ord(",")
    out[:, -1] = ord("\n")
    return out


def grid_text(cells: np.ndarray) -> str:
    """The text of a grid: its bytes without the NULs."""
    return str(cells[cells != 0], "utf-8")


# ---------------------------------------------------------------------------
# the reader
#
# The kernel sees a cell as three little-endian uint64 words: its first 24
# bytes, NUL-padded (the first byte of the text is the low byte of word 0),
# laid out (3, n) so that each word of every cell is one array.
# Byte tests are SWAR on those words, and 8 digits make one number in three
# multiply-shift-mask steps (Lemire).

_WORDS = _FLOAT_SLOT // 8
_ONES = np.uint64(0x0101_0101_0101_0101)
_HIGH = np.uint64(0x8080_8080_8080_8080)
# The decimal exponents j of the fast path's 10^j.  Above 10^-293 the
# double-double is off by at most 2^-105 of 10^j: t_lo's own rounding is
# below 2^-106 of t_hi, or half the least subnormal, 2^-1075.
_POW_EXP = (-292, 280)
# The value read is M 10^j for an integer M < 10^18, M_hi = fl(M) and
# M_lo = M - M_hi exact.  The double-double product (M_hi + M_lo)(t_hi +
# t_lo) = p + r, with p + e1 = M_hi t_hi exact (Dekker), is off from it by
# less than 2^-100 |p|: 2^-105 from the table,
# 2^-106 from each of M_hi t_lo and M_lo t_hi and the dropped M_lo t_lo, and
# 2^-103 from the two sums in r.  Where p + (r - d) and p + (r + d), with
# d = 2^-95 |p|, round to one double, that double is M 10^j rounded.  Over
# _POW_EXP every partial product of the two-product stays normal and finite,
# and e1, a multiple of ulp(t_hi) since M is an integer, is exact; as in the
# writer, only results within 10^-280..10^281 are taken.
_BRACKET = 2.0**-95
_RANGE = (1e-280, 1e281)
# Cells read per kernel call.  At 2048 a call's temporaries stay in cache,
# and the allocator keeps their pages between calls; at 4096, in most runs
# of a process that had run a sweep and its verifies, it gave them back
# and a 2000-row file took 1,000-1,900 page faults and up to 1.3x the time.
_READ_CHUNK = 2048


class _ReadTables(NamedTuple):
    prefix: np.ndarray  # (3, 26): the words of the mask of the bytes before byte i
    align: np.ndarray  # (3, 25): 2^(8 k) (10 * 256 + 1), k the bytes past byte d - 1 in word j
    weight: np.ndarray  # (3, 25): the place of word j's last digit in a d-digit number
    t_hi: np.ndarray  # 10^j over _POW_EXP as a double-double, t_hi split in two halves
    t_hi1: np.ndarray
    t_hi2: np.ndarray
    t_lo: np.ndarray


@functools.cache
def _read_tables() -> _ReadTables:
    """The reader's constant tables, built exactly on first use."""
    prefix = np.zeros((26, _FLOAT_SLOT), np.uint8)
    for i in range(26):
        prefix[i, :i] = 0xFF
    align = np.ones((_WORDS, 25), np.uint64)
    weight = np.zeros((_WORDS, 25), np.uint64)
    for d in range(25):
        for j in range(_WORDS):
            if 8 * j < d:  # word j holds digits; a partial word is shifted to end at d - 1
                align[j, d] = 2 ** (8 * max(8 * j + 8 - d, 0)) * (10 * 256 + 1) % 2**64
                weight[j, d] = 10 ** max(d - 8 * j - 8, 0)
    return _ReadTables(np.ascontiguousarray(prefix.view(np.uint64).T), align, weight,
                       *_powers_of_ten(range(_POW_EXP[0], _POW_EXP[1] + 1)))


def _prefix(at: np.ndarray) -> np.ndarray:
    """(3, n) words: 0xFF in each byte before byte ``at`` (0..25)."""
    return _read_tables().prefix.take(at, axis=1)


def _first(flags: np.ndarray) -> np.ndarray:
    """The index of each cell's first byte flagged in the (3, n) words
    ``flags`` (1 or 0 in each byte), 24 for none.  A word's lowest set bit,
    2^(8 b) for its first flagged byte b, is a float whose bits shifted right
    by 55 are 127 + b; a word with none reads past every byte."""
    bits = (flags & -flags).astype(np.float64).view(np.int64)
    bits >>= 55
    bits += np.arange(-127, _FLOAT_SLOT - 127, 8)[:, None]
    bits &= 0xFF
    return np.minimum(bits.min(axis=0), _FLOAT_SLOT)


class TextColumn(Sequence):
    """A column of a CSV's data block: cell i is the text at bytes
    ``start[i]:end[i]`` of ``data``, decoded when it is read.  ``data`` is
    ASCII and holds 24 NUL bytes before its first cell and after its last."""

    def __init__(self, data: np.ndarray, start: np.ndarray, end: np.ndarray):
        self.data, self.start, self.end = data, start, end

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TextColumn(self.data, self.start[i], self.end[i])
        return self.data[self.start[i] : self.end[i]].tobytes().decode("ascii")

    def words(self) -> np.ndarray:
        """(3, n) uint64: each cell's first 24 bytes, NUL-padded, as three
        little-endian words; one gather of the 24-byte records that start at
        every byte of ``data``."""
        records = np.ndarray((self.data.size - _FLOAT_SLOT + 1,), f"V{_FLOAT_SLOT}", self.data,
                             strides=(1,))
        words = np.ascontiguousarray(records[self.start].view(np.uint64).reshape(-1, _WORDS).T)
        words &= _prefix(np.minimum(self.end - self.start, _FLOAT_SLOT))
        return words


def read_cells(cells: TextColumn) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read each cell spelt ``[-]digits[.digits][e(+|-)XX[X]]`` as ``float()``
    reads it, and each spelt ``[-]digits`` as ``int()`` reads it.

    Returns the int64 values and the mask of the cells read as ints, then the
    float values and the mask of those read as floats; a cell not read has
    the value 0.  A cell of another spelling, longer than 24 bytes or with
    more than 18 significant digits is not read, nor as a float one whose
    float lies outside 10^-280..10^281 or within 2^-95 of a rounding
    boundary.  ``0`` and ``-0`` read as +0.0 and -0.0 at any exponent.
    """
    t = _read_tables()
    size = np.minimum(cells.end - cells.start, _FLOAT_SLOT + 1)
    w = cells.words()

    def byte(at):  # byte ``at`` of each cell, for -5 <= at <= 24
        return cells.data.take(cells.start + at)

    neg = (w[0] & np.uint64(0xFF)) == ord("-")
    s = neg.astype(np.intp)
    # 1 in each digit byte: every byte is ASCII, and b + 0x50 has its 0x80
    # bit set from "0" on, 0xB9 - b up to "9"
    digit = w + np.uint64(0x5050_5050_5050_5050)
    digit &= np.uint64(0xB9B9_B9B9_B9B9_B9B9) - w
    digit &= _HIGH
    digit >>= np.uint64(7)
    digits = (((digit[0] + digit[1] + digit[2]) * _ONES) >> np.uint64(56)).view(np.int64)
    other = digit ^ _ONES
    other[0] ^= neg
    pd = _first(other)  # the first byte after the sign that is no digit
    # the exponent, if any, ends the cell: "e", its sign, and 2 or 3 digits
    e4 = (size >= 5) & (byte(size - 4) == ord("e"))
    e5 = ~e4 & (size >= 6) & (byte(size - 5) == ord("e"))
    has_e = e4 | e5
    pe = size - 4 - e5
    me = np.where(has_e, pe, size)  # the end of the mantissa
    has_dot = (pd < me) & (byte(pd) == ord("."))
    sign = byte(pe + 1)
    # the sign, the dot, the "e" and its sign are the only bytes that are no digit
    ok = (size <= _FLOAT_SLOT) & (pd > s) & (size - digits == s + has_dot + 2 * has_e)
    ok &= ~has_dot | (me > pd + 1)
    ok &= ~has_e | (sign == ord("+")) | (sign == ord("-"))

    # the digits (every other byte 0), those after the dot moved down over
    # it; then each word's digits are moved to end at its last byte, or at
    # the last digit, and the words past it weighted 0
    digit *= np.uint64(0x0F)
    x = w & digit
    head = _prefix(pd)
    head &= x
    x ^= head
    down = x >> np.uint64(8)
    down[:-1] |= x[1:] << np.uint64(56)
    x = head | down
    d = me - has_dot  # the digits fill [s, d)
    high = _prefix(np.maximum(d - 18, 0))
    high &= x
    ok &= ~high.any(axis=0)  # at most 18 significant digits
    # 8 digits make one number in three multiply-shift-mask steps (Lemire);
    # the first multiplier also moves them to end at the word's last byte
    x *= t.align.take(d, axis=1)
    x >>= np.uint64(8)
    x &= np.uint64(0x00FF_00FF_00FF_00FF)
    x *= np.uint64(100 * 2**16 + 1)
    x >>= np.uint64(16)
    x &= np.uint64(0x0000_FFFF_0000_FFFF)
    x *= np.uint64(10000 * 2**32 + 1)
    x >>= np.uint64(32)
    x *= t.weight.take(d, axis=1)
    m = x.sum(axis=0).view(np.int64)
    m[~ok] = 0

    int_ok = ok & ~has_e & ~has_dot
    ints = np.where(neg, -m, m)
    ints[~int_ok] = 0

    units, tens, hundreds = (byte(size - k).astype(np.intp) - ord("0") for k in (1, 2, 3))
    exp = units + 10 * tens + 100 * e5 * hundreds
    j = np.where(has_e, np.where(sign == ord("-"), -exp, exp), 0)
    j -= has_dot * (me - pd - 1)
    ok &= (m == 0) | ((j >= _POW_EXP[0]) & (j <= _POW_EXP[1]))
    i = np.where(ok, j - _POW_EXP[0], -_POW_EXP[0])
    th, th1, th2 = t.t_hi.take(i), t.t_hi1.take(i), t.t_hi2.take(i)
    m_hi = m.astype(np.float64)
    m_lo = (m - m_hi.astype(np.int64)).astype(np.float64)
    # Dekker's two-product m_hi t_hi = p + e1, exactly; then the other terms
    p = m_hi * th
    c = m_hi * _SPLIT
    a1 = c - (c - m_hi)
    a2 = m_hi - a1
    r = a2 * th2 - (((p - a1 * th1) - a2 * th1) - a1 * th2)
    r += m_hi * t.t_lo.take(i) + m_lo * th
    bracket = np.abs(p) * _BRACKET
    value = p + (r - bracket)
    ok &= (m == 0) | ((value == p + (r + bracket)) & (value >= _RANGE[0]) & (value < _RANGE[1]))
    value[(m == 0) | ~ok] = 0.0
    return ints, int_ok, np.where(neg, -value, value), ok


def split_rows(raw: bytes, at: int, width: int) -> Optional[list[TextColumn]]:
    """The ``width`` columns of the data block of ``raw`` that starts at byte
    ``at``, split at its commas and newlines as the csv module splits a block
    that is ASCII and holds no quote or CR; None if it holds an empty line,
    which the csv module skips.  A field longer than the csv module reads
    raises its error, and then a row of another width raises ValueError
    (the first such row)."""
    size = len(raw) - at
    data = np.zeros(size + 2 * _FLOAT_SLOT + 1, np.uint8)
    body = data[_FLOAT_SLOT : _FLOAT_SLOT + size + 1]
    body[:size] = np.frombuffer(raw, np.uint8, offset=at)
    if not size or body[size - 1] != ord("\n"):
        body[size] = ord("\n")
    else:
        body = body[:size]
    end = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    start = np.empty_like(end)
    start[0] = 0
    start[1:] = end[:-1] + 1
    last = np.flatnonzero(body[end] == ord("\n"))  # the last field of each row
    counts = np.diff(last, prepend=-1)
    alone = last[counts == 1]
    if (start[alone] == end[alone]).any():
        return None
    limit = csv.field_size_limit()
    if (end - start).max() > limit:
        raise csv.Error(f"field larger than field limit ({limit})")
    bad = np.flatnonzero(counts != width)
    if bad.size:
        raise ValueError(f"row has {counts[bad[0]]} fields, header has {width}")
    start, end = (start + _FLOAT_SLOT).reshape(-1, width), (end + _FLOAT_SLOT).reshape(-1, width)
    return [TextColumn(data, start[:, j], end[:, j]) for j in range(width)]


def parse(columns: Sequence[Sequence[str]], dtypes: Sequence) -> list[np.ndarray]:
    """``[np.asarray(c, dtype=t) for c, t in zip(columns, dtypes)]``, each t
    float64 or int64, bit for bit and with the first error it raises.  The
    text columns of one file go through :func:`read_cells` together, a
    chunk of cells a call; numpy converts the cells it does not read, a
    column at a time."""
    if not columns or not all(isinstance(c, TextColumn) and c.data is columns[0].data
                              for c in columns):
        return [np.asarray(c, dtype=t) for c, t in zip(columns, dtypes)]
    cells = TextColumn(columns[0].data, np.concatenate([c.start for c in columns]),
                       np.concatenate([c.end for c in columns]))
    read = [np.empty(len(cells), t) for t in (np.int64, bool, np.float64, bool)]
    for lo in range(0, len(cells), _READ_CHUNK):
        for out, part in zip(read, read_cells(cells[lo : lo + _READ_CHUNK])):
            out[lo : lo + _READ_CHUNK] = part
    values = []
    bounds = np.cumsum([0] + [len(c) for c in columns])
    for lo, hi, dtype in zip(bounds[:-1], bounds[1:], dtypes):
        value, ok = read[:2] if np.dtype(dtype) == np.int64 else read[2:]
        value, odd = value[lo:hi], np.flatnonzero(~ok[lo:hi])
        if odd.size:
            value[odd] = np.asarray([cells[lo + i] for i in odd.tolist()], dtype=dtype)
        values.append(value)
    return values


def same_text(column: Sequence[str], texts) -> np.ndarray:
    """``column[i] == texts[i]`` for each i.  A text column's cells are compared
    undecoded: each byte with the code point of each character."""
    texts = np.asarray(texts, dtype=str)
    if not isinstance(column, TextColumn):
        return np.asarray(column) == texts
    size = column.end - column.start
    chars = texts.view(np.uint32).reshape(len(texts), texts.itemsize // 4)[:, :_FLOAT_SLOT]
    slots = np.ascontiguousarray(column.words().T).view(np.uint8)[:, : chars.shape[1]]
    same = (size == np.char.str_len(texts)) & (slots == chars).all(axis=1)
    for i in np.flatnonzero(same & (size > _FLOAT_SLOT)).tolist():  # equal in their first 24 bytes
        same[i] = column[i] == texts[i]
    return same
