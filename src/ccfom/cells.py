"""CSV cells as fixed-width byte slots, spelt by a vectorised "%.17g" writer.

Each cell of a chunk of rows gets a slot of bytes, padded with NUL and
followed by its comma or newline; the chunk's text is the grid without its
NULs, decoded once.  A float is spelt as "%.17g" spells it.  Its 17-digit
mantissa m = round(|x| 10^(16-e)), with e = floor(log10|x|), comes from
Dekker's two-product of |x| with a double-double 10^(16-e).  As in Grisu
(Loitsch, PLDI 2010), m is used only where its rounding is certified: every
other value (an exact or near tie, a value next to a power of ten, |x|
outside the fast range) is spelt by fmt.  The text is then one gather from
the digits, keyed by (sign, layout class, count of significant digits).
Reading a CSV back is one ``np.loadtxt`` call (see
:func:`ccfom.reporting.read_csv`).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .config import fmt

__all__ = [
    "FAST_EXP",
    "byte_slots",
    "float_slots",
    "grid",
    "grid_text",
    "int_slots",
]

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
