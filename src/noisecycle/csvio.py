"""CSV output shared by every command.

Every file has one layout: comment lines start with ``# `` and end in ``\\n``;
the header and the data rows end in ``\\r\\n``, the line terminator of the
``csv`` module's default dialect; numbers carry 17 significant digits and
their text is byte-identical to ``"%.17g" % v``, so every float64 reads back
exactly.  No field is quoted: numbers and the phase labels never hold a
comma, a quote or a line break.

Numbers are encoded by numpy, ``CHUNK_ROWS`` rows at a time, each distinct
bit pattern of a chunk once.  Write |v| = m 2^q with m in [2^52, 2^53), and
its 17 digits as D 10^(E-16) with D in [10^16, 10^17).  A table holds, per
q, the double-double of 2^q 10^(16-E) at the two exponents E a binade can
take, so X = m 2^q 10^(16-E) is formed by Dekker's exact product with an
error near 1e-14, and D = round(X).  Zeros, subnormals, infinities, NaNs and
the values whose X lies within ``_TIE_BAND`` of a half-integer (the exact
ties, which round half to even, among them) are formatted by ``%.17g``
itself.  A cell is a row of byte slots: sign, the ``0.000`` prefix, 17
digits each followed by a point slot, and the exponent suffix.  A dropped
slot holds NUL, and one ``bytes.translate`` pass deletes the NULs of a whole
chunk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from typing import NamedTuple

import numpy as np

# rows encoded per numpy pass; a table of more than one dimension is cut
# along its first axis, at least one line of it per pass
CHUNK_ROWS = 1024
ROW_END = b"\r\n"

# |frac(X) - 1/2| below this goes to "%.17g"; the error on X is about 1e-14
_TIE_BAND = 1e-6
_EXPONENT = 0x7FF
_FRACTION = (1 << 52) - 1
_VELTKAMP = 2.0 ** 27 + 1.0
_SMALLEST_E = -308  # decimal exponent of the smallest normal float64

# A cell: sign; prefix "0.000"; the lead digit and the 16 digits of four
# 4-digit limbs, each digit followed by a point slot; suffix "e+308".
_CELL_SLOTS = np.dtype([("sign", "u1"), ("prefix", "u1", 5), ("lead", "<u2"),
                        ("limbs", "<u8", 4), ("suffix", "u1", 5)])
_CELL = _CELL_SLOTS.itemsize
_DIGITS = slice(_CELL_SLOTS.fields["lead"][1], _CELL_SLOTS.fields["suffix"][1])


class _Tables(NamedTuple):
    # per 4-digit limb value i
    octets: np.ndarray    # "%04d" % i with 0xFF in each point slot
    trailing: np.ndarray  # trailing zeros of "%04d" % i
    # per 17 before_point + shown digits: 0xFF at each digit slot kept, "." at the point
    masks: np.ndarray
    # per exponent field: m >= m_cut puts |v| a decade above the binade's low end
    m_cut: np.ndarray
    # per row 2 field + k: E = e0 + k, and 2^q 10^(16-E) as c_hi + c_lo with
    # c_hi = c_top + c_bottom split in halves
    exp10: np.ndarray
    c_hi: np.ndarray
    c_top: np.ndarray
    c_bottom: np.ndarray
    c_lo: np.ndarray
    # per E - _SMALLEST_E
    prefix: np.ndarray
    suffix: np.ndarray


@cache
def _tables() -> _Tables:
    """Every table of the encoder, built from Python ints on first use.

    ``int / int`` is correctly rounded, so each c_hi and the residual c_lo
    below it are exact to the last bit.
    """
    text = [b"%04d" % i for i in range(10000)]
    octets = np.full((10000, 8), 0xFF, dtype=np.uint8)
    octets[:, ::2] = np.array(text).view(np.uint8).reshape(10000, 4)
    masks = np.zeros((18, 18, 34), dtype=np.uint8)
    for before_point in range(18):
        for shown in range(18):
            masks[before_point, shown, :2 * max(before_point, shown):2] = 0xFF
            if 1 <= before_point < shown:
                masks[before_point, shown, 2 * before_point - 1] = ord(".")
    e0, m_cut, hi, lo = [], [], [], []
    for field in range(_EXPONENT + 1):
        # fields 0 and 0x7FF never reach the output; they copy their neighbours
        q = min(max(field, 1), _EXPONENT - 1) - 1075
        p = 52 + q  # 10^e0 <= 2^p < 10^(e0+1), and 2^-k = 5^k / 10^k
        e = len(str(2 ** p)) - 1 if p >= 0 else len(str(5 ** -p)) - 1 + p
        e0.append(e)
        # ceil(10^(e0+1) / 2^q), below 2^56 since 10^(e0+1) <= 10 2^p
        m_cut.append(-(-10 ** max(e + 1, 0) * 2 ** max(-q, 0)
                       // (10 ** max(-e - 1, 0) * 2 ** max(q, 0))))
        for k in (0, 1):
            num = 2 ** max(q, 0) * 10 ** max(16 - e - k, 0)
            den = 2 ** max(-q, 0) * 10 ** max(e + k - 16, 0)
            c = num / den
            c_num, c_den = c.as_integer_ratio()
            hi.append(c)
            lo.append((num * c_den - c_num * den) / (den * c_den))
    c_hi = np.array(hi)
    spread = c_hi * _VELTKAMP
    c_top = spread - (spread - c_hi)
    exps = range(_SMALLEST_E, -_SMALLEST_E + 1)
    tables = _Tables(
        octets=octets.view("<u8")[:, 0],
        trailing=np.array([4] + [4 - len(t.rstrip(b"0")) for t in text[1:]], dtype=np.intp),
        masks=masks.reshape(18 * 18, 34),
        m_cut=np.array(m_cut, dtype=np.int64),
        exp10=np.repeat(e0, 2) + np.tile([0, 1], len(e0)),
        c_hi=c_hi, c_top=c_top, c_bottom=c_hi - c_top, c_lo=np.array(lo),
        prefix=_text_slots(b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in exps),
        suffix=_text_slots(b"" if -4 <= e < 17 else b"e%+03d" % e for e in exps),
    )
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _text_slots(texts: Iterable[bytes]) -> np.ndarray:
    """One NUL-padded row of 5 byte slots per text."""
    return np.array(list(texts), dtype="S5").view(np.uint8).reshape(-1, 5)


def _significands(bits: np.ndarray, t: _Tables):
    """(D, E, exact) of float64 bit patterns: a normal |v| rounds to D 10^(E-16).

    ``exact`` is False where X sits too near a half-integer to round safely.
    The result holds no meaning for zeros, subnormals, infinities and NaNs.
    """
    field = (bits >> 52) & _EXPONENT
    m = (bits & _FRACTION) | (1 << 52)
    row = 2 * field + (m >= t.m_cut[field])
    exp10 = t.exp10[row]
    # Dekker's exact product m c_hi = x_hi + err, m split into 26 and 27 bits
    m_all = m.astype(np.float64)
    m_top = (m >> 27 << 27).astype(np.float64)
    m_bottom = (m & ((1 << 27) - 1)).astype(np.float64)
    c_top, c_bottom = t.c_top[row], t.c_bottom[row]
    x_hi = m_all * t.c_hi[row]
    err = ((m_top * c_top - x_hi) + m_top * c_bottom + m_bottom * c_top) + m_bottom * c_bottom
    x_lo = err + m_all * t.c_lo[row]
    # x_hi >= 1e16 > 2^53 is an integer, so frac(X) = frac(x_lo)
    floor = np.floor(x_lo)
    frac = x_lo - floor
    sig = x_hi.astype(np.int64) + floor.astype(np.int64) + (frac >= 0.5)
    carry = sig == 10 ** 17
    sig[carry] = 10 ** 16
    exp10[carry] += 1
    return sig, exp10, np.abs(frac - 0.5) >= _TIE_BAND


def _layout(sig: np.ndarray, exp10: np.ndarray, negative: np.ndarray, t: _Tables) -> np.ndarray:
    """Cells of the ``%.17g`` text of a sign, 17 digits ``sig`` and exponent ``exp10``."""
    n = sig.size
    lead, rest = np.divmod(sig, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    limbs = np.empty((n, 4), dtype=np.intp)
    limbs[:, 0], limbs[:, 1] = np.divmod(upper, 10 ** 4)
    limbs[:, 2], limbs[:, 3] = np.divmod(lower, 10 ** 4)
    zeros = t.trailing[limbs[:, 0]]
    for j in (1, 2, 3):
        zeros = np.where(limbs[:, j] == 0, zeros + 4, t.trailing[limbs[:, j]])
    # fixed notation for -4 <= E < 17 keeps its integer part in full
    before_point = np.where((exp10 >= -4) & (exp10 < 17), exp10 + 1, 1).clip(0)
    frame = exp10 - _SMALLEST_E
    cells = np.empty((n, _CELL), dtype=np.uint8)
    slots = cells.view(_CELL_SLOTS)[:, 0]
    slots["sign"] = negative.view(np.uint8) * ord("-")
    slots["prefix"] = np.take(t.prefix, frame, axis=0)
    slots["lead"] = lead + (0xFF00 + ord("0"))
    slots["limbs"] = np.take(t.octets, limbs)
    slots["suffix"] = np.take(t.suffix, frame, axis=0)
    cells[:, _DIGITS] &= np.take(t.masks, 18 * before_point + 17 - zeros, axis=0)
    return cells


def _number_cells(values: np.ndarray) -> np.ndarray:
    """One NUL-padded cell of ``%.17g`` text per float64 of the 1-D ``values``."""
    t = _tables()
    bits = values.view(np.int64)
    sig, exp10, exact = _significands(bits, t)
    cells = _layout(sig, exp10, bits < 0, t)
    field = (bits >> 52) & _EXPONENT
    slow = np.flatnonzero(~exact | (field == 0) | (field == _EXPONENT))
    cells[slow] = np.array([b"%.17g" % v for v in values[slow].tolist()],
                           dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return cells


def encode_rows(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The data rows of a table, a chunk of rows at a time.

    The columns broadcast together to the table's shape and its cells go out
    in C order, so a column over the first axis of a grid is given as
    ``x[:, None]``.  A column of dtype ``S`` is text, written as it is
    without its NUL padding; every other column is written as float64.
    """
    columns = [c if c.dtype.kind == "S" else c.astype(np.float64, copy=False)
               for c in map(np.asarray, columns)]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    columns = [np.broadcast_to(c, shape) for c in columns]
    numbers = [i for i, c in enumerate(columns) if c.dtype.kind != "S"]
    width = max(_CELL, *(c.itemsize for c in columns)) + len(ROW_END)
    step = max(1, CHUNK_ROWS // max(1, math.prod(shape[1:])))
    for start in range(0, shape[0], step):
        block = [c[start:start + step].reshape(-1) for c in columns]
        rows = block[0].size
        bits = np.empty((rows, len(numbers)), dtype=np.int64)
        for j, i in enumerate(numbers):
            bits[:, j] = block[i].view(np.int64)
        unique, inverse = np.unique(bits, return_inverse=True)
        # each cell of the chunk is a row of the pool, picked by ``index``
        parts = [_number_cells(unique.view(np.float64))]
        index = np.empty((rows, len(block)), dtype=np.intp)
        index[:, numbers] = inverse.reshape(bits.shape)
        for i, column in enumerate(block):
            if i not in numbers:
                index[:, i] = sum(map(len, parts)) + np.arange(rows)
                parts.append(column.view(np.uint8).reshape(rows, -1))
        pool = np.zeros((sum(map(len, parts)), width), dtype=np.uint8)
        filled = 0
        for part in parts:
            pool[filled:filled + len(part), :part.shape[1]] = part
            filled += len(part)
        pool[:, -len(ROW_END)] = ord(",")
        table = np.take(pool, index, axis=0)
        table[:, -1, -len(ROW_END):] = np.frombuffer(ROW_END, dtype=np.uint8)
        yield table.tobytes().translate(None, b"\0")


def write_csv(path, header: list[str], columns: Sequence[np.ndarray],
              comments: Iterable[str] = ()) -> None:
    """Write the comment lines, the header row and the rows of ``columns`` to ``path``."""
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in comments).encode())
        fh.write(",".join(header).encode() + ROW_END)
        fh.writelines(encode_rows(columns))
