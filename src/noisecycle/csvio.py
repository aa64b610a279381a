"""CSV output shared by every command.

Every file has one layout: comment lines start with ``# `` and end in ``\\n``;
the header and the data rows end in ``\\r\\n``, the line terminator of the
``csv`` module's default dialect; numbers carry 17 significant digits and
their text is byte-identical to ``"%.17g" % v``, so every float64 reads back
exactly.  No field is quoted: numbers and the phase labels never hold a
comma, a quote or a line break.

Numbers are encoded by numpy, ``CHUNK_ROWS`` rows at a time; a column
broadcast along an axis (``x[:, None]``) is encoded once and gathered per
row.  Write |v| = m 2^q with m in [2^52, 2^53), and its 17 digits as
D 10^(E-16) with D in [10^16, 10^17).  Each value has one key, twice its top
12 bits (sign and exponent field) plus whether m passes the binade's decade
cut, and the key fixes the sign and E: every table is read at it.  A table
holds, per key, the double-double of 2^q 10^(16-E), so X = m 2^q 10^(16-E)
is formed by Dekker's exact product with an error near 1e-14, and
D = round(X).  A cell is four little-endian 64-bit words: sign, ``0.000``
prefix, lead digit and point; 8 digits; 8 digits; exponent suffix and
separator.  ±0 has a cell of its own, ``0`` or ``-0``.  ``%.17g`` itself
formats the values that layout does not fit: the keys the ``rare`` table
flags (subnormals, infinities, NaNs, and 10 <= |v| < 10^17, whose
fixed-notation point falls among the digits), the values whose X lies within
``_TIE_BAND`` of a half-integer (the exact ties, which round half to even,
among them), and those whose last 4 digits are zeros, a D rounded up to
10^17 among them.  A dropped byte is NUL, and one ``bytes.translate`` pass
deletes the NULs of a whole chunk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from types import SimpleNamespace

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
_WORDS, _WORD = 4, np.dtype("<u8")  # a number cell is 4 little-endian 64-bit words
_LEAD = 48  # bit offset of the lead digit in the first word


def _words(texts: Iterable[bytes]) -> np.ndarray:
    """Each text of at most 8 bytes as one little-endian word, NUL-padded."""
    return np.array([int.from_bytes(t, "little") for t in texts], dtype=np.uint64)


@cache
def _tables() -> SimpleNamespace:
    """Every table of the encoder, built from Python ints on first use: ``int / int``
    is correctly rounded, so each c_hi and the residual c_lo below it are exact to the bit.
    """
    text = [b"%04d" % i for i in range(10000)]
    cut, exps, rare, hi, lo = [], [], [], [], []
    for field in range(_EXPONENT + 1):
        # fields 0 and 0x7FF are rare; their other entries copy their neighbours
        q = min(max(field, 1), _EXPONENT - 1) - 1075
        p = 52 + q  # 10^e0 <= 2^p < 10^(e0+1), and 2^-k = 5^k / 10^k
        e = len(str(2 ** p)) - 1 if p >= 0 else len(str(5 ** -p)) - 1 + p
        # ceil(10^(e0+1) / 2^q) - 2^52, below 2^56 since 10^(e0+1) <= 10 2^p
        cut.append(-(-10 ** max(e + 1, 0) * 2 ** max(-q, 0)
                     // (10 ** max(-e - 1, 0) * 2 ** max(q, 0))) - 2 ** 52)
        for k in (0, 1):
            exps.append(e + k)
            rare.append(field in (0, _EXPONENT) or 1 <= e + k <= 16)
            num = 2 ** max(q, 0) * 10 ** max(16 - e - k, 0)
            den = 2 ** max(-q, 0) * 10 ** max(e + k - 16, 0)
            c = num / den
            c_num, c_den = c.as_integer_ratio()
            hi.append(c)
            lo.append((num * c_den - c_num * den) / (den * c_den))
    c_hi = np.array(hi)
    spread = c_hi * _VELTKAMP
    c_top = spread - (spread - c_hi)
    head = _words(b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(5, b"\0")
                  + (b"0" if -4 <= e < 0 else b"0.") for e in exps)
    tables = SimpleNamespace(
        # per 4-digit group i: "%04d" % i as the low half of a word, the high half,
        # and the high half without its trailing zeros
        low=_words(text),
        high=_words(b"\0" * 4 + t for t in text),
        last=_words(b"\0" * 4 + t.rstrip(b"0") for t in text),
        # per top 12 bits: a fraction of m at least this puts |v| a decade
        # above the binade's low end, E = e0 + 1
        cut=np.tile(np.array(cut, dtype=np.int64), 2),
        # per key 2 top + k, in which E = e0 + k: 2^q 10^(16-E) as c_hi + c_lo
        # with c_hi = c_top + c_bottom split in halves ...
        c_hi=np.tile(c_hi, 2), c_top=np.tile(c_top, 2), c_bottom=np.tile(c_hi - c_top, 2),
        c_lo=np.tile(lo, 2),
        # ... the first word without digits, the sign's "-" in it, the suffix,
        # and whether the layout cannot hold the value: its exponent field is
        # 0 or 0x7FF, or fixed notation puts the point among the digits
        head=np.concatenate([head, head | ord("-")]),
        suffix=np.tile(_words(b"" if -4 <= e < 17 else b"e%+03d" % e for e in exps), 2),
        rare=np.tile(rare, 2),
    )
    for table in vars(tables).values():  # shared by every call
        table.flags.writeable = False
    return tables


def _formatted(values: np.ndarray) -> list[bytes]:
    """``"%.17g" % v`` of each value: the encoder's fallback."""
    return [b"%.17g" % v for v in values.tolist()]


def _number_cells(values: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """The (n, 4) cells of the 1-D float64 ``values``, each closed by its word of ``separators``."""
    t = _tables()
    bits = values.view(np.int64)
    fraction = bits & _FRACTION
    top = bits >> 52 & 0xFFF
    key = 2 * top + (fraction >= np.take(t.cut, top))
    # Dekker's exact product m c_hi = x_hi + err, m split into 26 and 27 bits
    m = fraction | (1 << 52)
    m_all = m.astype(np.float64)
    m_top = (m >> 27 << 27).astype(np.float64)
    m_bottom = (m & ((1 << 27) - 1)).astype(np.float64)
    c_top, c_bottom = np.take(t.c_top, key), np.take(t.c_bottom, key)
    x_hi = m_all * np.take(t.c_hi, key)
    err = ((m_top * c_top - x_hi) + m_top * c_bottom + m_bottom * c_top) + m_bottom * c_bottom
    x_lo = err + m_all * np.take(t.c_lo, key)
    # x_hi >= 1e16 > 2^53 is an integer, so D = x_hi + rint(x_lo)
    rounded = np.rint(x_lo)
    sig = x_hi.astype(np.int64) + rounded.astype(np.int64)
    # D = lead g1 g2 g3 g4 in 4-digit groups
    upper = sig // 10 ** 8
    g34 = sig - upper * 10 ** 8
    g01 = upper // 10 ** 4
    lead = g01 // 10 ** 4
    g1, g2 = g01 - lead * 10 ** 4, upper - g01 * 10 ** 4
    g3 = g34 // 10 ** 4
    g4 = g34 - g3 * 10 ** 4
    # the layout strips zeros from g4 alone and puts the point after the lead
    # digit; a D rounded up to 10^17 has g4 = 0, so it needs no carry step
    rare = np.flatnonzero(np.take(t.rare, key) | (g4 == 0)
                          | (np.abs(x_lo - rounded) > 0.5 - _TIE_BAND))
    cells = np.empty((values.size, _WORDS), dtype=_WORD)
    cells[:, 0] = np.take(t.head, key) | lead.astype(np.uint64) << _LEAD
    cells[:, 1] = np.take(t.low, g1) | np.take(t.high, g2)
    cells[:, 2] = np.take(t.low, g3) | np.take(t.last, g4)
    cells[:, 3] = np.take(t.suffix, key) | separators
    cells[rare, 3] = separators[rare]  # no suffix
    is_zero = (bits[rare] << 1) == 0
    zero, slow = rare[is_zero], rare[~is_zero]
    cells[zero, 0] = (key[zero] >> 12) * ord("-") | ord("0") << _LEAD  # ±0 shows the one digit 0
    cells[zero, 1:3] = 0
    cells[slow, :3] = np.array(_formatted(values[slow]), dtype="S24").view(_WORD).reshape(-1, 3)
    return cells


def _whole_cells(column: np.ndarray, end: bytes, separator: np.uint64) -> np.ndarray:
    """The cells of a whole column, each closed by ``end``: shape ``column.shape + (words,)``."""
    if column.dtype.kind != "S":
        cells = _number_cells(column.reshape(-1), np.repeat(separator, column.size))
        return cells.reshape(*column.shape, _WORDS)
    text = np.char.add(column, end)  # its NUL padding is deleted with the rest
    return text.astype(f"S{-(-text.itemsize // 8) * 8}").view(_WORD).reshape(*column.shape, -1)


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
    ends = [b","] * (len(columns) - 1) + [ROW_END]
    # each end as the last word of a number cell, after the 5 suffix bytes
    separators = np.array([int.from_bytes(end, "little") << 40 for end in ends], dtype=np.uint64)
    # text and the columns smaller than the table are encoded once; the other
    # numbers a chunk at a time, in one pass
    whole = [_whole_cells(c, end, sep) if c.dtype.kind == "S" or c.size < math.prod(shape)
             else None for c, end, sep in zip(columns, ends, separators)]
    slots = np.cumsum([0, *(_WORDS if w is None else w.shape[-1] for w in whole)])
    line = math.prod(shape[1:])
    chunked = [(np.broadcast_to(c, shape).reshape(shape[0], line), lo)
               for c, w, lo in zip(columns, whole, slots) if w is None]
    separators = separators[[w is None for w in whole]]
    gathered = [(np.broadcast_to(w, (*shape, w.shape[-1])), lo, hi)
                for w, lo, hi in zip(whole, slots, slots[1:]) if w is not None]
    step = max(1, CHUNK_ROWS // max(1, line))
    for start in range(0, shape[0], step):
        lines = min(step, shape[0] - start)
        table = np.empty((lines * line, slots[-1]), dtype=_WORD)
        if chunked:
            values = np.concatenate([c[start:start + lines].reshape(-1) for c, _ in chunked])
            cells = _number_cells(values, np.repeat(separators, len(table)))
            for part, (_, lo) in zip(cells.reshape(len(chunked), -1, _WORDS), chunked):
                table[:, lo:lo + _WORDS] = part
        grid = table.reshape(lines, *shape[1:], slots[-1])
        for cells, lo, hi in gathered:
            grid[..., lo:hi] = cells[start:start + lines]
        yield table.tobytes().translate(None, b"\0")


def write_csv(path, header: list[str], columns: Sequence[np.ndarray],
              comments: Iterable[str] = ()) -> None:
    """Write the comment lines, the header row and the rows of ``columns`` to ``path``."""
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in comments).encode())
        fh.write(",".join(header).encode() + ROW_END)
        fh.writelines(encode_rows(columns))
