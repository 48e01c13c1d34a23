"""Every text output of the package: typed columns, byte-equal to ``repr``.

:func:`write_columns` writes tables of float (``repr``), integer and bool
(``str``) and text columns to one or more open binary files, in blocks of
about :data:`BLOCK` values; :func:`format_values` packs the text of an
array's values and gives each one's start and width.  Digits come from
Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
Conversion Algorithm", 2020) run on numpy ``uint64`` arrays: one 128-bit
product per value, of the upper end of its rounding interval with a
cached power of ten, gives the digits; one division by 1000 tries one
digit fewer, and the interval's width decides which length holds.  A
second product runs only on the few values whose lower end or rounding
that leaves open.  This finds the shortest decimal that reads back to
the same double and, among those, the nearest one (ties to even), which
is what CPython's ``repr`` (David Gay's ``dtoa`` in shortest mode)
prints.  The layout then follows ``repr``: positional for ``-4 < decpt
<= 16`` (``decpt`` is the position of the decimal point relative to the
first digit), with ``.0`` after an integral value; exponent form
otherwise, with an explicit exponent sign, at least two exponent digits
and no ``.0``; and ``0.0``, ``-0.0``, ``inf``, ``-inf`` and ``nan``,
which has no sign.

All integer arithmetic is ``uint64`` with ``uint64`` constants: a
``uint64`` array combined with an ``int64`` one, or (on numpy 1.x) a
``uint64`` scalar combined with a Python ``int``, becomes float64.  The
digit search divides only by a scalar, with ``//``, and takes each
remainder as ``x - q * d``: on numpy 2.4 (2-vCPU Xeon VM) ``//`` of a
``uint64`` array by a ``uint64`` scalar took 0.67 ns per element, while
``%`` by the same scalar, or ``//`` by an array, took 3.7 ns.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

BLOCK = 8192  # values of the distinct columns formatted per block by write_columns

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_TEN = _U(10)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_PAD = 17  # room for the leading '0's the digit scatter writes (17 digits at most)
_ZERO, _DOT, _MINUS, _PLUS, _E = (ord(c) for c in "0.-+e")


def _pow10_128(k: int) -> int:
    """``10^k`` scaled into ``[2^127, 2^128)`` and rounded up: Dragonbox's
    cached power of ten ``ceil(10^k * 2^(127 - floor(log2 10^k)))``."""
    shift = 127 - (k * 1741647 >> 19)  # floor(log2 10^k), exact for |k| <= 1233
    if k < 0:
        return -(-(1 << shift) // 10**-k)
    return 10**k << shift if shift >= 0 else -(-(10**k) >> -shift)


@functools.cache
def _exponent_table() -> dict:
    """Dragonbox's per-exponent constants, indexed by the biased exponent
    0..2046, computed exactly with Python integers on first use (read-only
    arrays).

    For ``e = max(biased, 1) - 1075`` (the exponent of the integer
    significand) and ``k = 2 - floor(log10 2^e)``, ``limbs`` holds the
    cached power ``10^k`` as four 32-bit limbs, low first; ``beta`` is its
    shift ``e + floor(log2 10^k)`` (6..9), ``delta`` the interval's width
    ``high >> (63 - beta)`` read from its high word (100..998), and ``e10``
    ``2 - k``, the decimal exponent of the smaller divisor's digits.
    ``short`` and ``short_e10`` are the digits and decimal exponent of the
    power of two ``2^(e + 52)``, whose lower neighbour is nearer than its
    upper one: Dragonbox's shorter-interval case (a closed interval, ties
    to even), with trailing zeros removed."""
    powers = {k: _pow10_128(k) for k in range(-292, 327)}  # every k of both cases
    limbs = np.empty((4, 2047), dtype=np.uint64)
    beta, delta, short = (np.empty(2047, dtype=np.uint64) for _ in range(3))
    e10, short_e10 = (np.empty(2047, dtype=np.int64) for _ in range(2))
    for biased in range(2047):
        e = max(biased, 1) - 1075
        e10[biased] = f = e * 315653 >> 20  # floor(log10 2^e), exact for |e| <= 2620
        cache = powers[2 - f]
        beta[biased] = b = e + ((2 - f) * 1741647 >> 19)
        delta[biased] = cache >> (127 - b)
        limbs[:, biased] = [(cache >> (32 * limb)) & 0xFFFFFFFF for limb in range(4)]
        minus_k = (e * 631305 - 261663) >> 21  # floor(log10 (2^e * 4/3))
        b = e + (-minus_k * 1741647 >> 19)
        high = powers[-minus_k] >> 64
        # The lower end, excluded: it is an integer only at e = 2, 3, where
        # including it changes no digits.
        lo = ((high - (high >> 54)) >> (11 - b)) + 1
        hi = (high + (high >> 53)) >> (11 - b)
        if hi // 10 * 10 >= lo:
            digits, exp = hi // 10, minus_k + 1
        else:  # the round-up of the value itself, ties to even
            digits, exp = ((high >> (10 - b)) + 1) // 2, minus_k
            digits += -1 if digits % 2 and e == -77 else digits < lo
        while digits % 10 == 0:
            digits, exp = digits // 10, exp + 1
        short[biased], short_e10[biased] = digits, exp
    table = {"limbs": limbs, "beta": beta, "delta": delta, "e10": e10, "short": short,
             "short_e10": short_e10}
    for column in table.values():
        column.setflags(write=False)
    return table


def _mul(u: np.ndarray, cache: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The upper 128 bits of the 192-bit products ``u * c``, for ``uint64``
    ``u`` and the 128-bit ``c`` at ``at`` of ``cache`` (four rows of 32-bit
    limbs, low first): their high and low words.

    ``u`` splits into two 32-bit limbs, so every limb product leaves room in
    64 bits for the 32-bit column below it and a carry of two 32-bit halves;
    the carries ripple up one 32-bit column at a time, and the bits below
    64 only feed them."""
    a, b = u & _MASK32, u >> _U(32)
    prev = cache[0][at]
    carry = (a * prev) >> _U(32)
    words = []  # the 32-bit columns from bit 32 up
    for limb in cache[1:]:
        c = limb[at]
        lo = a * c + carry
        col = b * prev + (lo & _MASK32)
        carry = (lo >> _U(32)) + (col >> _U(32))
        words.append(col & _MASK32)
        prev = c
    return b * prev + carry, words[1] | (words[2] << _U(32))


def _shortest(bits: np.ndarray):
    """Dragonbox on the finite, nonzero doubles ``bits``: the shortest
    digits (as an integer) and their decimal exponent, nearest first and
    ties to even."""
    table = _exponent_table()
    biased = (bits >> _U(52)).astype(np.intp) & 0x7FF
    u = bits & _U((1 << 52) - 1)
    odd = (u & _U(1)).astype(bool)  # the interval excludes its endpoints
    pow2 = np.flatnonzero(u == _U(0))  # powers of two: the shorter interval
    u |= (biased != 0).astype(np.uint64) << _U(52)
    u <<= _U(1)
    u |= _U(1)
    limbs, beta = table["limbs"], table["beta"]
    u <<= beta[biased]  # (2 fc + 1) 2^beta: the interval's upper end, scaled

    # z: the upper end times 10^k.  The larger divisor: z // 1000 is in the
    # interval when the remainder r is below the interval's width, delta.
    z, z_frac = _mul(u, limbs, biased)
    digits = z // _U(1000)
    r = z - digits * _U(1000)
    delta = table["delta"][biased]
    cut = ((r | z_frac) == _U(0)) & odd  # z exact, and the interval open: step below it
    digits -= cut
    r += cut * _U(1000)
    small = r > delta
    rows = np.flatnonzero(r == delta)  # the lower end's product decides, by its parity
    if rows.size:
        x, x_frac = _mul(u[rows] - (_U(2) << beta[biased[rows]]), limbs, biased[rows])
        small[rows] = ((x & _U(1)) == _U(0)) & ((x_frac != _U(0)) | odd[rows])
    # The smaller divisor: one digit more, the value rounded, from dist; it
    # may be one too high, which only a dist that divides by 100 leaves open.
    dist = r + _U(50) - (delta >> _U(1))
    q = dist // _U(100)
    digits = np.where(small, digits * _TEN + q, digits)
    rows = np.flatnonzero(small & (q * _U(100) == dist))
    if rows.size:  # the value's own product decides, by its parity; an exact one ties
        y, y_frac = _mul(u[rows] - (_U(1) << beta[biased[rows]]), limbs, biased[rows])
        d = digits[rows]
        digits[rows] = d - ((y ^ dist[rows]) & _U(1) | (d & _U(1)) * (y_frac == _U(0)))
    e10 = table["e10"][biased] + ~small  # the larger divisor's digits sit one place up

    # The larger divisor's digits can end in zeros: strip 16, 8, 4, 2, 1.
    rows = np.flatnonzero(digits // _TEN * _TEN == digits)
    d, zeros = digits[rows], np.zeros(rows.size, dtype=np.int64)
    for p in (16, 8, 4, 2, 1):
        q = d // _POW10[p]
        hit = q * _POW10[p] == d
        d, zeros = np.where(hit, q, d), zeros + hit * p
    digits[rows], e10[rows] = d, e10[rows] + zeros
    digits[pow2], e10[pow2] = table["short"][biased[pow2]], table["short_e10"][biased[pow2]]
    return digits, e10


def format_values(values: np.ndarray, gap=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The text of each value of a 1-D float or integer array, one after
    another in a ``uint8`` buffer, each followed by ``gap`` bytes (a count,
    or one count per value) that are left for the caller to fill.  Floats
    print as ``repr``; integers as ``str``, exactly for every int64.
    Returns the buffer and each value's start and width in it."""
    values = np.asarray(values).reshape(-1)
    if values.size == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64), np.empty(0, np.int64)
    if values.dtype.kind == "i":
        neg = (values < 0).astype(np.int64)
        digits = np.abs(values.astype(np.int64)).view(np.uint64)  # -2^63 wraps onto 2^63
        length = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
        lead, width, right_of_dot = neg, neg + length, -1  # no '.' to step over
    else:
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
        magnitude = bits & _U((1 << 63) - 1)
        zero = magnitude == 0
        finite = magnitude < _U(0x7FF << 52)
        nan = magnitude > _U(0x7FF << 52)
        neg = (((bits >> _U(63)) != 0) & ~nan).astype(np.int64)  # nan prints no sign
        special = zero | ~finite
        if special.any():  # format those as 1.0 (same length), then overwrite
            bits = np.where(special, _U(0x3FF << 52), bits)
        digits, exp10 = _shortest(bits)
        length = np.searchsorted(_POW10, digits, side="right")
        digits[zero] = 0
        decpt = exp10 + length
        sci = (decpt <= -4) | (decpt > 16)
        lead = neg + np.where(sci, 0, np.maximum(1 - decpt, 0))  # offset of the first digit
        dot_after = np.where(sci, 1, np.maximum(decpt, 0))  # digits before the '.'
        right_of_dot = length - 1 - dot_after  # digits r <= this sit past the '.'
        exp_abs = np.abs(decpt - 1)
        mantissa_len = length + (length > 1)
        width = neg + np.where(
            sci,
            mantissa_len + 4 + (exp_abs >= 100),
            np.maximum(length, decpt) + 1 + np.maximum(1 - decpt, 0) + (decpt >= length),
        )
    # Each value's text starts at start; _PAD bytes lead the buffer.
    end = np.cumsum(width + gap) + _PAD
    start = end - width - gap
    buf = np.full(int(end[-1]), _ZERO, dtype=np.uint8)  # zero padding is pre-filled

    # One scatter per digit position r (counted from the last digit), from
    # the top one down.  Past a value's first digit the scatter writes '0's
    # further left: onto its own zero padding, onto characters written
    # after this loop, or onto digits of earlier values, which have a lower
    # r and so are written by a later pass.
    last_at = start + lead + length - 1
    rest = digits
    for r in range(int(length.max()) - 1, -1, -1):
        digit = rest // _POW10[r]
        rest = rest - digit * _POW10[r]
        buf[last_at - r + (right_of_dot >= r)] = digit.astype(np.uint8) + np.uint8(_ZERO)
    buf[start[neg == 1]] = _MINUS
    if values.dtype.kind == "i":
        return buf[_PAD:], start - _PAD, width

    point = ~sci | (length > 1)
    buf[(start + neg + np.where(sci, 1, np.maximum(decpt, 1)))[point]] = _DOT
    rows = np.flatnonzero(sci)
    if rows.size:
        e_at = start[rows] + neg[rows] + mantissa_len[rows]
        e = exp_abs[rows]
        buf[e_at] = _E
        buf[e_at + 1] = np.where(decpt[rows] > 1, _PLUS, _MINUS)
        at = start[rows] + width[rows] - 1
        for _ in range(3):
            buf[at] = e % 10 + _ZERO
            at, e = at[e >= 10] - 1, e[e >= 10] // 10
    rows = np.flatnonzero(~finite)
    if rows.size:
        text = np.where(nan[rows, None], np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8))
        buf[(start[rows] + neg[rows])[:, None] + np.arange(3)] = text
    return buf[_PAD:], start - _PAD, width


_QUOTE = b',"\r\n'  # csv's default dialect quotes a text cell holding any of these
_BOOL_TEXT = np.array([b"False", b"True"], dtype=object)


def _column(values) -> np.ndarray:
    """A column as a float64, int64 or object (``bytes`` cells) array."""
    if not isinstance(values, np.ndarray):
        return np.array(values, dtype=object).reshape(-1)
    if values.dtype == bool:
        return _BOOL_TEXT[values.astype(np.intp)]
    return values.astype(np.float64 if values.dtype.kind == "f" else np.int64, copy=False)


def _text(cells: list, tails: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`format_values`' form of ``bytes`` cells, each quoted as
    ``csv`` quotes it and followed by its tail, which the width includes."""
    cells = [(b'"' + c.replace(b'"', b'""') + b'"' if c.translate(None, _QUOTE) != c else c) + t
             for c, t in zip(cells, tails)]
    width = np.fromiter(map(len, cells), np.int64, len(cells))
    return np.frombuffer(bytearray(b"".join(cells)), np.uint8), np.cumsum(width) - width, width


def write_columns(files, seps: Sequence[str]) -> None:
    """Write each ``(fh, columns)`` of ``files`` to its open binary file
    ``fh``, row after row, each cell followed by its column's separator: a
    float array's cells as ``repr``, an integer or bool array's as ``str``,
    and a sequence of ``bytes`` as text, quoted as ``csv.writer``'s default
    dialect quotes a cell (one holding ``,"\\r\\n`` is wrapped in ``"`` and
    each ``"`` doubled).

    The rows go out in blocks of about :data:`BLOCK` values of the distinct
    columns: files may share columns, and each byte-distinct (text cells:
    identical) column at a position is formatted once.  A block's columns
    of one kind and length are formatted row after row, with their
    separators, in one call; a file that is one such group, in its order,
    is written straight from that call's buffer, and any other file's rows
    are one byte gather from the block's texts, joined."""
    seps, files = [s.encode() for s in seps], list(files)
    handles, ids, columns, cells = [], {}, [], []  # files; ids by key; (sep, column); ids per file
    for fh, table in files:
        table = [_column(c) for c in table]
        if not table or len(table) != len(seps) or len({len(c) for c in table}) > 1:
            lengths = [len(c) for c in table]
            raise ValueError(f"{len(seps)} separators for columns of lengths {lengths}")
        handles.append(fh)
        # One file shares no column: its cells are keyed by position alone.
        keys = [(k, c.dtype.str, c.tobytes()) if len(files) > 1 else k
                for k, c in enumerate(table)]
        cells.append([ids.setdefault(key, len(ids)) for key in keys])
        columns += {j: (seps[k], c) for k, (c, j) in enumerate(zip(table, cells[-1]))
                    if j >= len(columns)}.values()
    del ids
    step = max(1, BLOCK // max(1, len(columns)))
    for lo in range(0, max((len(c) for _, c in columns), default=0), step):
        groups = {}  # ids of the block's columns by kind and length
        for j, (_, c) in enumerate(columns):
            groups.setdefault((c.dtype.kind, len(c[lo:lo + step])), []).append(j)
        texts = {}  # (text, start, width) by group
        for (kind, m), group in groups.items():
            tails, n = [columns[j][0] for j in group], len(group)
            values = np.stack([columns[j][1][lo:lo + step] for j in group], axis=1).reshape(-1)
            if kind == "O":
                texts[tuple(group)] = _text(values.tolist(), tails * m)
                continue
            gap = np.tile([len(t) for t in tails], m)
            text, start, width = format_values(values, gap)
            gap_at = (start + width).reshape(m, n)
            for i in range(max(map(len, tails))):  # the separators' i-th bytes, into the gaps
                has = [len(t) > i for t in tails]
                text[gap_at[:, has] + i] = [t[i] for t in tails if len(t) > i]
            texts[tuple(group)] = text, start, width + gap
        gathered = []
        for fh, row in zip(handles, cells):
            if tuple(row) in texts:  # the file is one group, laid out in its order
                fh.write(texts[tuple(row)][0])
            else:
                gathered.append((fh, row))
        if not gathered:
            continue
        at, size, offset = {}, {}, 0  # each column's cells: start and size in the block's text
        for group, (text, start, width) in texts.items():
            for g, j in enumerate(group):
                at[j], size[j] = start[g::len(group)] + offset, width[g::len(group)]
            offset += len(text)
        text = np.concatenate([text for text, _, _ in texts.values()])
        for fh, row in gathered:
            start, width = (np.stack([d[j] for j in row], axis=1).reshape(-1) for d in (at, size))
            gather = np.repeat((start - np.cumsum(width) + width).astype(np.int32), width)
            gather += np.arange(len(gather), dtype=np.int32)
            fh.write(np.take(text, gather))
