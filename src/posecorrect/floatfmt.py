"""Every text output of the package: typed columns, byte-equal to ``repr``.

:func:`write_columns` writes tables of float (``repr``), integer and bool
(``str``) and text columns to one or more open binary files, in blocks of
about :data:`BLOCK` values; :func:`format_values` packs the text of an
array's values and gives each one's start and width.  Digits come from
Ryū's ``d2d`` (Adams, "Ryū: fast float-to-string conversion", PLDI 2018)
run on numpy ``uint64`` arrays: it finds the shortest decimal that reads
back to the same double and, among those, the nearest one, which is what
CPython's ``repr`` (David Gay's ``dtoa`` in shortest mode) prints.  The
layout then follows ``repr``: positional for ``-4 < decpt <= 16``
(``decpt`` is the position of the decimal point relative to the first
digit), with ``.0`` after an integral value; exponent form otherwise, with
an explicit exponent sign, at least two exponent digits and no ``.0``; and
``0.0``, ``-0.0``, ``inf``, ``-inf`` and ``nan``, which has no sign.

All integer arithmetic is ``uint64`` with ``uint64`` constants: a
``uint64`` array combined with an ``int64`` one, or (on numpy 1.x) a
``uint64`` scalar combined with a Python ``int``, becomes float64.
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


@functools.cache
def _exponent_table() -> dict:
    """Ryū's per-exponent constants, indexed by the biased exponent 0..2046,
    computed exactly with Python integers on first use (read-only arrays).

    ``limbs`` is the multiplier (``5^-q`` or ``5^q`` scaled to 125 bits;
    ``2^125 + 1`` for ``q = 0``) as four 32-bit limbs, low first, and
    ``shift`` the final right shift past bit 96: ``vr = (m * mul) >> (96 +
    shift)``.  ``e10`` is the decimal exponent of ``vr``.  ``tz_mask`` holds
    Ryū's ``multipleOfPowerOf2(mv, q)`` test for ``e2 < 0`` as a mask that
    ``mv`` must clear (all ones where the test is false); ``pow5`` is
    ``5^q`` on the ``e2 >= 0, q <= 21`` rows that need the factor-of-5
    tests, else 0; ``small_q`` marks the ``e2 < 0, q <= 1`` rows."""
    size = 2047
    limbs = np.empty((4, size), dtype=np.uint64)
    shift = np.empty(size, dtype=np.uint64)
    e10 = np.empty(size, dtype=np.int64)
    tz_mask = np.empty(size, dtype=np.uint64)
    pow5 = np.zeros(size, dtype=np.uint64)
    small_q = np.zeros(size, dtype=bool)
    for biased in range(size):
        e2 = max(biased, 1) - 1023 - 52 - 2
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)  # log10(2^e2), less one above e2 = 3
            p5 = 5**q
            j = -e2 + q + 125 + p5.bit_length() - 1
            mul = (1 << (p5.bit_length() - 1 + 125)) // p5 + 1
            e10[biased] = q
            tz_mask[biased] = 2**64 - 1
            if q <= 21:
                pow5[biased] = p5
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)  # log10(5^-e2), less one above -e2 = 1
            p5 = 5 ** (-e2 - q)
            k = p5.bit_length() - 125
            j = q - k
            mul = p5 >> k if k >= 0 else p5 << -k
            e10[biased] = q + e2
            tz_mask[biased] = 0 if q <= 1 else (1 << q) - 1 if q < 63 else 2**64 - 1
            small_q[biased] = q <= 1
        for limb in range(4):
            limbs[limb, biased] = (mul >> (32 * limb)) & 0xFFFFFFFF
        shift[biased] = j - 96
    table = {"limbs": limbs, "shift": shift, "e10": e10, "tz_mask": tz_mask,
             "pow5": pow5, "small_q": small_q}
    for column in table.values():
        column.setflags(write=False)
    return table


def _mul_shift(m: np.ndarray, limbs: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``(m * mul) >> (96 + shift)`` exactly, for ``m < 2^55``, a ``mul``
    below ``2^126`` given as four 32-bit limbs and ``0 <= shift <= 32``.

    ``m`` splits into a 32-bit and a 23-bit limb, so every limb product
    fits 64 bits with room for a 32-bit carry; the carries ripple up one
    32-bit column at a time, and the bits below 96 only feed them."""
    m0, m1, m2, m3 = limbs
    a = m & _MASK32
    b = m >> _U(32)
    lo = a * m1 + ((a * m0) >> _U(32))
    col = b * m0 + (lo & _MASK32)
    carry = (lo >> _U(32)) + (col >> _U(32))  # into bit 64
    lo = a * m2 + carry
    col = b * m1 + (lo & _MASK32)
    carry = (lo >> _U(32)) + (col >> _U(32))  # into bit 96
    lo = a * m3 + carry
    col = b * m2 + (lo & _MASK32)  # bits 96..127 in its low half
    high = b * m3 + (lo >> _U(32)) + (col >> _U(32))  # bits 128 and up
    return ((col & _MASK32) >> shift) | (high << (_U(32) - shift))


def _shortest(bits: np.ndarray):
    """Ryū ``d2d`` on the finite, nonzero doubles ``bits``: the shortest
    digits (as an integer) and their decimal exponent, nearest first and
    ties to even."""
    table = _exponent_table()
    biased = (bits >> _U(52)).astype(np.intp) & 0x7FF
    mantissa = bits & _U((1 << 52) - 1)
    mv = (mantissa | ((biased != 0).astype(np.uint64) << _U(52))) << _U(2)
    even = (mv & _U(4)) == 0
    mm_shift = (mantissa != 0) | (biased <= 1)
    del mantissa
    limbs, shift = np.take(table["limbs"], biased, axis=1), table["shift"][biased]
    vr, vp, vm = (
        _mul_shift(m, limbs, shift)
        for m in (mv, mv + _U(2), mv - _U(1) - mm_shift.astype(np.uint64))
    )
    del limbs, shift
    vr_tz = (mv & table["tz_mask"][biased]) == 0
    small_q = table["small_q"][biased]
    vm_tz = small_q & even & mm_shift
    vp -= (small_q & ~even).astype(np.uint64)
    rows = np.flatnonzero(table["pow5"][biased])
    if rows.size:  # e2 >= 0, q <= 21: magnitudes from 2^54 up to 2^131
        p5 = table["pow5"][biased[rows]]
        mvr, ev = mv[rows], even[rows]
        by5 = mvr % _U(5) == 0
        vr_tz[rows] = by5 & (mvr % p5 == 0)
        vm_tz[rows] = ~by5 & ev & ((mvr - _U(1) - mm_shift[rows].astype(np.uint64)) % p5 == 0)
        vp[rows] -= (~by5 & ~ev & ((mvr + _U(2)) % p5 == 0)).astype(np.uint64)

    # Drop the k lowest digits, for the largest k that leaves a multiple of
    # 10^k in (vm, vp].  That holds whenever 10^k <= vp - vm; the rows that
    # also pass k + 1 are bisected between that and 18 (vp < 10^19).  This
    # is Ryū's digit-removal loop with the digits it drops read off at
    # once: the last one decides rounding, the others whether vr is exact.
    width = vp - vm
    k = np.searchsorted(_POW10, width, side="right") - 1
    rows = np.flatnonzero(vp % _POW10[k + 1] < width)
    k_lo, k_hi = k[rows] + 1, np.full(rows.size, 18)
    vp_rows, width_rows = vp[rows], width[rows]
    while (k_lo < k_hi).any():
        mid = (k_lo + k_hi + 1) >> 1
        holds = vp_rows % _POW10[mid] < width_rows
        k_lo, k_hi = np.where(holds, mid, k_lo), np.where(holds, k_hi, mid - 1)
    k[rows] = k_lo
    scale = _POW10[k]
    digits = vr // scale
    dropped = (vr - digits * scale) * _TEN
    last = dropped // scale  # the last digit dropped
    vr_tz &= dropped == last * scale
    vm_digits = vm // scale
    vm_tz &= vm_digits * scale == vm
    # With vm exact, also drop the trailing zeros vm shares.
    rows = np.flatnonzero(vm_tz)
    while rows.size:
        vm10 = vm_digits[rows] // _TEN
        zero = vm10 * _TEN == vm_digits[rows]
        rows, vm10 = rows[zero], vm10[zero]
        vr10 = digits[rows] // _TEN
        vr_tz[rows] &= last[rows] == 0
        last[rows] = digits[rows] - vr10 * _TEN
        digits[rows], vm_digits[rows] = vr10, vm10
        k[rows] += 1
    last[vr_tz & (last == 5) & ((digits & _U(1)) == 0)] = 4  # exact half: round to even
    up = ((digits == vm_digits) & ~(even & vm_tz)) | (last >= 5)
    return digits + up.astype(np.uint64), table["e10"][biased] + k


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
