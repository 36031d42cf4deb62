"""Exact float64 text for CSV rows, computed on whole numpy arrays.

The rule is exactness: every value is written as the bytes of
``repr(float(v))``, for every float64 bit pattern.  ``repr`` gives the
shortest decimal that reads back to the same double (the closest one when
several are that short, the even one on a tie), laid out positionally when
the decimal point position ``decpt`` satisfies ``-4 < decpt <= 16``
(``0.0001``, ``12.5``, ``1e+16``'s neighbour ``9999999999999998.0``) and as
``d.ddde±XX`` otherwise.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), which finds the shortest round-trip decimal with a
126-bit table of powers of ten and fixed-width integer arithmetic, so it
runs on whole uint64 arrays; the 64x64 -> 128-bit products are built from
32-bit limbs, and the 617-entry table, built from Python integers on
first use, is kept as those limbs.  Each step works in place in a few
buffers, which the next step reuses.

Each pass formats its varying values first, each in a slot of 32 bytes
(``_cells``) with a NUL byte wherever no text goes: the digits as ASCII
words from a table of four-digit groups, and the point, the kept places
and the sign from masks looked up by the layout (the point's place and
the digit count).  Then one uint8 text matrix, a row per CSV line, is
filled from the row template: the columns constant over the table, by
bit pattern, are rendered once with their separators, and each varying
column's slots are copied into place.  Dropping the NUL bytes leaves the
lines, with no Python string per value.  Constancy is decided once per
table (``_layout``), not per pass: on the benchmark's simulate and
control tables (seeds 1-3, 234 passes) the two agree on every pass.

A table is written in passes, which bound the temporaries: a pass peaks
at about 97 bytes per varying value (tracemalloc, fig45 and fig1 passes
of 17k to 30k values), in the digits' buffers or in the text matrix,
its keep mask and the kept text.  One cutter (``_passes``) serves
``csv_rows``, ``csv_passes`` and ``csv_ahead``: it cuts each table into
the fewest passes of equal rows whose estimated peak (``_row_bytes``,
which counts the template's width as well as the varying values) stays
within _PASS_BYTES: a 4096-step block of fig45 is two passes, one of fig1
three; a table of no rows has none.

``csv_passes`` takes a sequence of tables, such as the blocks of a run,
and formats their passes two at a time, one on the calling thread and one
in a worker process.  ``csvworker`` owns that process and the protocol
with it (``csvworker.Call``): which passes it takes, where in the shared
buffer, collecting their text in order and falling back to the caller.
The passes pair in order, over the whole sequence: two passes of one
table are cut again so that the caller, which also integrates and
writes, takes 2/5 of their rows and the worker 3/5 (fig45: 1,638 and
2,458), still within twice _PASS_BYTES; a table's odd last pass pairs
with the next table's first as they are, and the sequence's last pass,
if odd, is the caller's alone.  ``csv_ahead`` hands every pass of one
table to the worker at once, for a caller that has other work to do
first (``control --dkdt`` integrates its check).  Two processes share no
interpreter lock and no heap: the two passes of a pair run at once, and
the worker's temporaries stay out of the caller's resident memory.  On
one CPU, and where no memory file can be shared (memfd, outside Linux),
the caller formats every pass itself, with the same bytes, and
``csvworker`` is not even imported.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys

import numpy as np

_PASS_BYTES = 2_640_000  # most estimated bytes of one pass (_row_bytes)

_E_MIN, _E_MAX = -292, 324  # range of the power of ten 10**-k the digits need
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)
_M63 = np.uint64((1 << 63) - 1)
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0
_INF = np.uint64(0x7FF0000000000000)
_LOW = 0 if sys.byteorder == "little" else 1  # the low half of a uint64
_DIGIT, _COMMA, _NEWLINE = ord("0"), ord(","), ord("\n")

# A value's text goes in a slot of four little-endian uint64 words: two
# NUL bytes, the sign, a mantissa field of 22 bytes, the exponent ('e', its
# sign and two or three digits), a byte for the separator and a NUL.  The
# field holds "0000" and the 17 digits left-aligned, digit j at field place
# 4 + j; the point goes at place dot, the places after it take the byte
# one place before, and only places start to end - 1 are kept.  Every byte
# that is not kept is NUL.
_SLOT = 32
_FIELD = 3  # the slot byte of field place 0
_SEP = 30  # the slot byte of the separator
_LAYOUTS = 21 * 17  # (decimal point row, digit count) pairs


@functools.cache
def _pow10_table():
    """For e in [_E_MIN, _E_MAX]: g(e)'s halves (g1, g0) as a (2, n) uint64
    table, the 32-bit limbs (g1 low, g0 low, g1 high, g0 high) as a (4, n)
    one, and floor(log2 10**e) + 2 as int16.

    g(e) = floor(10**e * 2**-r) + 1 with r chosen so that
    2**125 <= g(e) < 2**126, split as g = g1 * 2**63 + g0.
    """
    halves, flog2 = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            p = 10 ** e
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            d = 10 ** -e
            r = -125 - d.bit_length()
            g = (1 << -r) // d + 1
        halves.append((g >> 63, g & ((1 << 63) - 1)))
        flog2.append(125 + r + 2)
    g = np.array(halves, dtype=np.uint64).T.copy()
    limbs = np.concatenate([g & _M32, g >> np.uint64(32)])
    return g, limbs, np.array(flog2, dtype=np.int16)


@functools.cache
def _digit_quads():
    """The four ASCII digits of each i < 10000 as the low bytes of a
    uint64, first digit lowest, and the count of its trailing zero digits
    (four for 0000)."""
    i = np.arange(10000)
    powers = np.array([1000, 100, 10, 1])
    text = (i[:, None] // powers % 10 + _DIGIT).astype(np.uint8)
    quads = text.view("<u4").ravel().astype(np.uint64)
    zeros = (i[:, None] % (10 * powers) == 0).sum(axis=1)
    return quads, zeros.astype(np.uint8)


def _halves(a):
    """The low and high 32-bit halves of a uint64 array, as views."""
    words = a.view(np.uint32)
    return words[..., _LOW::2], words[..., 1 - _LOW::2]


def _round_to_odd(lo, hi, out, t):
    """floor(cp * g / 2**127) into out, with the low bit set when bits were
    dropped, from g1 * cp = hi[0]:lo[0] and hi[1], the high half of
    g0 * cp; t is scratch."""
    np.right_shift(lo[0], 1, out=t)
    t += hi[1]  # z
    np.right_shift(t, 63, out=out)
    out += hi[0]
    t &= _M63
    np.minimum(t, 1, out=t)
    out |= t


def _add_shifted(lo, hi, g, e, t):
    """hi:lo += g << e in 128 bits, row by row, for 0 < e < 64; t is
    scratch shaped like g."""
    np.left_shift(g, e, out=t)
    lo += t
    carry = lo < t
    np.right_shift(g, 64 - e, out=t)
    hi += t
    hi += carry


def _shortest_digits(bits):
    """Shortest round-trip decimal of positive finite nonzero doubles.

    ``bits`` is the uint64 view of the values, which this overwrites.
    Returns ``(d, k)`` with the value's shortest closest decimal equal to
    ``d * 10**k``; ``d`` (in bits' buffer) may carry trailing zeros, and
    ``k`` is int16.
    """
    g_table, limb_table, shift_table = _pow10_table()
    m = len(bits)
    q = bits >> np.uint64(52)
    bits &= _M52
    irregular = bits == 0
    irregular &= q > 1  # the lower neighbour is closer: c = 2**52
    np.bitwise_or(bits, np.uint64(1 << 52), out=bits, where=q != 0)
    odd = (bits & np.uint64(1)).astype(np.uint8)
    np.maximum(q, 1, out=q)  # a subnormal's exponent is that of bq = 1
    q = q.view(np.int64)
    q -= 1075
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where irregular;
    # exact for every binary exponent of a double (the tests check each)
    k = q * 1262611
    np.subtract(k, 524031, out=k, where=irregular)
    k >>= 22
    row = np.subtract(-_E_MIN, k)
    h = q
    h += shift_table[row]
    # cp * g / 2**127 for cp = c_x << h, where c_x runs over the rounding
    # interval's lower end 4c - 2 (4c - 1 where irregular), 4c and the
    # upper end 4c + 2; each product is the previous one plus g << e, for
    # e = h + 1 (h where irregular), then e = h + 1
    shifts = np.empty((2, m), dtype=np.uint8)
    np.add(h, 1, out=shifts[1], casting="unsafe")
    np.subtract(shifts[1], irregular, out=shifts[0])
    k, row = k.astype(np.int16), row.astype(np.int16)
    cp = bits
    cp <<= np.uint64(2)
    cp -= np.uint64(2)
    cp += irregular
    cp <<= h.view(np.uint64)
    del bits, q, h, irregular
    cl = cp & _M32
    cp >>= np.uint64(32)
    # g1 * cp and g0 * cp, 128 bits each, as hi:lo, from 32-bit limbs; a
    # 32x32-bit product plus two 32-bit values fits in 64 bits, which
    # carries the middle sum into hi without a mask
    limbs = np.take(limb_table, row, axis=1)
    lo, hi = limbs[:2], limbs[2:]
    mid = lo * cp
    lo *= cl
    scratch = hi * cl
    hi *= cp
    mid += _halves(scratch)[0]
    mid += _halves(lo)[1]
    _halves(lo)[1][...] = _halves(mid)[0]
    mid >>= np.uint64(32)
    hi += mid
    scratch >>= np.uint64(32)
    hi += scratch
    del mid
    t, upper = scratch
    lower = cl
    _round_to_odd(lo, hi, lower, t)
    # an odd significand's interval excludes its ends: compare with the
    # end moved inwards by one
    lower += odd
    _add_shifted(lo, hi, np.take(g_table, row, axis=1), shifts[0], scratch)
    s = cp  # vb, then the digits, in the values' buffer
    _round_to_odd(lo, hi, s, t)
    # vb against 4s + 2: above, or equal with s odd, rounds up
    np.bitwise_and(s, 3, out=t)
    s >>= np.uint64(2)
    np.bitwise_and(s, 1, out=upper)
    t += upper
    closer_up = t >= 3
    # one digit shorter: at most one multiple of 10 * 10**k lies inside
    sp = s // np.uint64(10)
    sp *= np.uint64(10)
    np.left_shift(s, 2, out=t)
    u_in = lower <= t
    np.left_shift(sp, 2, out=t)
    up_in = lower <= t
    del lower, cl, sp
    _add_shifted(lo, hi, np.take(g_table, row, axis=1), shifts[1], scratch)
    _round_to_odd(lo, hi, upper, t)
    del limbs, lo, hi, row, shifts
    upper -= odd
    np.add(s, 1, out=t)
    t <<= np.uint64(2)
    w_in = t <= upper
    sp = s // np.uint64(10)
    sp *= np.uint64(10)
    np.add(sp, 10, out=t)
    t <<= np.uint64(2)
    wp_in = t <= upper
    del scratch, t, upper
    short = up_in != wp_in
    short &= s >= 10
    # full length: s or s + 1, the one inside, else the closer (even on a
    # tie); shorter: sp or sp + 10, the one inside
    u_in ^= w_in
    u_in &= closer_up ^ w_in
    closer_up ^= u_in  # w_in where exactly one of s, s + 1 is inside
    s += closer_up
    sp += ~up_in * np.uint64(10)
    sp -= s
    sp *= short
    s += sp
    return s, k


@functools.cache
def _layout_masks():
    """The slot masks of each layout key (row, n): for row r < 20, positional
    with decpt = r - 3, for row 20 scientific; n significant digits.

    Returns (before, after, point), each (4, _LAYOUTS) uint64: the bytes
    kept from the unshifted field (with the sign byte), those kept from
    the field shifted up by one byte, and the point at its byte.
    """
    masks = np.zeros((3, _LAYOUTS, _SLOT), dtype=np.uint8)
    for row in range(21):
        for n in range(1, 18):
            if row < 20:
                decpt = row - 3
                dot, start = decpt + 4, min(decpt, 1) + 3
                end = max(n, decpt + 1) + 5
            else:
                dot = 5 if n > 1 else 21  # 21: no point in the text
                start, end = 4, n + 4 + (n > 1)
            before, after, point = masks[:, row * 17 + n - 1]
            before[2] = 255  # the sign
            kept = slice(_FIELD + start, _FIELD + end)
            before[kept][:dot - start] = 255
            after[kept][dot - start + 1:] = 255
            if dot < end:
                point[_FIELD + dot] = ord(".")
    words = masks.view("<u8").astype(np.uint64)
    return tuple(np.ascontiguousarray(w.T) for w in words)


def _cells(values):
    """The text repr(float(v)) of each value in a slot (see _SLOT), with
    NUL bytes where no text goes, as (4, len(values)) uint64 words (word i
    of every slot in row i).  values: contiguous float64, overwritten."""
    m = len(values)
    bits = values.view(np.uint64)
    special = np.flatnonzero((bits & _M63) >= _INF)
    texts = [repr(float(values[i])).encode() for i in special]
    neg = bits > _M63
    bits &= _M63
    zero = bits == 0
    # zeros and non-finite values take the digits of 1.0 and are fixed below
    np.copyto(bits, _ONE, where=zero)
    bits[special] = _ONE
    d, decpt = _shortest_digits(bits)
    del values, bits
    n = np.searchsorted(_POW10, d, side="right")
    decpt += n
    # 17 digits: full = d * 10**(17 - n) lies in [1e16, 1e17), and is
    # D0 * 10**16 + b * 10**8 + c, then the 4-digit chunks of b and c
    np.subtract(17, n, out=n)
    full = d.view(np.int64)
    full *= _POW10.view(np.int64)[n]
    del d, n
    lead = full // 10 ** 16
    bc = np.empty((2, m), dtype=np.int64)
    np.multiply(lead, 10 ** 16, out=bc[1])
    full -= bc[1]
    np.floor_divide(full, 10 ** 8, out=bc[0])
    np.multiply(bc[0], 10 ** 8, out=bc[1])
    np.subtract(full, bc[1], out=bc[1])
    del full
    chunks = np.empty((2, 2, m), dtype=np.int64)  # (high, low) of (b, c)
    np.floor_divide(bc, 10 ** 4, out=chunks[0])
    np.multiply(chunks[0], 10 ** 4, out=chunks[1])
    np.subtract(bc, chunks[1], out=chunks[1])
    del bc
    quads, zeros = _digit_quads()
    # significant digits: 17 less the trailing zeros of b_hi b_lo c_hi c_lo
    tail = np.take(zeros, chunks)
    count = tail[0, 0]
    for part in (tail[1, 0], tail[0, 1], tail[1, 1]):
        count = part + (part == 4) * count
    key = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20)
    key *= 17
    key += 16
    key -= count
    del tail, count
    words = np.empty((4, m), dtype=np.uint64)
    np.take(quads, chunks[1], out=words[1:3], mode="wrap")
    words[1:3] <<= np.uint64(32)
    # the high chunks' digits, through words 0 and 3 before they are set
    for i in range(2):
        np.take(quads, chunks[0, i], out=words[3 * i], mode="wrap")
        words[1 + i] |= words[3 * i]
    del chunks
    lead[zero] = 0
    del zero
    lead += _DIGIT
    first = words[0]
    np.left_shift(lead.view(np.uint64), 56, out=first)
    del lead
    first |= np.uint64(int.from_bytes(b"\0\0\0" + b"0" * 4 + b"\0", "little"))
    first |= neg * np.uint64(ord("-") << 16)
    del neg
    # the field shifted up one byte, for the places after the point; word
    # 3 holds only place 21 of the field, one place after the last digit
    np.right_shift(words[2], 56, out=words[3])
    shifted = words[:3] << np.uint64(8)
    scratch = np.empty_like(shifted)
    np.right_shift(words[:2], 56, out=scratch[1:])
    shifted[1:] |= scratch[1:]
    before, after, point = _layout_masks()
    np.take(after[:3], key, axis=1, out=scratch, mode="wrap")
    shifted &= scratch
    np.take(before[:3], key, axis=1, out=scratch, mode="wrap")
    words[:3] &= scratch
    words[:3] |= shifted
    del shifted
    np.take(point[:3], key, axis=1, out=scratch, mode="wrap")
    words[:3] |= scratch
    del scratch
    words[3] &= np.take(after[3], key)

    e = np.flatnonzero(key >= 20 * 17)  # row 20: scientific
    if len(e):
        exp = decpt[e].astype(np.int64) - 1
        mag = np.abs(exp)
        wide = mag >= 100
        digits = (np.where(wide, mag // 100, mag // 10) + _DIGIT,
                  np.where(wide, mag // 10 % 10, mag % 10) + _DIGIT,
                  np.where(wide, mag % 10 + _DIGIT, 0))
        text = ord("e") | np.where(exp < 0, ord("-"), ord("+")) << 8
        for i, digit in enumerate(digits):
            text |= digit << (16 + 8 * i)
        words[3, e] |= text.astype(np.uint64) << np.uint64(8)

    for i, text in zip(special, texts):
        words[:, i] = np.frombuffer(text.ljust(_SLOT, b"\0"), "<u8")
    return words


def _varies(column) -> bool:
    """Whether a float64 column holds more than one bit pattern."""
    return bool((column.view(np.uint64) != column[:1].view(np.uint64)).any())


def _layout(columns):
    """A table's row template and, for each varying column, its index and
    the word at which its slot starts: each constant column's text with
    its separator, and NUL bytes for each varying column's slot, which
    starts on a word; the row is a whole number of words."""
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    cells, varying = [], []
    width = 0
    for i, (column, sep) in enumerate(zip(columns, seps)):
        if _varies(column):
            cells.append(b"\0" * (-width % 8 + _SLOT))
            varying.append((i, -(-width // 8)))
        else:
            cells.append(repr(float(column[0])).encode() + sep)
        width += len(cells[-1])
    cells.append(b"\0" * (-width % 8))
    return np.frombuffer(b"".join(cells), dtype=np.uint8), varying


def _row_bytes(layout) -> int:
    """Estimated traced peak of a pass of a table with this layout, per
    row: the digits' buffers, 104 bytes per varying value, or the text
    matrix and its keep mask, each the template's width, with the kept
    text, which drops about 12 NUL bytes of each slot."""
    template, varying = layout
    return max(104 * len(varying), 3 * len(template) - 12 * len(varying))


def csv_rows(columns):
    """CSV lines of equal-length float64 columns, one bytes object per pass.

    Each value is written as repr(float(v)); each line ends in a newline.
    """
    return _serial([columns])


def csv_passes(tables):
    """csv_rows' lines of each table in turn, formatted two passes at a
    time; one bytes object per pass, in order.

    A table is a list of equal-length float64 columns, such as one block
    of a run; the tables are read as the passes need them.  Of each pair
    of passes (_pairs), the calling thread formats the first while the
    worker process formats the second, and the caller's text is yielded
    before the worker's.  Two passes of one table share their rows 2:3,
    the caller taking the smaller share, since it also reads the next
    table (integrating the next block of a run) and writes both texts.
    The next pair's worker pass is handed over as soon as its table is
    read, before this pair's worker text is collected, so that the worker
    need not wait for the caller between pairs.  An error in either
    process, or in reading a table, is raised once the worker has done
    every pass of this call, which leaves the worker idle.  A last pass
    without a partner, and every pass of a process that may run on one
    CPU only, is formatted on the calling thread (see csvworker.Call
    for the others).
    """
    if not _parallel():
        yield from _serial(tables)
        return
    from . import csvworker  # only where passes may be handed to it

    with csvworker.Call() as call:
        # a last (None, None) pair collects the last worker pass
        for mine, theirs in itertools.chain(_pairs(tables), [(None, None)]):
            if theirs is not None:
                call.hand(theirs)
            # the previous pair's worker pass, collected once this pair's
            # table is read (the next block of a run) and its pass handed
            if len(call.handed) > (theirs is not None):
                yield call.collect()
            if mine is not None:
                yield _array_rows(*mine)


@contextlib.contextmanager
def csv_ahead(columns):
    """csv_rows' lines of one table, every pass handed to the worker
    process at once, for a caller with other work to do before it writes
    them: the block gets an iterable of the passes' text, in order, which
    waits for each pass as it is read.  An error in a pass is raised when
    that pass is read; passes not read in the block are waited for and
    dropped when it ends.  On one CPU the passes are formatted on the
    calling thread as they are read."""
    if not _parallel():
        yield csv_rows(columns)
        return
    from . import csvworker

    with csvworker.Call() as call:
        for _, *rows in _passes([columns]):
            call.hand(_cut(*rows))
        yield (call.collect() for _ in range(len(call.handed)))


def _passes(tables):
    """Each pass of each table as (place, columns, lo, hi, layout): the
    table's place in the sequence, its columns, the pass's rows lo:hi and
    the table's _layout.  A table is cut into the fewest passes of equal
    rows within _PASS_BYTES by _row_bytes; a table of no rows has none."""
    for place, columns in enumerate(tables):
        rows = len(columns[0])
        if not rows:
            continue
        layout = _layout(columns)
        count = max(1, -(-rows * _row_bytes(layout) // _PASS_BYTES))
        step = max(1, -(-rows // count))
        for lo in range(0, rows, step):
            yield place, columns, lo, min(lo + step, rows), layout


def _cut(columns, lo, hi, layout):
    """Rows lo:hi of a table, as a pass for _array_rows."""
    return [c[lo:hi] for c in columns], layout


def _serial(tables):
    """The text of each of _passes in turn, formatted on this thread."""
    for _, *rows in _passes(tables):
        yield _array_rows(*_cut(*rows))


def _pairs(tables):
    """_passes two at a time, as (caller's, worker's) passes for
    _array_rows; the worker's is None for a last pass without a partner.
    Two passes of one table are cut again at 2/5 of their rows, so that
    the caller's is the smaller; any other two, a table's odd last pass
    and the next table's first, stay as they are."""
    passes = _passes(tables)
    for place, columns, lo, hi, layout in passes:
        other = next(passes, None)
        if other is None:
            yield _cut(columns, lo, hi, layout), None
        elif other[0] == place:
            mid = lo + max(1, 2 * (other[3] - lo) // 5)
            yield (_cut(columns, lo, mid, layout),
                   _cut(columns, mid, other[3], layout))
        else:
            yield _cut(columns, lo, hi, layout), _cut(*other[1:])


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parallel() -> bool:
    """Whether a worker process can format passes beside this one: on
    two CPUs or more, where processes fork and share memory files."""
    return _cpus() > 1 and hasattr(os, "memfd_create")


def _array_rows(columns, layout) -> bytes:
    """CSV lines of equal-length columns, from their table's _layout."""
    rows = len(columns[0])
    template, varying = layout
    if not varying:
        return template[template != 0].tobytes() * rows
    # the varying columns one after another, so that each one's slots are
    # a stretch of every word row
    words = _cells(np.array([columns[i] for i, _ in varying],
                            dtype=np.float64).reshape(-1))
    words[3] |= np.uint64(_COMMA << (8 * _SEP - 192))
    if varying[-1][0] == len(columns) - 1:
        words[3, -rows:] ^= np.uint64((_COMMA ^ _NEWLINE) << (8 * _SEP - 192))
    text = np.broadcast_to(template, (rows, len(template))).copy()
    text_words = text.view("<u8")
    for j, (_, at) in enumerate(varying):
        np.copyto(text_words[:, at:at + 4],
                  words[:, j * rows:(j + 1) * rows].T)
    del words
    text = text[text != 0]
    return text.tobytes()
