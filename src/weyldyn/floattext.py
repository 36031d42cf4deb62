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
32-bit limbs, and the 617-entry table is built from Python integers on
first use.

A table is written in passes, which bound the temporaries: a pass peaks
at about 225 bytes per varying value (tracemalloc, on fig45 passes of 6k
to 25k values).  ``csv_rows`` formats one pass at a time, of
max(``_PASS_ROWS``, ceil(``_PASS_VALUES`` / v)) rows for v columns
varying over the table: a table with one varying column (a control
profile's ``t``) goes in 8192-row passes, a wide trajectory table in
512-row passes.  ``csv_passes`` takes a sequence of tables, such as the
blocks of a run, and formats two passes at a time, one on the calling
thread and one on a worker thread, each of at most ``_PAIR_VALUES``
varying values.  numpy lets go of the GIL inside its loops, but the two
threads take it in turns between numpy calls, so a pair of passes takes
about 1.75 times as long as one, and smaller passes, with shorter calls,
gain nothing.  glibc gives the worker its own heap, which keeps its
pass's peak after the pass: the second pass costs about one pass of
resident memory.

Each pass is one uint8 text matrix, a row per CSV line.  The columns
constant within the pass, by bit pattern, are rendered once with their
separators into a row template, which holds a '0'-filled slot of
``_SLOT`` bytes for each varying column.  The template fills every row,
only the varying cells are formatted, and one boolean-mask compaction
keeps each varying cell's text and separator and every constant cell,
with no Python string per value.  Constancy is decided per pass, as a
column may be +0.0 in one stretch and -0.0 in another.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

_PASS_VALUES = 8192  # least varying values per pass of csv_rows
_PASS_ROWS = 512  # least rows per pass of csv_rows
_PAIR_VALUES = 12288  # most varying values per pass of csv_passes

_SLOT = 25  # longest repr, -1.2345678901234567e-308, plus a separator
_E_MIN, _E_MAX = -292, 324  # range of the power of ten 10**-k the digits need
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)
_M63 = np.uint64((1 << 63) - 1)
_DIGIT, _COMMA, _NEWLINE = ord("0"), ord(","), ord("\n")
_PLACES = np.arange(17, dtype=np.uint8)[:, None]


@functools.cache
def _pow10_table():
    """g(e) as (g1, g0), and floor(log2 10**e), for e in [_E_MIN, _E_MAX].

    g(e) = floor(10**e * 2**-r) + 1 with r chosen so that
    2**125 <= g(e) < 2**126, split as g = g1 * 2**63 + g0.
    """
    g1s, g0s, flog2 = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            p = 10 ** e
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            d = 10 ** -e
            r = -125 - d.bit_length()
            g = (1 << -r) // d + 1
        g1s.append(g >> 63)
        g0s.append(g & ((1 << 63) - 1))
        flog2.append(125 + r)
    return (np.array(g1s, dtype=np.uint64), np.array(g0s, dtype=np.uint64),
            np.array(flog2, dtype=np.int64))


@functools.cache
def _digit_quads():
    """The four ASCII digits of each i < 10000, as one uint32 per i."""
    text = "".join(f"{i:04d}" for i in range(10000)).encode()
    return np.frombuffer(text, dtype=np.uint32)


def _mul_hi(ah, al, bh, bl):
    """High 64 bits of a * b, from the 32-bit limbs of a and b."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _round_to_odd(y1, y0, x1):
    """floor(cp * g / 2**127), with the low bit set when bits were dropped,
    from y = g1 * cp = y1:y0 and x1, the high half of g0 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _M63) != 0).astype(np.uint64)


def _add_shifted(hi, lo, g, e):
    """hi:lo + (g << e) in 128 bits, for 0 < e < 64."""
    low = lo + (g << e)
    return hi + (g >> (np.uint64(64) - e)) + (low < lo), low


def _scaled_interval(bits):
    """The rounding interval of each double, scaled by 4 * 10**-k.

    Returns ``(lower, vb, upper, k)``: the value and the ends of the
    interval of reals that round to it, each rounded to odd (so a
    comparison with an even integer stays exact), with the ends moved
    inwards by one where the interval is open.
    """
    g1_table, g0_table, flog2_table = _pow10_table()
    bq = (bits >> 52).astype(np.int64)
    t = bits & _M52
    normal = bq != 0
    c = np.where(normal, t | np.uint64(1 << 52), t)
    q = np.where(normal, bq, 1) - 1075
    # the lower neighbour is closer at the bottom of each binade (c = 2**52)
    irregular = (t == 0) & (bq > 1)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where irregular;
    # exact for every binary exponent of a double (the tests check each)
    k = (q * 1262611 - irregular * 524031) >> 22
    row = -k - _E_MIN
    g1, g0 = g1_table[row], g0_table[row]
    h = (q + flog2_table[row] + 2).astype(np.uint64)
    del bq, t, normal, q, row  # dead here; freeing them lowers a pass's peak
    # cp * g / 2**127 for cp = c_x << h, where c_x runs over the rounding
    # interval's lower end 4c - 2 (4c - 1 where irregular), 4c and the
    # upper end 4c + 2; each product is the previous one plus g << e
    cp = ((c << 2) - np.uint64(2) + irregular) << h
    cph, cpl = cp >> 32, cp & _M32
    y = _mul_hi(g1 >> 32, g1 & _M32, cph, cpl), g1 * cp  # g1 * cp
    x = _mul_hi(g0 >> 32, g0 & _M32, cph, cpl), g0 * cp  # g0 * cp
    del cp, cph, cpl
    v = [_round_to_odd(*y, x[0])]
    for e in (h + np.uint64(1) - irregular, h + np.uint64(1)):
        y, x = _add_shifted(*y, g1, e), _add_shifted(*x, g0, e)
        v.append(_round_to_odd(*y, x[0]))
    vbl, vb, vbr = v
    # an odd significand's interval excludes its ends
    odd = c & np.uint64(1)
    return vbl + odd, vb, vbr - odd, k


def _shortest_digits(bits):
    """Shortest round-trip decimal of positive finite nonzero doubles.

    ``bits`` is the uint64 view of the values.  Returns ``(d, k)`` with the
    value's shortest closest decimal equal to ``d * 10**k``; ``d`` may carry
    trailing zeros.
    """
    lower, vb, upper, k = _scaled_interval(bits)
    s = vb >> 2
    # one digit shorter: at most one multiple of 10 * 10**k lies inside
    sp = (s // 10) * 10
    up_in = lower <= sp << 2
    wp_in = (sp + np.uint64(10)) << 2 <= upper
    short = (s >= 10) & (up_in != wp_in)
    # full length: s or s + 1, the one inside, else the closer (even on a tie)
    u_in = lower <= s << 2
    w_in = (s + np.uint64(1)) << 2 <= upper
    mid = (s << 2) + np.uint64(2)
    closer_up = (vb > mid) | ((vb == mid) & ((s & np.uint64(1)) != 0))
    up = np.where(u_in != w_in, w_in, closer_up)
    d = np.where(short, np.where(up_in, sp, sp + np.uint64(10)), s + up)
    return d, k


def _digit_rows(full):
    """The 17 ASCII digits of each value in [1e16, 1e17), digit j in row j."""
    full = full.view(np.int64)
    m = len(full)
    quads = np.empty((5, m), dtype=np.uint32)  # four ASCII digits each
    table = _digit_quads()
    for i in range(4, 0, -1):
        top = full // 10000
        quads[i] = table[full - top * 10000]
        full = top
    quads[0] = table[full]
    digits = quads.view(np.uint8).reshape(5, m, 4).transpose(0, 2, 1)
    return digits.reshape(20, m)[3:]


def _fill(values, flat, start):
    """Write repr(float(v)) of each value at flat[start[i]:]; return lengths.

    Each slot flat[start[i]:start[i] + _SLOT] must hold '0' bytes.
    """
    m = len(values)
    bits = values.view(np.uint64)
    neg = (bits >> 63).astype(np.int64)
    bits = bits & ~np.uint64(1 << 63)
    finite = bits < np.uint64(0x7FF0000000000000)
    zero = bits == 0
    # zeros and non-finite values take the digits of 1.0 and are fixed below
    d, k = _shortest_digits(np.where(finite & ~zero, bits,
                                     np.uint64(0x3FF0000000000000)))
    n_raw = np.searchsorted(_POW10, d, side="right")
    decpt = k + n_raw
    # 17 digits, left-aligned: d * 10**(17 - n_raw) lies in [1e16, 1e17)
    digits = _digit_rows(d * _POW10[17 - n_raw])
    digits[0, zero] = _DIGIT
    n = ((digits != _DIGIT) * _PLACES).max(axis=0) + 1

    positional = (decpt > -4) & (decpt <= 16)
    small = positional & (decpt <= 0)  # 0.000ddd
    large = positional & ~small  # ddd.ddd or ddd.0
    sci = ~positional
    # digit j goes to base + j, plus one once past the decimal point at dot
    base = neg + np.where(small, 1 - decpt, 0)
    dot = np.where(large, decpt, np.where(small, 0, np.where(n > 1, 1, 17)))
    count = np.where(large, np.maximum(n, decpt + 1), n)

    first = start + base
    # thirds bound the index arrays
    for places in (slice(0, 6), slice(6, 12), slice(12, 17)):
        offset = _PLACES[places] + (_PLACES[places] >= dot.astype(np.uint8))
        flat[first + offset] = digits[places]
    flat[start + np.where(small, neg + 1, base + dot)] = ord(".")
    flat[start[neg == 1]] = ord("-")
    length = base + count + 1

    e = np.flatnonzero(sci)
    if len(e):
        at = start[e] + base[e] + n[e] + (n[e] > 1)
        exp = decpt[e] - 1
        mag = np.abs(exp)
        wide = mag >= 100
        flat[at] = ord("e")
        flat[at + 1] = np.where(exp < 0, ord("-"), ord("+"))
        flat[at + 2] = np.where(wide, mag // 100, mag // 10) + _DIGIT
        flat[at + 3] = np.where(wide, mag // 10 % 10, mag % 10) + _DIGIT
        flat[at[wide] + 4] = mag[wide] % 10 + _DIGIT
        length[e] = at - start[e] + 4 + wide

    for i in np.flatnonzero(~finite):
        text = repr(float(values[i])).encode()
        flat[start[i]:start[i] + len(text)] = np.frombuffer(text, np.uint8)
        length[i] = len(text)
    return length


def _varies(column) -> bool:
    """Whether a float64 column holds more than one bit pattern."""
    return bool((column.view(np.uint64) != column[:1].view(np.uint64)).any())


def csv_rows(columns):
    """CSV lines of equal-length float64 columns, one bytes object per pass.

    Each value is written as repr(float(v)); each line ends in a newline.
    """
    step = max(_PASS_ROWS,
               -(-_PASS_VALUES // max(sum(map(_varies, columns)), 1)))
    for lo in range(0, len(columns[0]), step):
        yield _array_rows([c[lo:lo + step] for c in columns])


def csv_passes(tables):
    """csv_rows' lines of each table in turn, formatted two passes at a
    time; one bytes object per pass, in order.

    A table is a list of equal-length float64 columns, such as one block
    of a run; the tables are read as the passes need them.  Each is cut
    into the fewest passes of equal rows holding at most _PAIR_VALUES
    varying values.  The calling thread formats one pass while a worker
    thread formats the next; the caller's text is yielded, and the next
    pass read, before the worker's text is.  An error on either thread, or
    in reading a table, is raised once the worker's pass is done, which
    leaves the worker idle.  A last pass without a partner, and every pass
    of a process that may run on one CPU only, is formatted on the calling
    thread.
    """
    passes = _passes(tables)
    if _cpus() < 2:
        yield from map(_array_rows, passes)
        return
    from queue import SimpleQueue  # only where a trajectory is written

    reply = SimpleQueue()  # the worker's answers to this call
    first = next(passes, None)
    while first is not None:
        second = next(passes, None)
        if second is None:
            yield _array_rows(first)
            return
        _worker().put((second, reply))
        try:
            text = _array_rows(first)
            yield text
            del text
            # read on (the next block of a run) while the worker finishes
            first = next(passes, None)
        finally:
            text, error = reply.get()  # waits for the worker's pass
        if error is not None:
            raise error
        yield text
        del text  # the pair's text goes before the next pair's


def _passes(tables):
    """csv_passes' passes of each table, as lists of column slices."""
    for columns in tables:
        rows = len(columns[0])
        varying = max(sum(map(_varies, columns)), 1)
        count = max(1, -(-rows * varying // _PAIR_VALUES))
        step = max(1, -(-rows // count))
        for lo in range(0, rows, step):
            yield [c[lo:lo + step] for c in columns]


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(tasks):
    """Format each (pass, reply) put on tasks, in order, and put (text,
    None) or (None, error) on its reply queue; the error is raised again
    on the thread that waits for the reply."""
    while True:
        columns, reply = tasks.get()
        try:
            reply.put((_array_rows(columns), None))
        except BaseException as exc:
            reply.put((None, exc))
        del columns, reply  # so that the pass's block can go


@functools.cache
def _worker():
    """The task queue of csv_passes' worker thread, started on first use."""
    from queue import SimpleQueue

    tasks = SimpleQueue()
    threading.Thread(target=_serve, args=(tasks,), name="floattext",
                     daemon=True).start()
    return tasks


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _array_rows(columns) -> bytes:
    """CSV lines of equal-length columns, laid out from their row template."""
    rows, ncols = len(columns[0]), len(columns)
    is_varying = list(map(_varies, columns))
    varying = np.flatnonzero(is_varying)
    seps = np.full(ncols, _COMMA, dtype=np.uint8)
    seps[-1] = _NEWLINE
    cells = [b"0" * _SLOT if vary else
             repr(float(column[0])).encode() + bytes([sep])
             for vary, column, sep in zip(is_varying, columns, seps)]
    widths = [len(cell) for cell in cells]
    template = np.frombuffer(b"".join(cells), dtype=np.uint8)
    width = len(template)
    offset = np.cumsum(widths) - widths
    text = np.broadcast_to(template, (rows, width)).copy()
    flat = text.reshape(-1)
    start = np.arange(0, text.size, width)[:, None] + offset[varying]
    # the varying cells in row order
    values = np.array([columns[i] for i in varying]).T.reshape(-1)
    length = _fill(values, flat, start.reshape(-1)).reshape(rows, -1)
    flat[start + length] = seps[varying]
    # keep a cell's bytes up to its separator, at its text length; a
    # constant cell's limit, 255, keeps it whole
    lim = np.full((rows, ncols), 255, dtype=np.uint8)
    lim[:, varying] = length
    pos = (np.arange(width) - np.repeat(offset, widths)).astype(np.uint8)
    return text[pos <= np.repeat(lim, widths, axis=1)].tobytes()
