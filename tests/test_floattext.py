"""The array float formatter against repr(float(v)), byte for byte."""

import ast
import collections
import errno
import math
import os
import select
import signal
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyldyn import csvworker, dynamics, floattext


def array_texts(values):
    """Texts the array path gives for values, one str per value."""
    words = floattext._cells(np.array(values, dtype=np.float64))
    slots = np.ascontiguousarray(words.T).astype("<u8").view(np.uint8)
    return [bytes(slot[slot != 0]).decode() for slot in slots]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    want = [repr(v) for v in values.tolist()]
    got = array_texts(values)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, wrong[:10]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_any_bit_pattern_matches_repr(patterns):
    assert_repr(from_bits(patterns))


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_any_float_matches_repr(values):
    assert_repr(values)


def test_every_power_of_two_and_its_neighbours():
    assert_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_every_power_of_ten_and_its_neighbours():
    assert_repr(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_tiny_subnormals():
    assert array_texts([5e-324, 1e-323, -5e-324]) == ["5e-324", "1e-323",
                                                      "-5e-324"]
    assert_repr(from_bits(np.arange(1, 100_001)))


def test_notation_thresholds():
    values = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]
    assert array_texts(values) == ["0.0001", "9.999999999999999e-05",
                                   "1e+16", "9999999999999998.0"]
    assert_repr(with_neighbours(values + [-v for v in values]))


def test_exponents_of_three_digits_and_special_values():
    nan_payloads = from_bits([0x7FF8000000000001, 0xFFF8000000000000])
    values = [1e-100, -2.5e-300, 1.5e200, 1.7976931348623157e308,
              2.2250738585072014e-308, 0.0, -0.0, math.nan, *nan_payloads,
              math.inf, -math.inf]
    assert array_texts(values)[5:] == ["0.0", "-0.0", "nan", "nan", "nan",
                                       "inf", "-inf"]
    assert_repr(values)


def test_ties_between_two_shortest_candidates_round_to_even():
    # c * 2**-2 with c odd lies halfway between two one-decimal candidates
    c = np.arange(2 ** 52 + 1, 2 ** 52 + 2001, 2, dtype=np.float64)
    assert_repr(np.ldexp(c, -2))


def test_integers_and_short_decimals():
    assert_repr(np.arange(-5000, 5000) * 1e-3)
    assert_repr(np.arange(2 ** 53 - 1000, 2 ** 53 + 1000, dtype=np.float64))


def test_million_random_bit_patterns_in_one_call():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64,
                          endpoint=False).view(np.float64)
    got = b"".join(floattext.csv_rows([values]))
    assert got == ("\n".join(map(repr, values.tolist())) + "\n").encode()


def floor_log10(x):
    k = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def test_decimal_exponent_formulas_hold_for_every_binary_exponent():
    # floor(log10(2**q)) and floor(log10(3/4 * 2**q)) as _shortest_digits
    # computes them, against exact rational arithmetic
    for q in range(-1074, 972):
        assert (q * 1262611) >> 22 == floor_log10(Fraction(2) ** q), q
        assert (q * 1262611 - 524031) >> 22 == floor_log10(
            Fraction(3, 4) * Fraction(2) ** q), q


@pytest.mark.parametrize("pass_rows", [1, 3, None, 10 ** 9])
def test_csv_bytes_do_not_depend_on_the_pass_size(monkeypatch, pass_rows):
    rng = np.random.default_rng(3)
    rows = 700
    index = np.arange(rows)
    columns = [index * 1e-3,
               np.full(rows, -1.2345678901234567e-308),  # the longest repr
               rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
               np.full(rows, -0.0),
               np.full(rows, math.nan),
               np.resize([0.0, -0.0, math.inf, 1e16, 5e-324], rows),
               np.full(rows, 12.345),
               np.where(index < 600, 2.5, index * 0.5),  # varies only late
               np.where(index < 512, 0.0, -0.0)]  # one sign per stretch
    constant = [np.full(rows, 0.5), np.full(rows, -0.0), np.full(rows, 1e300)]
    # the last column is constant, so the row template ends in the newline
    constant_last = columns[:3] + [np.full(rows, 2.0)]
    for table in (columns, constant, constant_last, [c[:1] for c in columns]):
        if pass_rows is not None:
            # a budget of pass_rows rows of this table
            monkeypatch.setattr(floattext, "_PASS_BYTES", pass_rows *
                                floattext._row_bytes(floattext._layout(table)))
        want = "".join(",".join(repr(float(v)) for v in row) + "\n"
                       for row in zip(*table)).encode()
        passes = list(floattext.csv_rows(table))
        assert b"".join(passes) == want
        if pass_rows is not None:
            assert len(passes) == -(-len(table[0]) // pass_rows)


# --- csv_passes: two passes at a time, against csv_rows ---------------------

def serial_text(tables):
    return b"".join(b"".join(floattext.csv_rows(t)) for t in tables)


def trajectory_columns(traj):
    return [traj.t, *traj.r.T, *traj.v.T, traj.theta, traj.phi, traj.k,
            traj.e0, *traj.p.T, *traj.e.T, traj.residual]


class SideLog:
    """A stand-in for _array_rows that notes, in a file both processes
    append to, which side formats each pass ("caller" or "worker", by
    process id) and record(columns).  It reaches the worker only if the
    worker is forked after it is patched in (new_worker)."""

    def __init__(self, path, record):
        self.path, self.record = path, record
        self.caller = os.getpid()
        self.wrapped = floattext._array_rows

    def side(self):
        return "caller" if os.getpid() == self.caller else "worker"

    def note(self, *words):
        with open(self.path, "a") as log:
            log.write(repr(words) + "\n")

    def __call__(self, columns, layout):
        self.note(self.side(), self.record(columns))
        return self.wrapped(columns, layout)

    def sides(self):
        noted = collections.defaultdict(list)
        for line in self.path.read_text().splitlines():
            side, value = ast.literal_eval(line)
            noted[side].append(value)
        return {"caller": [], "worker": [], **noted}


@pytest.fixture
def new_worker():
    """No worker at the start of the test, so that its first csv_passes
    forks one after the test's patches, and none left after it."""
    csvworker.retire()
    yield
    csvworker.retire()


@pytest.mark.parametrize("name", ["free", "fig1", "fig2", "fig3", "fig45",
                                  "fig45_literal"])
def test_paired_passes_match_csv_rows_on_every_preset(name):
    from weyldyn.scenario import ScenarioStream, resolve_scenario

    blocks = [trajectory_columns(b)
              for b in ScenarioStream(resolve_scenario(name))]
    assert len(blocks) > 1
    assert b"".join(floattext.csv_passes(blocks)) == serial_text(blocks)


def test_paired_passes_match_csv_rows_on_random_bit_patterns():
    rng = np.random.default_rng(11)
    # tables of 1 to 5000 rows, so that pairs cross table boundaries
    tables = [[rng.integers(0, 2 ** 64, rows, dtype=np.uint64).view(
                   np.float64) for _ in range(width)]
              for rows, width in ((5000, 3), (1, 4), (777, 18), (4096, 5),
                                  (3, 1))]
    assert b"".join(floattext.csv_passes(tables)) == serial_text(tables)


def test_paired_passes_keep_a_sign_that_flips_between_passes(monkeypatch):
    rows = np.arange(100)
    # varying over the table, constant within each 25-row pass
    column = np.where(rows < 50, 0.0, -0.0)
    table = [rows * 0.5, column, np.full(100, 3.0)]
    monkeypatch.setattr(floattext, "_PASS_BYTES",
                        25 * floattext._row_bytes(floattext._layout(table)))
    assert len(list(floattext._passes([table]))) == 4
    want = "".join(f"{t!r},{z!r},3.0\n" for t, z in
                   zip((rows * 0.5).tolist(), column.tolist())).encode()
    assert b"".join(floattext.csv_passes([table])) == want


def test_a_table_is_laid_out_once_for_all_its_passes(monkeypatch):
    # one constancy test per column and one template for the table, not
    # again for each of its passes
    rows = np.arange(100)
    table = [rows * 0.5, np.where(rows < 50, 0.0, -0.0), np.full(100, 3.0)]
    monkeypatch.setattr(floattext, "_PASS_BYTES",
                        25 * floattext._row_bytes(floattext._layout(table)))
    calls = {"_varies": 0, "_layout": 0}
    for name in calls:
        def counted(*args, name=name, wrapped=getattr(floattext, name)):
            calls[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(floattext, name, counted)
    passes = list(floattext.csv_rows(table))
    assert len(passes) == 4
    assert calls == {"_varies": len(table), "_layout": 1}


def test_the_caller_formats_the_smaller_pass_of_each_pair(
        monkeypatch, tmp_path, new_worker):
    # each fig45 block is one pair of passes: the calling thread, which
    # also reads the next block and writes, takes 2/5 of the block's rows
    from weyldyn.scenario import ScenarioStream, resolve_scenario

    blocks = [trajectory_columns(b)
              for b in ScenarioStream(resolve_scenario("fig45"))]
    sizes = [len(b[0]) for b in blocks]
    assert sizes[0] == dynamics._BLOCK and len(blocks) > 2
    array_rows = floattext._array_rows
    log = SideLog(tmp_path / "sides", lambda columns: len(columns[0]))
    monkeypatch.setattr(floattext, "_array_rows", log)
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    text = b"".join(floattext.csv_passes(blocks))
    assert log.sides() == {"caller": [2 * n // 5 for n in sizes],
                    "worker": [n - 2 * n // 5 for n in sizes]}
    monkeypatch.setattr(floattext, "_array_rows", array_rows)
    assert text == serial_text(blocks)


def test_passes_pair_across_tables_of_one_two_and_three_passes(
        monkeypatch, tmp_path, new_worker):
    # a budget of 100 rows: tables of 200 and 300 rows take two and three
    # passes, 250 rows three of 84, 84 and 82.  Two passes of one table
    # are cut again 2:3; a table's odd last pass pairs, uncut, with the
    # next table's first, a one-row table's included; the last pass of
    # the sequence is the caller's alone
    sizes = [200, 300, 1, 250, 200, 300, 50]
    tables = [[place * 1000.0 + np.arange(rows), np.arange(rows) * 0.5]
              for place, rows in enumerate(sizes)]
    monkeypatch.setattr(floattext, "_PASS_BYTES", 100 * floattext._row_bytes(
        floattext._layout(tables[0])))
    array_rows = floattext._array_rows
    log = SideLog(tmp_path / "sides",
                  lambda columns: (int(columns[0][0]), len(columns[0])))
    monkeypatch.setattr(floattext, "_array_rows", log)
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    text = b"".join(floattext.csv_passes(tables))
    assert log.sides() == {
        "caller": [(0, 80), (1000, 80), (1200, 100), (3000, 67), (3168, 82),
                   (4100, 100), (5100, 80), (6000, 50)],
        "worker": [(80, 120), (1080, 120), (2000, 1), (3067, 101),
                   (4000, 100), (5000, 100), (5180, 120)]}
    monkeypatch.setattr(floattext, "_array_rows", array_rows)
    assert text == serial_text(tables)


def test_one_table_passed_twice_is_written_twice(monkeypatch):
    # the same list object at two places of the sequence: three passes
    # each, so that the first's last pass pairs with the second's first
    table = [np.arange(30000) * 1e-3, np.arange(30000) * 2.5]
    assert len(list(floattext.csv_rows(table))) == 3
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    assert b"".join(floattext.csv_passes([table, table])) == (
        b"".join(floattext.csv_rows(table)) * 2)


@pytest.mark.parametrize("name", ["fig45", "fig1"])
def test_a_pass_holds_at_most_120_bytes_per_varying_value(name):
    # the digits' buffers, then the text matrix, its keep mask and the
    # kept text, traced over every pass of a preset's first block, on
    # either thread; a first call builds the formatter's tables
    from weyldyn.scenario import ScenarioStream, resolve_scenario

    block = trajectory_columns(next(iter(ScenarioStream(
        resolve_scenario(name)))))
    rows = len(block[0])
    assert rows == dynamics._BLOCK
    pairs = list(floattext._pairs([block]))
    if name == "fig45":  # one pair, cut 2:3
        assert [(len(a[0][0]), len(b[0][0])) for a, b in pairs] == [
            (2 * rows // 5, rows - 2 * rows // 5)]
    passes = [p for pair in pairs for p in pair if p is not None]
    floattext._array_rows(*passes[0])
    for columns, layout in passes:
        tracemalloc.start()
        try:
            floattext._array_rows(columns, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        varying = sum(map(floattext._varies, columns)) * len(columns[0])
        assert peak / varying <= 120


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_an_error_in_a_pass_is_raised_and_the_worker_stays_usable(
        monkeypatch, tmp_path, new_worker, failing):
    # the first pair's pass fails in one process; a worker pass fails only
    # once the next pair's is queued behind it, so that the worker holds
    # two passes of the call, and the error is raised only after every
    # pass handed to the worker is done
    from weyldyn.cli import write_trajectory_csv
    from weyldyn.scenario import ScenarioStream, resolve_scenario

    blocks = list(ScenarioStream(resolve_scenario("fig45").with_overrides(
        t_end=10.0)))
    assert len(blocks) > 2
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    write_trajectory_csv(blocks, want)
    csvworker.retire()  # the next worker is forked with the patches
    array_rows = floattext._array_rows
    log = SideLog(tmp_path / "sides", None)
    handed = []  # the worker's passes, in the worker's memory
    serve, tasks = csvworker._serve, []

    def serving(fd, *args):  # the worker's end of its tasks pipe
        tasks.append(fd)
        serve(fd, *args)

    def first_pass_fails(columns, layout):
        on_worker = log.side() == "worker"
        if on_worker:
            handed.append(columns[0][0])
            log.note("handed", float(columns[0][0]))
        try:
            if failing == "worker" and len(handed) == 1 and on_worker:
                queued = select.select(tasks, [], [], 10)[0]
                raise RuntimeError("worker pass failed" if queued
                                   else "no pass was queued behind it")
            if failing == "caller" and columns[0][0] == 0.0:
                raise RuntimeError("caller pass failed")
            return array_rows(columns, layout)
        finally:
            if on_worker:
                log.note("finished", float(columns[0][0]))

    monkeypatch.setattr(csvworker, "_serve", serving)
    monkeypatch.setattr(floattext, "_array_rows", first_pass_fails)
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=f"{failing} pass failed"):
        write_trajectory_csv(blocks, got)
    noted = log.sides()
    assert noted["finished"] == noted["handed"]
    assert len(noted["handed"]) == (2 if failing == "worker" else 1)
    worker = csvworker._running.pid
    monkeypatch.setattr(floattext, "_array_rows", array_rows)
    write_trajectory_csv(blocks, got)
    assert got.read_bytes() == want.read_bytes()
    assert csvworker._running.pid == worker


def test_one_pass_and_one_cpu_never_reach_the_worker(monkeypatch):
    def no_worker():
        raise AssertionError("a pass was handed to the worker")

    def ahead(table):
        with floattext.csv_ahead(table) as rows:
            return b"".join(rows)

    monkeypatch.setattr(csvworker, "_take", no_worker)
    one_pass = [np.arange(100) * 0.25, np.full(100, -0.0)]
    assert b"".join(floattext.csv_passes([one_pass])) == serial_text(
        [one_pass])
    many = [[np.arange(30000) * 1e-3, np.arange(30000) * 2.5]] * 2
    if floattext._cpus() > 1:
        with pytest.raises(AssertionError, match="handed to the worker"):
            b"".join(floattext.csv_passes(many))
        with pytest.raises(AssertionError, match="handed to the worker"):
            ahead(many[0])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert b"".join(floattext.csv_passes(many)) == serial_text(many)
    assert ahead(many[0]) == serial_text(many[:1])


def run_child(code, *args):
    """Run Python code in a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_verify_and_control_start_no_thread():
    # verify and control --dedt start no process either: waitpid finds
    # no child
    code = ("import os, sys, threading, tempfile\n"
            "from weyldyn import cli\n"
            "out = tempfile.mkdtemp() + '/c.csv'\n"
            "for args in (['verify', 'free'],\n"
            "             ['control', 'free', '--dedt', '2', '--out', out]):\n"
            "    assert cli.main(args) == 0\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "        sys.exit(f'{args[0]} started a process')\n"
            "    except ChildProcessError:\n"
            "        pass\n"
            "assert cli.main(['control', 'fig45', '--dkdt', '-0.5',\n"
            "                 '--out', out]) == 0\n"
            "sys.stderr.write(str(threading.active_count()))\n")
    r = run_child(code)
    assert r.returncode == 0, r.stderr
    assert r.stderr == "1"


GATE_TRIP = "theta0 = 1e-200\nomega2 = 1\nq = 1e-200\nt_end = 20\n"


@pytest.mark.skipif(not floattext._parallel(), reason="no worker process")
@pytest.mark.parametrize("args, rc", [
    (["simulate", "free"], 0),
    (["control", "fig45", "--dkdt", "-0.5"], 0),
    (["control", "<gate trip>", "--dkdt", "-0.5"], 1),
    (["control", "fig45", "--dkdt", "nan"], 2),
    (["interrupt"], None),
])
def test_no_worker_outlives_its_command(tmp_path, args, rc):
    # a simulate forks the worker; the child interpreter then runs one
    # more command (or is interrupted), prints the worker's pid and
    # exits, and must have reaped its worker: an orphaned zombie would
    # still answer kill(pid, 0)
    scn = tmp_path / "trip.scn"
    scn.write_text(GATE_TRIP)
    args = [str(scn) if a == "<gate trip>" else a for a in args]
    code = ("import sys\n"
            "from weyldyn import cli, csvworker\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['simulate', 'free', '--out', out]) == 0\n"
            "pid = csvworker._running.pid\n"
            "if sys.argv[2:] == ['interrupt']:\n"
            "    print('worker', pid, flush=True)\n"
            "    raise KeyboardInterrupt\n"
            "rc = cli.main(sys.argv[2:] + ['--out', out])\n"
            "assert csvworker._running.pid == pid\n"
            "print('worker', pid, rc)\n")
    r = run_child(code, str(tmp_path / "out.csv"), *args)
    last = r.stdout.splitlines()[-1].split()
    pid = int(last[1])
    if rc is None:
        assert "KeyboardInterrupt" in r.stderr
    else:
        assert r.returncode == 0, r.stderr
        assert last == ["worker", str(pid), str(rc)]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_a_lost_worker_costs_no_bytes(monkeypatch, tmp_path, new_worker):
    # the worker is killed in its first pass: the call formats the lost
    # passes itself, and the next call forks a new worker
    from weyldyn.scenario import ScenarioStream, resolve_scenario

    blocks = [trajectory_columns(b)
              for b in ScenarioStream(resolve_scenario("fig45"))]
    want = serial_text(blocks)
    array_rows = floattext._array_rows
    log = SideLog(tmp_path / "sides", lambda columns: len(columns[0]))
    killed_pid = tmp_path / "killed"

    def killed(columns, layout):
        if log.side() == "worker":
            killed_pid.write_text(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return log(columns, layout)

    monkeypatch.setattr(floattext, "_array_rows", killed)
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    assert b"".join(floattext.csv_passes(blocks)) == want
    shares = [(2 * len(b[0]) // 5, len(b[0]) - 2 * len(b[0]) // 5)
              for b in blocks]
    assert log.sides() == {"caller": [n for pair in shares for n in pair],
                           "worker": []}
    lost = int(killed_pid.read_text())
    assert csvworker._running is None  # reaped once it was lost
    monkeypatch.setattr(floattext, "_array_rows", array_rows)
    assert b"".join(floattext.csv_passes(blocks)) == want
    assert csvworker._running.pid != lost
    with pytest.raises(ProcessLookupError):
        os.kill(lost, 0)


def test_a_gate_trip_while_the_profile_is_out_leaves_no_file(tmp_path):
    from weyldyn import cli

    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert cli.main(["control", "fig45", "--dkdt", "-0.5",
                     "--out", str(want)]) == 0
    scn = tmp_path / "trip.scn"
    scn.write_text(GATE_TRIP)
    assert cli.main(["control", str(scn), "--dkdt", "-0.5",
                     "--out", str(tmp_path / "trip.csv")]) == 1
    assert (csvworker._running is not None) == floattext._parallel()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trip.scn",
                                                          "want.csv"]
    assert cli.main(["control", "fig45", "--dkdt", "-0.5",
                     "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_tables_of_no_rows_have_no_lines(monkeypatch, tmp_path):
    from weyldyn.cli import write_field_csv

    empty = [np.array([]), np.array([])]
    one = [np.arange(3) * 0.5, np.full(3, 2.0)]
    assert list(floattext.csv_rows(empty)) == []
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    assert list(floattext.csv_passes([empty, empty])) == []
    assert b"".join(floattext.csv_passes([empty, one, empty])) == (
        b"0.0,2.0\n0.5,2.0\n1.0,2.0\n")
    with floattext.csv_ahead(empty) as rows:
        assert list(rows) == []
    out = tmp_path / "empty.csv"
    write_field_csv(floattext.csv_rows(
        (np.array([]), *np.transpose(np.empty((0, 3))))), out)
    assert out.read_bytes() == b"t,Ex,Ey,Ez\n"


def test_the_shared_buffer_follows_the_pass_budget(monkeypatch, tmp_path,
                                                    new_worker):
    # a worker forked under a budget of 100 rows of this table has a
    # buffer of two budgets; under the default budget again, a share too
    # large for that buffer is formatted on the caller, whole
    table = [np.arange(30000) * 1e-3, np.arange(30000) * 2.5]
    budget = 100 * floattext._row_bytes(floattext._layout(table))
    want = b"".join(floattext.csv_rows(table))
    monkeypatch.setattr(floattext, "_PASS_BYTES", budget)
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    assert b"".join(floattext.csv_passes([table])) == want
    assert os.fstat(csvworker._running.shared).st_size == 2 * budget
    monkeypatch.undo()
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    log = SideLog(tmp_path / "sides", lambda columns: len(columns[0]))
    monkeypatch.setattr(floattext, "_array_rows", log)
    assert b"".join(floattext.csv_passes([table])) == want
    with floattext.csv_ahead(table) as rows:
        assert b"".join(rows) == want
    shares = len(list(floattext._passes([table])))
    assert shares > 1
    assert log.sides() == {"caller": [8000, 12000, 10000] + [10000] * shares,
                           "worker": []}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd")
def test_a_failed_fork_leaves_no_descriptor_open(monkeypatch, new_worker):
    # every call tries to fork again, and formats its passes itself
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    table = [np.arange(30000) * 1e-3, np.arange(30000) * 2.5]
    want = b"".join(floattext.csv_rows(table))
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert b"".join(floattext.csv_passes([table])) == want
    assert len(os.listdir("/proc/self/fd")) == before
    assert csvworker._running is None


def test_a_held_worker_leaves_the_call_its_own_passes(monkeypatch, tmp_path,
                                                      new_worker):
    # csv_passes inside a csv_ahead block of the same thread finds the
    # worker held, and formats every pass of its two tables itself
    table = [np.arange(30000) * 1e-3, np.arange(30000) * 2.5]
    want = b"".join(floattext.csv_rows(table))
    log = SideLog(tmp_path / "sides", lambda columns: len(columns[0]))
    monkeypatch.setattr(floattext, "_array_rows", log)
    monkeypatch.setattr(floattext, "_cpus", lambda: 2)
    with floattext.csv_ahead(table) as ahead:
        assert b"".join(floattext.csv_passes([table, table])) == 2 * want
        assert b"".join(ahead) == want
    assert log.sides() == {"caller": [8000, 12000, 10000, 10000, 8000, 12000],
                           "worker": [10000] * 3}


def test_concurrent_writers_each_get_their_own_passes():
    # four calling threads share the one worker; a short switch interval
    # interleaves them, and a reply taken by the wrong caller shows as
    # bytes out of place
    rng = np.random.default_rng(5)
    tables = [[[rng.integers(0, 2 ** 64, 3000, dtype=np.uint64).view(
                    np.float64) for _ in range(9)] for _ in range(3)]
              for _ in range(4)]
    want = [serial_text(t) for t in tables]
    got = [None] * len(tables)

    def write(i):
        got[i] = [b"".join(floattext.csv_passes(tables[i])) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(i,))
                   for i in range(len(tables))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[text] * 3 for text in want]
