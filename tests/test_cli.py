"""Command-line interface: determinism, exit codes, output contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weyldyn.cli import CSV_COLUMNS, write_field_csv, write_trajectory_csv
from weyldyn.dynamics import Trajectory

HEADER = ("t,x,y,z,vx,vy,vz,theta,phi,k,E0,px,py,pz,"
          "Ex,Ey,Ez,constraint_residual")

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    # The child may run in another directory (cwd=tmp_path), so a relative
    # PYTHONPATH entry such as "src" would no longer find the package: put
    # the checkout's src first and make every inherited entry absolute.
    inherited = [str(Path(p).resolve())
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([str(SRC), *inherited])}


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "weyldyn", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


def test_no_arguments_is_a_usage_error():
    assert run_cli().returncode == 2


def test_missing_scenario_is_a_usage_error():
    assert run_cli("simulate").returncode == 2


def test_unknown_scenario_exits_2_with_message():
    r = run_cli("simulate", "nosuch")
    assert r.returncode == 2
    assert "neither a preset" in r.stderr


def test_simulate_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_cli("simulate", "fig3", "--out", str(a))
    r2 = run_cli("simulate", "fig3", "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 10002  # header + 10001 samples
    first = lines[1].split(",")
    assert len(first) == 18
    assert first[0] == "0.0"


def test_simulate_summary_mentions_extrema(tmp_path):
    r = run_cli("simulate", "fig3", "--out", str(tmp_path / "f.csv"))
    assert "k extrema refined" in r.stdout
    assert "speed drift" in r.stdout


def test_simulate_si_flag_reports_rates(tmp_path):
    r = run_cli("simulate", "fig45", "--si", "--out", str(tmp_path / "f.csv"))
    assert r.returncode == 0
    assert "eV/m" in r.stdout
    assert "eV/s" in r.stdout


def test_simulate_literal_field_variant(tmp_path):
    r = run_cli("simulate", "fig45", "--paper-literal-field",
                "--out", str(tmp_path / "f.csv"))
    assert r.returncode == 0
    assert "k min" in r.stdout
    # the literal component drains twice as fast: zero crossing at t = 5
    assert "at t 5.0" in r.stdout


def test_verify_passes_on_clean_scenario(tmp_path):
    r = run_cli("verify", "free")
    assert r.returncode == 0
    assert "overall: PASS" in r.stdout
    assert "[FAIL]" not in r.stdout
    assert "residual_base" in r.stdout


def test_verify_report_out_file(tmp_path):
    out = tmp_path / "report.txt"
    r = run_cli("verify", "free", "--out", str(out))
    assert r.returncode == 0
    assert "overall: PASS" in out.read_text()


def test_verify_detects_corrupted_potential(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("name = bad\ntheta0 = pi/3\nh = plane_wave\n"
                   "h_energy = 1\ncorrupt_b0 = 0.1\n")
    r = run_cli("verify", str(scn))
    assert r.returncode == 1
    assert "overall: FAIL" in r.stdout
    fail_lines = [ln for ln in r.stdout.splitlines() if "[FAIL]" in ln]
    assert any("residual_base" in ln and "1.0" in ln for ln in fail_lines)


def test_constraint_violation_flushes_partial_and_exits_1(tmp_path):
    scn = tmp_path / "clash.scn"
    # in-plane field incompatible with the spin state from the first step
    scn.write_text("name = clash\ntheta0 = pi/2\nomega2 = 10\n"
                   "field = constant\nex = 1\n")
    out = tmp_path / "clash.csv"
    r = run_cli("simulate", str(scn), "--out", str(out))
    assert r.returncode == 1
    assert "residual" in r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2  # only the violating initial sample


def test_control_energy_rate(tmp_path):
    r = run_cli("control", "free", "--dedt", "2.0", cwd=tmp_path)
    assert r.returncode == 0
    assert "[PASS]" in r.stdout


def test_control_azimuthal_k_rate(tmp_path):
    r = run_cli("control", "fig45", "--dkdt", "-0.5", "--mode", "azimuthal",
                cwd=tmp_path)
    assert r.returncode == 0
    assert "[PASS]" in r.stdout


def test_control_polar_requires_pinned_azimuth(tmp_path):
    r = run_cli("control", "fig1", "--dkdt", "1.0", "--mode", "polar",
                cwd=tmp_path)
    assert r.returncode == 2
    assert "polar control requires" in r.stderr


def test_control_requires_exactly_one_target():
    assert run_cli("control", "free").returncode == 2
    assert run_cli("control", "free", "--dedt", "1", "--dkdt", "1").returncode == 2


def test_figures_writes_named_preset(tmp_path):
    r = run_cli("figures", "fig3", "--out", str(tmp_path / "figs"))
    assert r.returncode == 0
    csv = tmp_path / "figs" / "fig3.csv"
    assert csv.exists()
    assert csv.read_text().splitlines()[0] == HEADER


def test_module_entry_matches_console_script(tmp_path):
    # the installed console script and python -m route share main()
    import shutil

    exe = shutil.which("weyl-dyn")
    if exe is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "simulate", "fig3", "--out",
                        str(tmp_path / "s.csv")], capture_output=True,
                       text=True)
    assert r.returncode == 0


def test_nan_field_fails_the_run_and_writes_partial_csv(tmp_path):
    scn = tmp_path / "nanfield.scn"
    scn.write_text("name = nanfield\nfield = expr\nez = sqrt(t - 1)\n"
                   "t_end = 2\n")
    out = tmp_path / "nanfield.csv"
    r = run_cli("simulate", str(scn), "--out", str(out))
    assert r.returncode == 1
    assert "non-finite" in r.stderr
    assert "Traceback" not in r.stderr
    assert "wrote" not in r.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2  # the first sample already carries Ez = nan


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_law_evaluation_error_exits_2_without_traceback(tmp_path, command):
    scn = tmp_path / "sqrtlaw.scn"
    scn.write_text("name = sqrtlaw\ntheta_expr = sqrt(t - 1)\nphi0 = pi/5\n"
                   "t_end = 2\n")
    r = run_cli(command, str(scn), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_non_finite_run_leaks_no_numpy_warning(tmp_path):
    scn = tmp_path / "nanfield.scn"
    scn.write_text("name = nanfield\nfield = expr\nez = sqrt(t - 1)\n"
                   "t_end = 2\n")
    r = run_cli("simulate", str(scn), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 1
    assert any("non-finite" in line for line in r.stderr.splitlines())
    assert "RuntimeWarning" not in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("simulate", "free", "--t-end", "0.0001"),
    ("control", "fig45", "--dkdt", "-0.5", "--t-end", "0.0001"),
    ("control", "free", "--dedt", "1", "--t-end", "0.0001"),
])
def test_grid_without_a_step_exits_2(tmp_path, args):
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "shorter than one step" in r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [("simulate",), ("control", "--dedt", "1")])
def test_off_grid_t_end_prints_one_note(tmp_path, command):
    scn = tmp_path / "offgrid.scn"
    scn.write_text("theta0 = pi/3\nt_end = 1\ndt = 0.3\n")
    r = run_cli(command[0], str(scn), *command[1:], "--out",
                str(tmp_path / "o.csv"))
    assert r.returncode == 0
    notes = [ln for ln in r.stderr.splitlines() if ln.startswith("note: ")]
    assert len(notes) == 1
    assert "0.8999999999999999" in notes[0]
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 1 + 4


def test_k_drain_lines_only_for_a_drain(tmp_path):
    free = run_cli("simulate", "free", "--out", str(tmp_path / "a.csv"))
    assert free.returncode == 0
    assert free.stderr == ""  # on the grid: no note
    assert "k reaches zero" not in free.stdout
    assert "k recovers" not in free.stdout
    drain = run_cli("simulate", "fig45", "--out", str(tmp_path / "b.csv"))
    assert drain.returncode == 0
    assert "k reaches zero near t 10.0" in drain.stdout
    assert "k recovers its initial value at t" in drain.stdout


def test_control_run_gate_failure_exits_1_without_traceback(tmp_path):
    # the polar field's compatibility residual is a rounding error, about
    # 1e-16, which a tolerance of 1e-300 does not allow
    scn = tmp_path / "tight.scn"
    scn.write_text("theta0 = 0.5\nomega1 = 2\nphi0 = 1\nt_end = 1\n"
                   "tolerance = 1e-300\n")
    r = run_cli("control", str(scn), "--dkdt", "0.7", "--mode", "polar",
                cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: field/motion compatibility residual")
    assert "Traceback" not in r.stderr


def test_cli_holds_no_control_physics():
    import weyldyn.cli as cli

    for name in ("energy_control_field", "k_control_field",
                 "kinetic_momentum_from_state", "ConstantField",
                 "integrate_trajectory"):
        assert not hasattr(cli, name), name


# --- CSV writers against the row-by-row writers they replaced -----------

def reference_trajectory_csv(traj, path):
    columns = (traj.t, traj.x, traj.y, traj.z, traj.vx, traj.vy, traj.vz,
               traj.theta, traj.phi, traj.k, traj.e0, traj.px, traj.py,
               traj.pz, traj.ex, traj.ey, traj.ez, traj.residual)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in zip(*columns):
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def reference_field_csv(ts, fields, path):
    with open(path, "w", newline="") as handle:
        handle.write("t,Ex,Ey,Ez\n")
        for t, e in zip(ts, fields):
            handle.write(",".join(repr(float(v))
                                  for v in (t, e[0], e[1], e[2])) + "\n")


def special_column(rows):
    odd_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                       dtype=np.uint64).view(np.float64)
    values = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
              1e16, 1e-5, 0.1, *odd_nan]
    return np.resize(np.array(values), rows)


@pytest.mark.parametrize("rows", [1, 1024, 1025, 3000])
def test_trajectory_csv_matches_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    names = ("t", "x", "y", "z", "vx", "vy", "vz", "theta", "phi",
             "theta_dot", "phi_dot", "k", "e0", "px", "py", "pz", "ex", "ey",
             "ez", "residual")
    columns = {}
    for i, name in enumerate(names):
        kind = i % 4
        if kind == 0:
            columns[name] = special_column(rows)
        elif kind == 1:
            columns[name] = np.full(rows, -0.0 if i % 8 == 1 else 0.3)
        elif kind == 2:
            columns[name] = np.arange(rows) * 1e-3  # all distinct
        else:
            columns[name] = rng.choice([1.5, -2.25, 1e300, -1e-300], rows)
    traj = Trajectory(**columns)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory_csv(traj, got)
    reference_trajectory_csv(traj, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("rows", [1, 1024, 1025, 3000])
def test_field_csv_matches_row_writer(tmp_path, rows):
    ts = np.arange(rows) * 1e-3
    special = special_column(rows).tolist()
    # a list of 3-tuples, as the energy-control path passes it
    as_tuples = [(s, 0.0, -0.0 if i % 3 else 1e-5)
                 for i, s in enumerate(special)]
    as_array = np.column_stack([special_column(rows), np.full(rows, 0.1),
                                ts[::-1]])
    for fields in (as_tuples, as_array):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_field_csv(ts, fields, got)
        reference_field_csv(ts, fields, want)
        assert got.read_bytes() == want.read_bytes()
