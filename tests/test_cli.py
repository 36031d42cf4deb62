"""Command-line interface: determinism, exit codes, output contracts."""

import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from weyldyn import cli
from weyldyn.cli import CSV_COLUMNS, write_field_csv, write_trajectory_csv
from weyldyn.dynamics import Trajectory
from weyldyn.floattext import csv_rows
from weyldyn.scenario import _split_lines

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


def test_refined_extrema_only_for_a_run_that_follows_the_law(
        tmp_path, monkeypatch, capsys):
    # a zero field leaves theta'' = 0, so this run does not follow its law
    (tmp_path / "zero.scn").write_text("theta_expr = 1 + t^2\nt_end = 2\n")
    monkeypatch.chdir(tmp_path)
    for name, refined in (("zero.scn", False), ("free", True)):
        assert cli.main(["simulate", name, "--t-end", "2"]) == 0
        assert ("k extrema refined" in capsys.readouterr().out) == refined


def test_simulate_si_flag_reports_rates(tmp_path):
    r = run_cli("simulate", "fig45", "--si", "--out", str(tmp_path / "f.csv"))
    assert r.returncode == 0
    assert "eV/m" in r.stdout
    assert "eV/s" in r.stdout


def test_simulate_literal_field_variant(tmp_path):
    r = run_cli("simulate", "fig45_literal", "--out", str(tmp_path / "f.csv"))
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


def test_control_si_flag_appends_si_lines(tmp_path):
    r = run_cli("control", "free", "--dedt", "2", "--si", cwd=tmp_path)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1].startswith("[PASS]")
    assert lines[2].startswith("SI reading")
    assert "eV/m" in lines[3] and "eV/s" in lines[3]


def test_control_si_reads_the_profile_field_at_t0(tmp_path):
    out = tmp_path / "c.csv"
    r = run_cli("control", "free", "--dedt", "2", "--si", "--out", str(out))
    assert r.returncode == 0
    first = [float(v) for v in out.read_text().splitlines()[1].split(",")]
    magnitude = float(np.linalg.norm(first[1:]))
    assert magnitude > 1.9
    assert f"|E| = {magnitude!r} V/m" in r.stdout


def test_control_requires_exactly_one_target():
    assert run_cli("control", "free").returncode == 2
    assert run_cli("control", "free", "--dedt", "1", "--dkdt", "1").returncode == 2


def test_figures_writes_named_preset(tmp_path):
    r = run_cli("figures", "fig3", "--out", str(tmp_path / "figs"))
    assert r.returncode == 0
    csv = tmp_path / "figs" / "fig3.csv"
    assert csv.exists()
    assert csv.read_text().splitlines()[0] == HEADER


def test_figure_copies_differ_from_their_source_only_by_name():
    # figures writes these presets' CSVs as copies of their sources'
    presets = resources.files("weyldyn") / "presets"

    def keys(name):
        text = (presets / f"{name}.scn").read_text()
        return {key: value for _, key, value in _split_lines(text)}

    for copy, source in cli.FIGURE_COPIES.items():
        copy_keys, source_keys = keys(copy), keys(source)
        assert copy_keys.pop("name") == copy
        assert source_keys.pop("name") == source
        assert copy_keys == source_keys


def test_figures_applies_grid_overrides(tmp_path):
    r = run_cli("figures", "fig3", "--t-end", "1", "--out", str(tmp_path))
    assert r.returncode == 0
    assert r.stdout == f"fig3: 1001 samples -> {tmp_path / 'fig3.csv'}\n"
    assert len((tmp_path / "fig3.csv").read_text().splitlines()) == 1002


def test_figures_notes_an_off_grid_t_end(tmp_path):
    r = run_cli("figures", "fig3", "--t-end", "1.0005", "--out",
                str(tmp_path))
    assert r.returncode == 0
    assert r.stderr == ("note: t_end 1.0005 is not a whole number of steps "
                        "of dt 0.001; the grid ends at t 1.0\n")
    assert len((tmp_path / "fig3.csv").read_text().splitlines()) == 1002


def test_plain_figures_prints_nothing_on_stderr(tmp_path):
    r = run_cli("figures", "--out", str(tmp_path))
    assert r.returncode == 0
    assert r.stderr == ""
    assert len(r.stdout.splitlines()) == 4


def test_figures_copies_fig1_as_fig2_with_its_own_lines(tmp_path):
    r = run_cli("figures", "--t-end", "1.0005", "--out", str(tmp_path))
    assert r.returncode == 0
    assert (tmp_path / "fig2.csv").read_bytes() == (
        tmp_path / "fig1.csv").read_bytes()
    assert f"fig2: 101 samples -> {tmp_path / 'fig2.csv'}" in r.stdout
    # each preset notes the off-grid end, the copied one too
    assert r.stderr.count("note: t_end 1.0005") == 4


def test_paper_literal_key_in_a_file_is_unknown(tmp_path):
    # the literal field is the fig45_literal preset, not a second field
    scn = tmp_path / "lit.scn"
    scn.write_text("field = constant\nez = 1/(2*q)\npaper_literal_ez = 1/q\n")
    r = run_cli("simulate", str(scn), "--out", str(tmp_path / "out"),
                cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == "error: line 3: unknown key 'paper_literal_ez'\n"
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == [scn]


@pytest.mark.parametrize("argv, option", [
    (("verify", "free"), ("--dt", "0.5")),
    (("verify", "free"), ("--t-end", "3")),
    (("simulate", "free"), ("--seed", "7")),
    (("control", "free", "--dedt", "1"), ("--seed", "7")),
    (("figures", "fig3"), ("--seed", "7")),
    (("figures", "fig3"), ("--si",)),
    (("control", "fig45", "--dkdt", "-0.5"), ("--paper-literal-field",)),
    (("simulate", "fig1"), ("--paper-literal-field",)),
    (("verify", "fig1"), ("--paper-literal-field",)),
    (("figures", "fig1"), ("--paper-literal-field",)),
    (("verify", "free"), ("--si",)),
])
def test_option_a_command_does_not_take_is_a_usage_error(tmp_path, argv,
                                                         option):
    r = run_cli(*argv, *option, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert r.returncode == 2
    assert any(line.startswith("weyl-dyn: error: unrecognized arguments: ")
               and option[0] in line for line in r.stderr.splitlines())
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, options", [
    ("verify", {"--seed"}),
    ("simulate", {"--dt", "--t-end", "--si"}),
    ("control", {"--dt", "--t-end", "--si", "--dedt", "--dkdt", "--mode"}),
    ("figures", {"--dt", "--t-end"}),
])
def test_help_lists_only_the_options_a_command_takes(capsys, command,
                                                     options):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"(?m)^  (--[\w-]+)", capsys.readouterr().out)
    assert sorted(listed) == sorted(options | {"--out"})


def test_repeated_main_calls_match_a_fresh_parser(tmp_path, capsys):
    # the parser is built once per process; options of one call must not
    # leak into the next
    import weyldyn.cli as cli

    polar = tmp_path / "polar.scn"
    polar.write_text("theta0 = 0.5\nomega1 = 2\nphi0 = 1\nt_end = 1\n")
    calls = [
        ("control", str(polar), "--dkdt", "0.3", "--mode", "polar"),
        ("control", "fig45", "--dkdt", "-0.5", "--t-end", "2"),
        ("verify", "free", "--seed", "3"),
        ("verify", "free"),
        ("simulate", "fig3", "--t-end", "1", "--si"),
        ("simulate", "fig3", "--dt", "0.01"),
        ("figures", "fig3", "--t-end", "0.5"),
    ]
    fresh = cli.build_parser.__wrapped__()
    for argv in calls:
        assert vars(cli.build_parser().parse_args(argv)) == vars(
            fresh.parse_args(argv))
    assert cli.build_parser() is cli.build_parser()

    def run_all(order):
        outputs = {}
        for i in order:
            out = tmp_path / f"out{i}"
            out.mkdir(exist_ok=True)
            rc = cli.main([*calls[i], "--out", str(out / "o")])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.rglob("*"))
                     if p.is_file()}
            outputs[i] = (rc, captured.out.replace(str(out), "<out>"),
                          captured.err, files)
        return outputs

    forward = run_all(range(len(calls)))
    assert run_all(reversed(range(len(calls)))) == forward
    assert [rc for rc, *_ in forward.values()] == [0] * len(calls)
    assert "[PASS] target dk/dt 0.3" in forward[0][1]
    assert "[PASS] target dk/dt -0.5" in forward[1][1]
    assert "seed 3:" in forward[2][1] and "seed 0:" in forward[3][1]
    assert "1001 samples" in forward[4][1] and "SI reading" in forward[4][1]
    assert ("1001 samples, dt 0.01" in forward[5][1]
            and "SI reading" not in forward[5][1])


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


def test_figures_run_gate_failure_writes_partial_csv(tmp_path):
    scn = tmp_path / "ab.scn"
    # the exponential ramp in Ex breaks compatibility at t = 6.425
    scn.write_text("name = ab\ntheta0 = pi/3\nfield = expr\n"
                   "ex = 1e-9*exp(t)\nez = 0.3*cos(0.7*t)\nt_end = 10\n")
    r = run_cli("figures", str(scn), "--out", "od", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "partial trajectory (6426 samples) written to" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    lines = (tmp_path / "od" / "ab.csv").read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 6426


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


# the start state, the constant field and a constant s or h are evaluated
# once, at parse, and every expression is held to the depth bound
BROKEN_FILES = {
    "law": ("theta_expr = 1/t\nt_end = 1\n",
            "error: line 1: key 'theta_expr': division by zero in '1.0/t'"),
    "constant": ("field = constant\nez = exp(1000)\nt_end = 1\n",
                 "error: line 2: key 'ez': domain error in 'exp(1000.0)': "
                 "math range error"),
    "gauge": ("theta0 = 1\nomega2 = 1\nt_end = 1\ns = 1e309\n",
              "error: line 4: key 's': non-finite result from 'inf'"),
    "phase": ("theta0 = 1\nomega2 = 1\nt_end = 1\nh = 1e309\n",
              "error: line 4: key 'h': non-finite result from 'inf'"),
    "deep": (f"theta_expr = {'(' * 400}t{')' * 400}\n",
             "error: line 1: key 'theta_expr': expression nested too deeply "
             "(offset 64)"),
}


@pytest.mark.parametrize("key", ["theta_expr", "ez", "s"])
def test_expression_at_the_depth_bound_runs_and_one_deeper_exits_2(
        tmp_path, monkeypatch, capsys, key):
    # 63 nested calls or a 63-term quotient chain are 64 levels deep
    prefix = {"theta_expr": "", "ez": "field = expr\n",
              "s": "theta0 = 1\nomega2 = 1\n"}[key]
    monkeypatch.chdir(tmp_path)
    line = prefix.count("\n") + 1
    for n in (63, 64):
        for text in ("tan(" * n + "t" + ")" * n, "/".join(["(t+2)"] * n)):
            Path("deep.scn").write_text(f"{prefix}{key} = {text}\n"
                                        "t_end = 0.1\ndt = 0.01\n")
            for command in ("verify", "simulate"):
                rc = cli.main([command, "deep.scn", "--out", "out"])
                err = capsys.readouterr().err
                if n == 63:
                    assert rc in (0, 1) and "error" not in err
                else:
                    assert rc == 2
                    assert err.startswith(f"error: line {line}: key '{key}': "
                                          "expression nested too deeply")


@pytest.mark.parametrize("case", sorted(BROKEN_FILES))
def test_start_or_field_error_is_one_exit_2_for_every_command(
        tmp_path, monkeypatch, capsys, case):
    text, message = BROKEN_FILES[case]
    (tmp_path / "broken.scn").write_text(text)
    monkeypatch.chdir(tmp_path)
    for argv in (["verify"], ["simulate"], ["control", "--dedt", "1"],
                 ["figures"]):
        argv.insert(1, "broken.scn")
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", message + "\n"), argv
    assert [p.name for p in tmp_path.iterdir()] == ["broken.scn"]


def test_non_finite_energy_or_momentum_ends_the_run(tmp_path, capsys):
    # E0 and p take the gauge value s, which the state gate does not see
    scn = tmp_path / "gauge.scn"
    scn.write_text("theta0 = 1\nomega2 = 1\ns = exp(1000*t)\nt_end = 1\n")
    out = tmp_path / "gauge.csv"
    assert cli.main(["simulate", str(scn), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: non-finite energy or momentum at t = 0.71\n")
    assert "partial trajectory (711 samples)" in captured.err
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(table) == 711
    assert np.isfinite(table[:-1]).all()
    e0_and_p = table[-1, CSV_COLUMNS.index("E0"):CSV_COLUMNS.index("pz") + 1]
    assert not np.isfinite(e0_and_p).all()


# (scenario keys past theta0 = 1, omega2 = 1; the stderr error line; the
# partial CSV's sample count).  The gate stops at the first failing grid
# point; where the field or state fails there as well as E0, the field or
# state message wins.
GATE_ORDER = {
    "energy_in_second_block": (
        "s = exp(300*t)\nt_end = 3\n",
        "error: non-finite energy or momentum at t = 2.366", 2367),
    "field_and_energy_together": (
        "field = expr\nez = 1/(t-3)\ns = 1/(t-3)\nt_end = 4\n",
        "error: non-finite field or state at t = 3 "
        "(compatibility residual nan)", 3001),
    "energy_before_field": (
        "field = expr\nez = 1/(t-1)\ns = exp(1000*t)\nt_end = 2\n",
        "error: non-finite energy or momentum at t = 0.71", 711),
    "field_before_energy": (
        "field = expr\nez = 1/(t-0.5)\ns = exp(1000*t)\nt_end = 2\n",
        "error: non-finite field or state at t = 0.5 "
        "(compatibility residual nan)", 501),
}


@pytest.mark.parametrize("case", sorted(GATE_ORDER))
def test_first_failing_point_and_its_message_end_the_run(tmp_path, capsys,
                                                         case):
    keys, error, samples = GATE_ORDER[case]
    scn = tmp_path / "gate.scn"
    scn.write_text("theta0 = 1\nomega2 = 1\n" + keys)
    out = tmp_path / "gate.csv"
    assert cli.main(["simulate", str(scn), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{error}\npartial trajectory ({samples} "
                            f"samples) written to {out}\n")
    assert len(out.read_text().splitlines()) == samples + 1


def test_verify_overflow_exits_2_without_warning(tmp_path):
    # the phase overflows on some draws before exp() itself fails on one
    scn = tmp_path / "explaw.scn"
    scn.write_text("name = explaw\ntheta0 = 1\nh = exp(400*x)\n")
    r = run_cli("verify", str(scn))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "RuntimeWarning" not in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_error_names_the_per_draw_battery_subexpression(tmp_path):
    # on arrays, exp(1000*x)^2 overflows to inf and the residual stays
    # finite on some draws; the per-draw battery raised at the square
    scn = tmp_path / "absorbed.scn"
    scn.write_text("theta0 = 1\nh = 1/exp(1000*x)\n")
    r = run_cli("verify", str(scn))
    assert r.returncode == 2
    assert r.stderr == ("error: domain error in 'exp(1000.0*x)^2.0': "
                        "math range error\n")


def test_non_finite_run_leaks_no_numpy_warning(tmp_path):
    scn = tmp_path / "nanfield.scn"
    scn.write_text("name = nanfield\nfield = expr\nez = sqrt(t - 1)\n"
                   "t_end = 2\n")
    r = run_cli("simulate", str(scn), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 1
    assert any("non-finite" in line for line in r.stderr.splitlines())
    assert "RuntimeWarning" not in r.stderr
    assert "Traceback" not in r.stderr


def test_distance_from_start_near_the_float_limit_is_finite(tmp_path):
    # the particle circles with radius 1/omega2 = 1e300 next to the largest
    # float: its positions stay finite, the squares of its displacement
    # (up to 2e300) overflow
    scn = tmp_path / "far.scn"
    scn.write_text("theta0 = pi/2\nomega2 = 1e-300\nx0 = 1.7e308\n"
                   "dt = 1e300\nt_end = 1e303\n")
    r = run_cli("simulate", str(scn), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 0
    line, = [s for s in r.stdout.splitlines() if "max |r - r0|" in s]
    distance = float(line.split("max |r - r0| ")[1].split(",")[0])
    assert 1e299 < distance < 1e301
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


def test_grid_above_the_step_cap_exits_2_before_running(tmp_path,
                                                       monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the oversized grid was run")

    monkeypatch.setattr(cli, "ScenarioStream", no_run)
    out = tmp_path / "free.csv"
    assert cli.main(["simulate", "free", "--t-end", "100000",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "exceed the cap" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("simulate", "fig3", "--t-end", "inf"),
    ("figures", "fig3", "--t-end", "inf"),
    ("control", "free", "--dedt", "1", "--dt", "nan"),
])
def test_non_finite_grid_option_exits_2(tmp_path, args):
    r = run_cli(*args, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "must be finite" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_option_exits_2(tmp_path):
    r = run_cli("verify", "free", "--seed", "-1", "--out",
                str(tmp_path / "out"), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == "error: seed override must be nonnegative\n"
    assert r.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [("simulate", "fig3", "--t-end", "1"),
                                     ("verify", "free"),
                                     ("control", "free", "--dedt", "1")])
def test_out_in_a_missing_directory_exits_2(tmp_path, command):
    out = tmp_path / "missing" / "x.csv"
    r = run_cli(*command, "--out", str(out), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert f"'{out}'" in r.stderr.splitlines()[-1]
    assert "Traceback" not in r.stderr
    assert "wrote" not in r.stdout
    assert list(tmp_path.iterdir()) == []


def test_verify_with_an_unwritable_out_prints_no_report(tmp_path):
    # the report is written before it is printed, so stdout stays empty
    out = tmp_path / "missing" / "r.txt"
    r = run_cli("verify", "free", "--out", str(out), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"error: [Errno 2] No such file or directory: '{out}'"]


def test_figures_out_over_an_existing_file_exits_2(tmp_path):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    r = run_cli("figures", "fig3", "--t-end", "1", "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert f"'{out}'" in r.stderr.splitlines()[-1]
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert out.read_text() == "kept\n"


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


def test_expr_and_constant_fields_write_the_same_signed_zero(tmp_path,
                                                           capsys):
    ez = {}
    for kind in ("constant", "expr"):
        scn = tmp_path / f"{kind}.scn"
        scn.write_text(f"theta0 = 1\nomega2 = 1\nfield = {kind}\nez = -0\n"
                       "t_end = 0.01\n")
        out = tmp_path / f"{kind}.csv"
        assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
        ez[kind] = [line.split(b",")[16]
                    for line in out.read_bytes().splitlines()[1:]]
    assert ez["expr"] == ez["constant"] == [b"-0.0"] * 11


# --- CSV writers against the row-by-row writers they replaced -----------

def reference_trajectory_csv(traj, path):
    columns = (traj.t, *traj.r.T, *traj.v.T, traj.theta, traj.phi, traj.k,
               traj.e0, *traj.p.T, *traj.e.T, traj.residual)
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
    rows = {name: np.column_stack([columns.pop(f"{name}{axis}")
                                   for axis in ("x", "y", "z")])
            for name in ("v", "p", "e")}
    rows["r"] = np.column_stack([columns.pop(axis) for axis in ("x", "y", "z")])
    traj = Trajectory(**columns, **rows)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory_csv([traj], got)
    reference_trajectory_csv(traj, want)
    assert got.read_bytes() == want.read_bytes()


# 8193 rows cross a pass boundary of a table with one varying column
@pytest.mark.parametrize("rows", [1, 1024, 1025, 3000, 8193])
def test_field_csv_matches_row_writer(tmp_path, rows):
    ts = np.arange(rows) * 1e-3
    special = special_column(rows).tolist()
    # a list of 3-tuples, which np.transpose reads as three columns
    as_tuples = [(s, 0.0, -0.0 if i % 3 else 1e-5)
                 for i, s in enumerate(special)]
    as_array = np.column_stack([special_column(rows), np.full(rows, 0.1),
                                ts[::-1]])
    # a control profile: only t varies
    control = np.tile([1.4012585384440734, -0.0, 1.0000000000000002],
                      (rows, 1))
    for fields in (as_tuples, as_array, control):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_field_csv(csv_rows((ts, *np.transpose(fields))), got)
        reference_field_csv(ts, fields, want)
        assert got.read_bytes() == want.read_bytes()


def test_simulate_memory_does_not_grow_with_the_grid(tmp_path):
    # the stream holds one block and two passes in flight, whatever the
    # grid; a first run builds the formatter's tables and its worker
    out = tmp_path / "fig45.csv"
    quiet = io.StringIO()

    def traced_peak(t_end):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(quiet):
                assert cli.main(["simulate", "fig45", "--t-end", t_end,
                                 "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    traced_peak("3")
    at_20k, at_200k = traced_peak("20"), traced_peak("200")
    assert at_20k <= 6.1
    assert abs(at_200k - at_20k) <= 0.5


def run_cli_below(limit, *args, cwd):
    """run_cli in a child that may write at most limit bytes to a file."""
    def cap():
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    return subprocess.run([sys.executable, "-m", "weyldyn", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env(), preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("args, out, limit", [
    (["simulate", "fig1"], "fig1.csv", 1_000_000),
    (["figures", "fig1"], "od/fig1.csv", 1_000_000),
    (["control", "fig45", "--dkdt", "-0.5"], "c.csv", 100_000),
    (["verify", "free"], "report.txt", 100),
])
def test_a_file_that_cannot_be_written_whole_is_not_written(tmp_path, args,
                                                           out, limit):
    # the write fails part way (exit 2): a new file is not made, one
    # already there keeps its bytes, and no temporary file is left; a
    # directory that figures made for its --out is removed again
    folder = (tmp_path / out).parent
    argv = [*args, "--out", str(folder if args[0] == "figures"
                                else tmp_path / out)]
    for before in (None, b"kept\n"):
        if before is not None:
            folder.mkdir(exist_ok=True)
            (tmp_path / out).write_bytes(before)
        r = run_cli_below(limit, *argv, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr == "error: [Errno 27] File too large\n"
        assert r.stdout == ""
        if before is None and folder != tmp_path:
            assert not folder.exists()
        else:
            assert [p.name for p in folder.iterdir()] == (
                [] if before is None else [Path(out).name])
        if before is not None:
            assert (tmp_path / out).read_bytes() == before
    if args[0] != "figures":  # whose --out names a directory
        # a path that is not a regular file is written directly
        r = run_cli_below(limit, *args, "--out", os.devnull, cwd=tmp_path)
        assert r.returncode == 0, r.stderr


def test_whole_files_keep_the_mode_and_replace_a_symlink_target(tmp_path):
    # a file already there keeps its mode, a new one takes the umask's,
    # and a symlink stays a symlink to the file written
    quiet = io.StringIO()
    out, link = tmp_path / "fig45.csv", tmp_path / "link.csv"
    umask = os.umask(0o027)
    try:
        with contextlib.redirect_stdout(quiet):
            argv = ["simulate", "fig45", "--t-end", "0.5", "--out"]
            assert cli.main([*argv, str(out)]) == 0
            assert out.stat().st_mode & 0o777 == 0o640
            out.chmod(0o604)
            link.symlink_to(out.name)
            assert cli.main([*argv, str(link)]) == 0
    finally:
        os.umask(umask)
    assert link.is_symlink() and out.stat().st_mode & 0o777 == 0o604
    assert out.read_text().count("\n") == 502
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, link.name]


def test_a_failed_figure_copy_leaves_no_file(tmp_path, monkeypatch):
    # fig2 is a copy of fig1's CSV, written whole like the others
    def broken(source, target):
        target.write(source.read(100))
        raise OSError("copy failed")

    monkeypatch.setattr(cli.shutil, "copyfileobj", broken)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["figures", "--t-end", "0.5", "--out",
                         str(tmp_path)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["fig1.csv"]
