"""Control profiles computed in-process by run_control."""

import math

import numpy as np
import pytest

from weyldyn import cli, potentials
from weyldyn import scenario as scenario_module
from weyldyn.dynamics import (ConstantField, ConstraintViolation,
                              integrate_angles, integrate_trajectory)
from weyldyn.expressions import AngleLaw
from weyldyn.observables import (kinetic_momentum_from_state,
                                 localization_from_rates,
                                 velocity_from_angles)
from weyldyn.potentials import (drive_field_closed_form,
                                energy_control_field, k_control_field)
from weyldyn.scenario import (ControlRun, parse_scenario_text,
                              resolve_scenario, run_control)


def reference_energy_control(scenario, dedt):
    """The per-sample energy-control loop that run_control replaced: one
    scalar field, law, momentum and power q E.v evaluation per grid time;
    the measured rate is the power's trapezoid mean over the grid."""
    law = scenario.law
    n = int(round(scenario.t_end / scenario.dt))
    ts = np.arange(n + 1) * scenario.dt
    fields = np.array([energy_control_field(dedt, law, scenario.q, float(t))
                       for t in ts])
    e0, power = np.empty(len(ts)), np.empty(len(ts))
    for i, t in enumerate(ts):
        theta, phi = law.angles(float(t))
        theta_dot, phi_dot = law.rates(float(t))
        e0[i], _ = kinetic_momentum_from_state(
            theta, phi, theta_dot, phi_dot, -dedt * float(t),
            scenario.helicity)
        power[i] = scenario.q * np.vecdot(fields[i],
                                          velocity_from_angles(theta, phi))
    measured = float(np.trapezoid(power, ts) / (ts[-1] - ts[0]))
    return ts, fields, e0, measured


ORACLE_CASES = {
    # still free law: constant field along the fixed velocity
    "still": ("theta0 = 0.7\nphi0 = -1.2\ndt = 0.01\nt_end = 1\n", 2.0),
    # theta rotating, phi pinned: the field turns with the velocity
    "theta_rotating": ("theta0 = 0.2\nomega1 = 1.3\nphi0 = 0.9\n"
                       "dt = 0.01\nt_end = 3\n", -1.25),
    "negative_helicity": ("helicity = negative\nq = -2\ntheta0 = 2.1\n"
                          "phi0 = 0.3\nomega2 = 0.8\ndt = 0.02\nt_end = 2\n",
                          0.75),
    # expression law; theta_expr is constant, so theta stays a scalar
    "expression_law": ("theta_expr = pi/3\nphi_expr = 0.4 + 1.5*t\n"
                       "dt = 0.005\nt_end = 1.5\n", 1.5),
    "one_step": ("theta0 = 1.1\nomega1 = 0.5\ndt = 0.1\nt_end = 0.1\n", 3.0),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_energy_control_matches_per_sample_loop(case):
    text, dedt = ORACLE_CASES[case]
    scenario = parse_scenario_text(text)
    ts, fields, e0, measured = reference_energy_control(scenario, dedt)
    run = run_control(scenario, dedt=dedt)
    assert isinstance(run, ControlRun)
    assert np.array_equal(run.ts, ts)
    assert run.fields.shape == (len(ts), 3)
    # bit for bit, so that -0.0 keeps its sign as well
    assert run.fields.tobytes() == fields.tobytes()
    assert run.series.tobytes() == e0.tobytes()
    assert run.measured == measured
    assert run.target == dedt and run.label == "dE0/dt"
    assert abs(run.measured - dedt) <= 1e-6


def test_energy_control_keeps_negative_zero_components():
    # constant expression angles give scalar components, broadcast over the
    # grid; with theta = 0 and a negative rate, x and y are -0.0
    scenario = parse_scenario_text("theta_expr = 0\nphi_expr = 0.5\n"
                                   "dt = 0.1\nt_end = 1\n")
    ts, fields, _, _ = reference_energy_control(scenario, -2.0)
    run = run_control(scenario, dedt=-2.0)
    assert run.fields.tobytes() == fields.tobytes()
    assert np.all(np.signbit(run.fields[:, :2]))
    assert np.all(run.fields[:, 2] == -2.0)


def test_energy_control_check_reads_the_field_it_writes(monkeypatch, tmp_path,
                                                       capsys):
    # a profile scaled by -7 delivers -7 times the target power: exit 1
    def scaled(*args):
        return -7.0 * energy_control_field(*args)

    monkeypatch.setattr(scenario_module, "energy_control_field", scaled)
    out = tmp_path / "free_control.csv"
    assert cli.main(["control", "free", "--dedt", "2",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "[FAIL] target dE0/dt 2.0, grid mean of q E.v measured -14.0 "
        "(|diff| 1.600e+01, tol 2e-09)")


@pytest.mark.parametrize("scale, rc", [(1.0, 0), (0.0, 1), (2.0, 1)])
def test_a_small_energy_target_is_checked_to_its_own_scale(
        monkeypatch, tmp_path, capsys, scale, rc):
    # at dedt 1e-9 a zeroed or doubled profile misses by 1e-9, which a
    # tolerance of 1e-6 would let through
    def scaled(*args):
        return scale * energy_control_field(*args)

    monkeypatch.setattr(scenario_module, "energy_control_field", scaled)
    assert cli.main(["control", "free", "--dedt", "1e-9",
                     "--out", str(tmp_path / "c.csv")]) == rc
    status = capsys.readouterr().out.splitlines()[1]
    assert status.startswith("[PASS]" if rc == 0 else "[FAIL]")
    assert status.endswith(", tol 1e-12)")


@pytest.mark.parametrize("target, tol", [(2.0, 2e-9), (-4.0, 4e-9),
                                         (1e-9, 1e-12), (0.0, 1e-12)])
def test_control_tolerance_is_relative_with_a_floor(target, tol):
    run = ControlRun(np.zeros(1), np.zeros((1, 3)), np.zeros(1),
                     target - tol / 2, target, "dE0/dt", "grid mean of q E.v")
    assert run.tol == tol
    assert run.passed
    run.measured = target + 2 * tol
    assert not run.passed


def test_theta_rotating_profile_is_not_constant():
    text, dedt = ORACLE_CASES["theta_rotating"]
    run = run_control(parse_scenario_text(text), dedt=dedt)
    assert np.ptp(run.fields, axis=0).min() > 0.1


def test_azimuthal_k_control_matches_direct_integration():
    scenario = resolve_scenario("fig45")
    run = run_control(scenario, dkdt=-0.5)
    field = k_control_field(-0.5, "azimuthal", scenario.law,
                            scenario.helicity, scenario.q)
    traj = integrate_trajectory(scenario.initial,
                                ConstantField(field), scenario.t_end,
                                scenario.dt, gauge=scenario.s,
                                constraint_tol=scenario.tolerance)
    assert np.array_equal(run.ts, traj.t)
    assert np.array_equal(run.fields, np.tile(field, (len(traj.t), 1)))
    assert np.array_equal(run.series, traj.k)
    assert run.label == "dk/dt" and run.target == -0.5
    assert abs(run.measured + 0.5) <= 1e-6


def test_polar_k_control_matches_direct_integration():
    # theta' falls from 2 through 0 at t = 2, so the window ends before it
    scenario = parse_scenario_text("theta0 = 0.5\nomega1 = 2\nphi0 = 1\n"
                                   "dt = 0.001\nt_end = 3\n")
    run = run_control(scenario, dkdt=-0.5, mode="polar")
    field = k_control_field(-0.5, "polar", scenario.law, scenario.helicity,
                            scenario.q)
    traj = integrate_trajectory(scenario.initial,
                                ConstantField(field), scenario.t_end,
                                scenario.dt, gauge=scenario.s,
                                constraint_tol=scenario.tolerance)
    j = int(np.flatnonzero(np.sign(traj.theta_dot) != 1)[0]) - 1
    assert 1000 < j < 3000
    assert run.ts.tobytes() == traj.t.tobytes()
    assert run.fields.tobytes() == np.tile(field, (len(traj), 1)).tobytes()
    assert run.series.tobytes() == traj.k.tobytes()
    assert run.measured == float((traj.k[j] - traj.k[0])
                                 / (traj.t[j] - traj.t[0]))
    assert run.label == "dk/dt" and run.target == -0.5


def test_underflowing_azimuthal_field_stops_the_run_at_t_0():
    # q sin(theta0) underflows to 0: the field is inf, and the run gate
    # ends the run where it starts
    scenario = parse_scenario_text("theta0 = 1e-200\nomega2 = 1\n"
                                   "q = 1e-200\nt_end = 1\n")
    field = k_control_field(-0.5, "azimuthal", scenario.law,
                            scenario.helicity, scenario.q)
    np.testing.assert_array_equal(field, [0.0, 0.0, math.inf])
    with pytest.raises(ConstraintViolation) as info:
        run_control(scenario, dkdt=-0.5)
    assert info.value.time == 0.0 and info.value.nonfinite
    # a zero rate has phi'' = 0 and an exactly zero field: the run passes
    field = k_control_field(0.0, "azimuthal", scenario.law,
                            scenario.helicity, scenario.q)
    assert field.tobytes() == np.zeros(3).tobytes()
    assert run_control(scenario, dkdt=0.0).passed


K_ORACLE_CASES = {
    # phi' falls from 10 to 0.49 over 20,000 steps
    "azimuthal": ("theta0 = 1\nphi0 = 2.5\nomega2 = 10\ndt = 0.001\n"
                  "t_end = 20\n", -0.2),
    # theta' falls from 2 to 0.2 over 10,000 steps
    "polar": ("theta0 = 0.5\nomega1 = 2\nphi0 = 1\ndt = 0.001\n"
              "t_end = 10\n", -0.09),
}


def k_oracle_deviation(scenario, mode, dkdt, scale):
    """Largest distance, over the grid, of theta, phi and k integrated
    under the k-control profile times `scale` from the target law's closed
    form: the pinned angle constant, the driven one a + w t + c t^2 with
    k's rate dkdt, and k = k(0) + dkdt t."""
    run = run_control(scenario, dkdt=dkdt, mode=mode)
    assert np.all(run.fields == run.fields[0])
    t, theta, phi, theta_dot, phi_dot, _ = integrate_angles(
        scenario.initial, ConstantField(scale * run.fields[0]),
        scenario.t_end, scenario.dt, constraint_tol=scenario.tolerance)
    theta0, omega1 = scenario.law.theta.offset, scenario.law.theta.rate
    phi0, omega2 = scenario.law.phi.offset, scenario.law.phi.rate
    if mode == "azimuthal":
        c = dkdt / math.sin(theta0)
        target = theta0, phi0 + omega2 * t + c * t * t
        k0 = 0.5 * math.sin(theta0) * omega2
    else:
        target = theta0 + omega1 * t + dkdt * t * t, phi0
        k0 = 0.5 * omega1
    k = localization_from_rates(theta, theta_dot, phi_dot)
    return max(np.max(np.abs(theta - target[0])),
               np.max(np.abs(phi - target[1])),
               np.max(np.abs(k - (k0 + dkdt * t))))


@pytest.mark.parametrize("helicity", ["positive", "negative"])
@pytest.mark.parametrize("mode", sorted(K_ORACLE_CASES))
def test_k_control_follows_its_target_law_at_every_point(mode, helicity):
    # RK4 is exact for a constant acceleration, so only roundoff remains;
    # a profile 1e-6 too strong is off by about 1e-5 to 1e-4
    text, dkdt = K_ORACLE_CASES[mode]
    scenario = parse_scenario_text(f"helicity = {helicity}\n{text}")
    assert k_oracle_deviation(scenario, mode, dkdt, 1.0) <= 1e-9
    assert k_oracle_deviation(scenario, mode, dkdt, 1.0 + 1e-6) > 1e-6


class AcceleratedLaw(AngleLaw):
    """A law whose accelerations read theta'' x3 and phi'' x5."""

    def accelerations(self, t):
        theta_ddot, phi_ddot = super().accelerations(t)
        return 3 * theta_ddot, 5 * phi_ddot


@pytest.mark.parametrize("mode", sorted(K_ORACLE_CASES))
def test_k_control_sees_the_drive_fields_acceleration_terms(monkeypatch,
                                                            mode):
    # the drive field with theta'' x3 in Ex and Ey and phi'' x5 in Ez
    # passes verify (it draws no accelerating law), but not k control
    def mutant(law, *args):
        return drive_field_closed_form(AcceleratedLaw(law.theta, law.phi),
                                       *args)

    monkeypatch.setattr(potentials, "drive_field_closed_form", mutant)
    text, dkdt = K_ORACLE_CASES[mode]
    run = run_control(parse_scenario_text(text), dkdt=dkdt, mode=mode)
    assert not run.passed


@pytest.mark.parametrize("argv, zeros", [
    (("quadrant.scn", "--dkdt=-0.5"), 2),
    (("fig45", "--dkdt", "0", "--t-end", "2"), 3),
])
def test_k_control_profile_writes_no_negative_zero(tmp_path, monkeypatch,
                                                   capsys, argv, zeros):
    # the control-zeros runs of tools/fingerprint.py write each zero
    # component as 0.0: with phi0 in the third quadrant the drive field's
    # Ex and Ey sums are -0.0 until drive_field_closed_form adds 0.0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quadrant.scn").write_text("theta0 = 1\nphi0 = -2.5\n"
                                           "omega2 = 10\nt_end = 1\n")
    out = tmp_path / "k.csv"
    assert cli.main(["control", *argv, "--out", str(out)]) == 0
    rows = [line.split(",")[1:1 + zeros]
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) > 1000
    assert all(row == ["0.0"] * zeros for row in rows)


def test_simulated_drive_field_writes_zeros_as_k_control_does(tmp_path,
                                                              capsys):
    # the edge:simulate:drivezero run of tools/fingerprint.py: a uniform
    # azimuthal rotation has a zero drive field, whose Ex sum is -0.0 while
    # phi is in the third quadrant; simulate writes it as control --dkdt 0
    scn = tmp_path / "drivezero.scn"
    scn.write_text("theta0 = 1\nphi0 = -2.5\nomega2 = 1\nfield = drive\n"
                   "t_end = 1\n")
    simulated, controlled = tmp_path / "sim.csv", tmp_path / "k.csv"
    assert cli.main(["simulate", str(scn), "--out", str(simulated)]) == 0
    assert cli.main(["control", str(scn), "--dkdt", "0",
                     "--out", str(controlled)]) == 0

    def field_columns(path):
        header, *rows = (line.split(",")
                         for line in path.read_text().splitlines())
        columns = [header.index(name) for name in ("Ex", "Ey", "Ez")]
        return [[row[i] for i in columns] for row in rows]

    rows = field_columns(simulated)
    assert len(rows) == 1001
    assert not any("-0.0" in row for row in rows)
    assert rows == field_columns(controlled)


def test_k_control_does_not_integrate_positions():
    # x passes the largest float after a few steps; k never reads it, so
    # the check runs to the end (integrate_trajectory would stop at t = dt)
    scenario = parse_scenario_text("theta0 = pi/2\nx0 = 1.79e308\n"
                                   "dt = 1e306\nt_end = 1e307\n")
    run = run_control(scenario, dkdt=0.0, mode="polar")
    assert len(run.series) == 11 and np.all(run.series == 0.0)
    assert run.measured == 0.0 and run.passed


def test_polar_k_control_reaches_its_rate():
    scenario = parse_scenario_text("theta0 = 0.5\nomega1 = 2\nphi0 = 1\n"
                                   "dt = 0.001\nt_end = 3\n")
    run = run_control(scenario, dkdt=0.3, mode="polar")
    assert abs(run.measured - 0.3) <= 1e-6


NOT_DRIVE_FREE = ("energy control requires a drive-free law "
                  "(theta'' = phi'' = theta'*phi' = 0)")


@pytest.mark.parametrize("text, kwargs, message", [
    ("theta0 = pi/2\nomega1 = sqrt(3)\nomega2 = sqrt(5)\n", {"dedt": 1.0},
     NOT_DRIVE_FREE),
    ("theta_expr = 0.3 + t^2\n", {"dedt": 1.0}, NOT_DRIVE_FREE),
    # theta has a zero derivative, so only its value is nan after t = 1
    ("theta_expr = 1 + 0*sqrt(1 - t)\nt_end = 2\n", {"dedt": 1.0},
     "energy control profile is not finite at t = 1.0010000000000001"),
    ("theta0 = 1\nomega1 = 1\nomega2 = 2\n", {"dkdt": 0.5},
     "azimuthal control requires omega1 = 0 (theta pinned)"),
    ("theta0 = 1\nomega2 = 0\n", {"dkdt": 0.5},
     "azimuthal control requires omega2 > 0"),
    ("theta0 = 1\nomega2 = -3\n", {"dkdt": 0.5},
     "azimuthal control requires omega2 > 0"),
    ("theta0 = 0\nomega2 = 3\n", {"dkdt": 0.5},
     "theta0 must lie strictly inside (0, pi)"),
    ("theta0 = 1\nomega1 = 1\nomega2 = 2\n",
     {"dkdt": 0.5, "mode": "polar"},
     "polar control requires omega2 = 0 (phi pinned)"),
    ("theta0 = 1\nomega1 = -1\n", {"dkdt": 0.5, "mode": "polar"},
     "polar control requires omega1 >= 0"),
    ("theta0 = 0.5\nphi0 = 1\n", {"dkdt": -0.3, "mode": "polar"},
     "polar control from omega1 = 0 (k = 0) requires dk/dt >= 0"),
    ("theta_expr = pi/3\nphi_expr = 2*t\n", {"dkdt": 0.5},
     "k control requires a linear angle law"),
    ("theta0 = 1\nomega2 = 2\n", {"dkdt": 0.5, "mode": "sideways"},
     "unknown control mode 'sideways'"),
    ("theta0 = 1\n", {}, "run_control takes exactly one of dedt and dkdt"),
    ("theta0 = 1\n", {"dedt": 1.0, "dkdt": 1.0},
     "run_control takes exactly one of dedt and dkdt"),
    ("theta0 = 1\n", {"dedt": 1.0, "mode": "sideways"},
     "run_control takes a mode only with dkdt"),
    ("theta0 = 1\n", {"dedt": 1.0, "mode": "azimuthal"},
     "run_control takes a mode only with dkdt"),
    ("theta0 = 1\n", {"dedt": float("nan")},
     "control target must be finite, got nan"),
    ("theta0 = 1\nomega2 = 2\n", {"dkdt": -float("inf")},
     "control target must be finite, got -inf"),
    ("theta0 = 0.5\nomega1 = 2\n", {"dkdt": 1e308, "mode": "polar"},
     "k control at dk/dt = 1e+308 needs an angle acceleration that "
     "overflows"),
])
def test_control_rejections_name_the_problem(text, kwargs, message):
    with pytest.raises(ValueError) as info:
        run_control(parse_scenario_text(text), **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("target", [("--dkdt", "nan"), ("--dedt", "nan")])
def test_non_finite_target_exits_2_without_a_profile(tmp_path, capsys, target):
    # refused before any work, for either target: no run gate, no CSV
    out = tmp_path / "profile.csv"
    rc = cli.main(["control", "fig45", *target, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", "error: control target must be finite, got nan\n")
    assert not out.exists()


@pytest.mark.parametrize("dkdt, passed", [(-3.0, True), (-30.0, False)])
def test_control_passed_is_the_printed_status(tmp_path, capsys, dkdt, passed):
    # at dt 0.1 a fast polar drain reverses theta' within the first step,
    # so the measured rate misses the target
    scn = tmp_path / "polar.scn"
    scn.write_text("theta0 = 0.5\nomega1 = 2\nphi0 = 1\nt_end = 1\n"
                   "dt = 0.1\n")
    run = run_control(parse_scenario_text(scn.read_text()), dkdt=dkdt,
                      mode="polar")
    assert run.deviation == abs(run.measured - run.target)
    assert run.passed is passed
    assert run.passed is (run.deviation <= run.tol)
    rc = cli.main(["control", str(scn), f"--dkdt={dkdt}", "--mode", "polar",
                   "--out", str(tmp_path / "p.csv")])
    status = capsys.readouterr().out.splitlines()[1]
    assert status.startswith("[PASS]" if passed else "[FAIL]")
    assert status.endswith(f"(|diff| {run.deviation:.3e}, tol {run.tol!r})")
    assert rc == (0 if passed else 1)
