"""Control profiles computed in-process by run_control."""

import math

import numpy as np
import pytest

from weyldyn import cli
from weyldyn.dynamics import (ConstantField, ConstraintViolation,
                              integrate_trajectory)
from weyldyn.observables import kinetic_momentum_from_state
from weyldyn.potentials import energy_control_field, k_control_field
from weyldyn.scenario import (CONTROL_TOL, ControlRun, parse_scenario_text,
                              resolve_scenario, run_control)


def reference_energy_control(scenario, dedt):
    """The per-sample energy-control loop that run_control replaced: one
    scalar field, law and momentum evaluation per grid time."""
    law = scenario.law
    n = int(round(scenario.t_end / scenario.dt))
    ts = np.arange(n + 1) * scenario.dt
    fields = np.array([energy_control_field(dedt, law, scenario.q, float(t))
                       for t in ts])
    e0 = np.empty(len(ts))
    for i, t in enumerate(ts):
        theta, phi = law.angles(float(t))
        theta_dot, phi_dot = law.rates(float(t))
        e0[i], _ = kinetic_momentum_from_state(
            theta, phi, theta_dot, phi_dot, -dedt * float(t),
            scenario.helicity)
    measured = float((e0[-1] - e0[0]) / (ts[-1] - ts[0]))
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
    # q sin(theta0) underflows to 0: the field is inf, or nan for a zero
    # rate, and the run gate ends the run where it starts
    scenario = parse_scenario_text("theta0 = 1e-200\nomega2 = 1\n"
                                   "q = 1e-200\nt_end = 1\n")
    for dkdt, ez in ((-0.5, math.inf), (0.0, math.nan)):
        field = k_control_field(dkdt, "azimuthal", scenario.law,
                                scenario.helicity, scenario.q)
        np.testing.assert_array_equal(field, [0.0, 0.0, ez])
        with pytest.raises(ConstraintViolation) as info:
            run_control(scenario, dkdt=dkdt)
        assert info.value.time == 0.0 and info.value.nonfinite


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
    assert run.passed is (run.deviation <= CONTROL_TOL)
    rc = cli.main(["control", str(scn), f"--dkdt={dkdt}", "--mode", "polar",
                   "--out", str(tmp_path / "p.csv")])
    status = capsys.readouterr().out.splitlines()[1]
    assert status.startswith("[PASS]" if passed else "[FAIL]")
    assert status.endswith(f"(|diff| {run.deviation:.3e}, tol 1e-06)")
    assert rc == (0 if passed else 1)
