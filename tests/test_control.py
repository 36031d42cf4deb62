"""Control profiles computed in-process by run_control."""

import numpy as np
import pytest

from weyldyn.dynamics import ConstantField, integrate_trajectory
from weyldyn.observables import kinetic_momentum_from_state
from weyldyn.potentials import energy_control_field, k_control_field
from weyldyn.scenario import (ControlRun, parse_scenario_text,
                              resolve_scenario, run_control)


def reference_energy_control(scenario, dedt):
    """The per-sample energy-control loop that run_control replaced: one
    scalar field, law and momentum evaluation per grid time."""
    law = scenario.law
    n = int(round(scenario.t_end / scenario.dt))
    ts = np.arange(n + 1) * scenario.dt
    fields = np.array([energy_control_field(dedt, law, scenario.q,
                                            float(t)).e for t in ts])
    e0 = np.empty(len(ts))
    for i, t in enumerate(ts):
        theta, phi = law.angles(float(t))
        theta_dot, phi_dot = law.rates(float(t))
        km = kinetic_momentum_from_state(theta, phi, theta_dot, phi_dot,
                                         -dedt * float(t), scenario.helicity)
        e0[i] = km.energy
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
    law = scenario.law
    field = k_control_field(-0.5, "azimuthal", scenario.helicity, scenario.q,
                            theta0=law.theta0)
    traj = integrate_trajectory(scenario.initial_state(),
                                ConstantField(field.e), scenario.t_end,
                                scenario.dt, gauge=scenario.s,
                                constraint_tol=scenario.tolerance)
    assert np.array_equal(run.ts, traj.t)
    assert np.array_equal(run.fields, np.tile(field.e, (len(traj.t), 1)))
    assert np.array_equal(run.series, traj.k)
    assert run.label == "dk/dt" and run.target == -0.5
    assert abs(run.measured + 0.5) <= 1e-6


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
    # theta has a zero derivative, so only its value is nan before t = 1
    ("theta_expr = 1 + 0*sqrt(t - 1)\nt_end = 2\n", {"dedt": 1.0},
     "energy control profile is not finite at t = 0.0"),
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
])
def test_control_rejections_name_the_problem(text, kwargs, message):
    with pytest.raises(ValueError) as info:
        run_control(parse_scenario_text(text), **kwargs)
    assert str(info.value) == message

