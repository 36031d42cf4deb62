"""Equations of motion, field programs, and the fixed-step integrator."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from weyldyn import dynamics
from weyldyn.dynamics import (
    ConstantField,
    ConstraintViolation,
    DriveField,
    ExprField,
    ParticleState,
    Trajectory,
    ZeroField,
    compatibility_residual,
    grid_steps,
    integrate_angles,
    integrate_trajectory,
    phi_ddot_from_field,
    theta_ddot_from_field,
    trajectory_blocks,
    _BLOCK,
)
from weyldyn.expressions import AngleLaw, ScalarField, eval_expr, parse_expr
from weyldyn.observables import (kinetic_momentum_from_state,
                                 localization_from_rates, velocity_from_angles)
from weyldyn.scenario import (parse_scenario_text, resolve_scenario,
                              run_scenario)
from weyldyn.spinors import Helicity

POS = Helicity.POSITIVE
NEG = Helicity.NEGATIVE


def make_state(theta=math.pi / 2, phi=0.0, theta_dot=0.0, phi_dot=0.0,
               helicity=POS, q=1.0):
    return ParticleState((0.0, 0.0, 0.0), theta, phi, theta_dot, phi_dot,
                         helicity, q)


def test_state_rejects_zero_charge():
    with pytest.raises(ValueError):
        make_state(q=0.0)


def accel(state, e_field):
    """(theta'', phi'', residual) of the drive inversion at one state."""
    e = np.array(e_field, dtype=float)
    q_eff = state.q * state.helicity.sign
    sp, cp = np.sin(state.phi), np.cos(state.phi)
    return (theta_ddot_from_field(q_eff, e, sp, cp),
            phi_ddot_from_field(q_eff, e),
            compatibility_residual(q_eff, e, sp, cp, state.theta_dot,
                                   state.phi_dot))


def test_accel_inversion_frozen_values():
    st = make_state(theta=1.0, phi=0.0, theta_dot=2.0, phi_dot=1.0)
    theta_ddot, phi_ddot, residual = accel(st, (0.0, 1.0, 3.0))
    assert theta_ddot == -2.0
    assert phi_ddot == -6.0
    assert residual == 2.0


def test_accel_inversion_mirror_flips_sign():
    st = make_state(theta=1.0, phi=0.0, theta_dot=2.0, phi_dot=1.0, helicity=NEG)
    theta_ddot, phi_ddot, _ = accel(st, (0.0, 1.0, 3.0))
    assert theta_ddot == 2.0
    assert phi_ddot == 6.0


def test_accel_inversion_round_trips_drive_field():
    from weyldyn.potentials import drive_field_closed_form

    law = AngleLaw.linear(math.pi / 2, math.sqrt(3), 0.0, math.sqrt(5))
    for hel in (POS, NEG):
        for t in (0.0, 0.7, 1.9):
            theta, phi = law.angles(t)
            td, pd = law.rates(t)
            st = ParticleState((0, 0, 0), theta, phi, td, pd, hel, 1.3)
            e = drive_field_closed_form(law, hel, 1.3, t)
            theta_ddot, phi_ddot, residual = accel(st, e)
            assert theta_ddot == pytest.approx(0.0, abs=1e-12)
            assert phi_ddot == pytest.approx(0.0, abs=1e-12)
            assert residual == pytest.approx(0.0, abs=1e-12)


def test_expr_field_rejects_spatial_dependence():
    with pytest.raises(ValueError, match="x"):
        ExprField(parse_expr("x"), parse_expr("0"), parse_expr("0"))


def test_field_program_sampling_consistency():
    # each program's rows against an independent value at one time
    from weyldyn.potentials import drive_field_closed_form
    exprs = (parse_expr("sin(t)"), parse_expr("0"), parse_expr("t^2"))
    law = AngleLaw.linear(1.0, 1.2, 0.3, 0.7)
    progs = [
        (ZeroField(), lambda t: (0.0, 0.0, 0.0)),
        (ConstantField((0.2, -0.1, 0.4)), lambda t: (0.2, -0.1, 0.4)),
        (ExprField(*exprs),
         lambda t: tuple(eval_expr(c, t=t) for c in exprs)),
        (DriveField(law, POS, 1.0),
         lambda t: drive_field_closed_form(law, POS, 1.0, t)),
    ]
    ts = np.linspace(0.0, 2.0, 9)
    for prog, reference in progs:
        grid = prog.sample(ts)
        assert grid.shape == (9, 3)
        for i, t in enumerate(ts):
            assert grid[i] == pytest.approx(reference(float(t)), abs=1e-14)


@pytest.mark.parametrize("omega1", [1.0, 2.0, math.sqrt(3)])
def test_free_polar_spin_traces_closed_circle(omega1):
    theta0, phi0 = 0.4, 0.9
    period = 2 * math.pi / omega1
    dt = period / round(period / 1e-3)
    st = make_state(theta=theta0, phi=phi0, theta_dot=omega1)
    tr = integrate_trajectory(st, ZeroField(), period, dt)

    # centripetal direction at launch fixes the circle centre exactly
    center = np.array([
        math.cos(theta0) * math.cos(phi0),
        math.cos(theta0) * math.sin(phi0),
        -math.sin(theta0),
    ]) / omega1
    pts = tr.r
    radii = np.linalg.norm(pts - center, axis=1)
    assert np.max(np.abs(radii - 1.0 / omega1)) < 1e-6
    assert np.linalg.norm(pts[-1] - pts[0]) < 1e-6
    assert tr.speed_drift() <= 1e-12


def test_free_azimuthal_spin_traces_helix():
    theta0, omega2 = math.pi / 4, 2.0
    period = 2 * math.pi / omega2
    n_turn = 3000
    dt = period / n_turn
    st = make_state(theta=theta0, phi=0.0, phi_dot=omega2)
    tr = integrate_trajectory(st, ZeroField(), 2 * period, dt)

    center = np.array([0.0, math.sin(theta0) / omega2])
    radial = np.hypot(tr.r[:, 0] - center[0], tr.r[:, 1] - center[1])
    assert np.max(np.abs(radial - math.sin(theta0) / omega2)) < 1e-8

    advance = tr.r[n_turn, 2] - tr.r[0, 2]
    assert advance == pytest.approx(2 * math.pi * math.cos(theta0) / omega2,
                                    abs=1e-9)
    # gap between successive coils, measured perpendicular to the velocity
    assert advance * math.sin(theta0) == pytest.approx(
        math.pi * math.sin(2 * theta0) / omega2, abs=1e-9)


def test_integrator_is_fourth_order():
    def endpoint(dt):
        f = ExprField(parse_expr("0"), parse_expr("0"), parse_expr("sin(t)"))
        st = ParticleState((0, 0, 0), 1.1, 0.3, 0.0, 1.5, POS, 1.0)
        tr = integrate_trajectory(st, f, 4.0, dt)
        return np.array([*tr.r[-1], tr.phi[-1], tr.phi_dot[-1]])

    ref = endpoint(1e-3)
    err_coarse = np.max(np.abs(endpoint(0.02) - ref))
    err_fine = np.max(np.abs(endpoint(0.01) - ref))
    assert err_coarse / err_fine >= 14.0


def test_integrator_matches_closed_form_angles():
    # Ez = sin(t) with the polar angle frozen: phi'' = -2 sin(t) integrates
    # to phi = phi0 + w t + 2 (sin t - t)
    f = ExprField(parse_expr("0"), parse_expr("0"), parse_expr("sin(t)"))
    st = ParticleState((0, 0, 0), 1.1, 0.3, 0.0, 1.5, POS, 1.0)
    tr = integrate_trajectory(st, f, 4.0, 0.01)
    T = 4.0
    assert tr.phi[-1] == pytest.approx(0.3 + 1.5 * T + 2 * (math.sin(T) - T),
                                       abs=1e-9)
    assert tr.phi_dot[-1] == pytest.approx(1.5 + 2 * (math.cos(T) - 1),
                                           abs=1e-9)
    assert np.max(np.abs(tr.theta - 1.1)) == 0.0


FIG45_TIMES = range(0, 21, 2)


def fig45_position_error(dt):
    """Largest error in x or y of the fig45 run at t = 0, 2, ..., 20.

    theta stays pi/2 and phi = 10 t - t^2/2, so with k = 1/sqrt(pi),
    c = 50, w = k (t - 10) and the Fresnel differences dC = C(w) - C(-10 k),
    dS = S(w) - S(-10 k) (DLMF 7.2): x = (cos c dC + sin c dS) / k and
    y = (sin c dC - cos c dS) / k.  mpmath's Fresnel integrals at 30 digits
    are the reference: scipy.special.fresnel errs by about ten times the
    run's error at the preset's dt.
    """
    tr = run_scenario(resolve_scenario("fig45").with_overrides(dt=dt)).trajectory
    with mpmath.workdps(30):
        k, c = 1 / mpmath.sqrt(mpmath.pi), mpmath.mpf(50)
        err = 0.0
        for t in FIG45_TIMES:
            i = round(t / dt)
            assert tr.t[i] == pytest.approx(t, abs=1e-12)
            w, w0 = k * (t - 10), k * -10
            dc = mpmath.fresnelc(w) - mpmath.fresnelc(w0)
            ds = mpmath.fresnels(w) - mpmath.fresnels(w0)
            x = (mpmath.cos(c) * dc + mpmath.sin(c) * ds) / k
            y = (mpmath.sin(c) * dc - mpmath.cos(c) * ds) / k
            err = max(err, abs(tr.r[i, 0] - float(x)),
                      abs(tr.r[i, 1] - float(y)))
    return err


def test_fig45_trajectory_converges_at_fourth_order_to_the_fresnel_form():
    errors = [fig45_position_error(dt) for dt in (0.016, 0.008, 0.004)]
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0


def test_fig45_preset_matches_the_fresnel_form_to_a_roundoff_floor():
    # below dt ~ 0.002 the roundoff of the running sums over n steps, not
    # the truncation, sets the error, so it need not fall with dt; bound it
    # by 10 n eps (measured 6.8e-12, 1.5 n eps, at the preset's 20,000 steps)
    scenario = resolve_scenario("fig45")
    steps = grid_steps(scenario.t_end, scenario.dt)
    assert fig45_position_error(scenario.dt) <= 10 * steps * np.finfo(float).eps


def _linear_law_position(r0, theta, phi, t):
    """r0 plus the integral over [0, t] of the velocity (sin th cos ph,
    sin th sin ph, cos th) on th = a1 + w1 s, ph = a2 + w2 s: sums of the
    integrals of sin and cos of a + w s, linear in t where w = 0."""
    def sin_integral(a, w):
        return ((mpmath.cos(a) - mpmath.cos(a + w * t)) / w if w
                else t * mpmath.sin(a))

    def cos_integral(a, w):
        return ((mpmath.sin(a + w * t) - mpmath.sin(a)) / w if w
                else t * mpmath.cos(a))

    (a1, w1), (a2, w2) = theta, phi
    return (r0[0] + (sin_integral(a1 + a2, w1 + w2)
                     + sin_integral(a1 - a2, w1 - w2)) / 2,
            r0[1] + (cos_integral(a1 - a2, w1 - w2)
                     - cos_integral(a1 + a2, w1 + w2)) / 2,
            r0[2] + cos_integral(a1, w1))


@pytest.mark.parametrize("name, bound", [
    ("free", 1e-12), ("fig3", 1e-10),
    # roundoff of the running sums over 20,000 steps, where |phi| nears 447
    ("fig1", 2e-6)])
def test_linear_law_positions_match_their_closed_form(name, bound):
    # under a zero or drive field the angles keep their linear law, so the
    # positions are closed-form integrals of the velocity; 41 rows checked
    scenario = resolve_scenario(name)
    tr = run_scenario(scenario).trajectory
    law = scenario.law
    with mpmath.workdps(30):
        theta, phi = ((mpmath.mpf(part.offset), mpmath.mpf(part.rate))
                      for part in (law.theta, law.phi))
        r0 = [mpmath.mpf(c) for c in scenario.initial.position]
        err = 0.0
        for i in np.linspace(0, len(tr) - 1, 41).round().astype(int):
            exact = _linear_law_position(r0, theta, phi, mpmath.mpf(tr.t[i]))
            err = max(err, *(float(abs(float(tr.r[i, j]) - exact[j]))
                             for j in range(3)))
    assert err <= bound


# theta stays pi/2 under an axial field, so theta' = 0, the residual is 0,
# and the run is phi'' = -2 Ez(t), x' = cos(phi), y' = sin(phi)
AXIAL_EXPR_RUN = ("theta0 = pi/2\nomega2 = 3\nfield = expr\nex = 0\n"
                  "ey = 0\nez = 0.5 + 0.3*sin(2*t) - 0.2*t\nt_end = 2\n")
ODE_TIMES = range(11)  # t = 0, 0.2, ..., 2


@pytest.fixture(scope="module")
def axial_expr_reference():
    """(phi, x, y) at t = j / 5 from mpmath.odefun, a Taylor-series ODE
    solver, at 25 digits (about 1.4 s)."""
    with mpmath.workdps(25):
        def slopes(t, state):
            phi, phi_dot, _, _ = state
            ez = (mpmath.mpf(1) / 2 + mpmath.mpf(3) / 10 * mpmath.sin(2 * t)
                  - mpmath.mpf(2) / 10 * t)
            return [phi_dot, -2 * ez, mpmath.cos(phi), mpmath.sin(phi)]

        solution = mpmath.odefun(slopes, 0, [0, 3, 0, 0])
        reference = []
        for j in ODE_TIMES:
            phi, _, x, y = solution(mpmath.mpf(j) / 5)
            reference.append((float(phi), float(x), float(y)))
        return reference


def axial_expr_error(reference, dt):
    """Largest error in phi, x or y of the axial expression-field run at
    t = 0, 0.2, ..., 2."""
    tr = run_scenario(parse_scenario_text(AXIAL_EXPR_RUN)
                      .with_overrides(dt=dt)).trajectory
    err = 0.0
    for j in ODE_TIMES:
        i = round(j / 5 / dt)
        assert tr.t[i] == pytest.approx(j / 5, abs=1e-12)
        got = (tr.phi[i], tr.r[i, 0], tr.r[i, 1])
        err = max(err, *(abs(a - b) for a, b in zip(got, reference[j])))
    return err


_RK4_STAGES = dynamics._rk4_stages


def _third_stage_from_k1(seg, h, k1, k2, k3, k4):
    """_rk4_stages with the third stage taken from k1, not k2: second
    order."""
    base, second, _, fourth = _RK4_STAGES(seg, h, k1, k2, k3, k4)
    return base, second, second, fourth


def test_expression_field_run_converges_at_fourth_order_to_an_ode_reference(
        axial_expr_reference):
    # measured 3.93e-8, 2.45e-9 and 1.53e-10: ratios of 16.0
    errors = [axial_expr_error(axial_expr_reference, dt)
              for dt in (0.04, 0.02, 0.01)]
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0


def test_expression_field_run_matches_the_ode_reference_at_fine_dt(
        axial_expr_reference):
    # measured 1.3e-14
    assert axial_expr_error(axial_expr_reference, 0.001) <= 1e-12


def test_the_ode_reference_sees_a_second_order_stage(axial_expr_reference,
                                                     monkeypatch):
    # measured ratio 4.0, the second order of the mutant
    monkeypatch.setattr(dynamics, "_rk4_stages", _third_stage_from_k1)
    errors = [axial_expr_error(axial_expr_reference, dt)
              for dt in (0.02, 0.01)]
    assert errors[0] / errors[1] < 5.0


def _cumulative_simpson(f, h):
    """The integral of the samples f (rows on a grid of step h, an even
    number of steps) from the first sample to each even-index one, by
    Simpson's rule over pairs of steps."""
    assert len(f) % 2 == 1
    pairs = (h / 3) * (f[0:-2:2] + 4 * f[1:-1:2] + f[2::2])
    return np.concatenate((np.zeros((1, *f.shape[1:])),
                           np.cumsum(pairs, axis=0)))


def force_law_residuals(tr):
    """max |p(t) - p(0) - q int E dt| and max |E0(t) - E0(0) - q int E.v dt|
    over the even grid points: the integral form of dp/dt = q E and
    dE0/dt = q E.v, for a run without a gauge s."""
    work = np.vecdot(tr.e, tr.v)
    momentum = tr.p[::2] - tr.p[0] - tr.q * _cumulative_simpson(tr.e, tr.dt)
    energy = tr.e0[::2] - tr.e0[0] - tr.q * _cumulative_simpson(work, tr.dt)
    return float(np.max(np.abs(momentum))), float(np.max(np.abs(energy)))


@pytest.mark.parametrize("name, bound", [
    # measured (momentum / work): 0 / 0, 1.37e-8 / 1.53e-8 (the roundoff of
    # the running sums, as in the closed-form test), 1.97e-11 / 2.62e-11,
    # 8.89e-13 / 4.32e-29
    ("free", 1e-13), ("fig1", 5e-7), ("fig3", 1e-9), ("fig45", 1e-10)])
def test_preset_runs_keep_the_integral_force_laws(name, bound):
    scenario = resolve_scenario(name)
    assert not scenario.s.free_variables() and scenario.s.value() == 0.0
    assert max(force_law_residuals(run_scenario(scenario).trajectory)) <= bound


def test_the_force_laws_see_a_wrong_phi_ddot(monkeypatch):
    # phi'' = -2.002 q Ez passes verify and the run gate; measured 1.0e-2
    def mutant(q_eff, e):
        return (-2.002 * q_eff) * e[..., 2]

    monkeypatch.setattr(dynamics, "phi_ddot_from_field", mutant)
    tr = run_scenario(resolve_scenario("fig45")).trajectory
    assert force_law_residuals(tr)[0] > 1e-3


def test_uniform_axial_field_drains_and_restores_k():
    st = make_state(phi_dot=10.0)
    tr = integrate_trajectory(st, ConstantField((0.0, 0.0, 0.5)), 20.0, 1e-3)
    assert np.max(np.abs(tr.k - np.abs(5.0 - tr.t / 2))) < 1e-6
    assert tr.k[0] == pytest.approx(5.0, abs=1e-12)
    assert tr.k[-1] == pytest.approx(5.0, abs=1e-6)
    assert tr.speed_drift() <= 1e-12


def test_immediate_constraint_violation():
    st = make_state(phi_dot=10.0)
    with pytest.raises(ConstraintViolation) as exc:
        integrate_trajectory(st, ConstantField((1.0, 0.0, 0.0)), 1.0, 0.01)
    v = exc.value
    assert v.time == 0.0
    assert v.residual == pytest.approx(2.0, abs=1e-12)
    assert v.tolerance == 1e-6
    assert len(v.partial.t) == 1


def test_delayed_constraint_violation_keeps_partial_history():
    ramp = ExprField(parse_expr("((t - 0.5) + abs(t - 0.5))^3"),
                     parse_expr("0"), parse_expr("0"))
    st = make_state(phi_dot=10.0)
    with pytest.raises(ConstraintViolation) as exc:
        integrate_trajectory(st, ramp, 2.0, 0.01)
    v = exc.value
    assert 0.5 < v.time < 0.6
    assert v.partial.t[-1] == pytest.approx(v.time)
    assert len(v.partial.t) == round(v.time / 0.01) + 1


def tripped(run):
    """The ConstraintViolation of a run that must trip, and the blocks it
    yielded first (a trajectory_blocks run) or None."""
    yielded = []
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConstraintViolation) as exc:
            result = run()
            if not isinstance(result, tuple):
                for block in result:
                    yielded.append(block)
    return exc.value, yielded or None


def test_a_tripped_run_reports_its_time_residual_and_partial():
    # a residual trip in the second block of steps, a non-finite state, and
    # a non-finite energy alone; integrate_angles carries the whole run as
    # its partial, trajectory_blocks the last block it yielded
    ramp = ExprField(parse_expr("((t - 0.5) + abs(t - 0.5))^3"),
                     parse_expr("0"), parse_expr("0"))
    st = make_state(phi_dot=10.0)
    for run in (lambda: integrate_angles(st, ramp, 1.0, 1e-4),
                lambda: trajectory_blocks(st, ramp, 1.0, 1e-4)):
        v, blocks = tripped(run)
        assert (v.time, v.residual) == (0.5057, 1.0409215974995605e-06)
        assert (v.tolerance, v.nonfinite) == (1e-06, False)
        assert str(v) == ("field/motion compatibility residual 1.04092e-06 "
                          "exceeds tolerance 1e-06 at t = 0.5057")
        if blocks is None:
            assert isinstance(v.partial, tuple) and len(v.partial) == 6
            assert len(v.partial[0]) == 5058
            assert (v.partial[0][-1], v.partial[5][-1]) == (v.time, v.residual)
        else:
            assert len(blocks) == 2 and v.partial is blocks[-1]
            assert len(v.partial.t) == 5058 - _BLOCK
            assert v.partial.t[-1] == v.time
    v, _ = tripped(lambda: integrate_angles(
        make_state(phi_dot=1.0), ExprField(parse_expr("0"), parse_expr("0"),
                                           parse_expr("sqrt(0.5 - t)")),
        2.0, 0.01))
    assert (v.time, v.tolerance, v.nonfinite) == (0.51, 1e-06, True)
    assert math.isnan(v.residual) and len(v.partial[0]) == 52
    assert str(v) == ("non-finite field or state at t = 0.51 "
                      "(compatibility residual nan)")
    v, blocks = tripped(lambda: trajectory_blocks(
        make_state(theta=1.0, phi_dot=1.0), ZeroField(), 2.0, 1e-3,
        gauge=ScalarField.from_text("exp(1000*t)")))
    assert (v.time, v.residual, v.tolerance, v.nonfinite) == (
        0.71, 0.0, 1e-06, True)
    assert str(v) == "non-finite energy or momentum at t = 0.71"
    assert len(blocks) == 1 and v.partial is blocks[0]
    assert len(v.partial.t) == 711


def test_constraint_tolerance_is_adjustable():
    st = make_state(phi_dot=10.0)
    tr = integrate_trajectory(st, ConstantField((1.0, 0.0, 0.0)), 0.5, 0.01,
                              constraint_tol=10.0)
    assert len(tr.t) == 51
    assert np.max(tr.residual) <= 10.0


def test_gauge_profile_feeds_energy_and_momentum():
    st = make_state()  # static velocity along +x
    tr = integrate_trajectory(st, ZeroField(), 2.0, 0.01,
                              gauge=ScalarField.from_text("2*t"))
    assert tr.e0 == pytest.approx(-2.0 * tr.t, abs=1e-12)
    assert tr.p[:, 0] == pytest.approx(-2.0 * tr.t, abs=1e-12)
    assert tr.p[:, 2] == pytest.approx(np.zeros_like(tr.t), abs=1e-12)


@pytest.mark.parametrize("helicity", [POS, NEG])
def test_gauge_minus_t_keeps_its_signed_zero_in_energy_and_momentum(helicity):
    # s = -t is -0.0 at t = 0: E0 and p at every grid time are the scalar
    # formula fed s.value(t), bit for bit, signed zeros included
    s = ScalarField.from_text("-t")
    st = make_state(theta=1.0, phi=0.5, theta_dot=0.0, phi_dot=2.0,
                    helicity=helicity)
    tr = integrate_trajectory(st, ZeroField(), 0.5, 0.001, gauge=s)
    for i, t in enumerate(tr.t.tolist()):
        e0, p = kinetic_momentum_from_state(
            float(tr.theta[i]), float(tr.phi[i]), float(tr.theta_dot[i]),
            float(tr.phi_dot[i]), s.value(t=t), helicity)
        assert (np.float64(tr.e0[i]).tobytes()
                == np.float64(e0).tobytes()), t
        assert tr.p[i].tobytes() == p.tobytes(), t


@pytest.mark.parametrize("name", ["free", "fig45"])
def test_trajectory_columns_are_the_observables_formulas(name):
    # the CSV's v, k, E0 and p columns are the observables' array functions
    # on the integrated angles, to the bit, signed zeros included
    scenario = resolve_scenario(name)
    tr = run_scenario(scenario).trajectory
    expected = (velocity_from_angles(tr.theta, tr.phi),
                localization_from_rates(tr.theta, tr.theta_dot, tr.phi_dot),
                *kinetic_momentum_from_state(
                    tr.theta, tr.phi, tr.theta_dot, tr.phi_dot,
                    scenario.s.value(t=tr.t), scenario.helicity))
    columns = (tr.v, tr.k, tr.e0, tr.p)
    for column, value in zip(columns, expected, strict=True):
        assert column.tobytes() == value.tobytes()


def test_spatial_gauge_is_refused_by_the_integrator():
    s = ScalarField.from_text("x + t")
    with pytest.raises(ValueError, match="time-only gauge"):
        integrate_trajectory(make_state(), ZeroField(), 1.0, 0.1, gauge=s)


def test_trajectory_shape_and_metadata():
    st = make_state(phi_dot=2.0, helicity=NEG, q=-1.5)
    tr = integrate_trajectory(st, ZeroField(), 1.0, 0.1)
    assert len(tr.t) == 11
    assert tr.helicity is NEG
    assert tr.q == -1.5
    assert tr.dt == 0.1
    assert tr.endpoint == tuple(tr.r[-1])
    assert tr.distance_from_start()[0] == 0.0
    vnorm = np.sqrt(np.sum(tr.v**2, axis=1))
    assert vnorm == pytest.approx(np.ones_like(vnorm), abs=1e-12)


def test_negative_helicity_mirrors_positive_under_flipped_field():
    # flipping both the helicity and the field leaves the angle history alone
    fwd = integrate_trajectory(make_state(phi_dot=10.0),
                               ConstantField((0.0, 0.0, 0.5)), 5.0, 1e-3)
    mir = integrate_trajectory(make_state(phi_dot=10.0, helicity=NEG),
                               ConstantField((0.0, 0.0, -0.5)), 5.0, 1e-3)
    assert np.array_equal(fwd.theta, mir.theta)
    assert np.array_equal(fwd.phi, mir.phi)
    assert np.array_equal(fwd.k, mir.k)


# --- the array cascade against the scalar loop it replaced ---------------

def reference_integrate(initial, program, t_end, dt, constraint_tol=1e-6):
    """Per-step scalar RK4 loop, kept as the oracle for the array cascade.

    Returns the trajectory up to and including the first grid point whose
    residual exceeds the tolerance, and (time, residual) of that point or
    None.
    """
    n = int(round(t_end / dt))
    ts = np.arange(n + 1) * dt
    half_ts = np.arange(2 * n + 1) * (0.5 * dt)
    fields = program.sample(half_ts)
    state = np.empty((7, n + 1))  # theta, phi, theta', phi', x, y, z
    residual_a = np.empty(n + 1)

    q_eff = initial.q * initial.helicity.sign
    sin, cos = math.sin, math.cos

    def rhs(theta, phi, theta_dot, phi_dot, e):
        st, ct = sin(theta), cos(theta)
        sp, cp = sin(phi), cos(phi)
        tdd = 2.0 * q_eff * (e[0] * sp - e[1] * cp)
        pdd = -2.0 * q_eff * e[2]
        return st * cp, st * sp, ct, theta_dot, phi_dot, tdd, pdd

    x, y, z = initial.position
    theta, phi = initial.theta, initial.phi
    theta_dot, phi_dot = initial.theta_dot, initial.phi_dot

    filled = 0
    violation = None
    for i in range(n + 1):
        state[:, i] = (theta, phi, theta_dot, phi_dot, x, y, z)
        filled = i + 1

        e0_field = fields[2 * i]
        residual = abs(theta_dot * phi_dot - 2.0 * q_eff
                       * (e0_field[0] * cos(phi) + e0_field[1] * sin(phi)))
        residual_a[i] = residual
        if residual > constraint_tol:
            violation = (float(ts[i]), residual)
            break
        if i == n:
            break

        em_field = fields[2 * i + 1]
        e1_field = fields[2 * i + 2]
        h = dt

        k1 = rhs(theta, phi, theta_dot, phi_dot, e0_field)
        k2 = rhs(theta + 0.5 * h * k1[3], phi + 0.5 * h * k1[4],
                 theta_dot + 0.5 * h * k1[5], phi_dot + 0.5 * h * k1[6],
                 em_field)
        k3 = rhs(theta + 0.5 * h * k2[3], phi + 0.5 * h * k2[4],
                 theta_dot + 0.5 * h * k2[5], phi_dot + 0.5 * h * k2[6],
                 em_field)
        k4 = rhs(theta + h * k3[3], phi + h * k3[4],
                 theta_dot + h * k3[5], phi_dot + h * k3[6],
                 e1_field)

        sixth = h / 6.0
        x += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        y += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        z += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        theta += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        phi += sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4])
        theta_dot += sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5])
        phi_dot += sixth * (k1[6] + 2.0 * (k2[6] + k3[6]) + k4[6])

    theta_a, phi_a, theta_dot_a, phi_dot_a = state[:4, :filled]
    e0, p = kinetic_momentum_from_state(theta_a, phi_a, theta_dot_a,
                                        phi_dot_a, np.zeros(filled),
                                        initial.helicity)
    traj = Trajectory(
        t=ts[:filled], r=state[4:, :filled].T,
        v=velocity_from_angles(theta_a, phi_a), theta=theta_a, phi=phi_a,
        theta_dot=theta_dot_a, phi_dot=phi_dot_a,
        k=localization_from_rates(theta_a, theta_dot_a, phi_dot_a),
        e0=e0, p=p, e=fields[0:2 * filled:2],
        residual=residual_a[:filled], helicity=initial.helicity,
        q=initial.q, dt=dt)
    return traj, violation


TRAJECTORY_COLUMNS = ("t", "r", "v", "theta", "phi", "theta_dot", "phi_dot",
                      "k", "e0", "p", "e", "residual")


def assert_same_trajectory(got, want):
    for name in TRAJECTORY_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def run_or_violation(integrate, *args):
    """(result, None) of a finished run, (partial, violation) of a tripped one."""
    try:
        return integrate(*args), None
    except ConstraintViolation as exc:
        return exc.partial, exc


def assert_angle_pass_matches(initial, program, t_end, dt):
    """integrate_angles ends where integrate_trajectory does, with the same
    ConstraintViolation if any, and gives its t, angle, rate and residual
    columns bit for bit, and k from them on a finished run."""
    full, want = run_or_violation(integrate_trajectory, initial, program,
                                  t_end, dt)
    angles, got = run_or_violation(integrate_angles, initial, program,
                                   t_end, dt)
    assert (got is None) == (want is None)
    if want is not None:
        assert str(got) == str(want)
        assert got.nonfinite == want.nonfinite
        assert (np.array([got.time, got.residual]).tobytes()
                == np.array([want.time, want.residual]).tobytes())
    names = ("t", "theta", "phi", "theta_dot", "phi_dot", "residual")
    assert len(angles) == len(names)
    for name, column in zip(names, angles):
        assert column.tobytes() == getattr(full, name).tobytes(), name
    if want is None:
        k = localization_from_rates(angles[1], angles[3], angles[4])
        assert k.tobytes() == full.k.tobytes()


FIG1_LAW = AngleLaw.linear(math.pi / 2, math.sqrt(3), 0.0, math.sqrt(5))

ORACLE_CASES = {
    "zero": (ParticleState((0.1, -0.2, 0.3), 0.7, 0.4, 1.3, 0.0, POS, 1.0),
             ZeroField()),
    "constant": (make_state(phi=0.3, phi_dot=10.0),
                 ConstantField((0.0, 0.0, 0.5))),
    "drive": (ParticleState((0.0, 0.0, 0.0), *FIG1_LAW.angles(0.0),
                            *FIG1_LAW.rates(0.0), POS, 1.0),
              DriveField(FIG1_LAW, POS, 1.0)),
    "expr": (make_state(phi=-1.2, phi_dot=3.0),
             ExprField(parse_expr("0"), parse_expr("0"),
                       parse_expr("0.3*cos(0.7*t)"))),
    "negative": (ParticleState((0.0, 0.0, 0.0), *FIG1_LAW.angles(0.0),
                               *FIG1_LAW.rates(0.0), NEG, -1.5),
                 DriveField(FIG1_LAW, NEG, -1.5)),
}


# one step, one whole block, one step into a second block, and three steps
# into a third
@pytest.mark.parametrize("steps", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_cascade_matches_scalar_loop_bit_for_bit(case, steps):
    initial, program = ORACLE_CASES[case]
    dt = 1e-3
    got = integrate_trajectory(initial, program, steps * dt, dt)
    want, violation = reference_integrate(initial, program, steps * dt, dt)
    assert violation is None
    assert len(got) == steps + 1
    assert_same_trajectory(got, want)
    assert_angle_pass_matches(initial, program, steps * dt, dt)


def test_cascade_aborts_like_scalar_loop():
    ramp = ExprField(parse_expr("((t - 0.5) + abs(t - 0.5))^3"),
                     parse_expr("0"), parse_expr("0"))
    cases = [(make_state(phi_dot=10.0), ConstantField((1.0, 0.0, 0.0)), 1.0),
             (make_state(phi_dot=10.0), ramp, 2.0),
             (make_state(theta=math.pi / 3),
              ExprField(parse_expr("1e-9*exp(t)"), parse_expr("0"),
                        parse_expr("0.3*cos(0.7*t)")), 10.0)]
    for initial, program, t_end in cases:
        want, (time, residual) = reference_integrate(initial, program, t_end,
                                                     0.01)
        with pytest.raises(ConstraintViolation) as exc:
            integrate_trajectory(initial, program, t_end, 0.01)
        v = exc.value
        assert not v.nonfinite
        assert v.time == time
        assert v.residual == residual
        assert len(v.partial) == len(want)
        assert_same_trajectory(v.partial, want)
        assert_angle_pass_matches(initial, program, t_end, 0.01)


def test_non_finite_field_at_start_aborts():
    # Ez does not enter the residual, so only the finiteness gate sees it
    field = ExprField(parse_expr("0"), parse_expr("0"), parse_expr("sqrt(t - 1)"))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConstraintViolation, match="non-finite") as exc:
            integrate_trajectory(make_state(phi_dot=1.0), field, 2.0, 0.01)
    v = exc.value
    assert v.nonfinite
    assert v.time == 0.0
    assert len(v.partial) == 1
    assert_angle_pass_matches(make_state(phi_dot=1.0), field, 2.0, 0.01)


def test_non_finite_state_midway_aborts_with_finite_history():
    field = ExprField(parse_expr("0"), parse_expr("0"),
                      parse_expr("sqrt(0.5 - t)"))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConstraintViolation, match="non-finite") as exc:
            integrate_trajectory(make_state(phi_dot=1.0), field, 2.0, 0.01)
    v = exc.value
    # the half step past t = 0.5 is the first NaN sample; it poisons t = 0.51
    assert v.time == pytest.approx(0.51)
    assert len(v.partial) == 52
    assert np.isnan(v.partial.phi_dot[-1])
    assert np.isfinite(v.partial.phi_dot[:-1]).all()
    assert_angle_pass_matches(make_state(phi_dot=1.0), field, 2.0, 0.01)


def test_infinite_field_aborts_without_numpy_warnings():
    # exp overflows to inf mid-run; the last partial sample holds inf and
    # nan, and neither the field nor the assembly may warn about it
    # (tier-1 turns a RuntimeWarning into an error)
    field = ExprField(parse_expr("0"), parse_expr("0"),
                      parse_expr("exp(1000*t)"))
    with pytest.raises(ConstraintViolation, match="non-finite") as exc:
        integrate_trajectory(make_state(theta=1.0, phi_dot=1.0), field,
                             1.0, 0.001)
    p = exc.value.partial
    last = [p.phi[-1], p.phi_dot[-1], p.k[-1], p.e0[-1], p.p[-1, 2]]
    assert not np.isfinite(last).all()
    assert np.isfinite(p.k[:-1]).all()
    assert_angle_pass_matches(make_state(theta=1.0, phi_dot=1.0), field, 1.0,
                              0.001)


def test_run_holds_at_most_210_bytes_per_step():
    # what grows with the grid: the collected run's t, r, v, angles and
    # rates, k, E0, p, field and residual; a block's arrays and
    # temporaries do not
    scn = resolve_scenario("fig45")

    def traced_peak(steps):
        tracemalloc.start()
        try:
            integrate_trajectory(scn.initial, scn.program, steps * scn.dt,
                                 scn.dt, gauge=scn.s)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    slope = (traced_peak(60000) - traced_peak(20000)) / 40000
    assert slope <= 210


def test_grid_steps_rounds_to_the_nearest_whole_step():
    assert grid_steps(10.0, 0.001) == 10000
    assert grid_steps(1.0, 0.3) == 3
    assert grid_steps(0.0006, 0.001) == 1
    with pytest.raises(ValueError, match="shorter than one step"):
        grid_steps(0.0001, 0.001)
    with pytest.raises(ValueError, match="underflows"):
        grid_steps(10.0, 1e-20)
    with pytest.raises(ValueError, match="positive"):
        grid_steps(1.0, 0.0)


def test_grid_steps_refuses_a_grid_above_the_cap():
    assert grid_steps(1e4, 1e-3) == 10 ** 7
    with pytest.raises(ValueError, match="100000000 steps exceed the cap"):
        grid_steps(1e5, 1e-3)


@pytest.mark.parametrize("t_end, dt", [(math.inf, 0.001), (1.0, math.inf),
                                       (math.nan, 0.001), (1.0, math.nan),
                                       (-math.inf, 0.001)])
def test_grid_steps_refuses_non_finite_times(t_end, dt):
    with pytest.raises(ValueError, match="finite"):
        grid_steps(t_end, dt)
