"""The array battery against the frozen scalar battery (scalar_battery.py).

Reports must agree to the last bit of every measured value, and every
array function must equal one scalar call per event.
"""

import dataclasses
import math

import numpy as np
import pytest

import scalar_battery as oracle
from weyldyn.expressions import (AngleLaw, EvaluationError, ScalarField,
                                 plane_wave_phase)
from weyldyn.potentials import (FourPotentialField, drive_field_closed_form,
                                field_from_potential_numeric,
                                gauge_family_field)
from weyldyn.scenario import parse_scenario_text, resolve_scenario
from weyldyn.spinors import Event, Helicity, build_spinor, weyl_residual
from weyldyn.verify import run_verification

POS, NEG = Helicity.POSITIVE, Helicity.NEGATIVE

SCENARIOS = {
    "plane_wave": "theta0 = 1.1\nomega1 = 0.3\nphi0 = -0.4\n"
                  "h = plane_wave\nh_energy = 2.5\n",
    # the benchmark's expression-law shape
    "exprlaw": "theta_expr = 1.5 + 0.2*sin(0.7*t)\n"
               "phi_expr = 0.6*t + 0.3*cos(0.9*t)\n"
               "h = 0.4*x - 0.8*y*t + 0.25*sin(z - t)\n",
    "negative_helicity": "helicity = negative\ntheta0 = pi/3\nomega1 = 0.5\n"
                         "omega2 = 2\nh = plane_wave\n",
    "charge_minus_two": "q = -2\ntheta0 = pi/4\nomega1 = 1\nomega2 = -1.5\n",
    "fd_step": "theta0 = pi/3\nomega2 = 2\nfd_step = 1e-3\n",
    "corrupt_b0": "theta0 = pi/3\nh = plane_wave\nh_energy = 1\n"
                  "corrupt_b0 = 0.1\n",
    # theta(t) is one number for any t while phi(t) is an array
    "constant_theta_expr": "theta_expr = pi/3\nomega2 = 1.5\n"
                           "h = 0.3*x - t\n",
}


def bits(values):
    return [np.float64(v).view(np.uint64) for v in values]


def assert_same_report(scenario):
    fast = run_verification(scenario)
    slow = oracle.run_verification(scenario)
    assert fast.format_text() == slow.format_text()
    assert bits(c.measured for c in fast.checks) == bits(
        c.measured for c in slow.checks)


# 2, 5: fewer degenerate-residual draws than gauge templates; 6, 23, 24,
# 25: the gauge check's n // 4 draws below, at and just past six
@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 23, 24, 25, 100])
@pytest.mark.parametrize("name", ["free", "fig1", "fig2", "fig3", "fig45"])
def test_presets_match_scalar_battery(name, n):
    assert_same_report(dataclasses.replace(resolve_scenario(name),
                                           sample_count=n))


@pytest.mark.parametrize("name", ["free", "fig45"])
def test_thousand_draws_match_scalar_battery(name):
    # a check reports its worst draw only: many draws give a rounding
    # difference on any one draw more chances to show
    assert_same_report(dataclasses.replace(resolve_scenario(name),
                                           sample_count=1000, seed=5))


@pytest.mark.parametrize("n", [7, 100])
@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_scenarios_match_scalar_battery(key, seed, n):
    scenario = parse_scenario_text(SCENARIOS[key] + f"seed = {seed}\n"
                                   f"sample_count = {n}\n", key)
    assert_same_report(scenario)


def test_corrupted_report_still_fails():
    scenario = parse_scenario_text(SCENARIOS["corrupt_b0"])
    assert not run_verification(scenario).passed


def test_nan_draw_fails_its_check():
    # with a subnormal charge both field routes overflow; inf - inf is NaN
    # on some draws, and the worst-of reduction must not skip them
    scenario = parse_scenario_text("theta0 = pi/3\nomega2 = 2\nq = 1e-320\n")
    by_name = {c.name: c for c in run_verification(scenario).checks}
    assert math.isnan(by_name["drive_field_cross_check"].measured)
    assert not by_name["drive_field_cross_check"].passed


def test_absorbed_overflow_raises_the_per_draw_error():
    scenario = parse_scenario_text("theta0 = 1\nh = 1/exp(1000*x)\n")
    with pytest.raises(EvaluationError) as slow:
        oracle.run_verification(scenario)
    with pytest.raises(EvaluationError) as fast:
        run_verification(scenario)
    assert str(fast.value) == str(slow.value)


# --- array functions against one scalar call per event ----------------------

RNG = np.random.default_rng(2024)
COLS = RNG.uniform(-2.0, 2.0, size=(4, 40))
EVENTS = Event(*COLS)
EVENT_LIST = [Event(*map(float, col)) for col in COLS.T]
COEFFS = RNG.uniform(-2.0, 2.0, size=(4, 40))

PLANE_LAW = AngleLaw.linear(math.pi / 3, 0.4, math.pi / 5, -1.3)
PLANE_H = plane_wave_phase(2.0, math.pi / 3, math.pi / 5)
EXPR_SCENARIO = parse_scenario_text(SCENARIOS["exprlaw"])
CASES = [
    (PLANE_LAW, PLANE_H, POS),
    (PLANE_LAW, PLANE_H, NEG),
    (EXPR_SCENARIO.law, EXPR_SCENARIO.h, POS),
    (AngleLaw.linear(1.2, -0.7, 0.3, 2.1), None, NEG),
]


def per_event(fn):
    return [fn(ev, i) for i, ev in enumerate(EVENT_LIST)]


def gauges(text):
    """The template bound to every draw's coefficients, and the per-draw
    fields the scalar battery parsed."""
    template = ScalarField.from_text(text, bound="abcd")
    bound = template.bind(**dict(zip("abcd", COEFFS)))
    singles = [ScalarField.from_text(text, dict(zip("abcd", map(float, c))))
               for c in COEFFS.T]
    return bound, singles


def test_event_accepts_arrays_and_rejects_non_finite_entries():
    assert oracle.shifted(EVENTS, "t", 0.5).t.tolist() \
        == (COLS[3] + 0.5).tolist()
    with pytest.raises(ValueError, match="y"):
        Event(COLS[0], np.array([0.0, np.inf]), 0.0, 0.0)


@pytest.mark.parametrize("helicity", [POS, NEG])
def test_build_spinor_over_angle_arrays(helicity):
    theta, phi = COLS[0] * 2, COLS[1] * 3
    c1, c2 = build_spinor(AngleLaw.linear(theta, 0.0, phi, 0.0), None,
                          helicity, Event(0.0, 0.0, 0.0, 0.0))
    for i in range(len(theta)):
        o1, o2 = oracle.spinor_components(theta[i], phi[i], helicity)
        assert (c1[i], c2[i]) == (o1, o2)


@pytest.mark.parametrize("law, h, helicity", CASES)
def test_build_spinor_over_arrays(law, h, helicity):
    c1, c2 = build_spinor(law, h, helicity, EVENTS)
    expected = per_event(lambda ev, i: oracle.build_spinor(law, h, helicity,
                                                           ev))
    assert list(zip(c1.tolist(), c2.tolist())) == expected


def test_weyl_residual_over_many_events():
    # |r|^2 of a numpy scalar goes through libm pow, which differs from
    # the array square on about one value in a thousand
    cols = np.random.default_rng(9).uniform(-2.0, 2.0, size=(4, 3000))
    law, h, helicity = CASES[2]
    pot = FourPotentialField(law, h, helicity)
    got = weyl_residual(pot, Event(*cols))
    expected = [oracle.weyl_residual(law, h, pot, helicity,
                                     Event(*map(float, col)))
                for col in cols.T]
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("law, h, helicity", CASES)
def test_weyl_residual_over_arrays(law, h, helicity):
    pot = FourPotentialField(law, h, helicity)
    got = weyl_residual(pot, EVENTS, 1e-4)
    expected = per_event(lambda ev, i: oracle.weyl_residual(
        law, h, pot, helicity, ev, 1e-4))
    assert bits(got) == bits(expected)
    assert weyl_residual(pot, EVENT_LIST[3], 1e-4) == expected[3]


@pytest.mark.parametrize("text", oracle.GAUGE_FORMS)
@pytest.mark.parametrize("law, h, helicity", CASES)
def test_degenerate_residual_and_components_over_arrays(law, h, helicity,
                                                        text):
    bound, singles = gauges(text)
    pot = FourPotentialField(law, h, helicity, bound)
    got = weyl_residual(pot, EVENTS)
    expected = per_event(lambda ev, i: oracle.weyl_residual(
        law, h, FourPotentialField(law, h, helicity, singles[i]), helicity,
        ev))
    assert bits(got) == bits(expected)
    comps = np.broadcast_arrays(*pot.components(EVENTS))
    for i, ev in enumerate(EVENT_LIST):
        single = FourPotentialField(law, h, helicity, singles[i])
        assert [c[i] for c in comps] == list(oracle.components(single, ev))


@pytest.mark.parametrize("law, h, helicity", CASES)
def test_kappa_and_drive_field_over_arrays(law, h, helicity):
    t = COLS[3]
    # the kappa * s part with s = 1 is kappa itself
    unit = FourPotentialField(law, None, None, ScalarField.from_text("1"))
    kappa = np.broadcast_arrays(*unit.components(EVENTS))
    field = drive_field_closed_form(law, helicity, -1.5, t)
    for i, ti in enumerate(t.tolist()):
        assert [k[i] for k in kappa] == list(oracle.kappa_vector(law, ti))
        assert field[i].tolist() == list(
            oracle.drive_field_closed_form(law, helicity, -1.5, ti))


@pytest.mark.parametrize("law, h, helicity", CASES)
def test_numeric_field_of_base_potential_over_arrays(law, h, helicity):
    pot = FourPotentialField(law, h, helicity)
    e, b = field_from_potential_numeric(pot, 0.7, EVENTS, 1e-4)
    for i, ev in enumerate(EVENT_LIST):
        oe, ob = oracle.field_from_potential_numeric(pot, 0.7, ev, 1e-4)
        assert e[i].tolist() == list(oe)
        assert b[i].tolist() == list(ob)


@pytest.mark.parametrize("text", oracle.GAUGE_FORMS)
def test_gauge_fields_over_arrays(text):
    coeffs = RNG.uniform(-3.0, 3.0, size=(4, 40))
    law = AngleLaw.linear(*coeffs)
    bound, singles = gauges(text)
    numeric = field_from_potential_numeric(
        FourPotentialField(law, None, None, bound), -2.0, EVENTS)
    closed = gauge_family_field(law, bound, -2.0, EVENTS)
    got = [*numeric, *closed]
    for i, ev in enumerate(EVENT_LIST):
        single = AngleLaw.linear(*coeffs[:, i].tolist())
        oe, ob = oracle.field_from_potential_numeric(
            FourPotentialField(single, None, None, singles[i]), -2.0, ev)
        ce, cb = oracle.gauge_family_field(single, singles[i], -2.0, ev)
        for rows, values in zip(got, (oe, ob, ce, cb)):
            assert rows[i].tolist() == list(values)
