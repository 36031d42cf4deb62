"""The finite-difference stencil: one array call per stencil, bit for bit
equal to one scalar call per draw of the frozen battery (scalar_battery.py).
"""

import math

import numpy as np
import pytest

import scalar_battery as oracle
from weyldyn import spinors
from weyldyn.expressions import AngleLaw, ScalarField
from weyldyn.potentials import FourPotentialField, field_from_potential_numeric
from weyldyn.scenario import parse_scenario_text
from weyldyn.spinors import (STENCIL_AXES, Event, Helicity, on_stencil,
                             stencil, weyl_residual)

POS, NEG = Helicity.POSITIVE, Helicity.NEGATIVE

# the benchmark's expression-law shape: angle laws and an x, y, z, t phase
EXPRLAW = parse_scenario_text("theta_expr = 1.5 + 0.2*sin(0.7*t)\n"
                              "phi_expr = 0.6*t + 0.3*cos(0.9*t)\n"
                              "h = 0.4*x - 0.8*y*t + 0.25*sin(z - t)\n")
# constant rates: every component of the base potential is one number
CONSTANT_RATE = AngleLaw.linear(1.2, -0.7, 0.3, 2.1)
CASES = {
    "constant_rate": (CONSTANT_RATE, None, POS),
    "constant_rate_negative": (CONSTANT_RATE, None, NEG),
    "plane_wave_negative": (AngleLaw.linear(math.pi / 3, 0.4, 0.6, -1.3),
                            ScalarField.from_text("0.5*x - 0.2*y + z - t"),
                            NEG),
    "exprlaw": (EXPRLAW.law, EXPRLAW.h, POS),
}
# per-draw linear laws, whose rates hold one value per draw, under a
# gauge or a phase that varies along the stencil: (gauge, phase)
DRAWN_LAW_CASES = {
    "drawn_laws_gauge": (ScalarField.from_text("t*x"), None),
    "drawn_laws_phase": (None, ScalarField.from_text("z*t")),
}
DRAWS = [1, 7, 100]


def bits(values):
    return [np.float64(v).view(np.uint64) for v in np.ravel(values)]


def draws(n, seed=3):
    cols = np.random.default_rng(seed + n).uniform(-2.0, 2.0, size=(8, n))
    return Event(*cols[:4]), [Event(*map(float, c)) for c in cols[:4].T], \
        cols[4:]


def singles_of(text, coeffs):
    return [ScalarField.from_text(text, dict(zip("abcd", map(float, c))))
            for c in coeffs.T]


def field_entry(field, i):
    """Bits of draw i of the (E, B) rows of an array field."""
    return bits([rows[i] for rows in field])


def test_stencil_rows_round_as_shifted_events():
    ev = Event(np.array([0.1, -0.0, 1e16]), np.array([2.5, 0.0, -3.0]),
               np.array([-1.0, 7.0, 0.3]), np.array([0.0, 1e-300, -0.7]))
    rows = stencil(ev, 1e-5)
    expected = [ev] + [oracle.shifted(ev, axis, delta)
                       for axis in STENCIL_AXES for delta in (1e-5, -1e-5)]
    for name in "xyzt":
        got = getattr(rows, name)
        assert got.shape == (9, 3)
        assert bits(got) == bits([getattr(e, name) for e in expected])


def test_stencil_of_a_scalar_event_has_one_row_per_event():
    rows = stencil(Event(0, 1, 2, 3), 0.5)
    assert rows.t.shape == (9,)
    assert rows.t.tolist() == [3.0, 3.5, 2.5] + [3.0] * 6
    assert rows.x.tolist() == [0.0] * 3 + [0.5, -0.5] + [0.0] * 4


def test_a_step_that_is_not_positive_is_refused_after_the_callers_checks():
    law = AngleLaw.linear(0.5, 1.5, 0.25, -2.0)
    pot = FourPotentialField(law, None, Helicity.POSITIVE)
    no_spinor = FourPotentialField(law, None, None,
                                   ScalarField.from_text("2*t"))
    ev = Event(0.1, 0.2, 0.3, 0.4)
    for step in (0.0, -1e-5):
        for call, message in (
                (lambda: spinors.weyl_residual(pot, ev, step),
                 "step must be positive"),
                (lambda: field_from_potential_numeric(pot, 1.0, ev, step),
                 "step must be positive"),
                (lambda: spinors.weyl_residual(no_spinor, ev, step),
                 "a potential without a helicity has no spinor"),
                (lambda: field_from_potential_numeric(pot, 0.0, ev, step),
                 "charge q must be nonzero")):
            with pytest.raises(ValueError) as exc:
                call()
            assert type(exc.value) is ValueError
            assert str(exc.value) == message


def test_scalar_event_is_evaluated_one_row_at_a_time_in_order():
    seen = []

    def record(ev):
        seen.append(ev)
        return ev.x, ev.t

    ev = Event(0.25, -1.0, 2.0, 0.5)
    values = on_stencil(record, ev, 1e-3, centre=False)
    assert seen == [oracle.shifted(ev, axis, delta) for axis in STENCIL_AXES
                    for delta in (1e-3, -1e-3)]
    assert values.shape == (2, 8)
    assert values[1].tolist() == [e.t for e in seen]


@pytest.mark.parametrize("n", DRAWS)
@pytest.mark.parametrize("key", sorted(CASES))
def test_residual_over_draws_matches_scalar_calls(key, n):
    law, h, helicity = CASES[key]
    pot = FourPotentialField(law, h, helicity)
    ev, singles, _ = draws(n)
    got = weyl_residual(pot, ev)
    assert got.shape == (n,)
    expected = [oracle.weyl_residual(law, h, pot, helicity, e)
                for e in singles]
    assert bits(got) == bits(expected)
    assert bits([weyl_residual(pot, e) for e in singles]) == bits(expected)


def field_potentials(key, n):
    """The potential of case `key` over n draws, and that of each draw."""
    if key in CASES:
        law, h, helicity = CASES[key]
        pot = FourPotentialField(law, h, helicity)
        return pot, [pot] * n
    gauge, h = DRAWN_LAW_CASES[key]
    coeffs = np.random.default_rng(n).uniform(-3.0, 3.0, size=(4, n))
    return (FourPotentialField(AngleLaw.linear(*coeffs), h, POS, gauge),
            [FourPotentialField(AngleLaw.linear(*c.tolist()), h, POS, gauge)
             for c in coeffs.T])


@pytest.mark.parametrize("n", DRAWS)
@pytest.mark.parametrize("key", sorted(CASES) + sorted(DRAWN_LAW_CASES))
def test_numeric_field_over_draws_matches_scalar_calls(key, n):
    pot, pots = field_potentials(key, n)
    ev, singles, _ = draws(n)
    got = field_from_potential_numeric(pot, -1.5, ev)
    for i, (p, e) in enumerate(zip(pots, singles)):
        oe, ob = oracle.field_from_potential_numeric(p, -1.5, e)
        assert field_entry(got, i) == bits(oe + ob)
        single = field_from_potential_numeric(p, -1.5, e)
        assert bits(single) == bits(oe + ob)


@pytest.mark.parametrize("n", DRAWS)
@pytest.mark.parametrize("text", oracle.GAUGE_FORMS)
@pytest.mark.parametrize("key", ["constant_rate_negative", "exprlaw"])
def test_degenerate_potentials_over_draws_match_scalar_calls(key, text, n):
    law, h, helicity = CASES[key]
    ev, singles, coeffs = draws(n)
    template = ScalarField.from_text(text, bound="abcd")
    pot = FourPotentialField(law, h, helicity,
                             template.bind(**dict(zip("abcd", coeffs))))
    pots = [FourPotentialField(law, h, helicity, s)
            for s in singles_of(text, coeffs)]
    got = weyl_residual(pot, ev)
    assert bits(got) == bits([oracle.weyl_residual(law, h, p, helicity, e)
                              for p, e in zip(pots, singles)])
    field = field_from_potential_numeric(pot, 0.7, ev)
    for i, (p, e) in enumerate(zip(pots, singles)):
        oe, ob = oracle.field_from_potential_numeric(p, 0.7, e)
        assert field_entry(field, i) == bits(oe + ob)


@pytest.mark.parametrize("n", DRAWS)
@pytest.mark.parametrize("text", oracle.GAUGE_FORMS)
def test_gauge_potentials_over_drawn_laws_match_scalar_calls(text, n):
    # laws and gauge coefficients vary per draw, as in the battery
    ev, singles, coeffs = draws(n, seed=8)
    law_coeffs = np.random.default_rng(n).uniform(-3.0, 3.0, size=(4, n))
    template = ScalarField.from_text(text, bound="abcd")
    pot = FourPotentialField(AngleLaw.linear(*law_coeffs), None, None,
                             template.bind(**dict(zip("abcd", coeffs))))
    field = field_from_potential_numeric(pot, -2.0, ev)
    for i, (s, e) in enumerate(zip(singles_of(text, coeffs), singles)):
        law = AngleLaw.linear(*law_coeffs[:, i].tolist())
        oe, ob = oracle.field_from_potential_numeric(
            FourPotentialField(law, None, None, s), -2.0, e)
        assert field_entry(field, i) == bits(oe + ob)


class CountingPotential:
    def __init__(self, pot):
        self.pot, self.calls = pot, 0
        self.law, self.h, self.helicity = pot.law, pot.h, pot.helicity

    def components(self, ev):
        self.calls += 1
        return self.pot.components(ev)


@pytest.mark.parametrize("key", sorted(CASES))
def test_one_array_call_evaluates_each_stencil_once(key, monkeypatch):
    law, h, helicity = CASES[key]
    calls = []
    parts = spinors._spinor_parts
    monkeypatch.setattr(spinors, "_spinor_parts",
                        lambda *args: calls.append(args[-1]) or parts(*args))
    ev, _, _ = draws(7)
    pot = CountingPotential(FourPotentialField(law, h, helicity))
    weyl_residual(pot, ev)
    assert [e.t.shape for e in calls] == [(9, 7)]
    assert pot.calls == 1  # the centre, for the potential term
    pot.calls = 0
    field_from_potential_numeric(pot, 1.0, ev)
    assert pot.calls == 1


def test_battery_makes_one_call_per_residual_and_field_check(monkeypatch):
    # the six gauge templates share one call per check: 3 residuals
    # (base, degenerate, mirror), 2 drive fields and 1 gauge field per route
    import dataclasses

    from weyldyn import verify
    from weyldyn.scenario import resolve_scenario

    calls = {}
    for name in ("weyl_residual", "field_from_potential_numeric",
                 "drive_field_closed_form", "gauge_family_field"):
        def counted(*args, _name=name, _fn=getattr(verify, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(verify, name, counted)
    scenario = dataclasses.replace(resolve_scenario("fig3"), sample_count=100)
    assert verify.run_verification(scenario).passed
    assert calls == {"weyl_residual": 3, "field_from_potential_numeric": 3,
                     "drive_field_closed_form": 2, "gauge_family_field": 1}
