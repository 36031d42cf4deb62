"""Two-component spinor construction and relativistic wave-operator residuals."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from weyldyn.expressions import AngleLaw, ScalarField, plane_wave_phase
from weyldyn.potentials import FourPotentialField
from weyldyn.spinors import (
    Event,
    Helicity,
    build_spinor,
    weyl_residual,
)

SQ2 = math.sqrt(2) / 2


def unit_spinor(theta, phi, helicity):
    """(c1, c2) of fixed angles and no phase."""
    return build_spinor(AngleLaw.linear(theta, 0.0, phi, 0.0), None, helicity,
                        Event(0.0, 0.0, 0.0, 0.0))


def test_helicity_signs():
    assert Helicity.POSITIVE.sign == 1
    assert Helicity.NEGATIVE.sign == -1


def test_event_rejects_non_finite_coordinates():
    with pytest.raises(ValueError, match="z"):
        Event(0.0, 0.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        Event(float("inf"), 0.0, 0.0, 0.0)


def test_event_shifted():
    ev = Event(1.0, 2.0, 3.0, 4.0)
    assert ev.shifted("x", 0.5) == Event(1.5, 2.0, 3.0, 4.0)
    assert ev.shifted("t", -1.0) == Event(1.0, 2.0, 3.0, 3.0)
    with pytest.raises(ValueError, match="unknown axis 'w'"):
        ev.shifted("w", 1.0)
    with pytest.raises(ValueError, match="non-finite event coordinate x"):
        Event(1e308, 0, 0, 0).shifted("x", 1e308)


def test_frozen_negative_component_values():
    c1, c2 = unit_spinor(math.pi / 2, math.pi / 2, Helicity.NEGATIVE)
    assert c1.real == pytest.approx(-SQ2, abs=1e-12)
    assert c1.imag == pytest.approx(0.0, abs=1e-12)
    assert c2.real == pytest.approx(0.0, abs=1e-12)
    assert c2.imag == pytest.approx(SQ2, abs=1e-12)


def test_frozen_positive_pole_values():
    c1, c2 = unit_spinor(math.pi, 0.0, Helicity.POSITIVE)
    assert abs(c1) == pytest.approx(0.0, abs=1e-12)
    assert c2 == pytest.approx(1.0 + 0.0j, abs=1e-12)


@given(
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
    st.sampled_from([Helicity.POSITIVE, Helicity.NEGATIVE]),
)
@settings(max_examples=200, deadline=None)
def test_unit_norm_everywhere(theta, phi, helicity):
    c1, c2 = unit_spinor(theta, phi, helicity)
    assert abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) <= 1e-14


def test_build_spinor_applies_phase():
    law = AngleLaw.linear(math.pi / 3, 0.0, math.pi / 5, 0.0)
    h = plane_wave_phase(2.0, math.pi / 3, math.pi / 5)
    ev = Event(0.3, -0.2, 0.7, 1.1)
    bare = build_spinor(law, None, Helicity.POSITIVE, ev)
    phased = build_spinor(law, h, Helicity.POSITIVE, ev)
    factor = complex(math.cos(h.value(ev.x, ev.y, ev.z, ev.t)),
                     math.sin(h.value(ev.x, ev.y, ev.z, ev.t)))
    assert phased[0] == pytest.approx(bare[0] * factor, abs=1e-14)
    assert phased[1] == pytest.approx(bare[1] * factor, abs=1e-14)
    assert abs(phased[0]) ** 2 + abs(phased[1]) ** 2 == pytest.approx(
        1.0, abs=1e-14)


PLANE_LAW = AngleLaw.linear(math.pi / 3, 0.0, math.pi / 5, 0.0)
PLANE_H = plane_wave_phase(2.0, math.pi / 3, math.pi / 5)
ROTATING_LAW = AngleLaw.linear(math.pi / 2, math.sqrt(3), 0.0, math.sqrt(5))

EVENTS = [
    Event(0.0, 0.0, 0.0, 0.0),
    Event(0.5, -0.3, 0.8, 1.2),
    Event(-1.1, 0.4, -0.2, 2.0),
    Event(0.9, 1.3, -1.7, 0.6),
]


@pytest.mark.parametrize("helicity", [Helicity.POSITIVE, Helicity.NEGATIVE])
def test_plane_wave_pair_satisfies_wave_equation(helicity):
    pot = FourPotentialField(PLANE_LAW, PLANE_H, helicity)
    for ev in EVENTS:
        assert weyl_residual(PLANE_LAW, PLANE_H, pot, helicity, ev) < 1e-8


@pytest.mark.parametrize("helicity", [Helicity.POSITIVE, Helicity.NEGATIVE])
def test_rotating_pair_satisfies_wave_equation(helicity):
    pot = FourPotentialField(ROTATING_LAW, None, helicity)
    for ev in EVENTS:
        assert weyl_residual(ROTATING_LAW, None, pot, helicity, ev) < 1e-8


def test_corrupted_time_component_shows_up_in_residual():
    pot = FourPotentialField(PLANE_LAW, PLANE_H, Helicity.POSITIVE)
    bad = dataclasses.replace(pot, b0_offset=0.1)
    for ev in EVENTS:
        r = weyl_residual(PLANE_LAW, PLANE_H, bad, Helicity.POSITIVE, ev)
        assert r == pytest.approx(0.1, abs=1e-8)


def test_residual_finite_difference_order():
    pot = FourPotentialField(PLANE_LAW, PLANE_H, Helicity.POSITIVE)
    ev = Event(0.4, 0.1, -0.3, 0.9)
    r_coarse = weyl_residual(PLANE_LAW, PLANE_H, pot, Helicity.POSITIVE, ev, step=1e-2)
    r_fine = weyl_residual(PLANE_LAW, PLANE_H, pot, Helicity.POSITIVE, ev, step=5e-3)
    order = math.log2(r_coarse / r_fine)
    assert order >= 1.9


GAUGE_CHOICES = [
    "0",
    "2.5",
    "3*t",
    "x - 2*y",
    "0.5*x + 0.25*t",
]


@pytest.mark.parametrize("s_text", GAUGE_CHOICES)
@pytest.mark.parametrize("helicity", [Helicity.POSITIVE, Helicity.NEGATIVE])
def test_gauge_shift_preserves_solutions(s_text, helicity):
    s = ScalarField.from_text(s_text)
    shifted = FourPotentialField(ROTATING_LAW, None, helicity, s)
    for ev in EVENTS:
        assert weyl_residual(ROTATING_LAW, None, shifted, helicity, ev) < 1e-6
