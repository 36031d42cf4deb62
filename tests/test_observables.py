"""Kinetic momentum, localization scale, uncertainty floor, SI conversion."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyldyn.expressions import AngleLaw, ScalarField
from weyldyn.observables import (
    SPEED_OF_LIGHT,
    kinetic_momentum_from_state,
    localization_from_rates,
    mass_shell_defect_from_momentum,
    noncollinearity_from_vectors,
    si_rates,
    uncertainty_relation,
    velocity_from_angles,
)
from weyldyn.spinors import Helicity

POS = Helicity.POSITIVE
NEG = Helicity.NEGATIVE
ROTATING = AngleLaw.linear(math.pi / 2, math.sqrt(3), 0.0, math.sqrt(5))


def test_velocity_is_unit():
    for t in (0.0, 0.4, 1.9):
        v = velocity_from_angles(*ROTATING.angles(t))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_velocity_from_angles_vectorized():
    theta = np.array([0.0, math.pi / 2, math.pi])
    phi = np.zeros(3)
    v = velocity_from_angles(theta, phi)
    assert v.shape == (3, 3)
    assert v[:, 0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert v[:, 2] == pytest.approx([1.0, 0.0, -1.0], abs=1e-12)


def test_frozen_momentum_with_gauge_offset():
    # equator, pure azimuthal spin at 10, constant gauge value -3
    e0, p = kinetic_momentum_from_state(math.pi / 2, 0.0, 0.0, 10.0, -3.0, POS)
    assert e0 == pytest.approx(3.0, abs=1e-12)
    assert p == pytest.approx([3.0, 0.0, -5.0], abs=1e-12)


def test_momentum_projection_recovers_energy():
    e0, p = kinetic_momentum_from_state(math.pi / 2, 0.0, 0.0, 10.0, -3.0, POS)
    v = velocity_from_angles(math.pi / 2, 0.0)
    assert float(np.dot(p, v)) == pytest.approx(e0, abs=1e-12)


def test_kinetic_momentum_broadcasts_over_times():
    # one call on an array of times gives each time's scalar call, bit for bit
    s = ScalarField.from_text("2*t - 1")
    ts = np.array([0.0, 0.7, 1.5])
    e0, p = kinetic_momentum_from_state(*ROTATING.angles(ts),
                                        *ROTATING.rates(ts),
                                        s.value(t=ts), POS)
    for i, t in enumerate(ts):
        one_e0, one_p = kinetic_momentum_from_state(*ROTATING.angles(float(t)),
                                                    *ROTATING.rates(float(t)),
                                                    s.value(t=float(t)), POS)
        assert e0[i] == one_e0
        assert np.array_equal(p[i], one_p)


def test_localization_frozen_values():
    # rotating law at t = 0: k = sqrt(2); polar-only piece alone: sqrt(3)/2
    k = localization_from_rates(ROTATING.angles(0.0)[0], *ROTATING.rates(0.0))
    assert k == pytest.approx(math.sqrt(2), abs=1e-12)
    assert localization_from_rates(math.pi, math.sqrt(3), math.sqrt(5)) == (
        pytest.approx(math.sqrt(3) / 2, abs=1e-12))


def test_localization_scales_with_rates():
    assert localization_from_rates(math.pi / 2, 0.0, 10.0) == pytest.approx(5.0)
    assert localization_from_rates(1.0, 0.0, 0.0) == 0.0


def test_mass_shell_frozen_values():
    # equator with phi spinning at 10: k = 5, defect -25, gauge independent
    for s_value in (0.0, 2.0):
        km = kinetic_momentum_from_state(math.pi / 2, 4.0, 0.0, 10.0, s_value,
                                         POS)
        assert mass_shell_defect_from_momentum(*km) == (
            pytest.approx(-25.0, abs=1e-10))
    km = kinetic_momentum_from_state(math.pi / 2, 2.6, 0.0, 2.0, 2.0, POS)
    assert mass_shell_defect_from_momentum(*km) == (
        pytest.approx(-1.0, abs=1e-12))


def test_noncollinearity_frozen_value():
    _, p = kinetic_momentum_from_state(math.pi / 2, 0.0, 0.0, 10.0, -3.0, POS)
    v = velocity_from_angles(math.pi / 2, 0.0)
    assert noncollinearity_from_vectors(p, v) == (
        pytest.approx(5.0, abs=1e-12))


angles = st.floats(0.05, math.pi - 0.05)
rates = st.floats(-5.0, 5.0)
gauges = st.floats(-3.0, 3.0)
hels = st.sampled_from([POS, NEG])


@given(angles, st.floats(0.0, 2 * math.pi), rates, rates, gauges, hels)
@settings(max_examples=300, deadline=None)
def test_shell_and_transversality_identities(theta, phi, td, pd, sval, hel):
    e0, p = kinetic_momentum_from_state(theta, phi, td, pd, sval, hel)
    k = localization_from_rates(theta, td, pd)
    v = velocity_from_angles(theta, phi)
    assert e0**2 - float(p @ p) == pytest.approx(-(k**2), abs=1e-10)
    assert np.linalg.norm(np.cross(p, v)) == pytest.approx(k, abs=1e-10)
    assert float(p @ v) == pytest.approx(e0, abs=1e-10)


def test_uncertainty_frozen_points():
    assert uncertainty_relation(0.0) == 1.0
    assert uncertainty_relation(0.75) == pytest.approx(0.5, abs=1e-15)
    assert uncertainty_relation(1e6) < 1e-6


def test_uncertainty_solves_quadratic_at_machine_precision():
    for p0d in [0.0, 1e-8, 0.3, 1.0, 7.5, 1e3, 1e6]:
        x = uncertainty_relation(p0d)
        assert abs(2 * p0d * x + x * x - 1.0) <= 1e-12


def test_uncertainty_strictly_decreasing():
    grid = np.linspace(0.0, 50.0, 1000)
    vals = [uncertainty_relation(float(p)) for p in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_uncertainty_rejects_negative_spread():
    with pytest.raises(ValueError):
        uncertainty_relation(-0.1)


def test_si_rates_frozen_values():
    assert si_rates(np.array([0.0, 0.0, 1.0]), 1.0) == (
        1.0, 1.0, 299792458.0)
    assert SPEED_OF_LIGHT == 299792458.0
    assert si_rates(np.array([0.0, -2.0, 0.0]), 0.5) == (
        2.0, 1.0, 299792458.0)
    assert si_rates(np.array([3.0, 0.0, -4.0]), 1.0)[0] == 5.0


def test_si_rates_rescale_a_field_whose_squares_overflow():
    # |E|^2 overflows to inf; the magnitude is taken by math.hypot instead
    e = np.array([1e308, 1e308, 0.0])
    magnitude, per_meter, per_second = si_rates(e, 1.0)
    assert magnitude == math.hypot(1e308, 1e308)
    assert per_meter == magnitude and per_second == math.inf


def test_declared_numpy_floor_has_vecdot():
    # np.vecdot, which the observables and the verify battery call, is new
    # in NumPy 2.0
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject.read_text())
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)
