"""Potential families, their degeneracy direction, and field extraction.

Every closed-form field here is checked against a second, independent
route: central differences on the generating four-potential.  Fields are
float rows (..., 3).
"""

import math

import numpy as np
import pytest

from weyldyn.expressions import (AngleLaw, ExprLaw, LinearLaw, ScalarField,
                                 parse_expr)
from weyldyn.observables import velocity_from_angles
from weyldyn.potentials import (
    FourPotentialField,
    drive_field_closed_form,
    energy_control_field,
    field_from_potential_numeric,
    gauge_family_field,
    k_control_field,
)
from weyldyn.spinors import Event, Helicity

POS = Helicity.POSITIVE
NEG = Helicity.NEGATIVE
ROTATING = AngleLaw.linear(math.pi / 2, math.sqrt(3), 0.0, math.sqrt(5))
ORIGIN = Event(0.0, 0.0, 0.0, 0.0)


def test_base_potential_frozen_polar_sweep():
    # theta grows at sqrt(3), phi pinned at zero: only the y component survives
    law = AngleLaw.linear(0.0, math.sqrt(3), 0.0, 0.0)
    pot = FourPotentialField(law, None, POS)
    for t in (0.0, 0.7, 2.3):
        b0, b1, b2, b3 = pot.components(Event(0.1, -0.2, 0.4, t))
        assert b0 == pytest.approx(0.0, abs=1e-15)
        assert b1 == pytest.approx(0.0, abs=1e-15)
        assert b2 == pytest.approx(-math.sqrt(3) / 2, abs=1e-15)
        assert b3 == pytest.approx(0.0, abs=1e-15)


def test_base_potential_mirror_flips_spatial_rate_terms():
    law = AngleLaw.linear(0.0, math.sqrt(3), 0.0, 0.0)
    pos = FourPotentialField(law, None, POS).components(ORIGIN)
    neg = FourPotentialField(law, None, NEG).components(ORIGIN)
    assert neg[0] == pos[0]
    assert neg[2] == -pos[2]


@pytest.mark.parametrize("h, gauge", [
    (None, None),
    (ScalarField.from_text("x"), ScalarField.from_text("t")),
], ids=["no gauge", "a phase h"])
def test_kappa_part_alone_needs_a_gauge_and_no_phase(h, gauge):
    with pytest.raises(ValueError, match="kappa \\* gauge part alone"):
        FourPotentialField(ROTATING, h, None, gauge)


def kappa(law, t):
    # the kappa * s part with s = 1 is kappa itself
    unit = FourPotentialField(law, None, None, ScalarField.from_text("1"))
    return unit.components(Event(0.0, 0.0, 0.0, t))


def test_kappa_frozen_value_and_unit_speed():
    kap = kappa(ROTATING, 0.0)
    assert kap[0] == 1.0
    assert kap[1] == pytest.approx(-1.0, abs=1e-12)
    assert kap[2] == pytest.approx(0.0, abs=1e-12)
    assert kap[3] == pytest.approx(0.0, abs=1e-12)
    for t in np.linspace(0.0, 3.0, 7):
        k0, kx, ky, kz = kappa(ROTATING, float(t))
        assert k0 == 1.0
        assert math.hypot(kx, math.hypot(ky, kz)) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_shift_is_kappa_times_s():
    s = ScalarField.from_text("x - 2*y + 0.5*t")
    base = FourPotentialField(ROTATING, None, POS)
    shifted = FourPotentialField(ROTATING, None, POS, s)
    ev = Event(0.3, -0.4, 0.2, 1.1)
    b = np.array(base.components(ev))
    d = np.array(shifted.components(ev))
    kap = np.array([1.0, *-velocity_from_angles(*ROTATING.angles(ev.t))])
    sval = s.value(ev.x, ev.y, ev.z, ev.t)
    assert d == pytest.approx(b + kap * sval, abs=1e-12)


def test_drive_field_frozen_start_value():
    e = drive_field_closed_form(ROTATING, POS, 1.0, 0.0)
    assert e[0] == pytest.approx(math.sqrt(15) / 2, abs=1e-12)
    assert e[1] == pytest.approx(0.0, abs=1e-12)
    assert e[2] == pytest.approx(0.0, abs=1e-12)


def test_drive_field_rotates_in_plane():
    q = 2.0
    for t in (0.3, 1.7, 4.1):
        e = drive_field_closed_form(ROTATING, POS, q, t)
        amp = math.sqrt(15) / (2 * q)
        phi = math.sqrt(5) * t
        assert e[0] == pytest.approx(amp * math.cos(phi), rel=1e-12)
        assert e[1] == pytest.approx(amp * math.sin(phi), rel=1e-12)
        assert e[2] == pytest.approx(0.0, abs=1e-12)


def test_drive_field_helicity_antisymmetry():
    for t in (0.0, 0.9, 2.2):
        ep = drive_field_closed_form(ROTATING, POS, 1.5, t)
        en = drive_field_closed_form(ROTATING, NEG, 1.5, t)
        assert en == pytest.approx(-ep, abs=1e-14)


def test_drive_free_laws_make_zero_drive_field():
    for law in (
        AngleLaw.linear(0.4, 2.0, 0.3, 0.0),
        AngleLaw.linear(0.4, 0.0, 0.3, 5.0),
        AngleLaw.linear(0.4, 0.0, 0.3, 0.0),
    ):
        e = drive_field_closed_form(law, POS, 1.0, 1.3)
        assert e.tolist() == [0.0, 0.0, 0.0]
    # and a genuinely driven law does not
    e = drive_field_closed_form(ROTATING, POS, 1.0, 0.0)
    assert np.linalg.norm(e) > 0.5


@pytest.mark.parametrize("helicity", [POS, NEG])
@pytest.mark.parametrize(
    "law",
    [
        ROTATING,
        AngleLaw.linear(0.7, 1.3, 0.2, -0.8),
        AngleLaw(ExprLaw(parse_expr("0.5 + 0.3*t + 0.1*t^2")),
                 ExprLaw(parse_expr("0.2*t + 0.05*t^2"))),
        AngleLaw(LinearLaw(1.0, 0.0), ExprLaw(parse_expr("1.5*t - 0.2*t^2"))),
    ],
)
def test_drive_field_matches_numeric_route(helicity, law):
    pot = FourPotentialField(law, None, helicity)
    q = 1.7
    for t in (0.0, 0.6, 1.9):
        closed = drive_field_closed_form(law, helicity, q, t)
        numeric_e, numeric_b = field_from_potential_numeric(
            pot, q, Event(0.2, -0.1, 0.5, t))
        assert closed == pytest.approx(numeric_e, abs=1e-6)
        assert numeric_b == pytest.approx(np.zeros(3), abs=1e-6)


def test_phase_term_contributes_no_field():
    from weyldyn.expressions import plane_wave_phase

    law = AngleLaw.linear(math.pi / 3, 0.0, math.pi / 5, 0.0)
    h = plane_wave_phase(2.0, math.pi / 3, math.pi / 5)
    with_h = FourPotentialField(law, h, POS)
    without = FourPotentialField(law, None, POS)
    ev = Event(0.3, 0.1, -0.4, 0.8)
    ea, ba = field_from_potential_numeric(with_h, 1.0, ev)
    eb, bb = field_from_potential_numeric(without, 1.0, ev)
    assert ea == pytest.approx(eb, abs=1e-7)
    assert ba == pytest.approx(bb, abs=1e-7)


def test_gauge_family_time_ramp_frozen_value():
    # static velocity along x, s = t: uniform pull opposite the motion
    law = AngleLaw.linear(math.pi / 2, 0.0, 0.0, 0.0)
    e, b = gauge_family_field(law, ScalarField.from_text("t"), 1.0, ORIGIN)
    assert e == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)
    assert b == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_gauge_family_spatial_ramp_frozen_value():
    # static velocity along x, s = z: electric push down, magnetic along y
    law = AngleLaw.linear(math.pi / 2, 0.0, 0.0, 0.0)
    e, b = gauge_family_field(law, ScalarField.from_text("z"), 1.0, ORIGIN)
    assert e == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
    assert b == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize(
    "s_text",
    ["t", "z", "x - 2*y + 0.5*t", "0.3*x*t", "sin(t)"],
)
def test_gauge_family_matches_numeric_route(s_text):
    s = ScalarField.from_text(s_text)
    q = 1.3
    pot = FourPotentialField(ROTATING, None, None, s)
    for t in (0.0, 0.8, 1.7):
        ev = Event(0.4, -0.2, 0.3, t)
        closed_e, closed_b = gauge_family_field(ROTATING, s, q, ev)
        numeric_e, numeric_b = field_from_potential_numeric(pot, q, ev)
        assert closed_e == pytest.approx(numeric_e, abs=1e-6)
        assert closed_b == pytest.approx(numeric_b, abs=1e-6)


def test_energy_control_frozen_value():
    law = AngleLaw.linear(math.pi / 2)
    e = energy_control_field(2.0, law, 1.0, 0.0)
    assert e == pytest.approx([2.0, 0.0, 0.0], abs=1e-12)


def test_energy_control_requires_drive_free_law():
    with pytest.raises(ValueError, match="drive-free"):
        energy_control_field(1.0, ROTATING, 1.0, 0.0)


def test_energy_control_projects_to_requested_rate():
    # qE . v must equal the requested rate; cross-checked against the
    # time-ramp gauge construction, which shares that projection.
    for law in (AngleLaw.linear(0.8, 1.5), AngleLaw.linear(1.1, 0.0, 0.4, 2.0)):
        for t in (0.0, 0.6, 1.4):
            c, q = 2.5, 1.3
            e = energy_control_field(c, law, q, t)
            theta, phi = law.angles(t)
            v = np.array([
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ])
            assert q * float(e @ v) == pytest.approx(c, rel=1e-12)
            ramp, _ = gauge_family_field(
                law, ScalarField.from_text(f"-{c}*t"), q,
                Event(0.0, 0.0, 0.0, t))
            assert q * float(ramp @ v) == pytest.approx(c, rel=1e-10)


@pytest.mark.parametrize("law", [
    AngleLaw.linear(0.7, 1.5, 0.3, 0.0),
    AngleLaw.linear(0.7, 0.0, 0.3, 0.0),
])
def test_energy_control_is_the_gauge_ramp_field(law):
    # the energy-control field is the kappa * s field of s = -dedt t, bit
    # for bit, on a rotating law (dv/dt != 0) as on a static one
    dedt, q = 2.0, 1.3
    ts = np.array([0.0, 0.6, 2.0])
    ramp = ScalarField.from_text(f"-{dedt}*t")
    for t in (*ts, ts):
        e = energy_control_field(dedt, law, q, t)
        gauge_e, gauge_b = gauge_family_field(law, ramp, q,
                                              Event(0.0, 0.0, 0.0, t))
        assert e.tobytes() == gauge_e.tobytes()
        assert not gauge_b.any()


def test_azimuthal_k_control_frozen_and_cross_checked():
    e = k_control_field(-0.5, "azimuthal",
                        AngleLaw.linear(math.pi / 2, 0.0, 0.0, 1.0), POS, 1.0)
    assert e.tolist() == [0.0, 0.0, 0.5]
    # quadratic azimuthal law with matching dk/dt gives the same field
    theta0, alpha, q = 0.9, 0.12, 1.4
    law = AngleLaw(LinearLaw(theta0, 0.0),
                   ExprLaw(parse_expr(f"0.4*t + {alpha / 2}*t^2")))
    dk_dt = 0.5 * math.sin(theta0) * alpha
    ctrl = k_control_field(dk_dt, "azimuthal",
                           AngleLaw.linear(theta0, 0.0, 0.0, 0.4), POS, q)
    for t in (0.0, 1.0, 2.5):
        drive = drive_field_closed_form(law, POS, q, t)
        assert ctrl == pytest.approx(drive, abs=1e-12)


def test_polar_k_control_frozen_and_cross_checked():
    e = k_control_field(1.0, "polar", AngleLaw.linear(0.5, 0.2, 0.0, 0.0),
                        POS, 1.0)
    assert e.tolist() == [0.0, -1.0, 0.0]
    phi0, alpha, q = 0.7, 0.3, 2.0
    law = AngleLaw(ExprLaw(parse_expr(f"0.5 + 0.2*t + {alpha / 2}*t^2")),
                   LinearLaw(phi0, 0.0))
    ctrl = k_control_field(0.5 * alpha, "polar",
                           AngleLaw.linear(0.5, 0.2, phi0, 0.0), POS, q)
    for t in (0.0, 1.0, 2.5):
        drive = drive_field_closed_form(law, POS, q, t)
        assert ctrl == pytest.approx(drive, abs=1e-12)


def test_k_control_helicity_antisymmetry():
    law = AngleLaw.linear(1.0, 0.0, 0.0, 1.0)
    ep = k_control_field(0.7, "azimuthal", law, POS, 1.0)
    en = k_control_field(0.7, "azimuthal", law, NEG, 1.0)
    assert en == pytest.approx(-ep, abs=1e-14)


def test_k_control_rejects_polar_angle_endpoints():
    for bad in (0.0, math.pi, -0.2, math.pi + 0.1):
        with pytest.raises(ValueError, match="strictly inside"):
            k_control_field(1.0, "azimuthal",
                            AngleLaw.linear(bad, 0.0, 0.0, 1.0), POS, 1.0)


@pytest.mark.parametrize("mode, law, message", [
    ("azimuthal",
     AngleLaw(ExprLaw(parse_expr("1 + 0.1*t")), LinearLaw(0.0, 1.0)),
     "k control requires a linear angle law"),
    ("azimuthal", AngleLaw.linear(1.0, 0.5, 0.0, 1.0),
     r"azimuthal control requires omega1 = 0 \(theta pinned\)"),
    ("azimuthal", AngleLaw.linear(1.0, 0.0, 0.0, -1.0),
     "azimuthal control requires omega2 > 0"),
    ("azimuthal", AngleLaw.linear(1.0, 0.0, 0.0, 0.0),
     "azimuthal control requires omega2 > 0"),
    ("azimuthal", AngleLaw.linear(0.0, 0.0, 0.0, 1.0),
     r"theta0 must lie strictly inside \(0, pi\)"),
    ("polar", AngleLaw.linear(1.0, 1.0, 0.0, 0.5),
     r"polar control requires omega2 = 0 \(phi pinned\)"),
    ("polar", AngleLaw.linear(1.0, -1.0, 0.0, 0.0),
     "polar control requires omega1 >= 0"),
    ("sideways", AngleLaw.linear(1.0, 0.0, 0.0, 1.0),
     "unknown control mode 'sideways'"),
])
def test_k_control_refuses_laws_that_cannot_realize_the_mode(mode, law,
                                                             message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        k_control_field(0.5, mode, law, POS, 1.0)


def test_field_functions_return_rows():
    # E is (3,) at one time or event and (n, 3) over n draws; only the
    # numeric route and the gauge family return a B beside it
    law = AngleLaw.linear(1.1, 0.0, 0.4, 0.0)
    s = ScalarField.from_text("x - 2*y + 0.5*t")
    ts = np.array([0.0, 0.5, 1.5, 2.0])
    events = Event(ts + 0.1, ts - 0.2, 0.3 * ts, ts)
    for ev, shape in ((Event(0.1, -0.2, 0.3, 0.5), (3,)), (events, (4, 3))):
        e, b = field_from_potential_numeric(
            FourPotentialField(law, None, None, s), 1.0, ev)
        assert e.shape == b.shape == shape
        e, b = gauge_family_field(law, s, 1.0, ev)
        assert e.shape == b.shape == shape
        for e in (drive_field_closed_form(ROTATING, POS, 1.0, ev.t),
                  energy_control_field(2.0, law, 1.0, ev.t)):
            assert isinstance(e, np.ndarray) and e.shape == shape
    e = k_control_field(0.5, "azimuthal", AngleLaw.linear(1.0, 0.0, 0.0, 1.0),
                        POS, 1.0)
    assert isinstance(e, np.ndarray) and e.shape == (3,)
    # constant expression angles evaluate to scalars, yet the field has
    # one row per time
    still = AngleLaw(ExprLaw(parse_expr("1")), ExprLaw(parse_expr("0.5")))
    assert drive_field_closed_form(still, POS, 1.0, ts).shape == (4, 3)
    assert energy_control_field(1.0, still, 1.0, ts).shape == (4, 3)


def test_zero_charge_rejected():
    with pytest.raises(ValueError):
        drive_field_closed_form(ROTATING, POS, 0.0, 0.0)
    with pytest.raises(ValueError):
        k_control_field(1.0, "polar", AngleLaw.linear(0.5, 0.2), POS, 0.0)
