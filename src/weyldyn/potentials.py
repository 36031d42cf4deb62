"""Four-potential families and the electromagnetic fields they generate.

A spinor with angle history (theta, phi) and phase h solves its Weyl
equation for a specific base four-potential.  That potential is not
unique: adding kappa * s for any real function s(x, y, z, t), where
kappa = (1, -v) and v is the unit velocity set by the angles, gives
another exact potential for the same spinor.  `FourPotentialField`
holds either part or both: the spinor's own when it is given a
helicity, kappa * s when it is given a gauge s.  Fields are read off a
potential through the usual assignment

    U = b0 / q,   A = -(b1, b2, b3) / q,
    E = -grad U - dA/dt,   B = curl A,

either numerically (central differences on the potential, the slow but
assumption-free route) or through one of two closed forms (the fast
route): the drive field of a law and the gauge-family field of an s.
Tests hold the two routes against each other.

`FourPotentialField.components`, `field_from_potential_numeric`,
`drive_field_closed_form`, `gauge_family_field` and
`energy_control_field` take one event (or time) or an event of
equal-shape arrays (or an array of times), one entry per draw.  They
compute through numpy ufuncs in the scalar operation order, so each
entry rounds exactly as a scalar call would (np.sin and np.cos equal
math.sin and math.cos).  A field is a float array of rows (..., 3):
shape (3,) at one time or event, (n, 3) over n times or draws, the
layout `FieldProgram.sample` and the integrator use.  The numeric route
and `gauge_family_field` return (E, B); the drive and control fields
return E alone, B being zero for the drive field and for a time-only s.
A zero component of the drive field is +0.0; the gauge-family field's
keeps the sign its formula gives.  The control fields have no formula
or zero rule of their own: energy control is the gauge-family field of
the ramp s = -dedt t, k control the drive field of its target law.

`field_from_potential_numeric` differences the components on the
stencil of `spinors.on_stencil`: for an array event it calls
`components` once, on the 8 shifted events stacked on a leading axis,
and broadcasts a component that comes back as a scalar or a per-draw
array over those rows; a scalar event is evaluated one shifted event at
a time, t+, t-, x+, x-, y+, y-, z+, z-.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import AngleLaw, ExprLaw, ScalarField, parse_expr
from .observables import angle_trig, vector_rows, velocity_from_angles
from .spinors import Event, Helicity, on_stencil

__all__ = [
    "FourPotentialField",
    "field_from_potential_numeric",
    "drive_field_closed_form",
    "gauge_family_field",
    "energy_control_field",
    "k_control_field",
]


def _require_charge(q: float) -> None:
    if q == 0:
        raise ValueError("charge q must be nonzero")


@dataclass(frozen=True)
class FourPotentialField:
    """Four-potential of a spinor family: its own part, and kappa * gauge.

    With a helicity, the potential holds the spinor's own part, the
    angle-law and phase-gradient terms of that helicity and phase h;
    with a gauge, it holds kappa * gauge as well.  helicity=None is the
    kappa * gauge part alone, which needs a gauge and takes no h.
    b0_offset is a diagnostic hook that shifts the time component by a
    constant, used to demonstrate that the residual check catches a
    corrupted potential.
    """

    law: AngleLaw
    h: ScalarField | None
    helicity: Helicity | None
    gauge: ScalarField | None = None
    b0_offset: float = 0.0

    def __post_init__(self):
        if self.helicity is None and (self.gauge is None
                                      or self.h is not None):
            raise ValueError("a potential without a helicity is the "
                             "kappa * gauge part alone: it needs a gauge "
                             "and takes no phase h")

    def components(self, ev: Event) -> tuple[float, float, float, float]:
        b0 = b1 = b2 = b3 = 0.0
        theta, phi = self.law.angles(ev.t)
        if self.helicity is not None:
            sign = self.helicity.sign
            theta_dot, phi_dot = self.law.rates(ev.t)
            b0 = 0.5 * phi_dot
            b1 = sign * 0.5 * np.sin(phi) * theta_dot
            b2 = -sign * 0.5 * np.cos(phi) * theta_dot
            b3 = -sign * 0.5 * phi_dot
            if self.h is not None:  # not in place: the sums may broadcast
                args = (ev.x, ev.y, ev.z, ev.t)
                b0 = b0 + self.h.partial("t", *args)
                b1 = b1 + self.h.partial("x", *args)
                b2 = b2 + self.h.partial("y", *args)
                b3 = b3 + self.h.partial("z", *args)
        if self.gauge is not None:
            s = self.gauge.value(ev.x, ev.y, ev.z, ev.t)
            v = velocity_from_angles(theta, phi)  # kappa = (1, -v)
            b0 = b0 + s
            b1 = b1 + -v[..., 0] * s
            b2 = b2 + -v[..., 1] * s
            b3 = b3 + -v[..., 2] * s
        return b0 + self.b0_offset, b1, b2, b3


def field_from_potential_numeric(pot: FourPotentialField, q: float, ev: Event,
                                 step: float = 1e-5):
    """(E, B) rows from central differences of the potential components."""
    _require_charge(q)
    comps = on_stencil(pot.components, ev, step, centre=False)
    # rows of the differences: t, x, y, z; columns: b0..b3
    dt, dx, dy, dz = ((comps[:, 0::2] - comps[:, 1::2])
                      * (0.5 / step)).swapaxes(0, 1)

    # E_i = -(1/q) d_i b0 + (1/q) d_t b_i
    ex = (-dx[0] + dt[1]) / q
    ey = (-dy[0] + dt[2]) / q
    ez = (-dz[0] + dt[3]) / q
    # B = curl A with A = -(b1, b2, b3)/q
    bx = -(dy[3] - dz[2]) / q
    by = -(dz[1] - dx[3]) / q
    bz = -(dx[2] - dy[1]) / q
    return vector_rows(ev.t, ex, ey, ez), vector_rows(ev.t, bx, by, bz)


def drive_field_closed_form(law: AngleLaw, helicity: Helicity, q: float,
                            t) -> np.ndarray:
    """Electric field rows that steer the angle history; B vanishes.

    This is the field generated by the base potential.  It is zero
    exactly when theta'' = phi'' = theta'*phi' = 0, i.e. when at most
    one angle rotates and does so uniformly.  The negative helicity
    field is the negative of the positive one.
    """
    _require_charge(q)
    theta_dot, phi_dot = law.rates(t)
    theta_ddot, phi_ddot = law.accelerations(t)
    _, phi = law.angles(t)
    sp, cp = np.sin(phi), np.cos(phi)
    scale = helicity.sign / (2.0 * q)
    ex = scale * (cp * theta_dot * phi_dot + sp * theta_ddot)
    ey = scale * (sp * theta_dot * phi_dot - cp * theta_ddot)
    return vector_rows(t, ex, ey, -scale * phi_ddot) + 0.0  # zeros: +0.0


def gauge_family_field(law: AngleLaw, s: ScalarField, q: float, ev: Event):
    """(E, B) rows of the kappa * s potential.

    E = -(1/q) (v ds/dt + grad s + s dv/dt), B = (1/q) (grad s x v).
    Helicity independent, because kappa is.  B vanishes whenever s
    depends on time only.
    """
    _require_charge(q)
    theta, phi = law.angles(ev.t)
    theta_dot, phi_dot = law.rates(ev.t)
    trig = st, ct, sp, cp = angle_trig(theta, phi)
    v = velocity_from_angles(theta, phi, trig=trig)
    v_dot = (
        ct * cp * theta_dot - st * sp * phi_dot,
        ct * sp * theta_dot + st * cp * phi_dot,
        -st * theta_dot,
    )
    args = (ev.x, ev.y, ev.z, ev.t)
    s_val = s.value(*args)
    s_t = s.partial("t", *args)
    grad = (s.partial("x", *args), s.partial("y", *args), s.partial("z", *args))

    e = (-(v[..., i] * s_t + grad[i] + s_val * v_dot[i]) / q
         for i in range(3))
    b = (
        (grad[1] * v[..., 2] - grad[2] * v[..., 1]) / q,
        (grad[2] * v[..., 0] - grad[0] * v[..., 2]) / q,
        (grad[0] * v[..., 1] - grad[1] * v[..., 0]) / q,
    )
    return vector_rows(ev.t, *e), vector_rows(ev.t, *b)


def energy_control_field(de_dt: float, law: AngleLaw, q: float,
                         t) -> np.ndarray:
    """Field rows that change the energy at rate de_dt (q E.v = de_dt):
    the gauge-family field of the ramp s = -de_dt t, for both helicities;
    a zero keeps the sign of -(...)/q, and B = 0 as s depends on t only.
    Raises ValueError unless the law is drive free (theta'' = phi'' =
    theta'*phi' = 0) at every t; a non-finite rate or acceleration is not."""
    if not law.is_drive_free(t):
        raise ValueError("energy control requires a drive-free law "
                         "(theta'' = phi'' = theta'*phi' = 0)")
    ramp = ScalarField(parse_expr("c*t", {"c": -de_dt}))
    return gauge_family_field(law, ramp, q, Event(0.0, 0.0, 0.0, t))[0]


def k_control_field(dk_dt: float, mode: str, law: AngleLaw,
                    helicity: Helicity, q: float) -> np.ndarray:
    """Constant field (3,) that changes the localization rate k at rate
    dk_dt, for a linear law that admits the mode: the drive field of the
    target law, the pinned angle and the driven one at the constant
    acceleration that k's rate needs.

    mode "azimuthal": theta pinned at theta0 in (0, pi) (omega1 = 0),
    phi rotating with phi' = omega2 = 2k/sin(theta0) > 0; the field is
    axial.  mode "polar": phi pinned at phi0 (omega2 = 0), theta rotating
    with theta' = omega1 = 2k >= 0; the field lies in the x-y plane.
    Along the target law the field is constant.  Raises ValueError when
    the law or the mode does not admit k control, when polar control
    would take k below zero from k = 0, and when dk_dt asks for an
    acceleration that overflows.
    """
    if not law.is_linear:
        raise ValueError("k control requires a linear angle law")
    theta0, omega1 = law.theta.offset, law.theta.rate
    phi0, omega2 = law.phi.offset, law.phi.rate
    if mode == "azimuthal":
        if omega1 != 0:
            raise ValueError(
                "azimuthal control requires omega1 = 0 (theta pinned)")
        if omega2 <= 0:
            raise ValueError("azimuthal control requires omega2 > 0")
        if not 0.0 < theta0 < math.pi:
            raise ValueError("theta0 must lie strictly inside (0, pi)")
        angle = {"a": phi0, "w": omega2, "c": dk_dt / math.sin(theta0)}
    elif mode == "polar":
        if omega2 != 0:
            raise ValueError("polar control requires omega2 = 0 (phi pinned)")
        if omega1 < 0:
            raise ValueError("polar control requires omega1 >= 0")
        if omega1 == 0 and dk_dt < 0:
            raise ValueError("polar control from omega1 = 0 (k = 0) "
                             "requires dk/dt >= 0")
        angle = {"a": theta0, "w": omega1, "c": dk_dt}
    else:
        raise ValueError(f"unknown control mode '{mode}'")
    if not math.isfinite(2.0 * angle["c"]):
        raise ValueError(f"k control at dk/dt = {dk_dt!r} needs an angle "
                         f"acceleration that overflows")
    driven = ExprLaw(parse_expr("a + w*t + c*t*t", angle))
    target = (AngleLaw(law.theta, driven) if mode == "azimuthal"
              else AngleLaw(driven, law.phi))
    # a tiny q or q sin(theta0) overflows a component to +-inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        return drive_field_closed_form(target, helicity, q, 0.0)
