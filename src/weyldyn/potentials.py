"""Four-potential families and the electromagnetic fields they generate.

A spinor with angle history (theta, phi) and phase h solves its Weyl
equation for a specific base four-potential.  That potential is not
unique: adding kappa * s for any real function s(x, y, z, t), where
kappa = (1, -v) and v is the unit velocity set by the angles, gives
another exact potential for the same spinor.  Fields are read off a
potential through the usual assignment

    U = b0 / q,   A = -(b1, b2, b3) / q,
    E = -grad U - dA/dt,   B = curl A,

either numerically (central differences on the potential, the slow but
assumption-free route) or through the closed forms below (the fast
route).  Tests hold the two routes against each other.

The closed forms take one time t, except energy_control_field, which
also takes an array of times and returns field components over that
grid in one pass (numpy ufuncs, rounding exactly as the scalar form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expressions import AngleLaw, ScalarField
from .spinors import Event, Helicity

__all__ = [
    "FourPotentialField",
    "EMField",
    "base_potential",
    "degenerate_potential",
    "gauge_potential",
    "kappa_vector",
    "field_from_potential_numeric",
    "drive_field_closed_form",
    "gauge_family_field",
    "energy_control_field",
    "k_control_field",
]


def _require_charge(q: float) -> None:
    if q == 0:
        raise ValueError("charge q must be nonzero")


def _unit_velocity(theta: float, phi: float):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return st * cp, st * sp, ct


@dataclass(frozen=True)
class EMField:
    """Electric and magnetic field values at a point, natural units."""

    e: tuple[float, float, float]
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def e_vec(self) -> np.ndarray:
        return np.array(self.e)

    @property
    def b_vec(self) -> np.ndarray:
        return np.array(self.b)

    @property
    def e_norm(self) -> float:
        return float(np.linalg.norm(self.e))


@dataclass(frozen=True)
class FourPotentialField:
    """Four-potential attached to a spinor family.

    kind is one of "base", "degenerate", "gauge_only".  The base kind
    carries the angle-law and phase-gradient terms; degenerate adds
    kappa * gauge on top; gauge_only is the kappa * gauge part alone.
    b0_offset is a diagnostic hook that shifts the time component by a
    constant, used to demonstrate that the residual check catches a
    corrupted potential.
    """

    law: AngleLaw
    h: ScalarField | None
    helicity: Helicity
    kind: str = "base"
    gauge: ScalarField | None = None
    b0_offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("base", "degenerate", "gauge_only"):
            raise ValueError(f"unknown potential kind '{self.kind}'")
        if self.kind != "base" and self.gauge is None:
            raise ValueError(f"kind '{self.kind}' requires a gauge function")

    @property
    def provenance(self) -> str:
        if self.kind == "base":
            return f"base_{self.helicity.value}"
        return self.kind

    def components(self, ev: Event) -> tuple[float, float, float, float]:
        b0 = b1 = b2 = b3 = 0.0
        if self.kind != "gauge_only":
            sign = self.helicity.sign
            theta, phi = self.law.angles(ev.t)
            theta_dot, phi_dot = self.law.rates(ev.t)
            b0 = 0.5 * phi_dot
            b1 = sign * 0.5 * math.sin(phi) * theta_dot
            b2 = -sign * 0.5 * math.cos(phi) * theta_dot
            b3 = -sign * 0.5 * phi_dot
            if self.h is not None:
                args = (ev.x, ev.y, ev.z, ev.t)
                b0 += self.h.partial("t", *args)
                b1 += self.h.partial("x", *args)
                b2 += self.h.partial("y", *args)
                b3 += self.h.partial("z", *args)
        if self.gauge is not None:
            s = self.gauge.value(ev.x, ev.y, ev.z, ev.t)
            k0, k1, k2, k3 = kappa_vector(self.law, ev.t)
            b0 += k0 * s
            b1 += k1 * s
            b2 += k2 * s
            b3 += k3 * s
        return b0 + self.b0_offset, b1, b2, b3


def base_potential(law: AngleLaw, h: ScalarField | None,
                   helicity: Helicity) -> FourPotentialField:
    """Exact four-potential of the spinor family with the given phase."""
    return FourPotentialField(law=law, h=h, helicity=helicity, kind="base")


def degenerate_potential(base: FourPotentialField,
                         s: ScalarField) -> FourPotentialField:
    """Shift a potential along the degeneracy direction kappa by s."""
    if base.kind != "base":
        raise ValueError("degenerate_potential expects a base potential")
    return replace(base, kind="degenerate", gauge=s)


def gauge_potential(law: AngleLaw, helicity: Helicity,
                    s: ScalarField) -> FourPotentialField:
    """The pure kappa * s potential; generates the gauge-family fields."""
    return FourPotentialField(law=law, h=None, helicity=helicity,
                              kind="gauge_only", gauge=s)


def kappa_vector(law: AngleLaw, t: float) -> tuple[float, float, float, float]:
    """Degeneracy direction (1, -v); identical for both helicities."""
    theta, phi = law.angles(t)
    vx, vy, vz = _unit_velocity(theta, phi)
    return 1.0, -vx, -vy, -vz


def field_from_potential_numeric(pot: FourPotentialField, q: float, ev: Event,
                                 step: float = 1e-5) -> EMField:
    """E and B from central differences of the potential components."""
    _require_charge(q)
    if step <= 0:
        raise ValueError("step must be positive")

    inv = 0.5 / step

    def dcomp(axis: str):
        plus = pot.components(ev.shifted(axis, step))
        minus = pot.components(ev.shifted(axis, -step))
        return tuple((p - m) * inv for p, m in zip(plus, minus))

    dt = dcomp("t")
    dx = dcomp("x")
    dy = dcomp("y")
    dz = dcomp("z")

    # E_i = -(1/q) d_i b0 + (1/q) d_t b_i
    ex = (-dx[0] + dt[1]) / q
    ey = (-dy[0] + dt[2]) / q
    ez = (-dz[0] + dt[3]) / q
    # B = curl A with A = -(b1, b2, b3)/q
    bx = -(dy[3] - dz[2]) / q
    by = -(dz[1] - dx[3]) / q
    bz = -(dx[2] - dy[1]) / q
    return EMField(e=(ex, ey, ez), b=(bx, by, bz))


def drive_field_closed_form(law: AngleLaw, helicity: Helicity, q: float,
                            t: float) -> EMField:
    """Electric field that steers the angle history; B vanishes.

    This is the field generated by the base potential.  It is zero
    exactly when theta'' = phi'' = theta'*phi' = 0, i.e. when at most
    one angle rotates and does so uniformly.  The negative helicity
    field is the negative of the positive one.
    """
    _require_charge(q)
    theta_dot, phi_dot = law.rates(t)
    theta_ddot, phi_ddot = law.accelerations(t)
    _, phi = law.angles(t)
    sp, cp = math.sin(phi), math.cos(phi)
    scale = helicity.sign / (2.0 * q)
    ex = scale * (cp * theta_dot * phi_dot + sp * theta_ddot)
    ey = scale * (sp * theta_dot * phi_dot - cp * theta_ddot)
    ez = -scale * phi_ddot
    return EMField(e=(ex, ey, ez))


def gauge_family_field(law: AngleLaw, s: ScalarField, q: float,
                       ev: Event) -> EMField:
    """Fields of the kappa * s potential.

    E = -(1/q) (v ds/dt + grad s + s dv/dt), B = (1/q) (grad s x v).
    Helicity independent, because kappa is.  B vanishes whenever s
    depends on time only.
    """
    _require_charge(q)
    theta, phi = law.angles(ev.t)
    theta_dot, phi_dot = law.rates(ev.t)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    v = (st * cp, st * sp, ct)
    v_dot = (
        ct * cp * theta_dot - st * sp * phi_dot,
        ct * sp * theta_dot + st * cp * phi_dot,
        -st * theta_dot,
    )
    args = (ev.x, ev.y, ev.z, ev.t)
    s_val = s.value(*args)
    s_t = s.partial("t", *args)
    grad = (s.partial("x", *args), s.partial("y", *args), s.partial("z", *args))

    e = tuple(-(v[i] * s_t + grad[i] + s_val * v_dot[i]) / q for i in range(3))
    b = (
        (grad[1] * v[2] - grad[2] * v[1]) / q,
        (grad[2] * v[0] - grad[0] * v[2]) / q,
        (grad[0] * v[1] - grad[1] * v[0]) / q,
    )
    return EMField(e=e, b=b)


def energy_control_field(de_dt: float, law: AngleLaw, q: float,
                         t) -> EMField:
    """Field along the velocity that changes the energy at rate de_dt.

    Valid when the motion is drive free (theta'' = phi'' = theta'*phi'
    = 0), where the gauge-family field with time-only s reduces to
    (1/q) dE/dt v.  Same for both helicities.  t may be one time or an
    array of times; for an array each component is an array over t, or
    a scalar where the law keeps that component constant.  Raises
    ValueError unless the law is drive free at every t (a non-finite rate
    or acceleration is not).
    """
    _require_charge(q)
    if not np.all(law.is_drive_free(t, tol=1e-12)):
        raise ValueError(
            "energy control requires a drive-free law "
            "(theta'' = phi'' = theta'*phi' = 0)"
        )
    theta, phi = law.angles(t)
    st = np.sin(theta)
    scale = de_dt / q
    return EMField(e=(scale * (st * np.cos(phi)), scale * (st * np.sin(phi)),
                      scale * np.cos(theta)))


def k_control_field(dk_dt: float, mode: str, helicity: Helicity, q: float, *,
                    theta0: float | None = None,
                    phi0: float | None = None) -> EMField:
    """Drive field that changes the localization rate k at rate dk_dt.

    mode "azimuthal": theta pinned at theta0 in (0, pi), phi rotates
    with phi' = 2k/sin(theta0) > 0; the field is axial,
    E = -(1/(q sin(theta0))) dk_dt z_hat.

    mode "polar": phi pinned at phi0, theta rotates with theta' = 2k;
    the field lies in the x-y plane, E = (1/q) dk_dt (sin(phi0),
    -cos(phi0), 0).

    Negative helicity flips the sign, as for every drive field.
    """
    _require_charge(q)
    sign = helicity.sign
    if mode == "azimuthal":
        if theta0 is None:
            raise ValueError("azimuthal mode requires theta0")
        if not 0.0 < theta0 < math.pi:
            raise ValueError("theta0 must lie strictly inside (0, pi)")
        ez = -dk_dt / (q * math.sin(theta0))
        return EMField(e=(0.0, 0.0, sign * ez))
    if mode == "polar":
        if phi0 is None:
            raise ValueError("polar mode requires phi0")
        scale = sign * dk_dt / q
        return EMField(e=(scale * math.sin(phi0), -scale * math.cos(phi0), 0.0))
    raise ValueError(f"unknown control mode '{mode}'")
