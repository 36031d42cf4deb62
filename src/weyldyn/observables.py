"""Kinematic observables of the spinor families.

All quantities are local expectation values written in terms of the
angle history (theta, phi), its rates, and the gauge function s.  The
phase h never enters: it shifts the canonical momentum and the
potential by the same gradient, which cancels in the kinetic momentum.

Natural units (hbar = c = 1) throughout; `si_rates` is the one explicit
bridge to SI figures.

`velocity_from_angles` and `kinetic_momentum_from_state` take scalars or
numpy arrays alike; the law-based observables take one time t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import AngleLaw, ScalarField
from .spinors import Helicity

__all__ = [
    "SPEED_OF_LIGHT",
    "KineticMomentum",
    "LocalizationSample",
    "UncertaintySample",
    "SIRates",
    "velocity",
    "velocity_from_angles",
    "kinetic_momentum",
    "kinetic_momentum_from_state",
    "localization_k",
    "localization_from_rates",
    "energy_rate",
    "mass_shell_defect",
    "momentum_noncollinearity",
    "uncertainty_relation",
    "si_rates",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def velocity_from_angles(theta, phi):
    """Unit velocity (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta))."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def velocity(law: AngleLaw, helicity: Helicity, t: float) -> np.ndarray:
    """Local velocity of the spinor; the same for both helicities."""
    theta, phi = law.angles(t)
    return velocity_from_angles(theta, phi)


@dataclass(frozen=True)
class KineticMomentum:
    """Components pi_mu = psi^dag (-i d_mu - b_mu) psi of the family."""

    pi_t: float
    pi_x: float
    pi_y: float
    pi_z: float

    @property
    def energy(self) -> float:
        return self.pi_t

    @property
    def momentum(self) -> np.ndarray:
        return np.array([-self.pi_x, -self.pi_y, -self.pi_z])


def kinetic_momentum_from_state(theta, phi, theta_dot, phi_dot, s_value,
                                helicity: Helicity) -> KineticMomentum:
    """Kinetic momentum from angles, rates and the gauge value.

    Each argument but the helicity may be a scalar or an array (numpy
    ufuncs); the components broadcast over the arrays given.
    """
    sign = helicity.sign
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    pi_t = -sign * 0.5 * ct * phi_dot - s_value
    pi_x = -sign * 0.5 * sp * theta_dot + s_value * st * cp
    pi_y = sign * 0.5 * cp * theta_dot + s_value * st * sp
    pi_z = sign * 0.5 * phi_dot + s_value * ct
    return KineticMomentum(pi_t, pi_x, pi_y, pi_z)


def kinetic_momentum(law: AngleLaw, s: ScalarField | None, helicity: Helicity,
                     t: float) -> KineticMomentum:
    """Kinetic four-momentum at time t.

    The gauge function must depend on time only here; a spatially
    varying s would make the momentum position dependent, which this
    observable does not model.
    """
    s_value = 0.0
    if s is not None:
        if not s.is_time_only:
            raise ValueError("kinetic_momentum requires a time-only gauge function")
        s_value = s.value(t=t)
    theta, phi = law.angles(t)
    theta_dot, phi_dot = law.rates(t)
    return kinetic_momentum_from_state(theta, phi, theta_dot, phi_dot,
                                       s_value, helicity)


@dataclass(frozen=True)
class LocalizationSample:
    """Transverse momentum scale k and the associated mass-like invariant.

    The shell defect is negative, so the invariant mass is imaginary;
    m_star_magnitude is its modulus (equal to k) and the imaginary
    character is carried here in words, not in a complex type.
    """

    k: float

    @property
    def m_star_magnitude(self) -> float:
        return self.k


def localization_from_rates(theta: float, theta_dot: float,
                            phi_dot: float) -> float:
    return 0.5 * math.hypot(math.sin(theta) * phi_dot, theta_dot)


def localization_k(law: AngleLaw, t: float) -> LocalizationSample:
    """k = (1/2) sqrt(sin(theta)^2 phi'^2 + theta'^2), helicity independent."""
    theta, _ = law.angles(t)
    theta_dot, phi_dot = law.rates(t)
    return LocalizationSample(localization_from_rates(theta, theta_dot, phi_dot))


def energy_rate(law: AngleLaw, s: ScalarField | None, helicity: Helicity,
                t: float) -> float:
    """Exact time derivative of the energy pi_t."""
    s_rate = 0.0
    if s is not None:
        if not s.is_time_only:
            raise ValueError("energy_rate requires a time-only gauge function")
        s_rate = s.partial("t", t=t)
    theta, _ = law.angles(t)
    theta_dot, phi_dot = law.rates(t)
    _, phi_ddot = law.accelerations(t)
    sign = helicity.sign
    return sign * 0.5 * (math.sin(theta) * theta_dot * phi_dot
                         - math.cos(theta) * phi_ddot) - s_rate


def mass_shell_defect(law: AngleLaw, s: ScalarField | None, helicity: Helicity,
                      t: float) -> float:
    """E0^2 - |p|^2; equals -k^2 independent of s and helicity."""
    km = kinetic_momentum(law, s, helicity, t)
    p = km.momentum
    return km.energy ** 2 - float(p @ p)


def momentum_noncollinearity(law: AngleLaw, s: ScalarField | None,
                             helicity: Helicity, t: float) -> float:
    """|p x v|, the momentum component transverse to the motion.

    Coincides with the localization rate k: the momentum is never
    collinear with the velocity while the angles are in motion.
    """
    km = kinetic_momentum(law, s, helicity, t)
    v = velocity(law, helicity, t)
    return float(np.linalg.norm(np.cross(km.momentum, v)))


@dataclass(frozen=True)
class UncertaintySample:
    p0d: float
    d_delta_p: float


def uncertainty_relation(p0d: float) -> UncertaintySample:
    """Positive root x of 2 p0d x + x^2 = 1 for the scaled spread x = d dp.

    p0d is the (dimensionless) product of the mean momentum and the
    orbit diameter; it must be nonnegative.  The root is evaluated in
    the cancellation-free form 1 / (p0d + sqrt(1 + p0d^2)), so the
    defining relation holds to machine precision even for large p0d.
    """
    if p0d < 0:
        raise ValueError("p0d must be nonnegative")
    x = 1.0 / (p0d + math.sqrt(1.0 + p0d * p0d))
    return UncertaintySample(p0d=p0d, d_delta_p=x)


@dataclass(frozen=True)
class SIRates:
    ev_per_meter: float
    ev_per_second: float


def si_rates(e_field_v_per_m: float, q_electron_charges: float) -> SIRates:
    """Energy gain rates of a charge q in a static field |E|.

    A charge of q elementary charges in a field of |E| volts per meter
    gains q |E| electron volts per meter of path, and the same times c
    per second when moving at light speed.
    """
    if e_field_v_per_m < 0:
        raise ValueError("field magnitude must be nonnegative")
    per_meter = q_electron_charges * e_field_v_per_m
    return SIRates(ev_per_meter=per_meter,
                   ev_per_second=per_meter * SPEED_OF_LIGHT)
