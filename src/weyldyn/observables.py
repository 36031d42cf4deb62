"""Kinematic observables of the spinor families.

All quantities are local expectation values written in terms of the
angle history (theta, phi), its rates, and the gauge function s.  The
phase h never enters: it shifts the canonical momentum and the
potential by the same gradient, which cancels in the kinetic momentum.

Natural units (hbar = c = 1) throughout; `si_rates` is the one explicit
bridge to SI figures.

Each formula is one `*_from_*` function on scalars or numpy arrays, which
the trajectory, the control fields and the verify battery call.  Vectors
are rows (..., 3) (`vector_rows`); np.vecdot rounds as `p @ p`,
`elementwise_pow` as `**` on a numpy scalar.  Only k has two roundings
(see `localization_from_rates`).  The three that take the angles also
take their sines and cosines, `trig = angle_trig(theta, phi)`, so a
caller evaluating several of them on the same arrays computes those once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import elementwise_pow
from .spinors import Helicity

__all__ = [
    "SPEED_OF_LIGHT",
    "KineticMomentum",
    "SIRates",
    "angle_trig",
    "vector_rows",
    "velocity_from_angles",
    "kinetic_momentum_from_state",
    "localization_from_rates",
    "mass_shell_defect_from_momentum",
    "noncollinearity_from_vectors",
    "uncertainty_relation",
    "si_rates",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def angle_trig(theta, phi):
    """(sin(theta), cos(theta), sin(phi), cos(phi)), the `trig` argument."""
    return np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)


def vector_rows(*components):
    """Rows (..., 3) of the last three components, broadcast over all of
    them (a leading array of times sets the shape); signed zeros are kept."""
    return np.stack(np.broadcast_arrays(*components)[-3:], axis=-1)


def velocity_from_angles(theta, phi, trig=None):
    """Unit velocity (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta))."""
    st, ct, sp, cp = angle_trig(theta, phi) if trig is None else trig
    return vector_rows(st * cp, st * sp, ct)


@dataclass(frozen=True)
class KineticMomentum:
    """pi_mu = psi^dag (-i d_mu - b_mu) psi of the family, as the energy
    E0 = pi_t and the momentum p = -(pi_x, pi_y, pi_z), as rows (..., 3)."""

    energy: float | np.ndarray
    momentum: np.ndarray


def kinetic_momentum_from_state(theta, phi, theta_dot, phi_dot, s_value,
                                helicity: Helicity,
                                trig=None) -> KineticMomentum:
    """Kinetic momentum from angles, rates and the gauge value.

    Each argument but the helicity may be a scalar or an array (numpy
    ufuncs); the components broadcast over the arrays given.  p is
    computed as such, not as -pi, so that it keeps its signed zeros.
    """
    sign = helicity.sign
    st, ct, sp, cp = angle_trig(theta, phi) if trig is None else trig
    pi_t = -sign * 0.5 * ct * phi_dot - s_value
    p_x = sign * 0.5 * sp * theta_dot - s_value * st * cp
    p_y = -sign * 0.5 * cp * theta_dot - s_value * st * sp
    p_z = -sign * 0.5 * phi_dot - s_value * ct
    return KineticMomentum(pi_t, vector_rows(p_x, p_y, p_z))


def localization_from_rates(theta, theta_dot, phi_dot, trig=None):
    """k = (1/2) sqrt(sin(theta)^2 phi'^2 + theta'^2), helicity independent.

    Arrays (the trajectory's k column) go through np.hypot, scalars (the
    extremum refinement, the verify battery draw by draw) through
    math.hypot, whose rounding the battery's reports keep (see verify);
    only the array path reads `trig`.
    """
    if (isinstance(theta, np.ndarray) or isinstance(theta_dot, np.ndarray)
            or isinstance(phi_dot, np.ndarray)):
        st = np.sin(theta) if trig is None else trig[0]
        return 0.5 * np.hypot(st * phi_dot, theta_dot)
    return 0.5 * math.hypot(math.sin(theta) * phi_dot, theta_dot)


def mass_shell_defect_from_momentum(energy, p):
    """E0^2 - |p|^2 for momentum rows p (..., 3)."""
    return elementwise_pow(energy, 2.0) - np.vecdot(p, p)


def noncollinearity_from_vectors(p, v):
    """|p x v| for momentum and velocity rows (..., 3)."""
    p_cross_v = np.cross(p, v)
    return np.sqrt(np.vecdot(p_cross_v, p_cross_v))


def uncertainty_relation(p0d: float) -> float:
    """Positive root x of 2 p0d x + x^2 = 1 for the scaled spread x = d dp.

    p0d is the (dimensionless) product of the mean momentum and the
    orbit diameter; it must be nonnegative.  The root is evaluated in
    the cancellation-free form 1 / (p0d + sqrt(1 + p0d^2)), so the
    defining relation holds to machine precision even for large p0d.
    """
    if p0d < 0:
        raise ValueError("p0d must be nonnegative")
    return 1.0 / (p0d + math.sqrt(1.0 + p0d * p0d))


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
