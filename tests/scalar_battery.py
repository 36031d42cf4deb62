"""The scalar verification battery, frozen as a test oracle.

This is the per-draw battery that `weyldyn.verify.run_verification`
replaced, together with the scalar helpers it called: one event at a
time through `math`/`cmath` and numpy scalars.  The array battery must
reproduce its report to the last bit of every measured value, and each
array function must equal these helpers called once per event.

Only the expression layer (`ScalarField`, `AngleLaw`),
`FourPotentialField` and `velocity_from_angles` are shared with the
package.  The Pauli matrices are written out here, and the kinetic
momentum and k are frozen in the form the old battery imported, so that
the array battery's residuals and observables are held against an
independent route.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from weyldyn.expressions import AngleLaw, ScalarField
from weyldyn.observables import velocity_from_angles
from weyldyn.potentials import FourPotentialField
from weyldyn.spinors import Event, Helicity
from weyldyn.verify import CheckResult, RunReport

GAUGE_FORMS = ("a", "a*t", "a*sin(b*t)", "a*x + b*y + c*z + d*t", "a*z",
               "a*t + b*t^2")
DRIVE_PHASE = "a*sin(b*x + c*y + d*z - t)"

# (identity, sigma_x, sigma_y, sigma_z), and the mirrored set of the
# negative helicity equation, its spatial signs flipped
PAULI = (np.eye(2, dtype=complex),
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))
MIRROR_PAULI = (PAULI[0], -PAULI[1], -PAULI[2], -PAULI[3])


# --- spinors ---------------------------------------------------------------

def shifted(ev: Event, axis: str, delta: float) -> Event:
    if axis == "x":
        return Event(ev.x + delta, ev.y, ev.z, ev.t)
    if axis == "y":
        return Event(ev.x, ev.y + delta, ev.z, ev.t)
    if axis == "z":
        return Event(ev.x, ev.y, ev.z + delta, ev.t)
    return Event(ev.x, ev.y, ev.z, ev.t + delta)


def spinor_components(theta, phi, helicity):
    half = 0.5 * theta
    phase = cmath.exp(1j * phi)
    if helicity is Helicity.POSITIVE:
        return complex(math.cos(half)), phase * math.sin(half)
    return complex(-math.sin(half)), phase * math.cos(half)


def build_spinor(law, h, helicity, ev):
    """(c1, c2) as Python complex numbers."""
    theta, phi = law.angles(ev.t)
    c1, c2 = spinor_components(theta, phi, helicity)
    if h is not None:
        overall = cmath.exp(1j * h.value(ev.x, ev.y, ev.z, ev.t))
        c1 *= overall
        c2 *= overall
    return c1, c2


def _spinor_vector(law, h, helicity, ev):
    return np.array(build_spinor(law, h, helicity, ev), dtype=complex)


def weyl_residual(law, h, potential, helicity, ev, step=1e-5):
    sigma = PAULI if helicity is Helicity.POSITIVE else MIRROR_PAULI
    center = _spinor_vector(law, h, helicity, ev)
    inv = 0.5 / step
    residual = np.zeros(2, dtype=complex)
    for axis, matrix in zip(("t", "x", "y", "z"), sigma):
        plus = _spinor_vector(law, h, helicity, shifted(ev, axis, step))
        minus = _spinor_vector(law, h, helicity, shifted(ev, axis, -step))
        residual += 1j * (matrix @ ((plus - minus) * inv))
    b = components(potential, ev)
    for coeff, matrix in zip(b, sigma):
        residual += coeff * (matrix @ center)
    return float(np.sqrt(abs(residual[0]) ** 2 + abs(residual[1]) ** 2))


# --- observables -------------------------------------------------------------

def kinetic_momentum(theta, phi, theta_dot, phi_dot, s_value, helicity):
    """(E0, p): pi_mu in its original form, p = -(pi_x, pi_y, pi_z)."""
    sign = helicity.sign
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    pi_t = -sign * 0.5 * ct * phi_dot - s_value
    pi_x = -sign * 0.5 * sp * theta_dot + s_value * st * cp
    pi_y = sign * 0.5 * cp * theta_dot + s_value * st * sp
    pi_z = sign * 0.5 * phi_dot + s_value * ct
    return pi_t, np.array([-pi_x, -pi_y, -pi_z])


def kappa_residual(v, spinor, sign):
    """|(sigma . v) psi - sign psi|, real/imaginary pairs written out."""
    vx, vy, vz = v
    (ar, ai), (br, bi) = ((c.real, c.imag) for c in spinor)
    up_re = vz * ar + (vx * br + vy * bi) - sign * ar
    up_im = vz * ai + (vx * bi - vy * br) - sign * ai
    lo_re = (vx * ar - vy * ai) - vz * br - sign * br
    lo_im = (vx * ai + vy * ar) - vz * bi - sign * bi
    return float(np.hypot(np.hypot(up_re, up_im), np.hypot(lo_re, lo_im)))


def localization(theta, theta_dot, phi_dot):
    return 0.5 * math.hypot(math.sin(theta) * phi_dot, theta_dot)


# --- potentials and fields ---------------------------------------------------

def kappa_vector(law, t):
    theta, phi = law.angles(t)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return 1.0, -(st * cp), -(st * sp), -ct


def components(pot, ev):
    b0 = b1 = b2 = b3 = 0.0
    if pot.helicity is not None:
        sign = pot.helicity.sign
        theta, phi = pot.law.angles(ev.t)
        theta_dot, phi_dot = pot.law.rates(ev.t)
        b0 = 0.5 * phi_dot
        b1 = sign * 0.5 * math.sin(phi) * theta_dot
        b2 = -sign * 0.5 * math.cos(phi) * theta_dot
        b3 = -sign * 0.5 * phi_dot
        if pot.h is not None:
            args = (ev.x, ev.y, ev.z, ev.t)
            b0 += pot.h.partial("t", *args)
            b1 += pot.h.partial("x", *args)
            b2 += pot.h.partial("y", *args)
            b3 += pot.h.partial("z", *args)
    if pot.gauge is not None:
        s = pot.gauge.value(ev.x, ev.y, ev.z, ev.t)
        k0, k1, k2, k3 = kappa_vector(pot.law, ev.t)
        b0 += k0 * s
        b1 += k1 * s
        b2 += k2 * s
        b3 += k3 * s
    return b0 + pot.b0_offset, b1, b2, b3


def field_from_potential_numeric(pot, q, ev, step=1e-5):
    """((ex, ey, ez), (bx, by, bz))"""
    inv = 0.5 / step

    def dcomp(axis):
        plus = components(pot, shifted(ev, axis, step))
        minus = components(pot, shifted(ev, axis, -step))
        return tuple((p - m) * inv for p, m in zip(plus, minus))

    dt, dx, dy, dz = dcomp("t"), dcomp("x"), dcomp("y"), dcomp("z")
    ex = (-dx[0] + dt[1]) / q
    ey = (-dy[0] + dt[2]) / q
    ez = (-dz[0] + dt[3]) / q
    bx = -(dy[3] - dz[2]) / q
    by = -(dz[1] - dx[3]) / q
    bz = -(dx[2] - dy[1]) / q
    return (ex, ey, ez), (bx, by, bz)


def drive_field_closed_form(law, helicity, q, t):
    """(ex, ey, ez)"""
    theta_dot, phi_dot = law.rates(t)
    theta_ddot, phi_ddot = law.accelerations(t)
    _, phi = law.angles(t)
    sp, cp = math.sin(phi), math.cos(phi)
    scale = helicity.sign / (2.0 * q)
    ex = scale * (cp * theta_dot * phi_dot + sp * theta_ddot)
    ey = scale * (sp * theta_dot * phi_dot - cp * theta_ddot)
    ez = -scale * phi_ddot
    return ex, ey, ez


def gauge_family_field(law, s, q, ev):
    """((ex, ey, ez), (bx, by, bz))"""
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
    grad = (s.partial("x", *args), s.partial("y", *args),
            s.partial("z", *args))
    e = tuple(-(v[i] * s_t + grad[i] + s_val * v_dot[i]) / q
              for i in range(3))
    b = (
        (grad[1] * v[2] - grad[2] * v[1]) / q,
        (grad[2] * v[0] - grad[0] * v[2]) / q,
        (grad[0] * v[1] - grad[1] * v[0]) / q,
    )
    return e, b


# --- the battery -------------------------------------------------------------

def random_event(rng) -> Event:
    x, y, z, t = rng.uniform(-2.0, 2.0, size=4)
    return Event(float(x), float(y), float(z), float(t))


def random_law(rng) -> AngleLaw:
    return AngleLaw.linear(
        theta0=float(rng.uniform(-3.0, 3.0)),
        omega1=float(rng.uniform(-3.0, 3.0)),
        phi0=float(rng.uniform(-3.0, 3.0)),
        omega2=float(rng.uniform(-3.0, 3.0)),
    )


def random_gauge(rng, index: int) -> ScalarField:
    return random_bound(rng, GAUGE_FORMS[index % len(GAUGE_FORMS)])


def random_bound(rng, text: str) -> ScalarField:
    a, b, c, d = (float(v) for v in rng.uniform(-2.0, 2.0, size=4))
    return ScalarField.from_text(text, {"a": a, "b": b, "c": c, "d": d})


def run_verification(scenario) -> RunReport:
    rng = np.random.default_rng(scenario.seed)
    n = scenario.sample_count
    step = scenario.fd_step
    tol_residual = scenario.tolerance
    tol_field = max(1e-6, 10.0 * step * step)
    tol_identity = 1e-12
    tol_kappa = 1e-14
    checks = []

    base = FourPotentialField(scenario.law, scenario.h, scenario.helicity,
                              b0_offset=scenario.corrupt_b0)
    worst = 0.0
    for _ in range(n):
        ev = random_event(rng)
        worst = max(worst, weyl_residual(scenario.law, scenario.h, base,
                                         scenario.helicity, ev, step))
    checks.append(CheckResult("residual_base", worst, tol_residual))

    worst = 0.0
    for i in range(n):
        s = random_gauge(rng, i)
        pot = FourPotentialField(scenario.law, scenario.h,
                                 scenario.helicity, s)
        ev = random_event(rng)
        worst = max(worst, weyl_residual(scenario.law, scenario.h, pot,
                                         scenario.helicity, ev, step))
    checks.append(CheckResult("residual_degenerate", worst, tol_residual))

    other = (Helicity.NEGATIVE if scenario.helicity is Helicity.POSITIVE
             else Helicity.POSITIVE)
    worst = 0.0
    for _ in range(max(1, n // 4)):
        law = random_law(rng)
        pot = FourPotentialField(law, None, other)
        ev = random_event(rng)
        worst = max(worst, weyl_residual(law, None, pot, other, ev, step))
    checks.append(CheckResult("residual_mirror_family", worst, tol_residual))

    worst_speed = worst_kappa = worst_shell = 0.0
    worst_cross = worst_project = 0.0
    for _ in range(n):
        law = random_law(rng)
        t = float(rng.uniform(-2.0, 2.0))
        s_val = float(rng.uniform(-2.0, 2.0))
        theta, phi = law.angles(t)
        theta_dot, phi_dot = law.rates(t)
        v = velocity_from_angles(theta, phi)
        worst_speed = max(worst_speed, abs(float(np.linalg.norm(v)) - 1.0))
        frozen = AngleLaw.linear(theta, 0.0, phi, 0.0)
        for hel in (Helicity.POSITIVE, Helicity.NEGATIVE):
            psi = build_spinor(frozen, None, hel, Event(0.0, 0.0, 0.0, 0.0))
            worst_kappa = max(worst_kappa,
                              kappa_residual(v, psi, hel.sign))
            energy, p = kinetic_momentum(theta, phi, theta_dot, phi_dot,
                                         s_val, hel)
            k = localization(theta, theta_dot, phi_dot)
            shell = energy ** 2 - float(p @ p)
            worst_shell = max(worst_shell, abs(shell + k * k))
            worst_cross = max(
                worst_cross,
                abs(float(np.linalg.norm(np.cross(p, v))) - k),
            )
            worst_project = max(worst_project,
                                abs(float(p @ v) - energy))
    checks.append(CheckResult("unit_speed", worst_speed, tol_identity))
    checks.append(CheckResult("kappa_is_minus_velocity", worst_kappa,
                              tol_kappa))
    checks.append(CheckResult("mass_shell_identity", worst_shell,
                              tol_identity))
    checks.append(CheckResult("transverse_momentum_equals_k", worst_cross,
                              tol_identity))
    checks.append(CheckResult("momentum_projection_energy", worst_project,
                              tol_identity))

    # the drive checks' laws and events, then the gauge check's draws, then
    # the drive checks' phases
    drive_draws = [(random_law(rng), random_event(rng))
                   for _ in range(max(1, n // 4))]

    worst_gauge = 0.0
    for i in range(max(1, n // 4)):
        law = random_law(rng)
        s = random_gauge(rng, i)
        ev = random_event(rng)
        pot = FourPotentialField(law, None, None, s)
        e_num, b_num = field_from_potential_numeric(pot, scenario.q, ev, step)
        e_closed, b_closed = gauge_family_field(law, s, scenario.q, ev)
        deviation = max(
            float(np.max(np.abs(np.array(e_num) - np.array(e_closed)))),
            float(np.max(np.abs(np.array(b_num) - np.array(b_closed)))),
        )
        worst_gauge = max(worst_gauge, deviation)

    phases = [random_bound(rng, DRIVE_PHASE) for _ in drive_draws]
    worst_drive = worst_drive_b = 0.0
    for (law, ev), phase in zip(drive_draws, phases):
        for hel in (Helicity.POSITIVE, Helicity.NEGATIVE):
            pot = FourPotentialField(law, phase, hel)
            e_num, b_num = field_from_potential_numeric(pot, scenario.q, ev,
                                                        step)
            e_closed = drive_field_closed_form(law, hel, scenario.q, ev.t)
            worst_drive = max(
                worst_drive,
                float(np.max(np.abs(np.array(e_num) - np.array(e_closed)))),
            )
            worst_drive_b = max(worst_drive_b,
                                float(np.max(np.abs(np.array(b_num)))))
    checks.append(CheckResult("drive_field_cross_check", worst_drive,
                              tol_field))
    checks.append(CheckResult("drive_field_b_zero", worst_drive_b, tol_field))
    checks.append(CheckResult("gauge_field_cross_check", worst_gauge,
                              tol_field))

    return RunReport(scenario_name=scenario.name, seed=scenario.seed,
                     checks=checks)
