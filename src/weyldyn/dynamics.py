"""Trajectory integration under applied electric field programs.

The drive field acts on the spinor state only through the two angle
accelerations.  Inverting the closed-form drive field yields

    theta'' = 2 q (Ex sin(phi) - Ey cos(phi))
    phi''   = -2 q Ez

while the transverse x-y components must additionally satisfy
theta' phi' = 2 q (Ex cos(phi) + Ey sin(phi)).  That compatibility gap
is reported as constraint_residual; fields violating it do not drive
any member of the family and the integrator refuses to continue past a
configurable tolerance.  Negative helicity feels the opposite field, so
E is negated before the inversion.

Integration is classic fourth-order Runge-Kutta on the state
(position, theta, phi, theta', phi') over a uniform grid.  k is always
evaluated from the integrated rates, never integrated itself.

The equations are triangular: phi'' needs only Ez, theta'' only phi and
E, and the position only theta and phi.  So the integrator runs as a
cascade phi' -> phi -> theta' -> theta -> x, y, z, each RK4 stage a
whole-array expression and each update a sequential running sum
(np.add.accumulate).  It keeps the operation order of the scalar
per-step loop, so results are bit-identical to it; it works in fixed
blocks of steps, carrying each block's end state into the next, so the
temporaries stay small.  After each block a run gate looks for the first
grid point whose compatibility residual is not within the tolerance, or
whose state or field is not finite, and ends the run there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .expressions import Expr, ScalarField, eval_expr
from .spinors import Helicity

__all__ = [
    "ParticleState",
    "AngleAccel",
    "FieldProgram",
    "ZeroField",
    "ConstantField",
    "ExprField",
    "DriveField",
    "Trajectory",
    "ConstraintViolation",
    "accel_from_field",
    "grid_steps",
    "integrate_trajectory",
]

_BLOCK = 2048  # integration steps per cascade pass; bounds the temporaries


@dataclass(frozen=True)
class ParticleState:
    position: tuple[float, float, float]
    theta: float
    phi: float
    theta_dot: float
    phi_dot: float
    helicity: Helicity
    q: float

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("charge q must be nonzero")


class AngleAccel(NamedTuple):
    theta_ddot: float
    phi_ddot: float
    constraint_residual: float


def accel_from_field(state: ParticleState,
                     e_field: tuple[float, float, float]) -> AngleAccel:
    """Angle accelerations produced by an applied electric field."""
    ex, ey, ez = e_field
    q_eff = state.q * state.helicity.sign
    sp, cp = math.sin(state.phi), math.cos(state.phi)
    theta_ddot = 2.0 * q_eff * (ex * sp - ey * cp)
    phi_ddot = -2.0 * q_eff * ez
    residual = abs(state.theta_dot * state.phi_dot
                   - 2.0 * q_eff * (ex * cp + ey * sp))
    return AngleAccel(theta_ddot, phi_ddot, residual)


class FieldProgram:
    """Applied electric field history E(t).  Magnetic drives do not
    couple to the angle dynamics, so any nonzero B is rejected up
    front."""

    def field_at(self, t: float) -> tuple[float, float, float]:
        raise NotImplementedError

    def sample(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty((len(ts), 3))
        for i, t in enumerate(ts):
            out[i] = self.field_at(float(t))
        return out

    @staticmethod
    def _check_b(b) -> None:
        if b is not None and any(component != 0 for component in b):
            raise ValueError("magnetic drive components must vanish")


class ZeroField(FieldProgram):
    def field_at(self, t):
        return (0.0, 0.0, 0.0)

    def sample(self, ts):
        return np.zeros((len(ts), 3))


class ConstantField(FieldProgram):
    def __init__(self, e: tuple[float, float, float], b=None):
        self._check_b(b)
        self.e = (float(e[0]), float(e[1]), float(e[2]))

    def field_at(self, t):
        return self.e

    def sample(self, ts):
        return np.tile(self.e, (len(ts), 1))


class ExprField(FieldProgram):
    """Components given as expressions in t."""

    def __init__(self, ex: Expr, ey: Expr, ez: Expr, b=None):
        self._check_b(b)
        for component in (ex, ey, ez):
            extra = component.free_variables() - {"t"}
            if extra:
                names = ", ".join(sorted(extra))
                raise ValueError(f"field expressions may only use t, found: {names}")
        self.exprs = (ex, ey, ez)

    def field_at(self, t):
        return tuple(eval_expr(c, t=t) for c in self.exprs)

    def sample(self, ts):
        out = np.empty((len(ts), 3))
        for i, component in enumerate(self.exprs):
            out[:, i] = np.zeros_like(ts) + component.evaluate({"t": ts})
        return out


class DriveField(FieldProgram):
    """Closed-form drive field of a nominal angle law.

    Applying it reproduces exactly that law in the integrator: the
    x-y components satisfy the compatibility constraint along the
    nominal motion by construction.
    """

    def __init__(self, law, helicity: Helicity, q: float):
        if q == 0:
            raise ValueError("charge q must be nonzero")
        self.law = law
        self.helicity = helicity
        self.q = q

    def field_at(self, t):
        from .potentials import drive_field_closed_form
        return drive_field_closed_form(self.law, self.helicity, self.q, t).e

    def sample(self, ts):
        law = self.law
        phi = law.phi.value(ts)
        theta_dot = law.theta.derivative(ts)
        phi_dot = law.phi.derivative(ts)
        theta_ddot = law.theta.second_derivative(ts)
        phi_ddot = law.phi.second_derivative(ts)
        sp, cp = np.sin(phi), np.cos(phi)
        scale = self.helicity.sign / (2.0 * self.q)
        out = np.empty((len(ts), 3))
        out[:, 0] = scale * (cp * theta_dot * phi_dot + sp * theta_ddot)
        out[:, 1] = scale * (sp * theta_dot * phi_dot - cp * theta_ddot)
        out[:, 2] = np.zeros_like(ts) - scale * phi_ddot
        return out


@dataclass
class Trajectory:
    """Uniformly sampled integration result with per-sample observables."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    vz: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray
    k: np.ndarray
    e0: np.ndarray
    px: np.ndarray
    py: np.ndarray
    pz: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    ez: np.ndarray
    residual: np.ndarray
    helicity: Helicity = Helicity.POSITIVE
    q: float = 1.0
    dt: float = 0.0
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    @property
    def endpoint(self) -> tuple[float, float, float]:
        return float(self.x[-1]), float(self.y[-1]), float(self.z[-1])

    def distance_from_start(self) -> np.ndarray:
        return np.sqrt((self.x - self.x[0]) ** 2 + (self.y - self.y[0]) ** 2
                       + (self.z - self.z[0]) ** 2)

    def speed_drift(self) -> float:
        """Largest deviation of |v| from 1 over the run."""
        speed = np.sqrt(self.vx ** 2 + self.vy ** 2 + self.vz ** 2)
        return float(np.max(np.abs(speed - 1.0)))


class ConstraintViolation(RuntimeError):
    """The run gate tripped: the applied field is incompatible with the
    angle dynamics, or a field or state value is not finite."""

    def __init__(self, time: float, residual: float, tolerance: float,
                 partial: Trajectory, *, nonfinite: bool = False):
        if nonfinite:
            message = (f"non-finite field or state at t = {time:.6g} "
                       f"(compatibility residual {residual:.6g})")
        else:
            message = (f"field/motion compatibility residual {residual:.6g} "
                       f"exceeds tolerance {tolerance:.6g} at t = {time:.6g}")
        super().__init__(message)
        self.time = time
        self.residual = residual
        self.tolerance = tolerance
        self.partial = partial
        self.nonfinite = nonfinite


def _gauge_samples(gauge: ScalarField | None, ts: np.ndarray) -> np.ndarray:
    if gauge is None:
        return np.zeros_like(ts)
    if not gauge.is_time_only:
        raise ValueError("trajectory gauge function must depend on t only")
    return gauge.sample_time(ts)


def grid_steps(t_end: float, dt: float) -> int:
    """Number of steps n of the uniform grid 0, dt, ..., n*dt on [0, t_end].

    n is t_end/dt rounded to the nearest integer, so the grid ends at
    n*dt, which misses t_end when t_end is not a whole number of steps.
    Raises ValueError when the grid has no step or dt is too small for t_end.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    n = int(round(t_end / dt))
    if n < 1:
        raise ValueError("t_end shorter than one step")
    if dt < t_end * 1e-14:
        raise ValueError("time step underflows the grid resolution")
    return n


def integrate_trajectory(initial: ParticleState, program: FieldProgram,
                         t_end: float, dt: float, *,
                         gauge: ScalarField | None = None,
                         constraint_tol: float = 1e-6) -> Trajectory:
    """Integrate the driven state over the grid 0, dt, ..., n*dt, with
    n = grid_steps(t_end, dt).

    Raises ConstraintViolation (carrying the partial trajectory up to and
    including the offending sample) at the first grid point where the
    x-y compatibility residual is not within constraint_tol, or where the
    state or the applied field is not finite.
    """
    n = grid_steps(t_end, dt)
    ts = np.arange(n + 1) * dt
    half_ts = np.arange(2 * n + 1) * (0.5 * dt)
    fields = program.sample(half_ts)

    q_eff = initial.q * initial.helicity.sign
    c_theta = 2.0 * q_eff
    c_phi = -2.0 * q_eff

    # rows: theta, phi, theta', phi', x, y, z
    state = np.empty((7, n + 1))
    theta_a, phi_a, theta_dot_a, phi_dot_a, xs, ys, zs = state
    state[:, 0] = (initial.theta, initial.phi, initial.theta_dot,
                   initial.phi_dot, *initial.position)
    residual = np.empty(n + 1)

    def first_bad(lo, hi, sp, cp):
        """Fill the residual over grid points lo..hi-1 and return the
        first of them that fails the run gate, or None."""
        e = fields[2 * lo:2 * hi:2]
        res = np.abs(theta_dot_a[lo:hi] * phi_dot_a[lo:hi]
                     - c_theta * (e[:, 0] * cp + e[:, 1] * sp))
        residual[lo:hi] = res
        ok = ((res <= constraint_tol) & np.isfinite(state[:, lo:hi]).all(axis=0)
              & np.isfinite(e).all(axis=1))
        bad = np.flatnonzero(~ok)
        return lo + int(bad[0]) if len(bad) else None

    # Non-finite values are caught by the gate, not reported as warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        bad = None
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            e0 = fields[2 * lo:2 * hi:2]
            em = fields[2 * lo + 1:2 * hi + 1:2]
            e1 = fields[2 * lo + 2:2 * hi + 2:2]
            stage_fields = (e0, em, em, e1)

            pdd_mid = c_phi * em[:, 2]
            phi_dot_s = _rk4_stages(phi_dot_a, lo, hi, dt, c_phi * e0[:, 2],
                                    pdd_mid, pdd_mid, c_phi * e1[:, 2])
            phi_s = _rk4_stages(phi_a, lo, hi, dt, *phi_dot_s)
            sp = [np.sin(p) for p in phi_s]
            cp = [np.cos(p) for p in phi_s]
            theta_ddot_s = [c_theta * (e[:, 0] * s - e[:, 1] * c)
                            for e, s, c in zip(stage_fields, sp, cp)]
            theta_dot_s = _rk4_stages(theta_dot_a, lo, hi, dt, *theta_ddot_s)
            theta_s = _rk4_stages(theta_a, lo, hi, dt, *theta_dot_s)
            st = [np.sin(t) for t in theta_s]
            _rk4_stages(xs, lo, hi, dt, *(s * c for s, c in zip(st, cp)))
            _rk4_stages(ys, lo, hi, dt, *(s * c for s, c in zip(st, sp)))
            _rk4_stages(zs, lo, hi, dt, *(np.cos(t) for t in theta_s))

            bad = first_bad(lo, hi, sp[0], cp[0])
            if bad is not None:
                break
        else:
            bad = first_bad(n, n + 1, np.sin(phi_a[n:]), np.cos(phi_a[n:]))

    filled = n + 1 if bad is None else bad + 1
    with np.errstate(invalid="ignore", over="ignore"):
        # the last sample of a partial run may hold inf
        traj = _assemble(ts[:filled], state[:, :filled],
                         fields[0:2 * filled:2], residual[:filled], gauge,
                         initial, dt)
    if bad is not None:
        nonfinite = not (np.isfinite(state[:, bad]).all()
                         and np.isfinite(fields[2 * bad]).all()
                         and np.isfinite(residual[bad]))
        raise ConstraintViolation(float(ts[bad]), float(residual[bad]),
                                  constraint_tol, traj, nonfinite=nonfinite)
    return traj


def _rk4_stages(col, lo, hi, h, k1, k2, k3, k4):
    """Advance col over steps lo..hi-1 of classic RK4 from the slopes of
    its four stages; return the stage values of col at those steps.

    The update col[i+1] = col[i] + h/6 (k1 + 2 (k2 + k3) + k4) is a
    sequential running sum, so each step rounds exactly as a scalar loop
    would.
    """
    seg = col[lo:hi + 1]
    seg[1:] = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    np.add.accumulate(seg, out=seg)
    base = seg[:-1]
    return base, base + (0.5 * h) * k1, base + (0.5 * h) * k2, base + h * k3


def _assemble(ts, state, fields, residual, gauge, initial: ParticleState,
              dt: float) -> Trajectory:
    theta_a, phi_a, theta_dot_a, phi_dot_a, xs, ys, zs = state
    sign = initial.helicity.sign
    st, ct = np.sin(theta_a), np.cos(theta_a)
    sp, cp = np.sin(phi_a), np.cos(phi_a)
    s_vals = _gauge_samples(gauge, ts)

    k = 0.5 * np.hypot(st * phi_dot_a, theta_dot_a)
    e0 = -sign * 0.5 * ct * phi_dot_a - s_vals
    px = sign * 0.5 * sp * theta_dot_a - s_vals * st * cp
    py = -sign * 0.5 * cp * theta_dot_a - s_vals * st * sp
    pz = -sign * 0.5 * phi_dot_a - s_vals * ct

    return Trajectory(
        t=ts, x=xs, y=ys, z=zs,
        vx=st * cp, vy=st * sp, vz=ct,
        theta=theta_a, phi=phi_a,
        theta_dot=theta_dot_a, phi_dot=phi_dot_a,
        k=k, e0=e0, px=px, py=py, pz=pz,
        ex=fields[:, 0].copy(), ey=fields[:, 1].copy(), ez=fields[:, 2].copy(),
        residual=residual,
        helicity=initial.helicity, q=initial.q, dt=dt,
    )
