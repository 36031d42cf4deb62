"""Trajectory integration under applied electric field programs.

The drive field acts on the spinor state only through the two angle
accelerations.  Inverting the closed-form drive field yields

    theta'' = 2 q (Ex sin(phi) - Ey cos(phi))     theta_ddot_from_field
    phi''   = -2 q Ez                              phi_ddot_from_field

while the transverse x-y components must additionally satisfy
theta' phi' = 2 q (Ex cos(phi) + Ey sin(phi)).  That compatibility gap
(compatibility_residual) is reported as constraint_residual; fields
violating it do not drive any member of the family and the integrator
refuses to continue past a configurable tolerance.  Negative helicity
feels the opposite field, so these take q_eff = q * sign(helicity).

Integration is classic fourth-order Runge-Kutta on the state
(position, theta, phi, theta', phi') over a uniform grid.

The equations are triangular: phi'' needs only Ez, theta'' only phi and
E, and the position only theta and phi.  So the integrator runs as a
cascade phi' -> phi -> theta' -> theta -> x, y, z, each RK4 stage a
whole-array expression and each update a sequential running sum
(np.add.accumulate).  It keeps the operation order of the scalar
per-step loop, so results are bit-identical to it; it works in fixed
blocks of steps, carrying each block's end state into the next, so the
temporaries stay small.  Each block's k, v, E0 and p come from
`observables`, on the sines and cosines of its first RK4 stage, and one
run gate per block ends the run at the first grid point whose
compatibility residual is not within the tolerance, or whose state,
field, energy or momentum is not finite.
integrate_angles runs the angle pass and its gate alone, which is all
the k-control check needs: no position, velocity, momentum or energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, ScalarField
from .observables import (angle_trig, kinetic_momentum_from_state,
                          localization_from_rates, velocity_from_angles)
from .potentials import drive_field_closed_form
from .spinors import Helicity

__all__ = [
    "ParticleState",
    "FieldProgram",
    "ZeroField",
    "ConstantField",
    "ExprField",
    "DriveField",
    "Trajectory",
    "ConstraintViolation",
    "theta_ddot_from_field",
    "phi_ddot_from_field",
    "compatibility_residual",
    "grid_steps",
    "MAX_GRID_STEPS",
    "integrate_trajectory",
    "integrate_angles",
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


def theta_ddot_from_field(q_eff: float, e, sin_phi, cos_phi):
    """theta'' = 2 q_eff (Ex sin(phi) - Ey cos(phi)), e rows (..., 3)."""
    return (2.0 * q_eff) * (e[..., 0] * sin_phi - e[..., 1] * cos_phi)


def phi_ddot_from_field(q_eff: float, e):
    """phi'' = -2 q_eff Ez, e rows (..., 3)."""
    return (-2.0 * q_eff) * e[..., 2]


def compatibility_residual(q_eff: float, e, sin_phi, cos_phi, theta_dot,
                           phi_dot):
    """|theta' phi' - 2 q_eff (Ex cos(phi) + Ey sin(phi))|."""
    drive = (2.0 * q_eff) * (e[..., 0] * cos_phi + e[..., 1] * sin_phi)
    return np.abs(theta_dot * phi_dot - drive)


class FieldProgram:
    """Applied electric field history E(t): ``sample(ts)`` gives it on an
    array of times as a (len(ts), 3) array.  Magnetic drives do not couple
    to the angle dynamics, so a program has no B."""

    def sample(self, ts) -> np.ndarray:
        raise NotImplementedError


class ZeroField(FieldProgram):
    def sample(self, ts):
        return np.zeros((len(ts), 3))


class ConstantField(FieldProgram):
    def __init__(self, e: tuple[float, float, float]):
        self.e = (float(e[0]), float(e[1]), float(e[2]))

    def sample(self, ts):
        return np.tile(self.e, (len(ts), 1))


class ExprField(FieldProgram):
    """Components given as expressions in t."""

    def __init__(self, ex: Expr, ey: Expr, ez: Expr):
        for component in (ex, ey, ez):
            extra = component.free_variables() - {"t"}
            if extra:
                names = ", ".join(sorted(extra))
                raise ValueError(f"field expressions may only use t, found: {names}")
        self.exprs = (ex, ey, ez)

    def sample(self, ts):
        out = np.empty((len(ts), 3))
        for i, component in enumerate(self.exprs):
            out[:, i] = component.evaluate({"t": ts})
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

    def sample(self, ts):
        return drive_field_closed_form(self.law, self.helicity, self.q, ts)


@dataclass
class Trajectory:
    """Uniformly sampled integration result with per-sample observables;
    the position r, velocity v, momentum p and field e are rows (n, 3)."""

    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray
    k: np.ndarray
    e0: np.ndarray
    p: np.ndarray
    e: np.ndarray
    residual: np.ndarray
    helicity: Helicity = Helicity.POSITIVE
    q: float = 1.0
    dt: float = 0.0

    def __len__(self):
        return len(self.t)

    @property
    def endpoint(self) -> tuple[float, float, float]:
        return tuple(self.r[-1].tolist())

    def distance_from_start(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            d = self.r - self.r[0]
            dist = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
            big = np.isinf(dist)  # a square overflowed: rescale there
            dx, dy, dz = d[big].T
            dist[big] = np.hypot(np.hypot(dx, dy), dz)
        return dist

    def speed_drift(self) -> float:
        """Largest deviation of |v| from 1 over the run."""
        v = self.v
        speed = np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2)
        return float(np.max(np.abs(speed - 1.0)))


class ConstraintViolation(RuntimeError):
    """The run gate tripped: the applied field is incompatible with the
    angle dynamics, or a field, state, energy or momentum value is not
    finite (nonfinite; observables when only the energy or momentum is).
    partial is the run up to and including that sample: a Trajectory, or
    the (t, theta, phi, theta', phi', residual) history of
    integrate_angles."""

    def __init__(self, time: float, residual: float, tolerance: float,
                 partial: Trajectory | tuple, *, nonfinite: bool = False,
                 observables: bool = False):
        if observables:
            message = f"non-finite energy or momentum at t = {time:.6g}"
        elif nonfinite:
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


MAX_GRID_STEPS = 10 ** 7  # a run holds about 202 bytes per step: 2.0 GB


def grid_steps(t_end: float, dt: float) -> int:
    """Number of steps n of the uniform grid 0, dt, ..., n*dt on [0, t_end].

    n is t_end/dt rounded to the nearest integer, so the grid ends at
    n*dt, which misses t_end when t_end is not a whole number of steps.
    Raises ValueError when dt or t_end is not finite, the grid has no step,
    dt is too small for t_end or n exceeds MAX_GRID_STEPS, since a run
    allocates its whole grid before the first step.
    """
    if not (math.isfinite(dt) and math.isfinite(t_end)):
        raise ValueError("dt and t_end must be finite")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if dt < t_end * 1e-14:
        raise ValueError("time step underflows the grid resolution")
    n = int(round(t_end / dt))
    if n < 1:
        raise ValueError("t_end shorter than one step")
    if n > MAX_GRID_STEPS:
        raise ValueError(f"{n} steps exceed the cap of {MAX_GRID_STEPS}")
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
    state, the applied field, the energy E0 or the momentum p is not
    finite.
    """
    n = grid_steps(t_end, dt)
    if gauge is not None and not gauge.is_time_only:
        raise ValueError(
            "integrate_trajectory requires a time-only gauge function")
    # Non-finite values are caught by the gate, not reported as warnings;
    # the last sample of a partial run may hold inf.
    with np.errstate(invalid="ignore", over="ignore"):
        return _Cascade(initial, program, n, dt, constraint_tol,
                        positions=True, gauge=gauge).finish()


def integrate_angles(initial: ParticleState, program: FieldProgram,
                     t_end: float, dt: float, *,
                     constraint_tol: float = 1e-6):
    """integrate_trajectory's angle pass alone: (t, theta, phi, theta',
    phi', residual), its columns bit for bit, with no position, velocity,
    momentum or energy; raises the same ConstraintViolation."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _Cascade(initial, program, grid_steps(t_end, dt), dt,
                        constraint_tol, positions=False).finish()


class _Cascade:
    """An n-step run, advanced and gated as it is built: the half-step
    field, the state rows (theta, phi, theta', phi'; with positions x, y,
    z, and k, v, E0 and p), the residual, and the first grid point that
    fails the gate, after which nothing is advanced."""

    def __init__(self, initial: ParticleState, program: FieldProgram, n: int,
                 dt: float, constraint_tol: float, positions: bool,
                 gauge: ScalarField | None = None):
        self.initial, self.dt, self.gauge = initial, dt, gauge
        self.ts = np.arange(n + 1) * dt
        self.fields = fields = program.sample(
            np.arange(2 * n + 1) * (0.5 * dt))
        rows = 7 if positions else 4
        self.state = np.empty((rows, n + 1))
        self.state[:, 0] = (initial.theta, initial.phi, initial.theta_dot,
                            initial.phi_dot, *initial.position)[:rows]
        self.residual = np.empty(n + 1)
        self.positions = positions
        if positions:
            self.k, self.e0 = np.empty(n + 1), np.empty(n + 1)
            self.v, self.p = np.empty((n + 1, 3)), np.empty((n + 1, 3))
        self.q_eff = q_eff = initial.q * initial.helicity.sign
        self.tol, self.bad, self.observables = constraint_tol, None, False

        theta_a, phi_a, theta_dot_a, phi_dot_a = self.state[:4]
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            e0 = fields[2 * lo:2 * hi:2]
            em = fields[2 * lo + 1:2 * hi + 1:2]
            e1 = fields[2 * lo + 2:2 * hi + 2:2]
            pdd_mid = phi_ddot_from_field(q_eff, em)
            phi_dot_s = _rk4_stages(phi_dot_a, lo, hi, dt,
                                    phi_ddot_from_field(q_eff, e0), pdd_mid,
                                    pdd_mid, phi_ddot_from_field(q_eff, e1))
            phi_s = _rk4_stages(phi_a, lo, hi, dt, *phi_dot_s)
            sp = [np.sin(p) for p in phi_s]
            cp = [np.cos(p) for p in phi_s]
            theta_ddot_s = [theta_ddot_from_field(q_eff, e, s, c)
                            for e, s, c in zip((e0, em, em, e1), sp, cp)]
            theta_dot_s = _rk4_stages(theta_dot_a, lo, hi, dt, *theta_ddot_s)
            theta_s = _rk4_stages(theta_a, lo, hi, dt, *theta_dot_s)
            trig = (None, None, sp[0], cp[0])
            if positions:  # slopes: the velocity from each stage's sin, cos
                xs, ys, zs = self.state[4:]
                st = [np.sin(t) for t in theta_s]
                ct = [np.cos(t) for t in theta_s]
                _rk4_stages(xs, lo, hi, dt, *(s * c for s, c in zip(st, cp)))
                _rk4_stages(ys, lo, hi, dt, *(s * c for s, c in zip(st, sp)))
                _rk4_stages(zs, lo, hi, dt, *ct)
                trig = (st[0], ct[0], sp[0], cp[0])
            if self._gate(lo, hi, trig):
                return
        self._gate(n, n + 1, angle_trig(theta_a[n:], phi_a[n:]))

    def _gate(self, lo, hi, trig) -> bool:
        """Fill the residual (and k, v, E0, p) at grid points lo..hi-1 from
        their state and trig = angle_trig(theta, phi); the first failing
        the gate is self.bad, and self.observables if only E0 or p fail."""
        e = self.fields[2 * lo:2 * hi:2]
        state = self.state[:, lo:hi]
        theta, phi, theta_dot, phi_dot = state[:4]
        res = compatibility_residual(self.q_eff, e, trig[2], trig[3],
                                     theta_dot, phi_dot)
        self.residual[lo:hi] = res
        passed = ok = ((res <= self.tol) & np.isfinite(state).all(axis=0)
                       & np.isfinite(e).all(axis=1))
        if self.positions:
            s = (0.0 if self.gauge is None
                 else self.gauge.sample_time(self.ts[lo:hi]))
            e0, p = kinetic_momentum_from_state(
                theta, phi, theta_dot, phi_dot, s, self.initial.helicity, trig)
            self.e0[lo:hi], self.p[lo:hi] = e0, p
            self.v[lo:hi] = velocity_from_angles(theta, phi, trig)
            self.k[lo:hi] = localization_from_rates(theta, theta_dot, phi_dot,
                                                    trig)
            passed = ok & np.isfinite(e0) & np.isfinite(p).all(axis=1)
        bad = np.flatnonzero(~passed)
        if len(bad):
            self.bad, self.observables = lo + int(bad[0]), bool(ok[bad[0]])
        return self.bad is not None

    def finish(self):
        """The run up to and including any sample that failed the gate, a
        Trajectory with positions, else (t, theta, phi, theta', phi',
        residual); raise ConstraintViolation carrying it if one did."""
        bad = self.bad
        f = len(self.ts) if bad is None else bad + 1
        ts, state, residual = self.ts[:f], self.state[:, :f], self.residual[:f]
        if self.positions:
            out = Trajectory(  # e a copy, so that the run's field can go
                ts, state[4:].T, self.v[:f], *state[:4], self.k[:f],
                self.e0[:f], self.p[:f], self.fields[0:2 * f:2].copy(),
                residual, self.initial.helicity, self.initial.q, self.dt)
        else:
            out = (ts, *state, residual)
        if bad is None:
            return out
        res = self.residual[bad]
        cells = (*self.state[:, bad], *self.fields[2 * bad], res)
        raise ConstraintViolation(
            float(self.ts[bad]), float(res), self.tol, out,
            nonfinite=self.observables or not np.isfinite(cells).all(),
            observables=self.observables)


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
