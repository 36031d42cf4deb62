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
blocks of steps, each sampling its own stretch of the field program and
carrying its end state into the next.  Each block's k, v, E0 and p come
from `observables`, on the sines and cosines of its first RK4 stage, and
one run gate per block ends the run at the first grid point whose
compatibility residual is not within the tolerance, or whose state,
field, energy or momentum is not finite.
trajectory_blocks yields the run one block at a time and holds only that
block; integrate_trajectory gathers the blocks into one Trajectory.
integrate_angles runs the angle pass and its gate alone, which is all
the k-control check needs: no position, velocity, momentum or energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, ScalarField, check_variables
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
    "trajectory_blocks",
    "integrate_angles",
]

# steps per block: bounds the temporaries and a stream's rows; a block of
# fig45 is one pair of CSV passes, one in each process (floattext.csv_passes)
_BLOCK = 4096


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
            check_variables(component, {"t"}, ValueError,
                            "field expressions may only use t, found: ")
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

    def distance_from_start(self, origin=None) -> np.ndarray:
        """|r - origin| per sample; origin defaults to the first position."""
        with np.errstate(over="ignore"):
            d = self.r - (self.r[0] if origin is None else origin)
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
    integrate_angles; from trajectory_blocks, only its last block."""

    def __init__(self, time: float, residual: float, tolerance: float,
                 partial: Trajectory | tuple | None, *,
                 nonfinite: bool = False, observables: bool = False):
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


# integrate_trajectory holds about 160 bytes per step (1.6 GB at the cap);
# trajectory_blocks holds one block whatever the grid
MAX_GRID_STEPS = 10 ** 7


def grid_steps(t_end: float, dt: float) -> int:
    """Number of steps n of the uniform grid 0, dt, ..., n*dt on [0, t_end].

    n is t_end/dt rounded to the nearest integer, so the grid ends at
    n*dt, which misses t_end when t_end is not a whole number of steps.
    Raises ValueError when dt or t_end is not finite, the grid has no step,
    dt is too small for t_end or n exceeds MAX_GRID_STEPS, since
    integrate_trajectory allocates its whole grid with the first block.
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
    n = grid_steps(t_end, dt): trajectory_blocks' blocks gathered into one
    Trajectory, allocated with the first block.

    Raises ConstraintViolation (carrying the partial trajectory up to and
    including the offending sample) at the first grid point where the
    x-y compatibility residual is not within constraint_tol, or where the
    state, the applied field, the energy E0 or the momentum p is not
    finite.
    """
    run = _Cascade(initial, program, t_end, dt, constraint_tol, True, gauge)
    return run.collect(lambda *arrays: Trajectory(
        *arrays, initial.helicity, initial.q, dt))


def trajectory_blocks(initial: ParticleState, program: FieldProgram,
                      t_end: float, dt: float, *,
                      gauge: ScalarField | None = None,
                      constraint_tol: float = 1e-6):
    """integrate_trajectory one block of steps at a time: yield the rows of
    each block in order, as a Trajectory, holding only that block.

    The block that holds a sample failing the run gate ends with it, and
    ConstraintViolation is raised after it is yielded, with that last
    block as its partial.  Sampling a field program raises on a later
    block only if it raises on the first: which of its subexpressions are
    arrays does not depend on t, and array evaluation does not raise.
    """
    run = _Cascade(initial, program, t_end, dt, constraint_tol, True, gauge)
    block = None
    for arrays in run.blocks():
        block = Trajectory(*arrays, initial.helicity, initial.q, dt)
        yield block
    run.check(block)


def integrate_angles(initial: ParticleState, program: FieldProgram,
                     t_end: float, dt: float, *,
                     constraint_tol: float = 1e-6):
    """integrate_trajectory's angle pass alone: (t, theta, phi, theta',
    phi', residual), its columns bit for bit, with no position, velocity,
    momentum or energy; raises the same ConstraintViolation."""
    run = _Cascade(initial, program, t_end, dt, constraint_tol, False)
    return run.collect(lambda *arrays: arrays)


class _Cascade:
    """A run over the grid of grid_steps(t_end, dt) = n steps, advanced and
    gated one block of steps at a time.

    blocks() yields the arrays of each block's grid points, the last
    block's with point n: with positions (t, r, v, theta, phi, theta',
    phi', k, E0, p, e, residual), else (t, theta, phi, theta', phi',
    residual).  It stops after the first block holding a point that
    fails the gate, which that point ends; check() then raises.
    """

    def __init__(self, initial: ParticleState, program: FieldProgram,
                 t_end: float, dt: float, constraint_tol: float,
                 positions: bool, gauge: ScalarField | None = None):
        self.n = grid_steps(t_end, dt)
        if gauge is not None and not gauge.is_time_only:
            raise ValueError(
                "integrate_trajectory requires a time-only gauge function")
        self.initial, self.program, self.dt = initial, program, dt
        self.tol, self.positions, self.gauge = constraint_tol, positions, gauge
        self.q_eff = initial.q * initial.helicity.sign
        self.failure = None  # the ConstraintViolation, without its partial

    def blocks(self):
        rows = 7 if self.positions else 4
        initial = self.initial
        start = (initial.theta, initial.phi, initial.theta_dot,
                 initial.phi_dot, *initial.position)[:rows]
        for lo in range(0, self.n, _BLOCK):
            hi = min(lo + _BLOCK, self.n)
            # Non-finite values are caught by the gate, not reported as
            # warnings; the last sample of a partial run may hold inf.
            with np.errstate(invalid="ignore", over="ignore"):
                arrays, state = self._block(lo, hi, start)
            yield arrays
            if self.failure is not None:
                return
            start = state[:, -1].copy()  # so that the block can go

    def _block(self, lo, hi, start):
        """Advance steps lo..hi-1 from the state start at grid point lo;
        return the block's arrays, cut after a point failing the gate, and
        its state rows at points lo..hi."""
        dt, q_eff, m = self.dt, self.q_eff, hi - lo
        points = m + 1 if hi == self.n else m
        # the same doubles as np.arange(n + 1) * dt and the half-step grid
        # np.arange(2 * n + 1) * (0.5 * dt) over the whole run
        ts = (lo + np.arange(points)) * dt
        fields = self.program.sample((2 * lo + np.arange(2 * m + 1))
                                     * (0.5 * dt))
        state = np.empty((len(start), m + 1))
        state[:, 0] = start
        theta_a, phi_a, theta_dot_a, phi_dot_a = state[:4]
        e0, em, e1 = fields[0:2 * m:2], fields[1::2], fields[2::2]
        pdd_mid = phi_ddot_from_field(q_eff, em)
        phi_dot_s = _rk4_stages(phi_dot_a, dt, phi_ddot_from_field(q_eff, e0),
                                pdd_mid, pdd_mid,
                                phi_ddot_from_field(q_eff, e1))
        phi_s = _rk4_stages(phi_a, dt, *phi_dot_s)
        sp = [np.sin(p) for p in phi_s]
        cp = [np.cos(p) for p in phi_s]
        theta_ddot_s = [theta_ddot_from_field(q_eff, e, s, c)
                        for e, s, c in zip((e0, em, em, e1), sp, cp)]
        theta_dot_s = _rk4_stages(theta_dot_a, dt, *theta_ddot_s)
        theta_s = _rk4_stages(theta_a, dt, *theta_dot_s)
        trig = (None, None, sp[0], cp[0])
        if self.positions:  # slopes: the velocity from each stage's sin, cos
            xs, ys, zs = state[4:]
            st = [np.sin(t) for t in theta_s]
            ct = [np.cos(t) for t in theta_s]
            _rk4_stages(xs, dt, *(s * c for s, c in zip(st, cp)))
            _rk4_stages(ys, dt, *(s * c for s, c in zip(st, sp)))
            _rk4_stages(zs, dt, *ct)
            trig = (st[0], ct[0], sp[0], cp[0])
        if points > m:  # the run's last point n, from its own angles
            trig = [a if a is None else np.concatenate((a, b))
                    for a, b in zip(trig, angle_trig(theta_a[m:], phi_a[m:]))]
        return self._gate(ts, state[:, :points], fields[0:2 * points:2],
                          trig), state

    def _gate(self, ts, state, e, trig):
        """The block's arrays from its points' state, field e and trig =
        angle_trig(theta, phi), up to and including the first point that
        fails the gate, whose ConstraintViolation becomes self.failure
        (observables when only its E0 or p fail)."""
        theta, phi, theta_dot, phi_dot = state[:4]
        res = compatibility_residual(self.q_eff, e, trig[2], trig[3],
                                     theta_dot, phi_dot)
        passed = ok = ((res <= self.tol) & np.isfinite(state).all(axis=0)
                       & np.isfinite(e).all(axis=1))
        if self.positions:
            s = 0.0 if self.gauge is None else self.gauge.value(t=ts)
            e0, p = kinetic_momentum_from_state(
                theta, phi, theta_dot, phi_dot, s, self.initial.helicity, trig)
            v = velocity_from_angles(theta, phi, trig)
            k = localization_from_rates(theta, theta_dot, phi_dot, trig)
            passed = ok & np.isfinite(e0) & np.isfinite(p).all(axis=1)
        bad = np.flatnonzero(~passed)
        f = len(ts)
        if len(bad):
            j = int(bad[0])
            f, observables = j + 1, bool(ok[j])
            cells = (*state[:, j], *e[j], res[j])
            self.failure = ConstraintViolation(
                float(ts[j]), float(res[j]), self.tol, None,
                nonfinite=observables or not np.isfinite(cells).all(),
                observables=observables)
        state = state[:, :f]
        if self.positions:
            return (ts[:f], state[4:].T, v[:f], *state[:4], k[:f], e0[:f],
                    p[:f], e[:f], res[:f])
        return (ts[:f], *state, res[:f])

    def check(self, partial) -> None:
        """Raise the run's ConstraintViolation, carrying partial, if a
        point failed the gate."""
        if self.failure is not None:
            self.failure.partial = partial
            raise self.failure

    def collect(self, build):
        """The whole run, built with build(*arrays) from blocks() gathered
        into arrays of n + 1 rows, up to the last point yielded; check()
        it.  Each array is allocated with the first block."""
        whole, f = None, 0
        for arrays in self.blocks():
            if whole is None:
                whole = [np.empty((self.n + 1, *a.shape[1:])) for a in arrays]
            for out, a in zip(whole, arrays):
                out[f:f + len(a)] = a
            f += len(arrays[0])
        run = build(*(out[:f] for out in whole))
        self.check(run)
        return run


def _rk4_stages(seg, h, k1, k2, k3, k4):
    """Advance seg[0] over len(seg) - 1 steps of classic RK4 from the
    slopes of its four stages, into seg[1:]; return the stage values at
    those steps.

    The update seg[i+1] = seg[i] + h/6 (k1 + 2 (k2 + k3) + k4) is a
    sequential running sum, so each step rounds exactly as a scalar loop
    would.
    """
    seg[1:] = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    np.add.accumulate(seg, out=seg)
    base = seg[:-1]
    return base, base + (0.5 * h) * k1, base + (0.5 * h) * k2, base + h * k3
