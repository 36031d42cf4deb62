"""Scenario files: flat key = value descriptions of a run.

A scenario fixes the particle (helicity, charge), the angle law, the
phase and gauge functions, the applied field program, the integration
grid, and the verification knobs.  Values on the right-hand side are
expressions over "pi" and previously defined scalars (q, theta0,
omega1, phi0, omega2, h_energy), so files can say things like
"omega1 = sqrt(3)" or "ez = 1/(2*q)".  Unknown keys are rejected so
typos fail loudly, and so is a grid (t_end, dt) without a single step.
The run's start state (the law at t = 0), field program and any constant
h or s are evaluated once, at parse, so every command refuses the same
files.  The format is documented in docs/scenario-format.md; packaged
presets live in presets/.

run_scenario integrates a scenario and summarizes the trajectory;
ScenarioStream does the same one block of steps at a time, so that a
caller can write each block and let it go.  The summary is the stream's
alone: a running reduction over blocks, to which run_scenario adds its
whole trajectory as one block.
run_control computes an energy or localization control profile on the
whole grid 0, dt, ..., n*dt (n = grid_steps(t_end, dt)) at once.  Energy
control evaluates the law's rates three times (is_drive_free, the field,
E0) and accelerations once, its angles and velocity twice (the field, then
E0 and q E.v); its k-control check integrates only the angles.
control_profile returns the same profile before its check, so that a
caller can write the profile while the check runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import (ConstantField, ConstraintViolation, DriveField,
                       ExprField, FieldProgram, ParticleState, Trajectory,
                       ZeroField, grid_steps, integrate_angles,
                       integrate_trajectory, trajectory_blocks)
from .expressions import (AngleLaw, ExpressionError, ExprLaw, ScalarField,
                          check_variables, eval_expr, parse_expr,
                          plane_wave_phase)
from .observables import (angle_trig, kinetic_momentum_from_state,
                          localization_from_rates, velocity_from_angles)
from .potentials import energy_control_field, k_control_field
from .spinors import Helicity

__all__ = [
    "ControlRun",
    "MAX_SAMPLE_COUNT",
    "Scenario",
    "ScenarioError",
    "ScenarioRun",
    "ScenarioStream",
    "load_scenario",
    "parse_scenario_text",
    "resolve_scenario",
    "control_profile",
    "run_control",
    "run_scenario",
    "PRESET_NAMES",
]

PRESET_NAMES = ("free", "fig1", "fig2", "fig3", "fig45", "fig45_literal")

# every key and its default (None: unset), in the order
# parse_scenario_text reads them; docs/scenario-format.md documents each
_DEFAULTS = {
    "q": 1.0, "theta0": 0.0, "omega1": 0.0, "phi0": 0.0, "omega2": 0.0,
    "h_energy": 1.0, "helicity": "positive",
    "theta_expr": None, "phi_expr": None, "h": "zero", "s": "0",
    "field": "zero", "ex": "0", "ey": "0", "ez": "0",
    "dt": 1e-3, "t_end": 10.0, "fd_step": 1e-5, "tolerance": 1e-6,
    "sample_count": 100, "seed": 0,
    "x0": 0.0, "y0": 0.0, "z0": 0.0, "corrupt_b0": 0.0,
    "name": None, "out": None,
}

MAX_SAMPLE_COUNT = 10 ** 6  # a battery: 846 B per draw, 1,278 with a phase h

_FIELD_KINDS = ("zero", "constant", "expr", "drive")


class ScenarioError(ValueError):
    pass


def _check_grid(t_end: float, dt: float) -> None:
    try:
        grid_steps(t_end, dt)
    except ValueError as exc:
        raise ScenarioError(
            f"grid t_end = {t_end!r}, dt = {dt!r}: {exc}") from None


@dataclass
class Scenario:
    name: str
    helicity: Helicity
    q: float
    law: AngleLaw
    h: ScalarField | None
    s: ScalarField
    program: FieldProgram
    initial: ParticleState
    dt: float
    t_end: float
    fd_step: float
    tolerance: float
    sample_count: int
    seed: int
    out: str | None
    corrupt_b0: float

    def with_overrides(self, *, dt: float | None = None,
                       t_end: float | None = None, seed: int | None = None,
                       out: str | None = None) -> "Scenario":
        """A copy with the given values set."""
        given = dict(dt=dt, t_end=t_end, seed=seed, out=out)
        scn = replace(self, **{k: v for k, v in given.items() if v is not None})
        if dt is not None and dt <= 0:
            raise ScenarioError("dt override must be positive")
        if t_end is not None and t_end <= 0:
            raise ScenarioError("t-end override must be positive")
        if dt is not None or t_end is not None:
            _check_grid(scn.t_end, scn.dt)
        if seed is not None and seed < 0:
            raise ScenarioError("seed override must be nonnegative")
        return scn

    @property
    def grid_end(self) -> float:
        """Last grid time n*dt, which misses t_end when t_end/dt is not whole."""
        return grid_steps(self.t_end, self.dt) * self.dt

    @property
    def preserves_law(self) -> bool:
        """True when the applied program reproduces the nominal law: its
        drive field does, and a zero field does a law of constant rates."""
        return (isinstance(self.program, DriveField)
                or (isinstance(self.program, ZeroField) and self.law.is_linear))


def _split_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        yield lineno, key, value


def parse_scenario_text(text: str, default_name: str = "scenario") -> Scenario:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _split_lines(text):
        if key not in _DEFAULTS:
            raise ScenarioError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value)

    def text_of(key):
        return entries.get(key, (0, _DEFAULTS[key]))[1]

    params: dict[str, float] = {}

    def named(key, fn, *args):
        """fn(*args), with an expression error reported against the key."""
        try:
            return fn(*args)
        except ExpressionError as exc:
            lineno = entries.get(key, (0,))[0]
            raise ScenarioError(f"line {lineno}: key '{key}': {exc}") from None

    def value(key, allowed=None):
        """The key's scalar value, or with allowed, its expression over
        those variables; an absent scalar or unset key is its default."""
        text = text_of(key)
        if text is None or (allowed is None and key not in entries):
            return text
        expr = named(key, parse_expr, text, params)
        if allowed is None:
            return named(key, eval_expr, expr)
        check_variables(expr, allowed, ScenarioError,
                        f"key '{key}': variables not allowed here: ")
        return expr

    def scalar_field(key, allowed):
        """The key's ScalarField; one with no variables is evaluated now."""
        expr = value(key, allowed)
        if not expr.free_variables():
            named(key, eval_expr, expr)
        return named(key, ScalarField, expr)

    def integer(key):
        number = value(key)
        if number != int(number):
            raise ScenarioError(f"key '{key}' must be an integer")
        return int(number)

    q = value("q")
    if q == 0:
        raise ScenarioError("key 'q': charge must be nonzero")
    params["q"] = q
    for key in ("theta0", "omega1", "phi0", "omega2", "h_energy"):
        params[key] = value(key)

    helicity_text = text_of("helicity")
    try:
        helicity = Helicity(helicity_text)
    except ValueError:
        raise ScenarioError(
            f"key 'helicity': expected 'positive' or 'negative', "
            f"got '{helicity_text}'"
        ) from None

    # angle law: linear by default, expression laws override
    theta_expr = value("theta_expr", {"t"})
    phi_expr = value("phi_expr", {"t"})
    if theta_expr is not None and ("theta0" in entries or "omega1" in entries):
        raise ScenarioError("key 'theta_expr' conflicts with theta0/omega1")
    if phi_expr is not None and ("phi0" in entries or "omega2" in entries):
        raise ScenarioError("key 'phi_expr' conflicts with phi0/omega2")
    linear = AngleLaw.linear(params["theta0"], params["omega1"],
                             params["phi0"], params["omega2"])
    law = AngleLaw(
        theta=(linear.theta if theta_expr is None
               else named("theta_expr", ExprLaw, theta_expr)),
        phi=(linear.phi if phi_expr is None
             else named("phi_expr", ExprLaw, phi_expr)),
    )

    # the start angles and rates: the law's one evaluation at t = 0
    (theta, theta_dot), (phi, phi_dot) = (
        (named(key, part.value, 0.0), named(key, part.derivative, 0.0))
        for key, part in (("theta_expr", law.theta), ("phi_expr", law.phi)))

    h_text = text_of("h")
    if h_text == "zero" or h_text == "0":
        h = None
    elif h_text == "plane_wave":
        h = plane_wave_phase(params["h_energy"], theta, phi)
    else:
        h = scalar_field("h", {"x", "y", "z", "t"})

    s_field = scalar_field("s", {"t"})

    field_kind = text_of("field")
    if field_kind not in _FIELD_KINDS:
        raise ScenarioError(
            f"key 'field': expected one of {', '.join(_FIELD_KINDS)}, "
            f"got '{field_kind}'"
        )
    component_keys = ("ex", "ey", "ez")
    if field_kind in ("zero", "drive"):
        for key in component_keys:
            if key in entries:
                raise ScenarioError(
                    f"key '{key}' requires field = constant or field = expr"
                )
        program = (ZeroField() if field_kind == "zero"
                   else DriveField(law, helicity, q))
    elif field_kind == "constant":
        program = ConstantField(tuple(named(key, eval_expr, value(key, set()))
                                      for key in component_keys))
    else:
        program = ExprField(*(value(key, {"t"}) for key in component_keys))

    # every grid and check value is read before any is checked
    positive = {key: value(key)
                for key in ("dt", "t_end", "fd_step", "tolerance")}
    for key, number in positive.items():
        if number <= 0:
            raise ScenarioError(f"key '{key}' must be positive")
    _check_grid(positive["t_end"], positive["dt"])

    sample_count = integer("sample_count")
    if sample_count < 1:
        raise ScenarioError("key 'sample_count' must be at least 1")
    if sample_count > MAX_SAMPLE_COUNT:
        raise ScenarioError(
            f"key 'sample_count' must be at most {MAX_SAMPLE_COUNT}")
    seed = integer("seed")
    if seed < 0:
        raise ScenarioError("key 'seed' must be nonnegative")

    return Scenario(
        name=text_of("name") or default_name,
        helicity=helicity,
        q=q,
        law=law,
        h=h,
        s=s_field,
        program=program,
        initial=ParticleState(
            position=(value("x0"), value("y0"), value("z0")), theta=theta,
            phi=phi, theta_dot=theta_dot, phi_dot=phi_dot, helicity=helicity,
            q=q),
        **positive,
        sample_count=sample_count,
        seed=seed,
        out=text_of("out"),
        corrupt_b0=value("corrupt_b0"),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file '{path}': {exc}") from None
    return parse_scenario_text(text, default_name=path.stem)


def resolve_scenario(name_or_path: str) -> Scenario:
    """Accept either a preset name or a path to a scenario file."""
    if name_or_path in PRESET_NAMES:
        source = resources.files("weyldyn").joinpath(
            f"presets/{name_or_path}.scn")
        return parse_scenario_text(source.read_text(),
                                   default_name=name_or_path)
    if Path(name_or_path).exists():
        return load_scenario(name_or_path)
    raise ScenarioError(
        f"'{name_or_path}' is neither a preset ({', '.join(PRESET_NAMES)}) "
        f"nor an existing file"
    )


@dataclass
class ScenarioRun:
    scenario: Scenario
    trajectory: Trajectory
    summary: dict = field(default_factory=dict)


def _refine_extremum(fn, a: float, b: float, minimize: bool):
    """Ternary search for a locally unimodal extremum on [a, b]."""
    lo, hi = a, b
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if (fn(m1) < fn(m2)) == minimize:
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    candidates = [(fn(x), x) for x in (a, mid, b)]
    return (min(candidates) if minimize else max(candidates))[0]


def run_scenario(scenario: Scenario) -> ScenarioRun:
    """Integrate the scenario and summarize the whole trajectory; raises
    the run's ConstraintViolation."""
    traj = integrate_trajectory(
        scenario.initial, scenario.program, scenario.t_end, scenario.dt,
        gauge=scenario.s, constraint_tol=scenario.tolerance,
    )
    run = ScenarioStream(scenario)
    run.add(traj)
    return ScenarioRun(scenario=scenario, trajectory=traj,
                       summary=run.finish())


def _extremum(best, k, t, minimize: bool):
    """The running (k, t) of np.argmin (or np.argmax) over the blocks so
    far and this one, and whether this block holds it: the first
    occurrence wins, and the first NaN if there is one."""
    i = int(np.argmin(k) if minimize else np.argmax(k))
    value = float(k[i])
    if best is None or (not math.isnan(best[0]) and (
            math.isnan(value)
            or (value < best[0] if minimize else value > best[0]))):
        return (value, float(t[i])), True
    return best, False


class ScenarioStream:
    """run_scenario one block of steps at a time, holding only that block.

    Iterating it, once, integrates, gates and adds each block and yields
    its rows as a Trajectory; after the last block it finishes the
    summary, so that an error in the refinement is raised by the
    iteration, before a caller writing the blocks commits them.  When the
    run gate trips, the iteration ends with the block that holds the
    failing sample, cut after it, and finish() raises that
    ConstraintViolation.

    The summary is running reductions over the blocks, added in order.
    k_recovery_time's candidate is the first time after the running k
    minimum with |k - k_start| <= 1e-6, dropped whenever a strictly lower
    minimum appears; the extremum refinement, on the closed-form law,
    runs once, in the first finish().  samples counts the rows added.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.samples = 0
        self._low = self._high = self._recovery = None
        self._distance = self._drift = -math.inf
        self._violation = self._summary = None

    def __iter__(self):
        scenario = self.scenario
        try:
            for block in trajectory_blocks(
                    scenario.initial, scenario.program, scenario.t_end,
                    scenario.dt, gauge=scenario.s,
                    constraint_tol=scenario.tolerance):
                self.add(block)
                yield block
        except ConstraintViolation as exc:
            self._violation = exc
        else:
            self.finish()

    # the last block of a tripped run may hold inf or nan
    @np.errstate(invalid="ignore", over="ignore")
    def add(self, block: Trajectory) -> None:
        t, k = block.t, block.k
        if not self.samples:
            self._k_start, self._origin = float(k[0]), block.r[0].copy()
        self.samples += len(block)
        self._last = block
        self._low, lower = _extremum(self._low, k, t, minimize=True)
        self._high, _ = _extremum(self._high, k, t, minimize=False)
        if lower:
            self._recovery = None
        if self._recovery is None:
            later = np.flatnonzero((t > self._low[1])
                                   & (np.abs(k - self._k_start) <= 1e-6))
            if len(later):
                self._recovery = float(t[later[0]])
        # np.maximum keeps a nan, as np.max over the whole run does
        self._distance = float(np.maximum(self._distance, np.max(
            block.distance_from_start(self._origin))))
        self._drift = float(np.maximum(self._drift, block.speed_drift()))

    def finish(self) -> dict:
        if self._violation is not None:
            raise self._violation
        if self._summary is not None:
            return self._summary
        scenario, last = self.scenario, self._last
        (k_min, t_k_min), (k_max, t_k_max) = self._low, self._high
        t_hi = float(last.t[-1])
        summary = {
            "name": scenario.name,
            "helicity": scenario.helicity.value,
            "q": scenario.q,
            "samples": self.samples,
            "dt": scenario.dt,
            "t_end": t_hi,
            "k_start": self._k_start,
            "k_end": float(last.k[-1]),
            "k_min": k_min,
            "t_k_min": t_k_min,
            "k_max": k_max,
            "t_k_max": t_k_max,
            "endpoint": last.endpoint,
            "max_distance_from_start": self._distance,
            "speed_drift": self._drift,
        }

        if scenario.preserves_law:
            # the angle law is known in closed form, so the k extrema can be
            # located to full precision instead of grid precision
            law = scenario.law

            def k_of(t: float) -> float:
                return localization_from_rates(law.angles(t)[0],
                                               *law.rates(t))

            for key, t, minimize in (("k_min_refined", t_k_min, True),
                                     ("k_max_refined", t_k_max, False)):
                summary[key] = _refine_extremum(
                    k_of, max(0.0, t - scenario.dt),
                    min(t_hi, t + scenario.dt), minimize)

        # a drain needs a k to drain: free flight keeps k = 0 throughout
        drains = self._k_start > 1e-6 and k_min <= 1e-6
        summary["k_zero_time"] = t_k_min if drains else None
        summary["k_recovery_time"] = self._recovery if drains else None
        self._summary = summary
        return summary


@dataclass
class ControlRun:
    """A control field profile on the scenario grid and its check.

    fields holds one (Ex, Ey, Ez) row per grid time ts; series is the
    controlled quantity on that grid (the energy E0 for an energy target,
    k for a localization target); measured is its achieved rate, which
    passes when it is within tol of target, and measured_by says how it
    was measured.
    """

    ts: np.ndarray
    fields: np.ndarray
    series: np.ndarray
    measured: float
    target: float
    label: str
    measured_by: str

    @property
    def deviation(self) -> float:
        return abs(self.measured - self.target)

    @property
    def tol(self) -> float:
        """The largest accepted deviation: 1e-9 of |target|, at least
        1e-12."""
        return max(1e-9 * abs(self.target), 1e-12)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol


def _control_window(rate_series) -> int:
    """Last sample index before the driven rate changes sign."""
    initial_sign = np.sign(rate_series[0])
    flips = np.flatnonzero(np.sign(rate_series) != initial_sign)
    if initial_sign == 0 or len(flips) == 0:
        return len(rate_series) - 1
    return max(1, int(flips[0]) - 1)


def run_control(scenario: Scenario, *, dedt: float | None = None,
                dkdt: float | None = None,
                mode: str | None = None) -> ControlRun:
    """Control profile for an energy rate dedt or a k rate dkdt, and its
    check (control_profile)."""
    return control_profile(scenario, dedt=dedt, dkdt=dkdt, mode=mode)[2]()


# an overflow leaves a non-finite sample (refused) or rate (fails the gate)
@np.errstate(over="ignore", invalid="ignore")
def control_profile(scenario: Scenario, *, dedt: float | None = None,
                    dkdt: float | None = None, mode: str | None = None):
    """The control profile for an energy rate dedt or a k rate dkdt, as
    (ts, fields, check): its grid, one (Ex, Ey, Ez) row per grid time,
    and a function that checks the profile and returns its ControlRun.

    dedt: the kappa s field of the gauge s = -dedt t on a drive-free law
    (energy_control_field); the measured rate is the grid mean of the power
    q E.v that the written field delivers along the law's velocity
    (trapezoid rule), and series is the kinetic energy E0.  This check
    is done here, and check only returns it.

    dkdt: the constant drive field that changes k at that rate, either
    through the azimuth (mode "azimuthal", theta pinned, phi rotating) or
    through the polar angle (mode "polar", phi pinned); mode None is
    azimuthal.  check integrates only the angles forward, and measures
    k's rate up to the last sample before the driven angle rate changes
    sign; it raises ConstraintViolation when the run gate trips.

    Raises ValueError, before any work, on a mode given with dedt, on a
    non-finite target, and when the law does not admit the requested
    control.
    """
    if (dedt is None) == (dkdt is None):
        raise ValueError("run_control takes exactly one of dedt and dkdt")
    if dedt is not None and mode is not None:
        raise ValueError("run_control takes a mode only with dkdt")
    target = dkdt if dedt is None else dedt
    if not math.isfinite(target):
        raise ValueError(f"control target must be finite, got {target!r}")
    law = scenario.law
    ts = np.arange(grid_steps(scenario.t_end, scenario.dt) + 1) * scenario.dt

    if dedt is not None:
        fields = energy_control_field(dedt, law, scenario.q, ts)
        angles = law.angles(ts)
        trig = angle_trig(*angles)
        e0, _ = kinetic_momentum_from_state(*angles, *law.rates(ts),
                                            -dedt * ts, scenario.helicity,
                                            trig)
        bad = np.flatnonzero(~(np.isfinite(fields).all(axis=1)
                               & np.isfinite(e0)))
        if len(bad):
            raise ValueError(f"energy control profile is not finite at "
                             f"t = {float(ts[bad[0]])!r}")
        # the force law dE0/dt = q E.v, on the law's velocity, read off the
        # field itself and averaged over the grid by the trapezoid rule
        power = scenario.q * np.vecdot(
            fields, velocity_from_angles(*angles, trig))
        measured = float(np.trapezoid(power, ts) / (ts[-1] - ts[0]))
        run = ControlRun(ts, fields, e0, measured, dedt, "dE0/dt",
                         "grid mean of q E.v")
        return ts, fields, lambda: run

    mode = "azimuthal" if mode is None else mode
    program = ConstantField(k_control_field(dkdt, mode, law,
                                            scenario.helicity, scenario.q))
    fields = program.sample(ts)

    @np.errstate(over="ignore", invalid="ignore")
    def check() -> ControlRun:
        t, theta, _, theta_dot, phi_dot, _ = integrate_angles(
            scenario.initial, program, scenario.t_end, scenario.dt,
            constraint_tol=scenario.tolerance)
        k = localization_from_rates(theta, theta_dot, phi_dot)
        j = _control_window(phi_dot if mode == "azimuthal" else theta_dot)
        measured = float((k[j] - k[0]) / (t[j] - t[0]))
        return ControlRun(ts, fields, k, measured, dkdt, "dk/dt",
                          "forward simulation")

    return ts, fields, check
