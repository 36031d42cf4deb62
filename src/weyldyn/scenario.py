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
run_control computes an energy or localization control profile.  Both
work on the whole time grid 0, dt, ..., n*dt (n = grid_steps(t_end, dt))
at once: run_control evaluates the angle law, energy_control_field and
kinetic_momentum_from_state once each on the array of grid times, and
its k-control check integrates only the angles (integrate_angles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import (ConstantField, DriveField, ExprField, FieldProgram,
                       ParticleState, Trajectory, ZeroField, grid_steps,
                       integrate_angles, integrate_trajectory)
from .expressions import (AngleLaw, ExpressionError, ExprLaw, ScalarField,
                          eval_expr, parse_expr, plane_wave_phase)
from .observables import kinetic_momentum_from_state, localization_from_rates
from .potentials import energy_control_field, k_control_field
from .spinors import Helicity

__all__ = [
    "CONTROL_TOL",
    "ControlRun",
    "MAX_SAMPLE_COUNT",
    "Scenario",
    "ScenarioError",
    "ScenarioRun",
    "load_scenario",
    "parse_scenario_text",
    "resolve_scenario",
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
        extra = expr.free_variables() - allowed
        if extra:
            names = ", ".join(sorted(extra))
            raise ScenarioError(
                f"key '{key}': variables not allowed here: {names}"
            )
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
    traj = integrate_trajectory(
        scenario.initial, scenario.program, scenario.t_end, scenario.dt,
        gauge=scenario.s, constraint_tol=scenario.tolerance,
    )

    k = traj.k
    i_min = int(np.argmin(k))
    i_max = int(np.argmax(k))
    summary = {
        "name": scenario.name,
        "helicity": scenario.helicity.value,
        "q": scenario.q,
        "samples": len(traj),
        "dt": scenario.dt,
        "t_end": float(traj.t[-1]),
        "k_start": float(k[0]),
        "k_end": float(k[-1]),
        "k_min": float(k[i_min]),
        "t_k_min": float(traj.t[i_min]),
        "k_max": float(k[i_max]),
        "t_k_max": float(traj.t[i_max]),
        "endpoint": traj.endpoint,
        "max_distance_from_start": float(np.max(traj.distance_from_start())),
        "speed_drift": traj.speed_drift(),
    }

    if scenario.preserves_law:
        # the angle law is known in closed form, so the k extrema can be
        # located to full precision instead of grid precision
        law = scenario.law

        def k_of(t: float) -> float:
            return localization_from_rates(law.angles(t)[0], *law.rates(t))

        t_hi = float(traj.t[-1])
        for key, i, minimize in (("k_min_refined", i_min, True),
                                 ("k_max_refined", i_max, False)):
            t = float(traj.t[i])
            summary[key] = _refine_extremum(
                k_of, max(0.0, t - scenario.dt), min(t_hi, t + scenario.dt),
                minimize)

    # a drain needs a k to drain: free flight keeps k = 0 throughout
    if summary["k_start"] > 1e-6 and summary["k_min"] <= 1e-6:
        summary["k_zero_time"] = summary["t_k_min"]
        later = np.flatnonzero(
            (traj.t > summary["t_k_min"])
            & (np.abs(k - summary["k_start"]) <= 1e-6)
        )
        summary["k_recovery_time"] = (
            float(traj.t[later[0]]) if len(later) else None
        )
    else:
        summary["k_zero_time"] = None
        summary["k_recovery_time"] = None

    return ScenarioRun(scenario=scenario, trajectory=traj, summary=summary)


CONTROL_TOL = 1e-6  # largest accepted |measured - target| of a control rate


@dataclass
class ControlRun:
    """A control field profile on the scenario grid and its check.

    fields holds one (Ex, Ey, Ez) row per grid time ts; series is the
    controlled quantity on that grid (the energy E0 for an energy target,
    k for a localization target); measured is its achieved rate, which
    passes when it is within CONTROL_TOL of target.
    """

    ts: np.ndarray
    fields: np.ndarray
    series: np.ndarray
    measured: float
    target: float
    label: str

    @property
    def deviation(self) -> float:
        return abs(self.measured - self.target)

    @property
    def passed(self) -> bool:
        return self.deviation <= CONTROL_TOL


def _control_window(rate_series) -> int:
    """Last sample index before the driven rate changes sign."""
    initial_sign = np.sign(rate_series[0])
    flips = np.flatnonzero(np.sign(rate_series) != initial_sign)
    if initial_sign == 0 or len(flips) == 0:
        return len(rate_series) - 1
    return max(1, int(flips[0]) - 1)


# an overflow leaves a non-finite sample (refused) or rate (fails the gate)
@np.errstate(over="ignore", invalid="ignore")
def run_control(scenario: Scenario, *, dedt: float | None = None,
                dkdt: float | None = None,
                mode: str | None = None) -> ControlRun:
    """Control profile for an energy rate dedt or a k rate dkdt.

    dedt: the field along the velocity of a drive-free law, which leaves
    the angle motion untouched and ramps the energy through the gauge
    sector (s = -dedt t); the measured rate is read off the kinetic
    energy over the whole grid.

    dkdt: the constant drive field that changes k at that rate, either
    through the azimuth (mode "azimuthal", theta pinned, phi rotating) or
    through the polar angle (mode "polar", phi pinned); mode None is
    azimuthal.  Only the angles are integrated forward, and k's rate is
    measured up to the last sample before the driven angle rate changes
    sign.

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
        e0, _ = kinetic_momentum_from_state(*law.angles(ts), *law.rates(ts),
                                            -dedt * ts, scenario.helicity)
        bad = np.flatnonzero(~(np.isfinite(fields).all(axis=1)
                               & np.isfinite(e0)))
        if len(bad):
            raise ValueError(f"energy control profile is not finite at "
                             f"t = {float(ts[bad[0]])!r}")
        measured = float((e0[-1] - e0[0]) / (ts[-1] - ts[0]))
        return ControlRun(ts, fields, e0, measured, dedt, "dE0/dt")

    mode = "azimuthal" if mode is None else mode
    program = ConstantField(k_control_field(dkdt, mode, law,
                                            scenario.helicity, scenario.q))
    t, theta, _, theta_dot, phi_dot, _ = integrate_angles(
        scenario.initial, program, scenario.t_end, scenario.dt,
        constraint_tol=scenario.tolerance)
    k = localization_from_rates(theta, theta_dot, phi_dot)
    j = _control_window(phi_dot if mode == "azimuthal" else theta_dot)
    measured = float((k[j] - k[0]) / (t[j] - t[0]))
    return ControlRun(ts, program.sample(ts), k, measured, dkdt, "dk/dt")
