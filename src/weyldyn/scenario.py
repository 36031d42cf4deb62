"""Scenario files: flat key = value descriptions of a run.

A scenario fixes the particle (helicity, charge), the angle law, the
phase and gauge functions, the applied field program, the integration
grid, and the verification knobs.  Values on the right-hand side are
expressions over "pi" and previously defined scalars (q, theta0,
omega1, phi0, omega2, h_energy), so files can say things like
"omega1 = sqrt(3)" or "ez = 1/(2*q)".  Unknown keys are rejected so
typos fail loudly, and so is a grid (t_end, dt) without a single step.
The full format is documented in docs/scenario-format.md; packaged
presets live in presets/.

run_scenario integrates a scenario and summarizes the trajectory;
run_control computes an energy or localization control profile.  Both
work on the whole time grid 0, dt, ..., n*dt (n = grid_steps(t_end, dt))
at once: run_control evaluates the angle law, energy_control_field and
kinetic_momentum_from_state once each on the array of grid times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import (ConstantField, DriveField, ExprField, FieldProgram,
                       ParticleState, Trajectory, ZeroField, grid_steps,
                       integrate_trajectory)
from .expressions import (AngleLaw, Expr, ExpressionError, ExprLaw,
                          ScalarField, eval_expr, parse_expr,
                          plane_wave_phase)
from .observables import kinetic_momentum_from_state, localization_from_rates
from .potentials import energy_control_field, k_control_field
from .spinors import Helicity

__all__ = [
    "ControlRun",
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

PRESET_NAMES = ("free", "fig1", "fig2", "fig3", "fig45")

_SCALAR_KEYS = ("q", "theta0", "omega1", "phi0", "omega2", "h_energy",
                "x0", "y0", "z0", "dt", "t_end", "fd_step", "tolerance",
                "corrupt_b0")
_INT_KEYS = ("seed", "sample_count")
_TEXT_KEYS = ("name", "helicity", "h", "s", "field", "out",
              "theta_expr", "phi_expr", "ex", "ey", "ez",
              "paper_literal_ex", "paper_literal_ey", "paper_literal_ez")
_KNOWN_KEYS = frozenset(_SCALAR_KEYS + _INT_KEYS + _TEXT_KEYS)

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
    field_kind: str
    field_exprs: tuple[Expr, Expr, Expr] | None
    literal_exprs: tuple[Expr, Expr, Expr] | None
    start: tuple[float, float, float]
    dt: float
    t_end: float
    fd_step: float
    tolerance: float
    sample_count: int
    seed: int
    out: str | None
    corrupt_b0: float
    paper_literal: bool = False

    def with_overrides(self, *, dt: float | None = None,
                       t_end: float | None = None, seed: int | None = None,
                       out: str | None = None,
                       paper_literal: bool | None = None) -> "Scenario":
        scn = replace(self)
        if dt is not None:
            if dt <= 0:
                raise ScenarioError("dt override must be positive")
            scn.dt = dt
        if t_end is not None:
            if t_end <= 0:
                raise ScenarioError("t-end override must be positive")
            scn.t_end = t_end
        if dt is not None or t_end is not None:
            _check_grid(scn.t_end, scn.dt)
        if seed is not None:
            scn.seed = seed
        if out is not None:
            scn.out = out
        if paper_literal is not None:
            scn.paper_literal = paper_literal
        return scn

    def active_field_exprs(self):
        if self.paper_literal:
            if self.literal_exprs is None:
                raise ScenarioError(
                    "--paper-literal-field requested but the scenario defines "
                    "no paper_literal_ex/ey/ez components"
                )
            return self.literal_exprs
        return self.field_exprs

    def field_program(self) -> FieldProgram:
        if self.field_kind == "zero":
            return ZeroField()
        if self.field_kind == "drive":
            return DriveField(self.law, self.helicity, self.q)
        exprs = self.active_field_exprs()
        if self.field_kind == "constant":
            return ConstantField(tuple(eval_expr(e) for e in exprs))
        return ExprField(*exprs)

    def initial_state(self) -> ParticleState:
        theta, phi = self.law.angles(0.0)
        theta_dot, phi_dot = self.law.rates(0.0)
        return ParticleState(position=self.start, theta=theta, phi=phi,
                             theta_dot=theta_dot, phi_dot=phi_dot,
                             helicity=self.helicity, q=self.q)

    @property
    def grid_end(self) -> float:
        """Last grid time n*dt, which misses t_end when t_end/dt is not whole."""
        return grid_steps(self.t_end, self.dt) * self.dt

    @property
    def preserves_law(self) -> bool:
        """True when the applied program reproduces the nominal law."""
        return self.field_kind in ("zero", "drive")


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
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value)

    def text_of(key, default=None):
        if key in entries:
            return entries[key][1]
        return default

    params: dict[str, float] = {}

    def scalar(key, default):
        if key not in entries:
            return default
        lineno, value = entries[key]
        try:
            return eval_expr(parse_expr(value, params))
        except ExpressionError as exc:
            raise ScenarioError(f"line {lineno}: key '{key}': {exc}") from None

    def integer(key, default):
        value = scalar(key, float(default))
        if value != int(value):
            raise ScenarioError(f"key '{key}' must be an integer")
        return int(value)

    q = scalar("q", 1.0)
    if q == 0:
        raise ScenarioError("key 'q': charge must be nonzero")
    params["q"] = q
    for key, default in (("theta0", 0.0), ("omega1", 0.0),
                         ("phi0", 0.0), ("omega2", 0.0), ("h_energy", 1.0)):
        params[key] = scalar(key, default)

    helicity_text = text_of("helicity", "positive")
    try:
        helicity = Helicity(helicity_text)
    except ValueError:
        raise ScenarioError(
            f"key 'helicity': expected 'positive' or 'negative', "
            f"got '{helicity_text}'"
        ) from None

    def parse_value_expr(key, allowed, default=None):
        value = text_of(key, default)
        if value is None:
            return None
        lineno = entries[key][0] if key in entries else 0
        try:
            expr = parse_expr(value, params)
        except ExpressionError as exc:
            raise ScenarioError(f"line {lineno}: key '{key}': {exc}") from None
        extra = expr.free_variables() - allowed
        if extra:
            names = ", ".join(sorted(extra))
            raise ScenarioError(
                f"key '{key}': variables not allowed here: {names}"
            )
        return expr

    # angle law: linear by default, expression laws override
    theta_expr = parse_value_expr("theta_expr", {"t"})
    phi_expr = parse_value_expr("phi_expr", {"t"})
    if theta_expr is not None and ("theta0" in entries or "omega1" in entries):
        raise ScenarioError("key 'theta_expr' conflicts with theta0/omega1")
    if phi_expr is not None and ("phi0" in entries or "omega2" in entries):
        raise ScenarioError("key 'phi_expr' conflicts with phi0/omega2")
    linear = AngleLaw.linear(params["theta0"], params["omega1"],
                             params["phi0"], params["omega2"])
    law = AngleLaw(
        theta=ExprLaw(theta_expr) if theta_expr is not None else linear.theta,
        phi=ExprLaw(phi_expr) if phi_expr is not None else linear.phi,
    )

    h_text = text_of("h", "zero")
    if h_text == "zero" or h_text == "0":
        h = None
    elif h_text == "plane_wave":
        theta_ref, phi_ref = law.angles(0.0)
        h = plane_wave_phase(params["h_energy"], theta_ref, phi_ref)
    else:
        expr = parse_value_expr("h", {"x", "y", "z", "t"})
        h = ScalarField(expr)

    s_expr = parse_value_expr("s", {"t"}, default="0")
    s_field = ScalarField(s_expr)

    field_kind = text_of("field", "zero")
    if field_kind not in _FIELD_KINDS:
        raise ScenarioError(
            f"key 'field': expected one of {', '.join(_FIELD_KINDS)}, "
            f"got '{field_kind}'"
        )
    component_keys = ("ex", "ey", "ez")
    literal_keys = ("paper_literal_ex", "paper_literal_ey", "paper_literal_ez")
    if field_kind in ("zero", "drive"):
        for key in component_keys + literal_keys:
            if key in entries:
                raise ScenarioError(
                    f"key '{key}' requires field = constant or field = expr"
                )
        field_exprs = None
        literal_exprs = None
    else:
        allowed = set() if field_kind == "constant" else {"t"}
        field_exprs = tuple(
            parse_value_expr(key, allowed, default="0")
            for key in component_keys
        )
        if any(key in entries for key in literal_keys):
            literal_exprs = tuple(
                parse_value_expr(key, allowed, default="0")
                for key in literal_keys
            )
        else:
            literal_exprs = None

    dt = scalar("dt", 1e-3)
    t_end = scalar("t_end", 10.0)
    fd_step = scalar("fd_step", 1e-5)
    tolerance = scalar("tolerance", 1e-6)
    for key, value in (("dt", dt), ("t_end", t_end), ("fd_step", fd_step),
                       ("tolerance", tolerance)):
        if value <= 0:
            raise ScenarioError(f"key '{key}' must be positive")
    _check_grid(t_end, dt)

    sample_count = integer("sample_count", 100)
    if sample_count < 1:
        raise ScenarioError("key 'sample_count' must be at least 1")
    seed = integer("seed", 0)
    if seed < 0:
        raise ScenarioError("key 'seed' must be nonnegative")

    return Scenario(
        name=text_of("name", default_name),
        helicity=helicity,
        q=q,
        law=law,
        h=h,
        s=s_field,
        field_kind=field_kind,
        field_exprs=field_exprs,
        literal_exprs=literal_exprs,
        start=(scalar("x0", 0.0), scalar("y0", 0.0), scalar("z0", 0.0)),
        dt=dt,
        t_end=t_end,
        fd_step=fd_step,
        tolerance=tolerance,
        sample_count=sample_count,
        seed=seed,
        out=text_of("out"),
        corrupt_b0=scalar("corrupt_b0", 0.0),
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
    best = min(candidates) if minimize else max(candidates)
    return best[1], best[0]


def run_scenario(scenario: Scenario) -> ScenarioRun:
    program = scenario.field_program()
    traj = integrate_trajectory(
        scenario.initial_state(), program, scenario.t_end, scenario.dt,
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
            theta, _ = law.angles(t)
            theta_dot, phi_dot = law.rates(t)
            return localization_from_rates(theta, theta_dot, phi_dot)

        t_hi = float(traj.t[-1])
        dt = scenario.dt
        lo = max(0.0, float(traj.t[i_min]) - dt)
        hi = min(t_hi, float(traj.t[i_min]) + dt)
        _, k_min_ref = _refine_extremum(k_of, lo, hi, minimize=True)
        lo = max(0.0, float(traj.t[i_max]) - dt)
        hi = min(t_hi, float(traj.t[i_max]) + dt)
        _, k_max_ref = _refine_extremum(k_of, lo, hi, minimize=False)
        summary["k_min_refined"] = k_min_ref
        summary["k_max_refined"] = k_max_ref

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


@dataclass
class ControlRun:
    """A control field profile on the scenario grid and its check.

    fields holds one (Ex, Ey, Ez) row per grid time ts; series is the
    controlled quantity on that grid (the energy E0 for an energy target,
    k for a localization target); measured is its achieved rate, to be
    held against target.
    """

    ts: np.ndarray
    fields: np.ndarray
    series: np.ndarray
    measured: float
    target: float
    label: str


def _control_window(ts, rate_series, initial_sign) -> int:
    """Last sample index before the driven rate changes sign."""
    if initial_sign == 0:
        return len(ts) - 1
    flips = np.flatnonzero(np.sign(rate_series) != initial_sign)
    if len(flips) == 0:
        return len(ts) - 1
    return max(1, int(flips[0]) - 1)


def run_control(scenario: Scenario, *, dedt: float | None = None,
                dkdt: float | None = None,
                mode: str = "azimuthal") -> ControlRun:
    """Control profile for an energy rate dedt or a k rate dkdt.

    dedt: the field along the velocity of a drive-free law, which leaves
    the angle motion untouched and ramps the energy through the gauge
    sector (s = -dedt t); the measured rate is read off the kinetic
    energy over the whole grid.

    dkdt: the constant drive field that changes k at that rate, either
    through the azimuth (mode "azimuthal", theta pinned, phi rotating) or
    through the polar angle (mode "polar", phi pinned).  The profile is
    integrated forward and k's rate is measured up to the last sample
    before the driven angle rate changes sign.

    Raises ValueError when the law does not admit the requested control.
    """
    if (dedt is None) == (dkdt is None):
        raise ValueError("run_control takes exactly one of dedt and dkdt")
    law = scenario.law
    ts = np.arange(grid_steps(scenario.t_end, scenario.dt) + 1) * scenario.dt

    if dedt is not None:
        field = energy_control_field(dedt, law, scenario.q, ts)
        fields = np.column_stack([np.broadcast_to(c, ts.shape)
                                  for c in field.e])
        theta, phi = law.angles(ts)
        theta_dot, phi_dot = law.rates(ts)
        e0 = kinetic_momentum_from_state(theta, phi, theta_dot, phi_dot,
                                         -dedt * ts, scenario.helicity).energy
        bad = np.flatnonzero(~(np.isfinite(fields).all(axis=1)
                               & np.isfinite(e0)))
        if len(bad):
            raise ValueError(f"energy control profile is not finite at "
                             f"t = {float(ts[bad[0]])!r}")
        measured = float((e0[-1] - e0[0]) / (ts[-1] - ts[0]))
        return ControlRun(ts, fields, e0, measured, dedt, "dE0/dt")

    if not law.is_linear:
        raise ValueError("k control requires a linear angle law")
    if mode == "azimuthal":
        if law.omega1 != 0:
            raise ValueError(
                "azimuthal control requires omega1 = 0 (theta pinned)")
        if law.omega2 <= 0:
            raise ValueError("azimuthal control requires omega2 > 0")
    elif mode == "polar":
        if law.omega2 != 0:
            raise ValueError("polar control requires omega2 = 0 (phi pinned)")
        if law.omega1 < 0:
            raise ValueError("polar control requires omega1 >= 0")
    field = k_control_field(dkdt, mode, scenario.helicity, scenario.q,
                            theta0=law.theta0, phi0=law.phi0)
    program = ConstantField(field.e)
    traj = integrate_trajectory(scenario.initial_state(), program,
                                scenario.t_end, scenario.dt,
                                gauge=scenario.s,
                                constraint_tol=scenario.tolerance)
    if mode == "azimuthal":
        j = _control_window(traj.t, traj.phi_dot, int(np.sign(law.omega2)))
    else:
        j = _control_window(traj.t, traj.theta_dot, int(np.sign(law.omega1)))
    measured = float((traj.k[j] - traj.k[0]) / (traj.t[j] - traj.t[0]))
    return ControlRun(ts, program.sample(ts), traj.k, measured, dkdt, "dk/dt")
