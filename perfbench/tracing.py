"""Spans around the public calls of each weyldyn module.

The benchmark installs wrappers from here on module and class attributes
at every import site inside the package, so the program itself carries no
tracing code.  Each span records its id, its parent's id, its name, the
op it belongs to, and its start and end; spans stay in memory until the
run writes them out.  A layer's self time is its span's duration minus
the time its direct child spans took.

A target that no longer exists (a function moved or renamed by a later
refactor) is recorded as absent with the reason, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

# span name -> wrapped callables as "module:qualname".  "@module" limits a
# function to the named import site; a site already patched by an earlier
# span keeps that span, so the order of this table matters.
SPANS = {
    "cli.main": ["weyldyn.cli:main"],
    "cli.csv": ["weyldyn.cli:write_trajectory_csv",
                "weyldyn.cli:write_field_csv"],
    "scenario.parse": ["weyldyn.scenario:resolve_scenario",
                       "weyldyn.scenario:load_scenario",
                       "weyldyn.scenario:parse_scenario_text"],
    "scenario.run": ["weyldyn.scenario:run_scenario"],
    "scenario.k_eval": [
        "weyldyn.observables:localization_from_rates@weyldyn.scenario"],
    "dynamics.sample": [f"weyldyn.dynamics:{cls}.sample" for cls in (
        "FieldProgram", "ZeroField", "ConstantField", "ExprField",
        "DriveField")],
    "dynamics.integrate": ["weyldyn.dynamics:integrate_trajectory"],
    "verify.battery": ["weyldyn.verify:run_verification"],
    "spinors.residual": ["weyldyn.spinors:weyl_residual"],
    "potentials.numeric_field": [
        "weyldyn.potentials:field_from_potential_numeric"],
    "potentials.closed_form": [f"weyldyn.potentials:{name}" for name in (
        "drive_field_closed_form", "gauge_family_field",
        "energy_control_field", "k_control_field")],
    "observables": [f"weyldyn.observables:{name}" for name in (
        "kinetic_momentum_from_state", "localization_from_rates",
        "velocity_from_angles")],
    "expressions.parse": ["weyldyn.expressions:parse_expr",
                          "weyldyn.expressions:ScalarField.from_text"],
    "expressions.law": [f"weyldyn.expressions:AngleLaw.{name}"
                        for name in ("angles", "rates", "accelerations")],
    "expressions.field": ["weyldyn.expressions:ScalarField.value",
                          "weyldyn.expressions:ScalarField.partial"],
}


def _csv_bytes(args, kwargs, result):
    try:
        return os.path.getsize(kwargs.get("path", args[-1]))
    except OSError:
        return 0


def _steps(args, kwargs, result):
    # an aborted run carries its partial trajectory on the exception
    traj = getattr(result, "partial", result)
    return len(traj) - 1 if hasattr(traj, "__len__") else 0


def _draws(args, kwargs, result):
    n = getattr(kwargs.get("scenario", args[0] if args else None),
                "sample_count", 0)
    # three checks draw n events each, three more draw n // 4
    return 3 * n + 3 * max(1, n // 4) if n else 0


# work counted per span besides its calls
UNITS = {"cli.csv": _csv_bytes, "dynamics.integrate": _steps,
         "verify.battery": _draws}


class Tracer:
    def __init__(self, spans=SPANS):
        self.spans = spans
        self.names = list(spans)
        self.op = -1
        self.absent = []
        n = len(self.names)
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.calls = [0] * n
        self.units = [0] * n
        self._ids = array("q")     # span id, parent id, name index, op id
        self._times = array("d")   # start, end (perf_counter seconds)
        self._stack = []
        self._next_id = 0
        self._undo = []

    def _wrap(self, fn, index, unit):
        stack, ids, times = self._stack, self._ids, self._times

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span, 0.0]     # id, time spent in direct children
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.self_s[index] += duration - frame[1]
                self.total_s[index] += duration
                self.calls[index] += 1
                if unit is not None:
                    self.units[index] += unit(args, kwargs, result)
                ids.extend((span, parent[0] if parent else -1, index, self.op))
                times.extend((start, end))

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_one(self, target, index, unit):
        spec, _, site = target.partition("@")
        module_name, _, qualname = spec.partition(":")
        module = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        if path:
            owner = module
            for part in path:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                raise AttributeError(f"{qualname} is not defined on the class")
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(owner, attr,
                            type(raw)(self._wrap(raw.__func__, index, unit)))
            else:
                self._patch(owner, attr, self._wrap(raw, index, unit))
            return
        original = getattr(module, attr)
        traced = self._wrap(original, index, unit)
        if site:
            sites = [importlib.import_module(site)]
        else:
            sites = [m for name, m in list(sys.modules.items())
                     if name == "weyldyn" or name.startswith("weyldyn.")]
        patched = False
        for mod in sites:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)
                    patched = True
        if not patched:
            raise AttributeError(f"no import site of {attr} in {site}")

    def install(self):
        for index, (name, targets) in enumerate(self.spans.items()):
            for target in targets:
                try:
                    self._install_one(target, index, UNITS.get(name))
                except (ImportError, AttributeError) as exc:
                    self.absent.append({"span": name, "target": target,
                                        "reason": f"{type(exc).__name__}: "
                                                  f"{exc}"})

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __len__(self):
        return self._next_id

    def _sum(self, values, *names):
        return sum(values[self.names.index(n)] for n in names)

    def self_ms(self, *names):
        return 1e3 * self._sum(self.self_s, *names)

    def total_ms(self, *names):
        return 1e3 * self._sum(self.total_s, *names)

    def count(self, *names):
        return self._sum(self.calls, *names)

    def work(self, name):
        return self._sum(self.units, name)

    def write(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 ids=np.frombuffer(self._ids, dtype=np.int64).reshape(-1, 4),
                 times=np.frombuffer(self._times).reshape(-1, 2))


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric, unit, better, value from a finished Tracer, the
# end-to-end metric it should move, and the workloads where it should
LAYERS = (
    ("scenario.parse_ms", "ms", "lower",
     lambda t: t.self_ms("scenario.parse"), "setup_s, ops_per_s (small)",
     "all"),
    ("scenario.run_self_ms", "ms", "lower",
     lambda t: t.self_ms("scenario.run"), "ops_per_s", "simulate"),
    ("scenario.k_evals", "count", "lower",
     lambda t: t.count("scenario.k_eval"), "ops_per_s", "simulate"),
    ("dynamics.sample_ms", "ms", "lower",
     lambda t: t.self_ms("dynamics.sample"), "ops_per_s",
     "simulate (expr ops)"),
    ("dynamics.integrate_self_ms", "ms", "lower",
     lambda t: t.self_ms("dynamics.integrate"),
     "ops_per_s, samples_per_s", "simulate, control (--dkdt)"),
    ("dynamics.steps", "count", "lower",
     lambda t: t.work("dynamics.integrate"),
     "ops_per_s, samples_per_s", "simulate, control (--dkdt)"),
    ("dynamics.us_per_step", "us", "lower",
     lambda t: 1e3 * _ratio(t.self_ms("dynamics.integrate"),
                            t.work("dynamics.integrate")),
     "ops_per_s, samples_per_s", "simulate, control (--dkdt)"),
    ("cli.csv_write_ms", "ms", "lower", lambda t: t.self_ms("cli.csv"),
     "ops_per_s, samples_per_s", "simulate, control"),
    ("cli.csv_bytes", "bytes", "lower", lambda t: t.work("cli.csv"),
     "ops_per_s, samples_per_s", "simulate, control"),
    ("cli.csv_mb_per_s", "MB/s", "higher",
     lambda t: 1e-3 * _ratio(t.work("cli.csv"), t.self_ms("cli.csv")),
     "ops_per_s, samples_per_s", "simulate, control"),
    ("cli.self_ms", "ms", "lower", lambda t: t.self_ms("cli.main"),
     "ops_per_s", "control"),
    ("verify.battery_ms", "ms", "lower",
     lambda t: t.total_ms("verify.battery"), "ops_per_s", "verify"),
    ("verify.self_ms", "ms", "lower", lambda t: t.self_ms("verify.battery"),
     "ops_per_s", "verify"),
    ("verify.draws", "count", "lower", lambda t: t.work("verify.battery"),
     "ops_per_s", "verify"),
    ("spinors.residual_calls", "count", "lower",
     lambda t: t.count("spinors.residual"), "ops_per_s", "verify"),
    ("spinors.residual_ms", "ms", "lower",
     lambda t: t.self_ms("spinors.residual"), "ops_per_s", "verify"),
    ("potentials.numeric_field_calls", "count", "lower",
     lambda t: t.count("potentials.numeric_field"), "ops_per_s", "verify"),
    ("potentials.numeric_field_ms", "ms", "lower",
     lambda t: t.self_ms("potentials.numeric_field"), "ops_per_s", "verify"),
    ("potentials.closed_form_calls", "count", "lower",
     lambda t: t.count("potentials.closed_form"), "ops_per_s",
     "control (--dedt), verify"),
    ("potentials.closed_form_ms", "ms", "lower",
     lambda t: t.self_ms("potentials.closed_form"), "ops_per_s",
     "control (--dedt), verify"),
    ("observables.calls", "count", "lower",
     lambda t: t.count("observables", "scenario.k_eval"), "ops_per_s",
     "control, verify"),
    ("observables.ms", "ms", "lower",
     lambda t: t.self_ms("observables", "scenario.k_eval"), "ops_per_s",
     "control, verify"),
    ("expressions.parse_calls", "count", "lower",
     lambda t: t.count("expressions.parse"), "ops_per_s, setup_s", "verify"),
    ("expressions.parse_ms", "ms", "lower",
     lambda t: t.self_ms("expressions.parse"), "ops_per_s, setup_s",
     "verify"),
    ("expressions.law_evals", "count", "lower",
     lambda t: t.count("expressions.law"), "ops_per_s", "control, verify"),
    ("expressions.law_ms", "ms", "lower",
     lambda t: t.self_ms("expressions.law"), "ops_per_s", "control, verify"),
    ("expressions.field_evals", "count", "lower",
     lambda t: t.count("expressions.field"), "ops_per_s", "verify"),
    ("expressions.field_ms", "ms", "lower",
     lambda t: t.self_ms("expressions.field"), "ops_per_s", "verify"),
)
