"""Command line front end.

    weyl-dyn verify   <scenario>  run the verification battery
    weyl-dyn simulate <scenario>  integrate and write the trajectory CSV
    weyl-dyn control  <scenario>  emit a control field profile and validate it
    weyl-dyn figures  [scenario]  write the preset figure datasets

Each command takes --out and only the options it reads (build_parser);
any other option is a usage error.

Exit codes: 0 success, 1 check or validation failure, 2 usage or
scenario errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import stat
import sys
from pathlib import Path

import numpy as np

from .dynamics import ConstraintViolation
from .floattext import csv_ahead, csv_passes, csv_rows
from .observables import si_rates
from .scenario import (Scenario, ScenarioStream, control_profile,
                       resolve_scenario)
from .verify import run_verification

CSV_COLUMNS = ("t", "x", "y", "z", "vx", "vy", "vz", "theta", "phi", "k",
               "E0", "px", "py", "pz", "Ex", "Ey", "Ez", "constraint_residual")

FIGURE_PRESETS = ("fig1", "fig2", "fig3", "fig45")
# a preset whose keys are another's but for its name: `figures` writes
# its CSV as a copy of that preset's
FIGURE_COPIES = {"fig2": "fig1"}


@contextlib.contextmanager
def _whole(path: str | Path):
    """A binary handle whose bytes become the file at path, whole: they go
    to a new file beside it, which replaces the file at path once the
    block ends, or is removed if the block raises, leaving that file as
    it was.  A path that is not a regular file (/dev/stdout, /dev/null, a
    FIFO) is written directly; a symlink's target is the file replaced.
    An existing file keeps its mode; a new one gets the umask's."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        handle = open(temp, "xb")
    except OSError as exc:  # named by the path asked for, not the temporary
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            if mode is not None:
                os.chmod(handle.fileno(), stat.S_IMODE(mode))
            yield handle
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write_csv(path: str | Path, header: str, passes) -> None:
    """Write the header line and the CSV text of each pass, whole or not
    at all (_whole)."""
    with _whole(path) as handle:
        handle.write(header.encode() + b"\n")
        handle.writelines(passes)


def write_trajectory_csv(blocks, path: str | Path) -> None:
    """Write the blocks of a run in order (each a Trajectory of its rows,
    as a ScenarioStream yields them), as rows of repr(float(v)), two
    passes at a time (floattext.csv_passes)."""
    _write_csv(path, ",".join(CSV_COLUMNS), csv_passes(
        (b.t, *b.r.T, *b.v.T, b.theta, b.phi, b.k, b.e0, *b.p.T, *b.e.T,
         b.residual) for b in blocks))


def write_field_csv(passes, path: str | Path) -> None:
    """Write the t,Ex,Ey,Ez header and a control profile's rows, the text
    of each pass of its columns (csv_rows or csv_ahead)."""
    _write_csv(path, "t,Ex,Ey,Ez", passes)


def _with_options(scenario: Scenario, args, out=None) -> Scenario:
    return scenario.with_overrides(dt=args.dt, t_end=args.t_end,
                                   seed=args.seed, out=out)


def _load(args) -> Scenario:
    return _with_options(resolve_scenario(args.scenario), args, out=args.out)


def _si_lines(e0, q: float) -> list[str]:
    magnitude, per_meter, per_second = si_rates(e0, abs(q))
    return [
        f"SI reading (field at t = 0 taken as V/m, q in elementary charges):",
        f"  |E| = {magnitude!r} V/m -> {per_meter!r} eV/m, "
        f"{per_second!r} eV/s",
    ]


def _note_grid_end(scenario: Scenario) -> None:
    end = scenario.grid_end
    if abs(end - scenario.t_end) > 1e-9 * scenario.t_end:
        print(f"note: t_end {scenario.t_end!r} is not a whole number of steps "
              f"of dt {scenario.dt!r}; the grid ends at t {end!r}",
              file=sys.stderr)


def cmd_verify(args) -> int:
    scenario = _load(args)
    report = run_verification(scenario)
    text = report.format_text()
    if scenario.out:
        # written first, so that a failed write prints no report
        with _whole(scenario.out) as handle:
            handle.write(text.encode() + b"\n")
    print(text)
    return 0 if report.passed else 1


def _summarize(summary: dict) -> str:
    lines = [
        f"scenario '{summary['name']}' ({summary['helicity']}, q = "
        f"{summary['q']!r}): {summary['samples']} samples, dt "
        f"{summary['dt']!r}, t_end {summary['t_end']!r}",
        f"  k start {summary['k_start']!r}  end {summary['k_end']!r}",
        f"  k min {summary['k_min']!r} at t {summary['t_k_min']!r}",
        f"  k max {summary['k_max']!r} at t {summary['t_k_max']!r}",
    ]
    if "k_min_refined" in summary:
        lines.append(f"  k extrema refined: min {summary['k_min_refined']!r} "
                     f"max {summary['k_max_refined']!r}")
    if summary.get("k_zero_time") is not None:
        lines.append(f"  k reaches zero near t {summary['k_zero_time']!r}")
        recovery = summary.get("k_recovery_time")
        if recovery is not None:
            lines.append(f"  k recovers its initial value at t {recovery!r}")
    x, y, z = summary["endpoint"]
    lines.append(f"  endpoint ({x!r}, {y!r}, {z!r})")
    lines.append(f"  max |r - r0| {summary['max_distance_from_start']!r}, "
                 f"speed drift {summary['speed_drift']!r}")
    return "\n".join(lines)


def _simulate_to(scenario: Scenario, out_path: str | Path):
    """Run the scenario block by block, writing each block of its
    trajectory CSV to out_path; return the run's summary, or, when the
    run gate trips, report the partial CSV and return None.  An error
    refining the summary is raised by the write, before it commits."""
    _note_grid_end(scenario)
    run = ScenarioStream(scenario)
    write_trajectory_csv(run, out_path)
    try:
        return run.finish()
    except ConstraintViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial trajectory ({run.samples} samples) written to "
              f"{out_path}", file=sys.stderr)
        return None


def cmd_simulate(args) -> int:
    scenario = _load(args)
    out_path = scenario.out or f"{scenario.name}.csv"
    summary = _simulate_to(scenario, out_path)
    if summary is None:
        return 1
    print(_summarize(summary))
    if args.si:
        e0 = scenario.program.sample(np.zeros(1))[0]
        print("\n".join(_si_lines(e0, scenario.q)))
    print(f"wrote {out_path}")
    return 0


def cmd_control(args) -> int:
    scenario = _load(args)
    out_path = scenario.out or f"{scenario.name}_control.csv"
    _note_grid_end(scenario)
    ts, fields, check = control_profile(scenario, dedt=args.dedt,
                                        dkdt=args.dkdt, mode=args.mode)
    columns = (ts, *np.transpose(fields))
    # --dkdt's check integrates the angles: its profile is formatted
    # meanwhile, and written only once the check returns
    with (csv_ahead(columns) if args.dkdt is not None
          else contextlib.nullcontext(csv_rows(columns))) as passes:
        run = check()
        write_field_csv(passes, out_path)
    status = "PASS" if run.passed else "FAIL"
    print(f"control profile written to {out_path}")
    print(f"[{status}] target {run.label} {run.target!r}, {run.measured_by} "
          f"measured {run.measured!r} (|diff| {run.deviation:.3e}, "
          f"tol {run.tol!r})")
    if args.si:
        # the profile's own field at t = 0, not the scenario's program
        print("\n".join(_si_lines(run.fields[0], scenario.q)))
    return 0 if run.passed else 1


def cmd_figures(args) -> int:
    names = [args.scenario] if args.scenario else list(FIGURE_PRESETS)
    # every scenario is checked before anything is written
    scenarios = [_with_options(resolve_scenario(name), args) for name in names]
    # --out names the directory here, not the CSV
    outdir = Path(args.out or "figures")
    made = [path for path in (outdir, *outdir.parents) if not path.exists()]
    written = {}  # preset name -> (CSV path, samples)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, scenario in zip(names, scenarios):
            path = outdir / f"{scenario.name}.csv"
            if FIGURE_COPIES.get(name) in written:
                _note_grid_end(scenario)
                source, samples = written[FIGURE_COPIES[name]]
                with open(source, "rb") as copy, _whole(path) as handle:
                    shutil.copyfileobj(copy, handle)
            else:
                summary = _simulate_to(scenario, path)
                if summary is None:
                    return 1
                samples = summary["samples"]
            written[name] = path, samples
            print(f"{scenario.name}: {samples} samples -> {path}")
    except BaseException:
        for path in made:  # deepest first; one holding a file stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args does not
    change it.  Each command takes only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="weyl-dyn",
        description="spinor trajectory toolkit: verify, simulate, control",
    )
    # the values of the options a command does not take
    parser.set_defaults(dt=None, t_end=None, seed=None)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--dt": dict(type=float),
        "--t-end": dict(dest="t_end", type=float),
        "--seed": dict(type=int),
        "--si": dict(action="store_true",
                     help="append SI energy-rate readings to reports"),
    }

    def command(name, func, help, *flags, scenario_required=True):
        p = sub.add_parser(name, help=help)
        if scenario_required:
            p.add_argument("scenario", help="preset name or scenario file path")
        else:
            p.add_argument("scenario", nargs="?",
                           help="preset name (default: all figure presets)")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.add_argument("--out", default=None, help="output path")
        p.set_defaults(func=func)
        return p

    command("verify", cmd_verify, "run the verification battery", "--seed")
    command("simulate", cmd_simulate, "integrate and write CSV",
            "--dt", "--t-end", "--si")
    p_ctl = command("control", cmd_control, "emit and validate a control field",
                    "--dt", "--t-end", "--si")
    group = p_ctl.add_mutually_exclusive_group(required=True)
    group.add_argument("--dedt", type=float, default=None,
                       help="target energy rate")
    group.add_argument("--dkdt", type=float, default=None,
                       help="target localization rate change")
    p_ctl.add_argument("--mode", choices=("azimuthal", "polar"),
                       help="which angle realizes the k schedule "
                            "(with --dkdt only; default azimuthal)")
    command("figures", cmd_figures, "write the figure datasets",
            "--dt", "--t-end", scenario_required=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) and args.dedt is not None:
        parser.error("argument --mode: not allowed with argument --dedt")
    # scenario, expression and control refusals are all ValueErrors
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstraintViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
