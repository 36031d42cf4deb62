"""Command line front end.

    weyl-dyn verify   <scenario>  run the verification battery
    weyl-dyn simulate <scenario>  integrate and write the trajectory CSV
    weyl-dyn control  <scenario>  emit a control field profile and validate it
    weyl-dyn figures  [scenario]  write the preset figure datasets

Exit codes: 0 success, 1 check or validation failure, 2 usage or
scenario errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dynamics import ConstraintViolation, Trajectory
from .expressions import ExpressionError
from .observables import si_rates
from .scenario import (Scenario, ScenarioError, resolve_scenario, run_control,
                       run_scenario)
from .verify import run_verification

CSV_COLUMNS = ("t", "x", "y", "z", "vx", "vy", "vz", "theta", "phi", "k",
               "E0", "px", "py", "pz", "Ex", "Ey", "Ez", "constraint_residual")

FIGURE_PRESETS = ("fig1", "fig2", "fig3", "fig45")


_CSV_CHUNK = 1024  # rows formatted per pass; bounds the string temporaries


def _write_csv(path: str | Path, header: str, columns) -> None:
    """Write equal-length float columns as rows of repr(float(v)).

    Within each chunk of rows, every distinct float of a column is
    formatted once.  Distinct means a distinct bit pattern, so 0.0 and
    -0.0 keep their own text.
    """
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_CHUNK):
            cells = []
            for col in columns:
                bits, inverse = np.unique(
                    col[lo:lo + _CSV_CHUNK].view(np.uint64),
                    return_inverse=True)
                text = np.array([repr(v) for v in
                                 bits.view(np.float64).tolist()], dtype=object)
                cells.append(text[inverse].tolist())
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    _write_csv(path, ",".join(CSV_COLUMNS),
               (traj.t, traj.x, traj.y, traj.z, traj.vx, traj.vy, traj.vz,
                traj.theta, traj.phi, traj.k, traj.e0, traj.px, traj.py,
                traj.pz, traj.ex, traj.ey, traj.ez, traj.residual))


def write_field_csv(ts, fields, path: str | Path) -> None:
    fields = np.asarray(fields, dtype=np.float64)
    _write_csv(path, "t,Ex,Ey,Ez", (ts, fields[:, 0], fields[:, 1],
                                    fields[:, 2]))


def _load(args) -> Scenario:
    scn = resolve_scenario(args.scenario)
    return scn.with_overrides(
        dt=args.dt, t_end=args.t_end, seed=args.seed, out=args.out,
        paper_literal=args.paper_literal_field or None,
    )


def _si_lines(scenario: Scenario) -> list[str]:
    e0 = scenario.field_program().field_at(0.0)
    magnitude = float(np.linalg.norm(e0))
    rates = si_rates(magnitude, abs(scenario.q))
    return [
        f"SI reading (field at t = 0 taken as V/m, q in elementary charges):",
        f"  |E| = {magnitude!r} V/m -> {rates.ev_per_meter!r} eV/m, "
        f"{rates.ev_per_second!r} eV/s",
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
    extra = _si_lines(scenario) if args.si else ()
    text = report.format_text(extra)
    print(text)
    if scenario.out:
        Path(scenario.out).write_text(text + "\n")
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


def cmd_simulate(args) -> int:
    scenario = _load(args)
    out_path = scenario.out or f"{scenario.name}.csv"
    _note_grid_end(scenario)
    try:
        run = run_scenario(scenario)
    except ConstraintViolation as exc:
        write_trajectory_csv(exc.partial, out_path)
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial trajectory ({len(exc.partial)} samples) written to "
              f"{out_path}", file=sys.stderr)
        return 1
    write_trajectory_csv(run.trajectory, out_path)
    print(_summarize(run.summary))
    if args.si:
        print("\n".join(_si_lines(scenario)))
    print(f"wrote {out_path}")
    return 0


def cmd_control(args) -> int:
    scenario = _load(args)
    out_path = scenario.out or f"{scenario.name}_control.csv"
    _note_grid_end(scenario)
    try:
        run = run_control(scenario, dedt=args.dedt, dkdt=args.dkdt,
                          mode=args.mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstraintViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_field_csv(run.ts, run.fields, out_path)
    deviation = abs(run.measured - run.target)
    achieved = deviation <= 1e-6
    status = "PASS" if achieved else "FAIL"
    print(f"control profile written to {out_path}")
    print(f"[{status}] target {run.label} {run.target!r}, forward simulation "
          f"measured {run.measured!r} (|diff| {deviation:.3e}, tol 1e-06)")
    return 0 if achieved else 1


def cmd_figures(args) -> int:
    outdir = Path(args.out or "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    names = [args.scenario] if args.scenario else list(FIGURE_PRESETS)
    for name in names:
        scenario = resolve_scenario(name)
        if args.paper_literal_field:
            scenario = scenario.with_overrides(paper_literal=True)
        run = run_scenario(scenario)
        path = outdir / f"{scenario.name}.csv"
        write_trajectory_csv(run.trajectory, path)
        print(f"{scenario.name}: {len(run.trajectory)} samples -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl-dyn",
        description="spinor trajectory toolkit: verify, simulate, control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        if scenario_required:
            p.add_argument("scenario", help="preset name or scenario file path")
        else:
            p.add_argument("scenario", nargs="?",
                           help="preset name (default: all figure presets)")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paper-literal-field", action="store_true",
                       help="use the literally stated control field instead "
                            "of the reconciled one")
        p.add_argument("--si", action="store_true",
                       help="append SI energy-rate readings to reports")
        p.add_argument("--out", default=None, help="output path")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate and write CSV")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ctl = sub.add_parser("control", help="emit and validate a control field")
    common(p_ctl)
    group = p_ctl.add_mutually_exclusive_group(required=True)
    group.add_argument("--dedt", type=float, default=None,
                       help="target energy rate")
    group.add_argument("--dkdt", type=float, default=None,
                       help="target localization rate change")
    p_ctl.add_argument("--mode", choices=("azimuthal", "polar"),
                       default="azimuthal",
                       help="which angle realizes the k schedule")
    p_ctl.set_defaults(func=cmd_control)

    p_fig = sub.add_parser("figures", help="write the figure datasets")
    common(p_fig, scenario_required=False)
    p_fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
