"""Output fingerprints of weyldyn, for checking that a change keeps every byte.

    python3 tools/fingerprint.py > after.txt
    python3 tools/fingerprint.py --root <other checkout> > before.txt
    diff before.txt after.txt

Prints one line per CLI run, "run <name> rc=<exit code> <sha256>", where
the digest covers the exit code, standard output, standard error and
every file the run wrote; an exception that escapes `cli.main` takes the
exit code's place as its class name.  The runs are:

- `simulate --si` on the five presets;
- `figures`;
- `verify`, `simulate --t-end 2` and `figures --t-end 2` on the fig45
  run with the literally stated field ez = 1/q (the keys of the
  fig45_literal preset, written to the workdir so that every checkout
  reads the same file);
- `control fig45 --dkdt -0.5 --t-end 2 --si` and
  `control free --dedt 2 --si`;
- `simulate fig45 --t-end 0.0105`, whose t_end is not a whole number of
  steps, so that a `note:` line names the time the grid ends at;
- `control --dkdt 1e308 --mode polar` on a polar scenario (theta0 = 0.5,
  omega1 = 2, phi0 = 1, dt = 0.001, t_end = 1) written to the workdir,
  which the run gate stops at t = 0.001 (exit 1);
- error paths, on scenario files written to the workdir: `verify`,
  `simulate`, `control --dedt 1` and `figures` on a law that cannot be
  evaluated at t = 0 (theta_expr = 1/t), on a constant field component
  that overflows (ez = exp(1000)), on a law nested past the parser's
  depth bound (theta_expr in 400 parentheses), and on a constant gauge
  or phase that is not finite (s = 1e309, h = 1e309, with theta0 = 1 and
  omega2 = 1); `simulate` with the gauge s = exp(1000*t), whose energy
  and momentum overflow at t = 0.71; `simulate` under a zero field on the
  law theta_expr = 1 + t^2, which the run does not follow; and
  `control fig45 --dkdt nan` and `control free --dedt nan`;
- k-control refusals, `control --dkdt 0.5`: on fig1 (omega1 != 0), on
  fig45 with `--mode polar` (omega2 != 0), and on scenario files written
  to the workdir: theta0 = 1 and omega2 = -1 (omega2 <= 0), omega2 = 1
  with theta0 = 0 (theta0 outside (0, pi)), theta0 = 1 and omega1 = -1
  with `--mode polar` (omega1 < 0), and theta_expr = 1 + 0.1*t (not a
  linear law); then `control free --dedt 1 --mode polar`, a usage error;
- non-finite fields at t = 0, on scenario files written to the workdir:
  `control --dkdt=-0.5` on theta0 = 1e-200, omega2 = 1, q = 1e-200,
  where q sin(theta0) underflows to 0 and the azimuthal field is
  infinite; `simulate` under the drive field of theta0 = 1, omega1 = 3,
  omega2 = 3 with q = 1e-308 (the field overflows) and of theta_expr =
  sqrt(1e-300+t), phi_expr = 0 (the field is nan); all three exit 1;
- `simulate` on theta0 = 1, omega2 = 1 with ez = -0 as `field = expr`
  and as `field = constant`, which both write Ez -0.0;
- `simulate` with the gauge s = -t, which is -0.0 at t = 0, so that E0,
  py and pz there are 0.0 as the scalar formula gives them;
- the run gate's order, `simulate` on theta0 = 1, omega2 = 1 (exit 1):
  the gauge s = exp(300*t) to t_end = 3, whose energy first fails at
  t = 2.366, in the second block of steps; with `field = expr`,
  ez = 1/(t-3) and s = 1/(t-3) to t_end = 4, where the field and the
  energy fail at the same point and the field or state message wins;
  and ez = 1/(t-1) or ez = 1/(t-0.5) with s = exp(1000*t) to t_end = 2,
  where the energy fails first (t = 0.71) or the field does (t = 0.5);
- `verify` on theta0 = 1, omega2 = 1 with the phase h = exp(1000*x),
  which overflows on some draws (exit 2, a domain error): the only run
  that replays non-finite draws one at a time;
- `figures` on a scenario file named trip (theta0 = 1, omega2 = 1,
  `field = expr`, ez = 1/(t-0.5), t_end = 2), whose run gate trips at
  t = 0.5 (exit 1) with a 501-sample partial `<out>/trip.csv`;
- `verify` on the presets at seeds 0 and 5, and at sample_count 1, 7, 100
  and 1000;
- `verify` on fig45 with `corrupt_b0 = 0.001` (a file written to the
  workdir), whose shifted potential fails `residual_base` (exit 1);
- every benchmark op of seeds 1-3, built by `perfbench.workloads`.

Then one line per verify report, "measured <name> <check> <float.hex>",
for every `CheckResult.measured` of the presets free, fig1, fig3 and
fig45 and of the benchmark's verify ops of seeds 1-5, at battery seeds
0-29 and sample_count 7, 100 and 400, and of free and fig45 at seed 5
with 1000 draws.

The program is imported from `<root>/src` (default: this checkout) and
run in this process.  Runs write under one fixed directory, `--workdir`,
which is emptied first: standard output echoes the `--out` paths, so two
checkouts compare equal only when both write to the same place.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PRESETS = ("free", "fig1", "fig2", "fig3", "fig45")
LITERAL = """name = fig45_literal
helicity = positive
q = 1
theta0 = pi/2
omega1 = 0
phi0 = 0
omega2 = 10
field = constant
ex = 0
ey = 0
ez = 1/q
dt = 0.001
t_end = 20
"""
BENCH_WORKLOADS = ("simulate", "verify", "control")


def _run(cli, argv, written) -> str:
    """Run one CLI call; return "rc=<exit code> <sha256>", where the digest
    covers the exit code, the output streams and the files in `written`."""
    for path in written:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped error is an outcome too
            rc = type(exc).__name__
    digest = hashlib.sha256(f"{rc}\0".encode())
    digest.update(stdout.getvalue().encode() + b"\0")
    digest.update(stderr.getvalue().encode() + b"\0")
    for path in written:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return f"rc={rc} {digest.hexdigest()}"


def _preset_file(workdir: Path, name: str, tag: str, line: str) -> str:
    """The preset with `line` added, as the scenario file <name>-<tag>.scn."""
    text = (resources.files("weyldyn")
            .joinpath(f"presets/{name}.scn").read_text())
    path = workdir / f"{name}-{tag}.scn"
    path.write_text(text + line + "\n")
    return str(path)


def cli_runs(workdir: Path):
    import weyldyn.cli as cli
    import workloads

    for name in PRESETS:
        out = workdir / f"{name}.csv"
        yield (f"simulate-si:{name}",
               _run(cli, ("simulate", name, "--si", "--out", str(out)), [out]))
    figures = workdir / "figures"
    yield "figures", _run(cli, ("figures", "--out", str(figures)), [figures])
    literal = workdir / "fig45_literal.scn"
    literal.write_text(LITERAL)
    for argv in (("verify", str(literal)),
                 ("simulate", str(literal), "--t-end", "2"),
                 ("figures", str(literal), "--t-end", "2"),
                 ("control", "fig45", "--dkdt", "-0.5", "--t-end", "2", "--si"),
                 ("control", "free", "--dedt", "2", "--si"),
                 ("simulate", "fig45", "--t-end", "0.0105")):
        out = workdir / "options"
        yield (":".join(["options", *argv]),
               _run(cli, (*argv, "--out", str(out)), [out]))
    polar = workdir / "polar.scn"
    polar.write_text("theta0 = 0.5\nomega1 = 2\nphi0 = 1\n"
                     "dt = 0.001\nt_end = 1\n")
    out = workdir / "options"
    yield ("control-gate:polar",
           _run(cli, ("control", str(polar), "--dkdt", "1e308", "--mode",
                      "polar", "--out", str(out)), [out]))
    broken = {"law": "theta_expr = 1/t\n",
              "constant": "field = constant\nez = exp(1000)\n",
              "gauge": "theta0 = 1\nomega2 = 1\ns = exp(1000*t)\n",
              "deep": f"theta_expr = {'(' * 400}t{')' * 400}\n",
              "infgauge": "theta0 = 1\nomega2 = 1\ns = 1e309\n",
              "infphase": "theta0 = 1\nomega2 = 1\nh = 1e309\n",
              "zerofield": "theta_expr = 1 + t^2\n"}
    for name, text in broken.items():
        (workdir / f"{name}.scn").write_text(text + "t_end = 1\n")
    law, constant, gauge, *refused, zerofield = (
        str(workdir / f"{name}.scn") for name in broken)
    commands = (("verify",), ("simulate",), ("control", "--dedt", "1"),
                ("figures",))
    out = workdir / "errors"
    for argv in (*((command, scn, *target) for scn in (law, constant)
                   for command, *target in commands),
                 ("simulate", gauge),
                 ("control", "fig45", "--dkdt", "nan"),
                 ("control", "free", "--dedt", "nan"),
                 *((command, scn, *target) for scn in refused
                   for command, *target in commands),
                 ("simulate", zerofield)):
        yield (":".join(["error", *argv]),
               _run(cli, (*argv, "--out", str(out)), [out]))
    k_refused = [("control", "fig1", "--dkdt", "0.5"),
                 ("control", "fig45", "--dkdt", "0.5", "--mode", "polar")]
    for name, text, mode in (
            ("omega2neg", "theta0 = 1\nomega2 = -1\n", ()),
            ("theta0zero", "omega2 = 1\n", ()),
            ("omega1neg", "theta0 = 1\nomega1 = -1\n", ("--mode", "polar")),
            ("exprlaw", "theta_expr = 1 + 0.1*t\n", ())):
        scn = workdir / f"{name}.scn"
        scn.write_text(text + "t_end = 1\n")
        k_refused.append(("control", str(scn), "--dkdt", "0.5", *mode))
    for argv in (*k_refused,
                 ("control", "free", "--dedt", "1", "--mode", "polar")):
        yield (":".join(["error", *argv]),
               _run(cli, (*argv, "--out", str(out)), [out]))
    edges = {"kunderflow": "theta0 = 1e-200\nomega2 = 1\nq = 1e-200\n",
             "driveinf": "theta0 = 1\nomega1 = 3\nomega2 = 3\n"
                         "field = drive\nq = 1e-308\n",
             "drivenan": "theta_expr = sqrt(1e-300+t)\nphi_expr = 0\n"
                         "field = drive\n",
             "exprzero": "theta0 = 1\nomega2 = 1\nfield = expr\nez = -0\n",
             "constzero": "theta0 = 1\nomega2 = 1\nfield = constant\n"
                          "ez = -0\n",
             "gaugesign": "s = -t\n"}
    for name, text in edges.items():
        (workdir / f"{name}.scn").write_text(text + "t_end = 1\n")
    kunderflow, *simulated = (str(workdir / f"{name}.scn") for name in edges)
    gates = {"gateblock": "s = exp(300*t)\nt_end = 3\n",
             "gatetie": "field = expr\nez = 1/(t-3)\ns = 1/(t-3)\n"
                        "t_end = 4\n",
             "gateenergy": "field = expr\nez = 1/(t-1)\ns = exp(1000*t)\n"
                           "t_end = 2\n",
             "gatefield": "field = expr\nez = 1/(t-0.5)\n"
                          "s = exp(1000*t)\nt_end = 2\n"}
    for name, text in gates.items():
        (workdir / f"{name}.scn").write_text("theta0 = 1\nomega2 = 1\n"
                                             + text)
    replay = workdir / "replay.scn"
    replay.write_text("theta0 = 1\nomega2 = 1\nh = exp(1000*x)\n")
    trip = workdir / "trip.scn"
    trip.write_text("name = trip\ntheta0 = 1\nomega2 = 1\nfield = expr\n"
                    "ez = 1/(t-0.5)\nt_end = 2\n")
    for argv in (("control", kunderflow, "--dkdt=-0.5"),
                 *(("simulate", scn) for scn in simulated),
                 *(("simulate", str(workdir / f"{name}.scn"))
                   for name in gates),
                 ("verify", str(replay)),
                 ("figures", str(trip))):
        yield (":".join(["edge", *argv]),
               _run(cli, (*argv, "--out", str(out)), [out]))
    for name in PRESETS:
        for seed in (0, 5):
            yield (f"verify:{name}:seed{seed}",
                   _run(cli, ("verify", name, "--seed", str(seed)), []))
        for count in (1, 7, 100, 1000):
            scn = _preset_file(workdir, name, f"n{count}",
                               f"sample_count = {count}")
            yield f"verify:{name}:n{count}", _run(cli, ("verify", scn), [])
    scn = _preset_file(workdir, "fig45", "corrupt", "corrupt_b0 = 0.001")
    yield "verify:fig45:corrupt_b0", _run(cli, ("verify", scn), [])
    for workload in BENCH_WORKLOADS:
        for seed in (1, 2, 3):
            opdir = workdir / f"bench-{workload}-{seed}"
            opdir.mkdir()
            for ops in workloads.build(workload, seed, opdir):
                for op in ops:
                    written = [Path(op.output)] if op.output else []
                    yield (f"bench:{workload}:{seed}:{op.shape}:{op.variant}",
                           _run(cli, op.argv, written))


def measured_values(workdir: Path):
    from weyldyn.scenario import resolve_scenario
    from weyldyn.verify import run_verification
    import workloads

    scenarios = [(name, resolve_scenario(name))
                 for name in ("free", "fig1", "fig3", "fig45")]
    for seed in (1, 2, 3, 4, 5):
        opdir = workdir / f"measured-verify-{seed}"
        opdir.mkdir()
        for ops in workloads.build("verify", seed, opdir):
            for op in ops:
                scenarios.append((f"bench{seed}:{op.shape}:{op.variant}",
                                  resolve_scenario(op.argv[1])))
    reports = [(f"{label}:seed{seed}:n{count}",
                replace(scn, seed=seed, sample_count=count))
               for label, scn in scenarios
               for seed in range(30) for count in (7, 100, 400)]
    reports += [(f"{label}:seed5:n1000",
                 replace(scn, seed=5, sample_count=1000))
                for label, scn in scenarios if label in ("free", "fig45")]
    for label, scn in reports:
        for check in run_verification(scn).checks:
            yield f"{label} {check.name} {float(check.measured).hex()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout whose src/ is fingerprinted "
                             "(default: this one)")
    parser.add_argument("--workdir", type=Path,
                        default=Path(tempfile.gettempdir()) / "weyldyn-fp",
                        help="fixed directory the runs write under")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE / "perfbench"))
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import weyldyn

    src = (args.root.resolve() / "src").resolve()
    if src not in Path(weyldyn.__file__).resolve().parents:
        print(f"error: imported weyldyn from {weyldyn.__file__}, not {src}",
              file=sys.stderr)
        return 2

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    for name, digest in cli_runs(args.workdir):
        print(f"run {name} {digest}", flush=True)
    for line in measured_values(args.workdir):
        print(f"measured {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
