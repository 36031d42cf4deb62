"""Workload generation and output checks for the weyldyn benchmark.

A workload is a fixed list of scenario shapes.  The seed draws a few
variants of each shape (start offsets, phases, amplitudes, battery
seeds); the step counts of every shape are fixed, so the cost of a round
does not depend on the seed.  Each op is one ``weyl-dyn`` argv over a
generated scenario file, with the exit code and row count it must give.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("simulate", "verify", "control")
VARIANTS = 2  # round r runs variant r % VARIANTS of every shape

# Column list promised by the README; the benchmark keeps its own copy so
# that a changed header in the program reads as a failure.
TRAJECTORY_HEADER = (b"t,x,y,z,vx,vy,vz,theta,phi,k,E0,px,py,pz,Ex,Ey,Ez,"
                     b"constraint_residual\n")
FIELD_HEADER = b"t,Ex,Ey,Ez\n"
_FINITE_BYTES = b"0123456789.-+e,\n"  # everything repr() of a finite float uses

TOLERANCE = 1e-6  # the scenario default, which no generated scenario sets

# The abort scenario of the simulate mix: its x-y field breaks the
# field/motion compatibility constraint at t = 6.425 on the dt = 0.001 grid.
ABORT_ROWS = 6426


@dataclass(frozen=True)
class Op:
    shape: str
    variant: int
    argv: tuple
    expect_rc: int
    output: str | None       # CSV the op writes, if any
    header: bytes | None
    rows: int | None         # data rows the CSV must hold
    law: tuple | None        # (theta0, omega1, phi0, omega2) the run must keep
    draws: int = 0           # verify: random draws the battery evaluates

    @property
    def key(self):
        return self.shape, self.variant


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    data: bytes | None       # CSV bytes, when the op writes one


def _num(value: float) -> str:
    return f"({value!r})"


def _scenario(path: Path, lines: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


def _rows(lines: dict) -> int:
    return int(round(float(lines["t_end"]) / float(lines["dt"]))) + 1


def _start(rng) -> dict:
    return {f"{axis}0": _num(rng.uniform(-1.0, 1.0)) for axis in "xyz"}


def _battery_draws(sample_count: int) -> int:
    # residual_base, residual_degenerate and the identities draw n events
    # each; the mirror family and both field cross-checks draw n // 4
    return 3 * sample_count + 3 * max(1, sample_count // 4)


def _simulate_ops(rng, workdir: Path, v: int) -> list[Op]:
    ops = []

    def add(shape, lines, expect_rc=0, rows=None, law=None):
        scn = _scenario(workdir / f"{shape}-{v}.scn", lines)
        out = str(workdir / f"{shape}-{v}.csv")
        ops.append(Op(shape, v, ("simulate", scn, "--out", out), expect_rc,
                      out, TRAJECTORY_HEADER, rows or _rows(lines), law))

    # free flight with a plane-wave phase, 5k steps; angles stay fixed
    theta0, phi0 = rng.uniform(0.3, 2.8), rng.uniform(-math.pi, math.pi)
    free = {"theta0": _num(theta0), "phi0": _num(phi0), "h": "plane_wave",
            "h_energy": _num(rng.uniform(1.0, 3.0)), "field": "zero",
            "dt": "0.001", "t_end": "5", **_start(rng)}
    add("free", free, law=(theta0, 0.0, phi0, 0.0))
    # fig1/fig3 double rotation under its drive field, on the fig3 grid.
    # The phases stay at the preset's so that the law error, which is
    # pure rounding and moves with the phases, is the same for every seed.
    drive = {"theta0": "pi/2", "omega1": "sqrt(3)", "phi0": "0",
             "omega2": "sqrt(5)", "field": "drive", "dt": "0.001",
             "t_end": "10", **_start(rng)}
    add("drive", drive, law=(math.pi / 2, math.sqrt(3), 0.0, math.sqrt(5)))
    # fig45 relocalization: constant axial field, 20k steps
    fig45 = {"theta0": "pi/2", "phi0": _num(rng.uniform(-math.pi, math.pi)),
             "omega2": "10", "field": "constant", "ez": "1/(2*q)",
             "dt": "0.001", "t_end": "20", **_start(rng)}
    add("fig45", fig45)
    # axial drain from an expression field, 10k steps
    drain = {"theta0": "pi/2", "phi0": _num(rng.uniform(-math.pi, math.pi)),
             "omega2": _num(rng.uniform(2.0, 4.0)), "field": "expr",
             "ez": f"{_num(rng.uniform(0.2, 0.5))}*cos("
                   f"{_num(rng.uniform(0.5, 1.5))}*t)",
             "dt": "0.001", "t_end": "10", **_start(rng)}
    add("drain", drain)
    # x-y field that breaks the compatibility constraint partway through;
    # success means exit 1 with exactly the partial rows up to the abort
    abort = {"theta0": "pi/3", "field": "expr", "ex": "1e-9*exp(t)",
             "ez": "0.3*cos(0.7*t)", "dt": "0.001", "t_end": "10",
             **_start(rng)}
    add("abort", abort, expect_rc=1, rows=ABORT_ROWS)
    return ops


def _verify_ops(rng, workdir: Path, v: int) -> list[Op]:
    ops = []

    def add(shape, lines):
        scn = _scenario(workdir / f"{shape}-{v}.scn", lines)
        seed = str(rng.randrange(2 ** 31))
        ops.append(Op(shape, v, ("verify", scn, "--seed", seed), 0, None,
                      None, None, None, draws=_battery_draws(100)))

    # plane-wave phase: phase partials in every spinor evaluation
    add("free", {"theta0": _num(rng.uniform(0.3, 2.8)),
                 "phi0": _num(rng.uniform(-math.pi, math.pi)),
                 "h": "plane_wave", "h_energy": _num(rng.uniform(1.0, 3.0))})
    # fig45 law without a phase
    add("fig45", {"theta0": "pi/2",
                  "phi0": _num(rng.uniform(-math.pi, math.pi)),
                  "omega2": "10", "field": "constant", "ez": "1/(2*q)"})
    # expression laws and an x, y, z, t phase with drawn coefficients
    c = [rng.uniform(0.2, 1.0) for _ in range(9)]
    add("exprlaw", {
        "theta_expr": f"{_num(1.0 + c[0])} + {_num(c[1] / 2)}*sin("
                      f"{_num(c[2])}*t)",
        "phi_expr": f"{_num(c[3])}*t + {_num(c[4] / 2)}*cos({_num(c[5])}*t)",
        "h": f"{_num(c[6])}*x - {_num(c[7])}*y*t + {_num(c[8] / 2)}*sin(z - t)",
    })
    return ops


def _control_ops(rng, workdir: Path, v: int) -> list[Op]:
    ops = []

    def add(shape, lines, *args):
        scn = _scenario(workdir / f"{shape}-{v}.scn", lines)
        out = str(workdir / f"{shape}-{v}.csv")
        ops.append(Op(shape, v, ("control", scn, *args, "--out", out), 0,
                      out, FIELD_HEADER, _rows(lines), None))

    # energy ramp on free flight: per-sample field and momentum, 5k samples
    add("dedt", {"theta0": _num(rng.uniform(0.3, 2.8)),
                 "phi0": _num(rng.uniform(-math.pi, math.pi)),
                 "h": "plane_wave", "h_energy": "2", "dt": "0.001",
                 "t_end": "5"},
        "--dedt", repr(rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)))
    # fig45 drain realized in the azimuth: integrates a constant field
    add("azimuthal", {"theta0": "pi/2",
                      "phi0": _num(rng.uniform(-math.pi, math.pi)),
                      "omega2": "10", "field": "constant", "ez": "1/(2*q)",
                      "dt": "0.001", "t_end": "20"},
        "--dkdt", repr(-rng.uniform(0.2, 0.8)), "--mode", "azimuthal")
    # phi pinned, theta rotating: the k schedule goes through the polar angle
    add("polar", {"theta0": _num(rng.uniform(0.3, 1.2)),
                  "omega1": _num(rng.uniform(1.0, 3.0)),
                  "phi0": _num(rng.uniform(-math.pi, math.pi)),
                  "dt": "0.001", "t_end": "10"},
        "--dkdt", repr(rng.choice((-1, 1)) * rng.uniform(0.1, 0.5)),
        "--mode", "polar")
    return ops


_BUILDERS = {"simulate": _simulate_ops, "verify": _verify_ops,
             "control": _control_ops}


def build(workload: str, seed: int, workdir: Path) -> list[list[Op]]:
    """Scenario files for ``workload``; one list of ops per variant."""
    rng = random.Random(f"{workload}:{seed}")
    return [_BUILDERS[workload](rng, workdir, v) for v in range(VARIANTS)]


def digest(outcome: Outcome) -> str:
    """What a rerun of the same op must reproduce byte for byte."""
    h = hashlib.sha256(outcome.stdout.encode())
    if outcome.data is not None:
        h.update(outcome.data)
    return h.hexdigest()


def check(op: Op, outcome: Outcome, reference: str | None) -> list[str]:
    """Reasons this op's outputs are wrong; empty when all checks hold."""
    problems = []
    if outcome.rc != op.expect_rc:
        problems.append(f"exit code {outcome.rc}, expected {op.expect_rc}")
    verdict = {"verify": "overall: PASS", "control": "[PASS]"}.get(op.argv[0])
    if verdict:
        lines = outcome.stdout.splitlines()
        if not any(line.startswith(verdict) for line in lines):
            problems.append(f"no '{verdict}' line")
        if any("FAIL" in line for line in lines):
            problems.append("the report has a FAIL line")
    if op.output is not None:
        data = outcome.data or b""
        if not data.startswith(op.header):
            problems.append("CSV header differs from the documented columns")
        body = data[len(op.header):]
        if body.translate(None, _FINITE_BYTES):
            problems.append("CSV holds a non-finite or malformed value")
        rows = body.count(b"\n")
        if rows != op.rows:
            problems.append(f"CSV has {rows} rows, expected {op.rows}")
    if reference is not None and digest(outcome) != reference:
        problems.append("rerun output differs from the first run")
    return problems


def angle_error(op: Op, outcome: Outcome) -> float:
    """Largest |theta - theta_law(t)| or |phi - phi_law(t)| in the CSV."""
    import numpy as np

    table = np.loadtxt(outcome.data.decode().splitlines()[1:], delimiter=",",
                       usecols=(0, 7, 8))
    t, theta, phi = table.T
    theta0, omega1, phi0, omega2 = op.law
    return float(max(np.max(np.abs(theta - (theta0 + omega1 * t))),
                     np.max(np.abs(phi - (phi0 + omega2 * t)))))
