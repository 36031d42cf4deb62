"""Property: the exit-code contract holds for any scenario text and options.

`cli.main` runs in-process on generated scenario files and option sets,
valid and invalid alike.  It must return 0, 1 or 2, let no exception
escape (a stray numpy RuntimeWarning is an error under the test
configuration), pair exit 2 with an `error:` line on stderr, no CSV
written and no directory made, and leave no inf or nan in a CSV it
wrote when it exits 0.  The one option set argparse refuses, `control
--dedt` with `--mode`, exits 2 through the parser's usage error and
writes no CSV.

The number pools keep every accepted grid at 2000 steps or fewer: the
largest finite t_end is 2 and the smallest accepted dt is 0.001, and
the huge or tiny values are ones the grid check refuses (t_end 1e9 by
the step cap, for every dt in the pool).

A second property writes scenario files whose keys hold expressions
generated from docs/expression-grammar.md, on a 100-step grid, and runs
all four commands on each: `control` with a target drawn from the same
rates, and the commands that take `--dt` and `--t-end` with values drawn
from the same pools, so that the grid stays at 2000 steps or fewer.
A third runs `simulate` and `figures` on those files with 16-step
blocks, so that a run writes several blocks of rows before its last.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyldyn import cli, dynamics


def mostly(valid, invalid):
    """About two draws in three from `valid`."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(invalid))


# "inf" and "nan" are floats to argparse but unknown names in a scenario file
NUMBERS = mostly(("0.5", "2", "-1", "0", "pi/3", "1e-9"),
                 ("1e308", "1e309", "inf", "-inf", "nan", "1/0", "x",
                  "sqrt(-1)", "exp(1000)"))
RATES = mostly(("0.5", "2", "-1", "0", "1e-9"),
               ("1e308", "1e309", "inf", "-inf", "nan"))
DTS = mostly(("0.001", "0.01", "0.3"),
             ("5", "0", "-0.5", "nan", "inf", "-inf", "1e-300"))
T_ENDS = mostly(("0.5", "2"),
                ("0.0001", "0", "-1", "nan", "inf", "1e300", "1e9"))
INTEGERS = mostly(("0", "7"), ("-1", "2.5", "1e30", "1e309", "nan"))
SAMPLE_COUNTS = mostly(("1", "7", "30"), ("0", "-2", "2.5", "1e309", "1e9"))
DEEP = "(" * 400 + "t" + ")" * 400  # past the parser's depth bound
# a law whose sqrt is defined on the grid but not everywhere between
REFINE_ERROR = ("theta_expr = 1 + 0.01*(t - 0.30025)^2"
                " + 1e-12*sqrt((t - 0.30025)^2 - 1e-12)\n"
                "omega2 = 1\nfield = drive\nt_end = 1\n")
TEXT_VALUES = {
    "helicity": mostly(("positive", "negative"), ("sideways",)),
    "h": mostly(("zero", "plane_wave", "0.3*x - t"),
                ("1/x", "exp(1000*x)", "q", "1e309")),
    "s": mostly(("0", "t"), ("exp(t)", "x", "exp(1000*t)", "1e309")),
    "field": mostly(("zero", "constant", "expr", "drive"), ("bogus",)),
    "theta_expr": mostly(("0.5 + 0.1*t^2",), ("log(t)", "x", DEEP)),
    "phi_expr": mostly(("2*t",), ("1/t", "exp(1000*t)")),
    "ex": mostly(("0", "0.5", "sin(t)"), ("1e-9*exp(t)", "t/0", "x")),
    "ey": mostly(("0", "0.3*cos(t)"), ("exp(1000*t)",)),
    "ez": mostly(("0", "1/(2*q)", "0.3*cos(0.7*t)"), ("nan",)),
    "corrupt_b0": mostly(("0",), ("0.5",)),
    "name": mostly(("run",), ("no/such/dir/run",)),
}
SCALAR_KEYS = ("q", "theta0", "omega1", "phi0", "omega2", "h_energy", "x0",
               "y0", "z0", "fd_step", "tolerance")

number_lines = st.dictionaries(st.sampled_from(SCALAR_KEYS), NUMBERS,
                               max_size=4)
text_lines = st.dictionaries(
    st.sampled_from(sorted(TEXT_VALUES)), st.none(), max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: TEXT_VALUES[key] for key in keys}))
scenario_texts = st.builds(
    lambda numbers, texts, grid, ints, junk: "".join(
        f"{key} = {value}\n"
        for key, value in {**numbers, **texts, **grid, **ints}.items())
    + junk,
    number_lines, text_lines,
    st.fixed_dictionaries({"dt": DTS, "t_end": T_ENDS}),
    st.fixed_dictionaries({}, optional={"seed": INTEGERS,
                                        "sample_count": SAMPLE_COUNTS}),
    mostly(("",), ("# comment\n", "no equals sign\n", "bogus = 1\n",
                   "q = 1\n", "theta0 =\n")))

# option values are joined with "=": argparse reads a separate "-inf" as
# an option name
CONTROL_TARGETS = (
    RATES.map(lambda v: [f"--dedt={v}"]),
    RATES.map(lambda v: [f"--dkdt={v}"]),
    st.tuples(RATES, st.sampled_from(("azimuthal", "polar"))).map(
        lambda t: [f"--dkdt={t[0]}", f"--mode={t[1]}"]))
targets = st.one_of(
    *CONTROL_TARGETS,
    # a usage error: --mode goes only with --dkdt
    st.tuples(RATES, st.sampled_from(("azimuthal", "polar"))).map(
        lambda t: [f"--dedt={t[0]}", f"--mode={t[1]}"]))


def option(values):
    return st.one_of(st.none(), st.none(), values)


# the options each command takes, besides --out and control's target
OPTIONS = {
    "verify": ("--seed",),
    "simulate": ("--dt", "--t-end", "--si"),
    "control": ("--dt", "--t-end", "--si"),
    "figures": ("--dt", "--t-end"),
}


@st.composite
def invocations(draw):
    """(argv with {tmp} placeholders, scenario text or None)."""
    command = draw(st.sampled_from(("verify", "simulate", "control",
                                    "figures")))
    source = draw(mostly(("preset", "file"), ("missing", "directory")))
    text = draw(scenario_texts) if source == "file" else None
    scenario = {"preset": draw(st.sampled_from(("free", "fig1", "fig2",
                                                "fig3", "fig45",
                                                "fig45_literal"))),
                "file": "{tmp}/gen.scn", "missing": "{tmp}/none.scn",
                "directory": "{tmp}"}[source]
    argv = [command, scenario]
    if command == "control":
        argv += draw(targets)
    takes = OPTIONS[command]
    if "--t-end" in takes:
        t_end = draw(option(T_ENDS))
        if source == "preset" and t_end is None:
            t_end = "2"  # the presets' own grids run past 2000 steps
        if t_end is not None:
            argv.append(f"--t-end={t_end}")
    for name, values in (("--dt", DTS),
                         ("--seed", mostly(("0", "5", str(2 ** 40)),
                                           ("-1",)))):
        value = draw(option(values)) if name in takes else None
        if value is not None:
            argv.append(f"{name}={value}")
    if "--si" in takes and draw(st.booleans()):
        argv.append("--si")
    out = draw(mostly(("{tmp}/out",),
                      ("{tmp}/missing/out", "{tmp}/existing", "{tmp}")))
    argv.append(f"--out={out}")
    return argv, text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
# the energy and momentum overflow at t = 0.71 while the state stays finite
@example((["simulate", "{tmp}/gen.scn", "--out={tmp}/out"],
          "theta0 = 1\nomega2 = 1\ns = exp(1000*t)\ndt = 0.001\nt_end = 2\n"))
# too deep to evaluate: a parse error, not a RecursionError
@example((["verify", "{tmp}/gen.scn", "--out={tmp}/out"],
          f"theta_expr = {DEEP}\n"))
@example((["control", "free", "--dedt=1", "--mode=polar", "--out={tmp}/out"],
          None))
# q sin(theta0) underflows to 0: an infinite field, not a ZeroDivisionError
@example((["control", "{tmp}/gen.scn", "--dkdt=-0.5", "--out={tmp}/out"],
          "theta0 = 1e-200\nomega2 = 1\nq = 1e-200\nt_end = 1\n"))
# drive fields that overflow, or are nan, at t = 0: no RuntimeWarning
@example((["simulate", "{tmp}/gen.scn", "--out={tmp}/out"],
          "theta0 = 1\nomega1 = 3\nomega2 = 3\nfield = drive\nq = 1e-308\n"
          "t_end = 1\n"))
@example((["simulate", "{tmp}/gen.scn", "--out={tmp}/out"],
          "theta_expr = sqrt(1e-300+t)\nphi_expr = 0\nfield = drive\n"
          "t_end = 1\n"))
# |E| = 1e308 at t = 0: its square overflows in the --si reading
@example((["control", "{tmp}/gen.scn", "--dedt=1e308", "--si",
           "--out={tmp}/out"], "dt = 0.001\nt_end = 0.5\n"))
# the run passes its gate, but refining its k minimum evaluates the law
# between grid points, where sqrt is out of its domain: no CSV is written
@example((["simulate", "{tmp}/gen.scn", "--out={tmp}/existing"],
          REFINE_ERROR))
@example((["figures", "{tmp}/gen.scn", "--out={tmp}"], REFINE_ERROR))
# the same failure into a directory to be made: exit 2 leaves none of it
@example((["figures", "{tmp}/gen.scn", "--out={tmp}/figs/sub"], REFINE_ERROR))
def test_exit_code_contract_holds_for_generated_runs(invocation):
    check_exit_contract(*invocation)


def check_exit_contract(argv, text):
    """Run cli.main on argv, its {tmp} placeholders set to a fresh
    directory that holds the scenario text (if any) as gen.scn, and check
    the exit-code contract."""
    usage_error = (any(arg.startswith("--dedt=") for arg in argv)
                   and any(arg.startswith("--mode=") for arg in argv))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "existing").write_text("already here\n")
        if text is not None:
            (Path(tmp) / "gen.scn").write_text(text)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                assert usage_error, err.getvalue()
                rc = exc.code
        paths = list(Path(tmp).rglob("*"))
        written = [path.read_bytes() for path in paths if path.is_file()]
        folders = [path for path in paths if path.is_dir()]
    assert rc in (0, 1, 2)
    csvs = [data for data in written if data.startswith(b"t,")]
    if rc == 0:
        assert not any(b"inf" in data or b"nan" in data for data in csvs)
    if usage_error:
        assert rc == 2 and not csvs
        assert ("weyl-dyn: error: argument --mode: not allowed with "
                "argument --dedt") in err.getvalue().splitlines()
    elif rc == 2:
        assert any(line.startswith("error: ")
                   for line in err.getvalue().splitlines()), err.getvalue()
        assert not csvs  # a refused run writes nothing
        assert not folders, folders  # and makes no directory


# --- scenario files from docs/expression-grammar.md ------------------------

GRAMMAR_NUMBERS = st.sampled_from(("0", "1", "0.5", "3", "pi", "1e308",
                                   "1e-308", "5e-324"))
FUNCTIONS = ("sin", "cos", "tan", "exp", "sqrt", "abs")


def expressions(variables):
    """Expressions of the grammar over the given variables: numbers, the
    six functions, + - * / ^ (parenthesized) and unary minus; absent
    (None) one time in two."""
    leaves = (st.one_of(GRAMMAR_NUMBERS, st.sampled_from(variables))
              if variables else GRAMMAR_NUMBERS)
    return st.one_of(st.none(), st.recursive(leaves, lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/^"),
                  inner),
        inner.map("-{}".format)), max_leaves=5))


# the variables a key allows: none in a number or a constant field, t in
# an angle law, a field component or the gauge s, all four in the phase h
EXPRESSIONS = {variables: expressions(variables)
               for variables in ("", "t", "xyzt")}


@st.composite
def grammar_scenario_texts(draw):
    """A scenario file of a 100-step grid whose keys, each present or not,
    hold generated expressions over only the variables the key allows."""
    field = draw(st.sampled_from(("drive", "expr", "constant", "zero")))
    allowed = {"q": "", "s": "t", "h": "xyzt"}
    allowed |= ({"theta_expr": "t"} if draw(st.booleans())
                else {"theta0": "", "omega1": ""})
    allowed |= ({"phi_expr": "t"} if draw(st.booleans())
                else {"phi0": "", "omega2": ""})
    if field in ("expr", "constant"):
        allowed |= dict.fromkeys(("ex", "ey", "ez"),
                                 "t" if field == "expr" else "")
    lines = [f"field = {field}\n", "dt = 0.01\nt_end = 1\nsample_count = 7\n"]
    for key, variables in allowed.items():
        value = draw(EXPRESSIONS[variables])
        if value is not None:
            lines.append(f"{key} = {value}\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grammar_scenario_texts(), st.one_of(*CONTROL_TARGETS),
       st.tuples(option(DTS), option(T_ENDS)))
def test_exit_code_contract_holds_for_grammar_generated_files(text, target,
                                                              grid):
    dt, t_end = grid
    grid = ([f"--dt={dt}"] if dt is not None else []) + (
        [f"--t-end={t_end}"] if t_end is not None else [])
    for command in (("verify",), ("simulate", *grid, "--si"),
                    ("control", *target, *grid, "--si"),
                    ("figures", *grid)):
        check_exit_contract([command[0], "{tmp}/gen.scn", *command[1:],
                             "--out={tmp}/out"], text)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grammar_scenario_texts(), st.tuples(option(DTS), option(T_ENDS)))
def test_a_later_block_of_a_run_fails_only_as_the_first_does(text, grid):
    # simulate samples the field program and the gauge one block of steps
    # at a time and writes each block as it goes; on 16-step blocks the
    # 100-step grid spans seven.  Which subexpressions are arrays does not
    # depend on t, and array evaluation does not raise, so an error is
    # raised on the first block, before any row is written, or not at all
    dt, t_end = grid
    grid = ([f"--dt={dt}"] if dt is not None else []) + (
        [f"--t-end={t_end}"] if t_end is not None else [])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_BLOCK", 16)
        for command in ("simulate", "figures"):
            check_exit_contract([command, "{tmp}/gen.scn", *grid,
                                 "--out={tmp}/out"], text)
