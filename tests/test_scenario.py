"""Scenario text format, presets, and the summary produced by a run."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from weyldyn import scenario
from weyldyn.dynamics import (ConstantField, DriveField, ExprField,
                              Trajectory, ZeroField)
from weyldyn.scenario import (
    PRESET_NAMES,
    ScenarioError,
    load_scenario,
    parse_scenario_text,
    resolve_scenario,
    run_scenario,
)
from weyldyn.spinors import Helicity


def test_minimal_scenario_defaults():
    sc = parse_scenario_text("theta0 = pi/3")
    assert sc.name == "scenario"
    assert sc.helicity is Helicity.POSITIVE
    assert sc.q == 1.0
    assert (sc.dt, sc.t_end) == (1e-3, 10.0)
    assert (sc.fd_step, sc.tolerance) == (1e-5, 1e-6)
    assert (sc.sample_count, sc.seed) == (100, 0)
    assert isinstance(sc.program, ZeroField)
    assert sc.h is None
    assert str(sc.s.expr) == "0.0"
    assert sc.initial.position == (0.0, 0.0, 0.0)
    assert sc.law.theta.offset == pytest.approx(math.pi / 3)


def test_scalar_values_accept_expressions_and_earlier_keys():
    sc = parse_scenario_text("q = 2\ntheta0 = q/4\nomega1 = sqrt(3)")
    assert sc.law.theta.offset == 0.5
    assert sc.law.theta.rate == pytest.approx(math.sqrt(3))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bogus = 1", "unknown key 'bogus'"),
        ("theta0 = 1\ntheta0 = 2", "line 2: duplicate key 'theta0'"),
        ("q = 0", "charge must be nonzero"),
        ("helicity = sideways", "'sideways'"),
        ("theta_expr = t^2\nomega1 = 1", "conflicts"),
        ("s = x", "variables not allowed here: x"),
        ("field = constant\nex = t", "variables not allowed here: t"),
        ("field = magnetic", "expected one of zero, constant, expr, drive"),
        ("dt = 0", "'dt' must be positive"),
        ("t_end = -1", "'t_end' must be positive"),
        ("sample_count = 1e9", "'sample_count' must be at most 1000000"),
        # expression errors met while building the law, phase and gauge
        ("h = plane_wave\ntheta_expr = 1/t",
         "line 2: key 'theta_expr': division by zero in '1.0/t'"),
        ("h = plane_wave\nphi_expr = 1e309",
         "line 2: key 'phi_expr': non-finite result from 'inf'"),
        ("theta_expr = t^t", "line 1: key 'theta_expr': cannot differentiate"),
        # the start state: the law's values and rates at t = 0
        ("theta_expr = 1/t", "line 1: key 'theta_expr': division by zero"),
        ("phi0 = 1\ntheta_expr = sqrt(t)",
         "line 2: key 'theta_expr': division by zero"),
        ("phi_expr = 1e309", "line 1: key 'phi_expr': non-finite result"),
        # constant components are numbers, evaluated like every other
        ("field = constant\nez = exp(1000)",
         "line 2: key 'ez': domain error in 'exp"),
        ("field = constant\nex = 1/0", "line 2: key 'ex': division by zero"),
        ("h = t^t", "line 1: key 'h': cannot differentiate"),
        ("s = t^t", "line 1: key 's': cannot differentiate"),
    ],
)
def test_parse_rejections_name_the_problem(text, fragment):
    with pytest.raises(ScenarioError, match=fragment.replace("(", "\\(")):
        parse_scenario_text(text)


# files with two errors: the checks run in a fixed order, so the first
# error reported is pinned word for word
@pytest.mark.parametrize("text, message", [
    ("dt = 0\nt_end = x", "line 2: key 't_end': unbound variable 'x'"),
    ("field = constant\nex = t\ndt = -1",
     "key 'ex': variables not allowed here: t"),
    ("theta_expr = x\nomega1 = 1",
     "key 'theta_expr': variables not allowed here: x"),
    ("q = 0\nhelicity = sideways", "key 'q': charge must be nonzero"),
    ("q = 0\nbogus = 1", "line 2: unknown key 'bogus'"),
    ("tolerance = 0\ndt = 1\nt_end = 0.4", "key 'tolerance' must be positive"),
    ("sample_count = 0\nseed = 2.5", "key 'sample_count' must be at least 1"),
    ("seed = -1\nx0 = y", "key 'seed' must be nonnegative"),
])
def test_first_of_two_errors_is_reported(text, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario_text(text)
    assert str(info.value) == message


def test_comments_and_blank_lines_are_ignored():
    sc = parse_scenario_text("# heading\n\ntheta0 = pi/2  \n# tail\n")
    assert sc.law.theta.offset == pytest.approx(math.pi / 2)


def test_plane_wave_phase_key():
    sc = parse_scenario_text("h = plane_wave\nh_energy = 3\ntheta0 = pi/2")
    assert sc.h is not None
    assert sc.h.partial("t") == -3.0


def test_expr_field_kind_allows_time():
    sc = parse_scenario_text("field = expr\nex = sin(t)\ney = 0\nez = t^2")
    prog = sc.program
    assert isinstance(prog, ExprField)
    assert prog.sample(np.array([2.0]))[0] == pytest.approx(
        (math.sin(2.0), 0.0, 4.0))


def test_nonlinear_angle_expressions():
    sc = parse_scenario_text("theta_expr = 0.5 + 0.1*t^2\nphi_expr = 2*t")
    th, ph = sc.law.angles(2.0)
    assert th == pytest.approx(0.9)
    assert ph == pytest.approx(4.0)
    assert sc.law.accelerations(1.0)[0] == pytest.approx(0.2)


def test_presets_resolve_and_have_expected_programs():
    assert PRESET_NAMES == ("free", "fig1", "fig2", "fig3", "fig45",
                            "fig45_literal")
    assert isinstance(resolve_scenario("free").program, ZeroField)
    assert isinstance(resolve_scenario("fig1").program, DriveField)
    assert isinstance(resolve_scenario("fig3").program, DriveField)
    fig45 = resolve_scenario("fig45")
    prog = fig45.program
    assert isinstance(prog, ConstantField)
    assert tuple(prog.sample(np.zeros(1))[0]) == (0.0, 0.0, 0.5)


def test_fig45_literal_field_doubles_axial_component():
    lit = resolve_scenario("fig45_literal")
    assert lit.name == "fig45_literal"
    assert tuple(lit.program.sample(np.zeros(1))[0]) == (0.0, 0.0, 1.0)
    # the fig45 run with its axial field doubled
    fig45 = resolve_scenario("fig45")
    assert (lit.law, lit.q, lit.dt, lit.t_end, lit.initial) == (
        fig45.law, fig45.q, fig45.dt, fig45.t_end, fig45.initial)
    assert isinstance(lit.program, ConstantField)
    assert tuple(fig45.program.sample(np.zeros(1))[0]) == (0.0, 0.0, 0.5)


def test_paper_literal_keys_are_unknown():
    with pytest.raises(ScenarioError, match="^line 2: unknown key "
                       "'paper_literal_ez'$"):
        parse_scenario_text("field = constant\npaper_literal_ez = 1/q")


def test_preserves_law_classification():
    assert resolve_scenario("free").preserves_law
    assert resolve_scenario("fig1").preserves_law
    assert not resolve_scenario("fig45").preserves_law
    # a zero field keeps only a law whose rates are constant
    assert not parse_scenario_text("theta_expr = 1 + t^2").preserves_law
    assert parse_scenario_text("theta_expr = 1 + t^2\n"
                               "field = drive").preserves_law


def test_initial_state_matches_law_at_zero():
    sc = resolve_scenario("fig1")
    st = sc.initial
    assert (st.theta, st.phi) == sc.law.angles(0.0)
    assert (st.theta_dot, st.phi_dot) == sc.law.rates(0.0)
    assert st.helicity is sc.helicity
    assert st.q == sc.q


def test_with_overrides():
    sc = resolve_scenario("fig3").with_overrides(dt=0.01, t_end=2.0, seed=7,
                                                 out="x.csv")
    assert (sc.dt, sc.t_end, sc.seed, sc.out) == (0.01, 2.0, 7, "x.csv")
    # original untouched
    assert resolve_scenario("fig3").dt == 1e-3


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "case.scn"
    p.write_text("name = roundtrip\ntheta0 = pi/2\nomega2 = 4\n# note\n")
    sc = load_scenario(p)
    assert sc.name == "roundtrip"
    assert sc.law.phi.rate == 4.0
    assert resolve_scenario(str(p)).name == "roundtrip"


def test_resolve_unknown_name():
    with pytest.raises(ScenarioError, match="neither a preset"):
        resolve_scenario("missing.scn")


def test_run_scenario_summary_for_drain_and_recovery():
    run = run_scenario(resolve_scenario("fig45"))
    s = run.summary
    assert s["k_start"] == pytest.approx(5.0, abs=1e-12)
    assert s["k_min"] < 1e-9
    assert s["k_zero_time"] == pytest.approx(10.0, abs=1e-9)
    assert s["k_recovery_time"] == pytest.approx(20.0, abs=1e-3)
    assert s["k_end"] == pytest.approx(5.0, abs=1e-6)


def test_run_scenario_summary_for_law_preserving_run():
    sc = resolve_scenario("fig3").with_overrides(t_end=10.0)
    run = run_scenario(sc)
    s = run.summary
    assert s["k_min_refined"] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    assert s["k_max_refined"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert s["k_zero_time"] is None
    assert s["speed_drift"] <= 1e-12


def test_run_scenario_free_endpoint():
    run = run_scenario(resolve_scenario("free"))
    x, y, z = run.summary["endpoint"]
    # straight flight for five time units along the initial direction
    assert x == pytest.approx(5 * math.sin(math.pi / 3) * math.cos(math.pi / 5),
                              abs=1e-9)
    assert y == pytest.approx(5 * math.sin(math.pi / 3) * math.sin(math.pi / 5),
                              abs=1e-9)
    assert z == pytest.approx(5 * math.cos(math.pi / 3), abs=1e-9)


@pytest.mark.parametrize("text, fragment", [
    ("dt = 0.001\nt_end = 0.0001\n", "shorter than one step"),
    ("dt = 1\nt_end = 0.4\n", "shorter than one step"),
    ("dt = 1e-20\nt_end = 10\n", "underflows"),
])
def test_grid_without_a_step_is_a_scenario_error(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario_text(text)


def test_overrides_giving_no_step_are_a_scenario_error():
    free = resolve_scenario("free")
    with pytest.raises(ScenarioError, match="shorter than one step"):
        free.with_overrides(t_end=0.0001)
    with pytest.raises(ScenarioError, match="shorter than one step"):
        free.with_overrides(dt=20.0)
    assert free.with_overrides(dt=0.01, t_end=0.01).grid_end == 0.01


@pytest.mark.parametrize("override, fragment", [
    ({"t_end": math.inf}, "finite"),
    ({"t_end": math.nan}, "finite"),
    ({"dt": math.inf}, "finite"),
    ({"dt": math.nan}, "finite"),
    ({"t_end": 1e300}, "underflows"),
])
def test_overrides_off_any_grid_are_a_scenario_error(override, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        resolve_scenario("free").with_overrides(**override)


def test_negative_seed_override_is_a_scenario_error():
    free = resolve_scenario("free")
    with pytest.raises(ScenarioError, match="seed override must be "
                                            "nonnegative"):
        free.with_overrides(seed=-1)
    assert free.with_overrides(seed=0).seed == 0


def test_overrides_are_checked_in_order():
    with pytest.raises(ScenarioError, match="dt override must be positive"):
        resolve_scenario("free").with_overrides(dt=-1, seed=-1)


def test_grid_end_is_the_last_grid_time():
    assert resolve_scenario("free").grid_end == 5.0
    off = parse_scenario_text("theta0 = pi/3\nt_end = 1\ndt = 0.3\n")
    assert off.grid_end == 3 * 0.3 == 0.8999999999999999


def test_free_flight_reports_no_k_drain():
    # k is zero from the start, so there is nothing to drain or recover
    s = run_scenario(resolve_scenario("free")).summary
    assert s["k_min"] == 0.0 and s["k_start"] == 0.0
    assert s["k_zero_time"] is None
    assert s["k_recovery_time"] is None


def _documented_defaults():
    """{key: default} from the key tables of docs/scenario-format.md; a
    row lists one or more keys and either one default for all of them,
    one default per key, or `unset` (None)."""
    doc = Path(__file__).parent.parent / "docs" / "scenario-format.md"
    documented = {}
    for row in doc.read_text().splitlines():
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if not row.startswith("| `") or len(cells) != 3:
            continue
        keys = re.findall(r"`(\w+)`", cells[0])
        defaults = ([None] if cells[1] == "unset"
                    else re.findall(r"`([^`]*)`", cells[1]))
        if len(defaults) == 1:
            defaults *= len(keys)
        assert keys and len(defaults) == len(keys), row
        for key, default in zip(keys, defaults):
            assert key not in documented, f"{key} documented twice"
            documented[key] = default
    return documented


def test_documented_keys_and_defaults_match_the_parser():
    documented = _documented_defaults()
    table = scenario._DEFAULTS
    assert set(documented) == set(table)
    for key, default in documented.items():
        expected = table[key]
        if default is None or expected is None:
            assert default is expected, key
            continue
        try:
            assert float(default) == float(expected), key
        except ValueError:
            assert default == expected, key


# --- the summary as running reductions over blocks ---------------------------

def reference_summary(scn, traj):
    """run_scenario's summary as it was computed on the whole trajectory,
    before the running reductions (scenarios without a refinement)."""
    k = traj.k
    i_min, i_max = int(np.argmin(k)), int(np.argmax(k))
    summary = {
        "name": scn.name, "helicity": scn.helicity.value, "q": scn.q,
        "samples": len(traj), "dt": scn.dt, "t_end": float(traj.t[-1]),
        "k_start": float(k[0]), "k_end": float(k[-1]),
        "k_min": float(k[i_min]), "t_k_min": float(traj.t[i_min]),
        "k_max": float(k[i_max]), "t_k_max": float(traj.t[i_max]),
        "endpoint": traj.endpoint,
        "max_distance_from_start": float(np.max(traj.distance_from_start())),
        "speed_drift": traj.speed_drift(),
    }
    if summary["k_start"] > 1e-6 and summary["k_min"] <= 1e-6:
        summary["k_zero_time"] = summary["t_k_min"]
        later = np.flatnonzero((traj.t > summary["t_k_min"])
                               & (np.abs(k - summary["k_start"]) <= 1e-6))
        summary["k_recovery_time"] = (float(traj.t[later[0]]) if len(later)
                                      else None)
    else:
        summary["k_zero_time"] = summary["k_recovery_time"] = None
    return summary


def synthetic_run(k):
    rng = np.random.default_rng(len(k))
    n = len(k)
    return Trajectory(
        t=np.arange(n) * 0.5, r=rng.normal(size=(n, 3)),
        v=rng.normal(size=(n, 3)), theta=np.zeros(n), phi=np.zeros(n),
        theta_dot=np.zeros(n), phi_dot=np.zeros(n), k=np.array(k, float),
        e0=np.zeros(n), p=np.zeros((n, 3)), e=np.zeros((n, 3)),
        residual=np.zeros(n))


def in_blocks(traj, cuts):
    edges = [0, *cuts, len(traj)]
    return [Trajectory(*(getattr(traj, name)[lo:hi] for name in (
        "t", "r", "v", "theta", "phi", "theta_dot", "phi_dot", "k", "e0",
        "p", "e", "residual"))) for lo, hi in zip(edges, edges[1:])]


@pytest.mark.parametrize("k", [
    # a tie for the minimum: the first wins, and recovery follows it
    [5, 3, 1, 0, 2, 5, 4, 5, 0, 3, 5],
    # a strictly lower minimum later drops the earlier recovery candidate
    [5, 1e-7, 5, 4, 0, 3, 5],
    # no recovery after the minimum
    [5, 0, 5, 1e-7, 2],
    # the first nan is both extremum (np.argmin, np.argmax)
    [5, 1, math.nan, 0, 5, math.nan],
    [5, 1, 0, 5, math.nan],
    # ties for the maximum, and a start that needs no drain
    [1, 3, 3, 2, 3],
    [0, 0, 0],
])
def test_running_summary_matches_the_whole_run_for_any_blocks(k):
    scn = resolve_scenario("fig45")
    traj = synthetic_run(k)
    want = reference_summary(scn, traj)
    for first in range(1, len(k)):
        for cuts in ([first], [first, min(first + 2, len(k) - 1)]):
            summary = scenario.ScenarioStream(scn)
            for block in in_blocks(traj, sorted(set(cuts))):
                summary.add(block)
            got = summary.finish()
            assert repr(got) == repr(want), cuts


def test_stream_summary_and_rows_match_run_scenario():
    for name in ("fig45", "fig3", "free"):
        scn = resolve_scenario(name)
        run = run_scenario(scn)
        stream = scenario.ScenarioStream(scn)
        blocks = list(stream)
        assert len(blocks) > 1 and stream.samples == len(run.trajectory)
        assert repr(stream.finish()) == repr(run.summary)
        for field in ("t", "r", "k", "e", "residual"):
            whole = np.concatenate([getattr(b, field) for b in blocks])
            assert whole.tobytes() == getattr(run.trajectory, field).tobytes()
