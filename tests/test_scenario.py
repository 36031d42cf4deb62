"""Scenario text format, presets, and the summary produced by a run."""

import math

import pytest

from weyldyn.dynamics import ConstantField, DriveField, ExprField, ZeroField
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
    assert sc.field_kind == "zero"
    assert sc.h is None
    assert sc.s.is_zero
    assert sc.start == (0.0, 0.0, 0.0)
    assert sc.law.theta0 == pytest.approx(math.pi / 3)
    assert isinstance(sc.field_program(), ZeroField)


def test_scalar_values_accept_expressions_and_earlier_keys():
    sc = parse_scenario_text("q = 2\ntheta0 = q/4\nomega1 = sqrt(3)")
    assert sc.law.theta0 == 0.5
    assert sc.law.omega1 == pytest.approx(math.sqrt(3))


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
    ],
)
def test_parse_rejections_name_the_problem(text, fragment):
    with pytest.raises(ScenarioError, match=fragment.replace("(", "\\(")):
        parse_scenario_text(text)


def test_comments_and_blank_lines_are_ignored():
    sc = parse_scenario_text("# heading\n\ntheta0 = pi/2  \n# tail\n")
    assert sc.law.theta0 == pytest.approx(math.pi / 2)


def test_plane_wave_phase_key():
    sc = parse_scenario_text("h = plane_wave\nh_energy = 3\ntheta0 = pi/2")
    assert sc.h is not None
    assert sc.h.partial("t") == -3.0


def test_expr_field_kind_allows_time():
    sc = parse_scenario_text("field = expr\nex = sin(t)\ney = 0\nez = t^2")
    prog = sc.field_program()
    assert isinstance(prog, ExprField)
    assert prog.field_at(2.0) == pytest.approx((math.sin(2.0), 0.0, 4.0))


def test_nonlinear_angle_expressions():
    sc = parse_scenario_text("theta_expr = 0.5 + 0.1*t^2\nphi_expr = 2*t")
    th, ph = sc.law.angles(2.0)
    assert th == pytest.approx(0.9)
    assert ph == pytest.approx(4.0)
    assert sc.law.accelerations(1.0)[0] == pytest.approx(0.2)


def test_presets_resolve_and_have_expected_programs():
    assert PRESET_NAMES == ("free", "fig1", "fig2", "fig3", "fig45")
    assert isinstance(resolve_scenario("free").field_program(), ZeroField)
    assert isinstance(resolve_scenario("fig1").field_program(), DriveField)
    assert isinstance(resolve_scenario("fig3").field_program(), DriveField)
    fig45 = resolve_scenario("fig45")
    prog = fig45.field_program()
    assert isinstance(prog, ConstantField)
    assert prog.field_at(0.0) == (0.0, 0.0, 0.5)


def test_fig45_literal_field_doubles_axial_component():
    lit = resolve_scenario("fig45").with_overrides(paper_literal=True)
    assert lit.field_program().field_at(0.0) == (0.0, 0.0, 1.0)


def test_literal_flag_requires_literal_components():
    free = resolve_scenario("free").with_overrides(paper_literal=True)
    with pytest.raises(ScenarioError, match="paper_literal"):
        free.active_field_exprs()


def test_preserves_law_classification():
    assert resolve_scenario("free").preserves_law
    assert resolve_scenario("fig1").preserves_law
    assert not resolve_scenario("fig45").preserves_law


def test_initial_state_matches_law_at_zero():
    sc = resolve_scenario("fig1")
    st = sc.initial_state()
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
    assert sc.law.omega2 == 4.0
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
