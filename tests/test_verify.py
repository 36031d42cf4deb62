"""Randomized self-check battery: report structure and reproducibility."""

import dataclasses

import pytest

from weyldyn import verify
from weyldyn.expressions import ScalarField
from weyldyn.scenario import parse_scenario_text, resolve_scenario
from weyldyn.verify import CheckResult, RunReport, run_verification

EXPECTED_CHECKS = [
    "residual_base",
    "residual_degenerate",
    "residual_mirror_family",
    "unit_speed",
    "kappa_is_minus_velocity",
    "mass_shell_identity",
    "transverse_momentum_equals_k",
    "momentum_projection_energy",
    "drive_field_cross_check",
    "drive_field_b_zero",
    "gauge_field_cross_check",
]


def test_check_result_pass_fail():
    assert CheckResult("x", 1e-9, 1e-6).passed
    assert not CheckResult("x", 2e-6, 1e-6).passed


def test_report_on_clean_scenario():
    report = run_verification(resolve_scenario("free"))
    assert report.passed
    assert [c.name for c in report.checks] == EXPECTED_CHECKS
    assert all(c.passed for c in report.checks)
    text = report.format_text()
    assert text.count("[PASS]") == len(EXPECTED_CHECKS)
    assert "overall: PASS (11/11 checks)" in text


def test_same_seed_reproduces_measurements():
    a = run_verification(resolve_scenario("free"))
    b = run_verification(resolve_scenario("free"))
    assert [c.measured for c in a.checks] == [c.measured for c in b.checks]


def test_different_seed_changes_random_draws():
    a = run_verification(resolve_scenario("free"))
    b = run_verification(resolve_scenario("free").with_overrides(seed=1))
    assert [c.measured for c in a.checks] != [c.measured for c in b.checks]


def test_corrupted_potential_fails_base_residual():
    sc = parse_scenario_text(
        "theta0 = pi/3\nh = plane_wave\nh_energy = 1\ncorrupt_b0 = 0.1")
    report = run_verification(sc)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["residual_base"].measured == pytest.approx(0.1, abs=1e-6)
    assert not by_name["residual_base"].passed
    # the degeneracy and identity checks are built on the honest potential
    assert by_name["unit_speed"].passed


def test_kappa_check_measures_rounding():
    # the spinor from half angles against v from whole angles: not the
    # same formula twice, so the residual is rounding, not exactly zero
    sc = dataclasses.replace(resolve_scenario("fig45"), sample_count=400)
    kappa = {c.name: c for c in run_verification(sc).checks}[
        "kappa_is_minus_velocity"]
    assert 0.0 < kappa.measured <= kappa.tolerance


def test_kappa_check_fails_on_the_wrong_eigenvalue(monkeypatch):
    residual = verify._kappa_residual
    monkeypatch.setattr(verify, "_kappa_residual",
                        lambda v, psi, sign: residual(v, psi, -sign))
    by_name = {c.name: c for c in run_verification(
        resolve_scenario("free")).checks}
    kappa = by_name.pop("kappa_is_minus_velocity")
    assert not kappa.passed
    assert kappa.measured == pytest.approx(2.0, abs=1e-12)
    assert all(c.passed for c in by_name.values())


def test_drive_b_check_measures_rounding():
    # the drive potentials carry a drawn phase whose gradient varies in
    # x, y, z and t: its curl cancels only up to rounding
    sc = dataclasses.replace(resolve_scenario("fig45"), sample_count=400)
    b_zero = {c.name: c for c in run_verification(sc).checks}[
        "drive_field_b_zero"]
    assert 0.0 < b_zero.measured <= b_zero.tolerance


def test_drive_b_check_fails_on_swapped_phase_gradients(monkeypatch):
    # with the x and y partials swapped, the phase terms of the potential
    # are no longer a gradient, and B = curl A does not vanish
    partial = ScalarField.partial
    swap = {"x": "y", "y": "x"}
    monkeypatch.setattr(ScalarField, "partial",
                        lambda self, axis, *args: partial(
                            self, swap.get(axis, axis), *args))
    by_name = {c.name: c for c in run_verification(
        resolve_scenario("free")).checks}
    assert not by_name["drive_field_b_zero"].passed


def test_mirror_check_covers_opposite_helicity():
    sc = parse_scenario_text("helicity = negative\ntheta0 = pi/3\n"
                             "omega2 = 2")
    report = run_verification(sc)
    assert report.passed


def test_rotating_scenario_passes():
    report = run_verification(resolve_scenario("fig1"))
    assert report.passed
