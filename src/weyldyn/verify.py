"""Seeded verification battery for a scenario.

Every check here has an independent route to the same number: spinor
residuals go through finite differences of the actual Weyl operator,
field closed forms are held against numerical differentiation of their
potentials, kappa = (1, -v) against the spinor that annihilates it,
and the algebraic identities are sampled over freshly drawn laws and
gauge functions rather than the scenario alone.  The battery is
deterministic for a fixed seed.

Each check draws its random numbers as one block, in the order a loop of
one draw at a time would draw them, and evaluates all its draws with a
few array calls (see spinors.py and potentials.py); each
finite-difference stencil is one call on its stacked events.  Every
measured value equals that of the per-draw loop to the last bit:

- 3-vector dot products and norms use np.vecdot on contiguous rows,
  which rounds as the BLAS ddot behind `p @ p` and np.linalg.norm (a
  chain of fused multiply-adds); (a*b).sum(1) and einsum do not;
- squares of numpy float64 scalars go through libm pow, so the arrays
  are squared by `elementwise_pow`, not by `**2`;
- k keeps one math.hypot per draw (`localization_from_rates` on
  scalars); np.hypot, as in the trajectory's k column, changes a report
  (`free`, seed 5, 1000 draws: mass_shell_identity 3.997e-15 -> 3.775e-15).

The six gauge templates are parsed and differentiated once per
process.  In the two gauge checks draw i uses template i % 6 with its
own a..d, all in one gauge function (`_GaugeFamily`) whose `value` and
`partial` evaluate template j on draws j::6 of the last axis.  The two
drive checks' potentials carry the phase a*sin(b*x + c*y + d*z - t),
parsed once too, with a..d drawn per draw after the gauge check's draws
(so no earlier check's draws move).  When a draw's
value comes out non-finite, the draws up to it and the other non-finite
ones are evaluated again one at a time, in draw order, through the
scalar path, so that an expression that cannot be evaluated there
raises the same error a per-draw loop would raise, also where the array
path absorbed an earlier draw's overflow into a finite value; the
worst-of reduction keeps NaN.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .expressions import AngleLaw, ScalarField
from .observables import (kinetic_momentum_from_state, localization_from_rates,
                          mass_shell_defect_from_momentum,
                          noncollinearity_from_vectors, velocity_from_angles)
from .potentials import (FourPotentialField, drive_field_closed_form,
                         field_from_potential_numeric, gauge_family_field)
from .scenario import Scenario
from .spinors import Event, Helicity, build_spinor, weyl_residual

__all__ = ["CheckResult", "RunReport", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


@dataclass
class RunReport:
    scenario_name: str
    seed: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def format_text(self) -> str:
        lines = [f"scenario '{self.scenario_name}' seed {self.seed}: "
                 f"verification report"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name:<28} "
                         f"measured {check.measured:.3e}  "
                         f"tol {check.tolerance:.1e}")
        n_pass = sum(1 for c in self.checks if c.passed)
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {overall} ({n_pass}/{len(self.checks)} checks)")
        return "\n".join(lines)


_GAUGE_FORMS = ("a", "a*t", "a*sin(b*t)", "a*x + b*y + c*z + d*t", "a*z",
                "a*t + b*t^2")
_FORMS = len(_GAUGE_FORMS)
_PHASE_FORM = "a*sin(b*x + c*y + d*z - t)"  # the drive checks' phase


@functools.cache
def _gauge_templates() -> tuple:
    return tuple(ScalarField.from_text(text, bound="abcd")
                 for text in _GAUGE_FORMS)


@functools.cache
def _phase_template() -> ScalarField:
    return ScalarField.from_text(_PHASE_FORM, bound="abcd")


def _draw(rng, rows: int, laws: int, others: int) -> np.ndarray:
    """rows draws of `laws` random laws (4 x U(-3, 3)) followed by
    `others` U(-2, 2) values, in one block."""
    low = np.repeat([-3.0, -2.0], [4 * laws, others])
    return rng.uniform(low, -low, size=(rows, low.size))


def _columns(block: np.ndarray) -> list:
    # one draw (a row) gives Python floats, which take the scalar path
    return block.tolist() if block.ndim == 1 else list(block.T)


def _law(block) -> AngleLaw:
    return AngleLaw.linear(*_columns(block))


def _event(block) -> Event:
    return Event(*_columns(block))


def _bind(template: ScalarField, block) -> ScalarField:
    return template.bind(**dict(zip("abcd", _columns(block))))


class _GaugeFamily:
    """The gauge functions of a check's draws (see the module docstring)."""

    def __init__(self, block: np.ndarray):
        self._fields = [_bind(template, block[j::_FORMS]) for j, template
                        in enumerate(_gauge_templates()[:len(block)])]

    def _evaluate(self, evaluate, *coords) -> np.ndarray:
        out = np.empty(np.broadcast(*coords).shape)
        for j, field in enumerate(self._fields):
            rows = (c[..., j::_FORMS] for c in coords)
            out[..., j::_FORMS] = evaluate(field, *rows)
        return out

    def value(self, x, y, z, t) -> np.ndarray:
        return self._evaluate(ScalarField.value, x, y, z, t)

    def partial(self, axis: str, x, y, z, t) -> np.ndarray:
        return self._evaluate(lambda f, *c: f.partial(axis, *c), x, y, z, t)


def _worst(*values) -> float:
    """Largest entry; unlike max(), a NaN entry makes the result NaN."""
    return float(np.max([np.max(v) for v in values]))


def _replay_non_finite(values, evaluate_draw) -> None:
    """Where a draw is non-finite, evaluate draws alone on the scalar path,
    in draw order: every draw up to the first non-finite one, then the
    other non-finite ones.  Where an expression cannot be evaluated, that
    raises, also on an earlier draw whose overflow the array path
    absorbed into a finite value."""
    bad = np.flatnonzero(~np.isfinite(values)).tolist()
    if bad:
        for i in [*range(bad[0]), *bad]:
            evaluate_draw(i)


def _kappa_residual(v, spinor, sign) -> np.ndarray:
    """|(sigma . v) psi - sign psi|, with v rows (..., 3) and psi = (c1,
    c2), in real/imaginary pairs with the Pauli products written out; 0
    where psi annihilates kappa = (1, -v), kappa_mu sigma^mu psi = 0."""
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    (ar, ai), (br, bi) = ((c.real, c.imag) for c in spinor)
    up_re = vz * ar + (vx * br + vy * bi) - sign * ar
    up_im = vz * ai + (vx * bi - vy * br) - sign * ai
    lo_re = (vx * ar - vy * ai) - vz * br - sign * br
    lo_im = (vx * ai + vy * ar) - vz * bi - sign * bi
    return np.hypot(np.hypot(up_re, up_im), np.hypot(lo_re, lo_im))


def run_verification(scenario: Scenario) -> RunReport:
    with np.errstate(all="ignore"):
        checks = _run_checks(scenario)
    return RunReport(scenario_name=scenario.name, seed=scenario.seed,
                     checks=checks)


def _run_checks(scenario: Scenario) -> list:
    rng = np.random.default_rng(scenario.seed)
    n = scenario.sample_count
    m = max(1, n // 4)
    step = scenario.fd_step
    law, h, helicity, q = (scenario.law, scenario.h, scenario.helicity,
                           scenario.q)
    tol_residual = scenario.tolerance
    tol_field = max(1e-6, 10.0 * step * step)
    tol_identity = 1e-12
    tol_kappa = 1e-14

    checks: list[CheckResult] = []

    # residual of the scenario's own spinor/potential pair; the
    # corrupt_b0 hook lands here so a corrupted file visibly fails
    base = FourPotentialField(law, h, helicity, b0_offset=scenario.corrupt_b0)
    draws = _draw(rng, n, 0, 4)
    res = weyl_residual(base, _event(draws), step)
    _replay_non_finite(res, lambda i: weyl_residual(base, _event(draws[i]),
                                                    step))
    checks.append(CheckResult("residual_base", _worst(res), tol_residual))

    # the same spinor must keep solving after a shift along kappa, for
    # arbitrary gauge functions including spatially varying ones; draw
    # i uses gauge template i % 6
    draws = _draw(rng, n, 0, 8)
    family = _GaugeFamily(draws[:, :4])
    res = weyl_residual(FourPotentialField(law, h, helicity, family),
                        _event(draws[:, 4:]), step)
    _replay_non_finite(res, lambda i: weyl_residual(
        FourPotentialField(law, h, helicity, _bind(
            _gauge_templates()[i % _FORMS], draws[i, :4])),
        _event(draws[i, 4:]), step))
    checks.append(CheckResult("residual_degenerate", _worst(res),
                              tol_residual))

    # mirrored family on fresh laws
    other = (Helicity.NEGATIVE if helicity is Helicity.POSITIVE
             else Helicity.POSITIVE)
    draws = _draw(rng, m, 1, 4)
    laws = _law(draws[:, :4])
    res = weyl_residual(FourPotentialField(laws, None, other),
                        _event(draws[:, 4:]), step)
    checks.append(CheckResult("residual_mirror_family", _worst(res),
                              tol_residual))

    # algebraic identities over random laws, times and gauge values
    draws = _draw(rng, n, 1, 2)
    laws, t, s_val = _law(draws[:, :4]), draws[:, 4], draws[:, 5]
    theta, phi = laws.angles(t)
    theta_dot, phi_dot = laws.rates(t)
    v = velocity_from_angles(theta, phi)
    speed = np.abs(np.sqrt(np.vecdot(v, v)) - 1.0)
    # psi from the half angles of a frozen law, v from the whole angles
    frozen = AngleLaw.linear(theta, 0.0, phi, 0.0)
    k = np.array(list(map(localization_from_rates, theta.tolist(),
                          theta_dot.tolist(), phi_dot.tolist())))
    kappa, shell, cross, project = [], [], [], []
    for hel in (Helicity.POSITIVE, Helicity.NEGATIVE):
        psi = build_spinor(frozen, None, hel, Event(0.0, 0.0, 0.0, 0.0))
        kappa.append(_kappa_residual(v, psi, hel.sign))
        e0, p = kinetic_momentum_from_state(theta, phi, theta_dot, phi_dot,
                                            s_val, hel)
        shell.append(np.abs(mass_shell_defect_from_momentum(e0, p) + k * k))
        cross.append(np.abs(noncollinearity_from_vectors(p, v) - k))
        project.append(np.abs(np.vecdot(p, v) - e0))
    checks.append(CheckResult("unit_speed", _worst(speed), tol_identity))
    checks.append(CheckResult("kappa_is_minus_velocity", _worst(*kappa),
                              tol_kappa))
    checks.append(CheckResult("mass_shell_identity", _worst(*shell),
                              tol_identity))
    checks.append(CheckResult("transverse_momentum_equals_k", _worst(*cross),
                              tol_identity))
    checks.append(CheckResult("momentum_projection_energy", _worst(*project),
                              tol_identity))

    # closed-form fields against numerical differentiation of potentials.
    # The drive potentials carry a phase whose gradient varies in x, y, z
    # and t, so their B = curl A cancels only up to rounding; its a..d are
    # drawn after the gauge check's draws.
    drive_draws = _draw(rng, m, 1, 4)
    draws = _draw(rng, m, 1, 8)
    laws, family = _law(draws[:, :4]), _GaugeFamily(draws[:, 4:8])
    ev = _event(draws[:, 8:])
    numeric = field_from_potential_numeric(
        FourPotentialField(laws, None, None, family), q, ev, step)
    closed = gauge_family_field(laws, family, q, ev)
    gauge = [np.abs(a - b) for a, b in zip(numeric, closed)]

    phase = _bind(_phase_template(), _draw(rng, m, 0, 4))
    laws, ev = _law(drive_draws[:, :4]), _event(drive_draws[:, 4:])
    drive, drive_b = [], []
    for hel in (Helicity.POSITIVE, Helicity.NEGATIVE):
        numeric_e, numeric_b = field_from_potential_numeric(
            FourPotentialField(laws, phase, hel), q, ev, step)
        closed = drive_field_closed_form(laws, hel, q, ev.t)
        drive.append(np.abs(numeric_e - closed))
        drive_b.append(np.abs(numeric_b))
    checks.append(CheckResult("drive_field_cross_check", _worst(*drive),
                              tol_field))
    checks.append(CheckResult("drive_field_b_zero", _worst(*drive_b),
                              tol_field))
    checks.append(CheckResult("gauge_field_cross_check", _worst(*gauge),
                              tol_field))
    return checks
