"""Closed-form Weyl spinor dynamics toolkit."""

from .expressions import (AngleLaw, ExprLaw, LinearLaw, ScalarField,
                          diff_expr, eval_expr, parse_expr, plane_wave_phase)
from .spinors import Event, Helicity, build_spinor, weyl_residual
from .potentials import (FourPotentialField, drive_field_closed_form,
                         energy_control_field, field_from_potential_numeric,
                         gauge_family_field, k_control_field)
from .observables import (KineticMomentum, kinetic_momentum_from_state,
                          localization_from_rates,
                          mass_shell_defect_from_momentum,
                          noncollinearity_from_vectors, si_rates,
                          uncertainty_relation, velocity_from_angles)
from .dynamics import (ConstraintViolation, FieldProgram, ParticleState,
                       Trajectory, compatibility_residual,
                       integrate_trajectory, phi_ddot_from_field,
                       theta_ddot_from_field)
from .scenario import (Scenario, ScenarioError, load_scenario,
                       resolve_scenario, run_scenario)
from .verify import RunReport, run_verification

__version__ = "0.1.0"
