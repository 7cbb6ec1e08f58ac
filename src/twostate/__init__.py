"""Periodically driven two-state quantum systems.

Exact finite-sum solutions of a constant-amplitude periodic level-crossing
drive family, the incomplete-Beta series machinery behind them, and an
independent Runge-Kutta oracle that validates every analytic object.
"""

__version__ = "0.1.0"

from .closedform import (FloquetReport, HarmonicLadder, StateVector, closed_form_states,
                         floquet_analytic, harmonic_content, hg_quasipoly, hg_three_beta,
                         match_initial, phase_n2, recover_a1)
from .errors import (ConvergenceError, DomainError, IntegrationError, ParameterError,
                     SingularSystemError)
from .fields import (CrossingReport, DriveField, FieldConfig, N2Config, a_from_delta1,
                     classify_crossings, detuning_general, detuning_n2, detuning_n3,
                     drive_field, glancing_ratios, n3_general_config, n3_singular_point)
from .heun import (BetaSeries, HeunParams, TerminationRecord, eval_series, expand,
                   generalized_rabi, map_to_heun, q_polynomial, series_solution,
                   termination_search)
from .oracle import (MonodromyResult, Trajectory, integrate, mean_detuning, mod_distance,
                     monodromy, rabi_population, wrap_mod)
from .specfun import (EPS_CHECK, EPS_SERIES, UnwoundPoint, beta_step, fold_beta_sum, hyp2f1,
                      inc_beta)

__all__ = [name for name in dir() if not name.startswith("_")]
