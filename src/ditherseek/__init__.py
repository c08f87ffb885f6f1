"""Extremum-seeking simulation and verification via Lie bracket averaging.

The package builds an oscillatory input-affine seeking system and its
averaged (Lie bracket) counterpart from the same ingredients, integrates
both, and quantifies how well and how fast the oscillatory trajectories
track the averaged flow as the dither frequency grows.
"""

from .dynamics import (FieldEvaluationError, FieldStack, InputAffineSystem,
                       VectorField, assemble_rhs, finite_diff_jacobian)
from .liebracket import (PrecisionWarning, UnsupportedSignalError,
                         build_lie_bracket_system, lie_bracket, nu_closed_form,
                         nu_quadrature)
from .scenarios import (ScalarMap, Scenario, ScenarioError, bundled_scenario,
                        list_bundled, load_scenario, parse_scenario, parse_scenario_text)
from .seekers import (AgentMap, AgentParams, CompatibilityReport, PotentialGame,
                      StationarityReport, analytic_lie_scalar,
                      analytic_lie_single_integrator, analytic_lie_unicycle,
                      build_scalar_seeker, build_single_integrator, build_unicycle,
                      check_maximizer_stationarity, check_potential_compatibility,
                      equilibrium_state, filter_equilibrium,
                      frequency_decomposition, quadratic_game, three_agent_game,
                      unicycle_period)
from .signals import (DitherSignal, SignalValidationReport, cosine, custom, from_name,
                      sawtooth, sine, square, triangle, validate_assumptions)
from .sim import (DecayRecord, DecayReport, OmegaRecord, ProbeCell, ProbeConfig,
                  StabilityProbeReport, StepPolicy, SweepReport, Trajectory,
                  averaging_decay_check, integrate, omega_sweep, run_cells,
                  stability_probe, sup_distance, write_long_csv, write_sweep_csv,
                  write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
