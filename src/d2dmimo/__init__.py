"""D2D-underlaid massive MIMO uplink: link-level simulation and
pilot/power optimization on large-scale fading state."""

__version__ = "0.1.0"

from .scenario import (SystemConfig, Topology, LargeScale, generate_topology,
                       compute_large_scale, substream, trial_seed, db_to_lin,
                       dbm_to_mw)
from .channel import (PilotAssignment, PowerProfile, ChannelRealization,
                      EstimatedChannels, EstimationCoeffs, PilotObservation,
                      draw_fast_fading, estimation_coeffs, simulate_pilot_phase,
                      mmse_estimate)
from .receivers import (CancellationSets, RateCoeffs, FeasibilityError,
                        DegenerateSpanError, select_cancellation, pzf_filter,
                        cell_sinr_terms, d2d_sinr_terms, rate_coeffs,
                        rate_lower_bounds, bound_sinrs, sigma_c_of, sigma_d_of)
from .pilot_scheduling import (interference_metric, sum_mse,
                               psa, random_assignment, exhaustive_search,
                               pilot_power_parametric, InstanceTooLargeError,
                               NonConvergenceError, ParametricPowerResult)
from .power_control import (CellularFixedPoint, cellular_fixed_point, dpcc,
                            dpcc_iterate, dpcd, dpcd_stack, jdpc_stack, WmmseGroup,
                            JdpcPoint, cellular_power_budget, DpccResult, DpcdResult, JdpcResult,
                            InfeasibleBudgetError, SolverError, BracketError)
from .harness import (ExperimentSpec, ResultRow, run_experiment, load_spec,
                      spec_from_dict, validate_spec, apply_sweep, SpecError,
                      EXPERIMENTS, convergence_traces)
