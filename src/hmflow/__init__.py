"""Simulator and diagnostics for the m-corotational harmonic map heat flow.

The radial angle u(t, r) solves u_t = Δ_m u + F(u) on a log-uniform grid,
with the bubble family Q(r/s), energy/sector diagnostics, IMEX time
stepping with a dissipation ledger, bubble-scale modulation tracking,
blow-up rate fitting, and the dimension-lift verification oracle.
"""

from .errors import (ConfigurationError, ContractViolation, FitUnreliableError,
                     HmflowError, NoBubbleError, SectorError)
from .grid import (RadialField, RadialGrid, apply_delta_m, build_grid,
                   differentiate, origin_exponent, solve_helmholtz)
from .bubble import (BubbleProfile, bogomolny_residual, energy_of_Q, eval_Q,
                     eval_Q_deriv, eval_Q_offset, eval_h, eval_hhat, sample_Q,
                     sample_h)
# The bare functions energy.energy / evolve.evolve stay in their modules so
# the submodule names hmflow.energy and hmflow.evolve are not shadowed.
from .energy import (EnergyBreakdown, SectorClass, classify,
                     exterior_energy, g_functional, g_inverse,
                     pointwise_bound_check, rlp_norm, smoothstep,
                     topological_bound_gap, x2_norm, xp_norm)
from .evolve import (StepperConfig, TrajectoryRecord, dissipation_audit,
                     nonlinearity, scale_estimate, step,
                     STATUS_ABORTED, STATUS_BLOWUP, STATUS_GLOBAL)
from . import energy, evolve  # noqa: F401  (submodule access)
from .modulation import (BlowupRateFit, ModulationState, ScaleTrack,
                         apply_H, apply_L, apply_Lstar,
                         approx_solution_residual, bubble_decompose,
                         fit_blowup_rate, fit_scale, orthogonality_ok,
                         potential_inequality_margin, track_modulation)
from .lift import (LiftedField, apply_radial_laplacian, commutation_residual,
                   lift, norm_identity_check, sphere_area_constant, unlift)
from .runner import (RunConfig, RunResult, build_initial_condition,
                     build_run_config, execute, parse_config_text,
                     parse_grid_file, run, sweep)

__version__ = "0.1.0"
