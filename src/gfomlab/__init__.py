"""Simulation and verification laboratory for first-order iterations
driven by random matrices: trajectory simulators, Gaussian-limit
covariance recursions, gradient-descent entrywise laws, and a replicate
experiment harness with deterministic seeding.
"""

__version__ = "0.1.0"

from .dynamics import (Trajectory, run_amp_asymmetric, run_amp_symmetric,
                       run_asymmetric, run_leave_k_out, run_symmetric)
from .ensembles import (EnsembleSpec, EntryLaw, VarianceProfile,
                        constant_profile, gaussian_law, profile_weights,
                        rademacher_law, sample_asymmetric, sample_symmetric,
                        shifted_bernoulli_law, uniform_pm_law)
from .erm import (ErmProblem, FixedPointResult, Loss, ProxSpec, default_eta,
                  gradient_descent, leave_one_out_run, logistic_objective_check,
                  pgd_linear, pgd_logistic, prox_eval, prox_lasso, prox_ridge,
                  prox_smooth, prox_zero, solve_fixed_point, squared_loss)
from .errors import ConfigError, DivergenceError, NumericalError
from .gd_se import (GdLaw, GdSeState, g_coefficient_nested_sum,
                    gd_key_params, gd_se)
from .harness import (ComparisonReport, ExperimentConfig, PSI_MENU,
                      convergence_decay_report, delocalization_report,
                      gd_gaussianity_test, list_experiments, list_programs,
                      resolve_psi, run_named_experiment, se_vs_simulation,
                      universality_averaged, universality_entrywise)
from .programs import (AsymmetricProgram, RowFunction, SymmetricProgram,
                       build_gd_ridge, build_logistic, build_pgd_linear,
                       build_power_iteration, build_tanh_iteration,
                       extract_embedded_tracks, embed_matrix, symmetrize,
                       validate_program)
from .seeds import child_sequence, generator
from .state_evolution import (SeRecord, amp_se_asymmetric, amp_se_symmetric,
                              gfom_to_amp, predict_entrywise, se_asymmetric,
                              se_symmetric)
