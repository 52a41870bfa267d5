"""Numerical laboratory for mixing times, curvature and entropic cutoff
criteria of finite Markov chains."""

from .chain import (Distribution, MetricData, StochasticMatrix, heat_kernel,
                    heat_kernel_apply, heat_kernel_row, load_chain_file,
                    metric_data, save_chain_file, stationary, validate)
from .curvature import (CurvatureReport, TransportPlan, bakry_emery_curvature,
                        bakry_emery_vertex, contraction_check,
                        full_curvature_report, gamma2_form, generator_apply,
                        ollivier_curvature, subcommutativity_check,
                        wasserstein1)
from .entropy import (EPS_GRID, EntropyProfile, MixingProfile, cutoff_time_equation,
                      cutoff_window_bound, d_star_at, diameter_bound_check,
                      entropic_concentration_ratio, entropic_lower_bound_check,
                      entropic_upper_bound, entropy_profile, kl_divergence,
                      local_concentration_check, local_concentration_sweep,
                      log_density_lip_norm, log_gradient_bound_check,
                      mixing_profile, mixing_time, tv_distance, v_star_at,
                      varentropy, varentropy_bound_check, worst_tv)
from .families import (ChainInstance, GroupSpec, abelian_cayley, birth_death,
                       complete_graph, conjugacy_walk, cycle, hypercube,
                       parse_family_range, parse_family_spec,
                       perturb_toward_uniform, random_abelian_cayley)
from .spectral import (SpectralReport, dirichlet_energy, gamma_form,
                       relaxation_time, reversibilization)
from .verdicts import InequalityVerdict, make_verdict

__version__ = "0.1.0"
