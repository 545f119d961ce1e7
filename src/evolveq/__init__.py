"""Frozen-coefficient solver and verification harness for non-autonomous
parabolic evolution problems on a Galerkin-discretized Gelfand triple."""

from .spaces import GalerkinSpace, StructureError
from .forms import (FormConstants, FormFamily, Subdivision, build_step_form,
                    certify_shift, estimate_constants, rescale)
from .propagator import ProblemData, SlabPropagator, Trajectory, oracle_solve, solve
from .mr import (MRReport, check_chain_rule, check_H_estimate, check_lemma3,
                 check_lemma_indepmax, check_product_rule, load_l2h, mr_norms)
from .convergence import RefinementStudy, refine, solve_ladder
from .invariance import (ConvexSet, audit_trajectory, check_criterion,
                         check_criterion_symmetric)
from .presets import get_preset, preset_names

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
