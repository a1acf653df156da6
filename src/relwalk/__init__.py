"""Numerical laboratory for random-walk boundaries on free products.

The package computes Green's functions of finitely supported random
walks on free products of lattice-by-finite groups, induces first-return
chains on parabolic neighborhoods, analyzes the tilted Perron surface
whose unit level set parametrizes directional boundary points, and
classifies escaping sequences through Floyd and coned-off geometry.
"""
from .balls import ball_elements
from .classify import (Classification, SequenceSpec, ancona_ratio,
                       martin_convergence, separation_experiment)
from .config import ExperimentConfig, load_config
from .errors import (AssumptionError, BoundedSequenceError, ConfigError,
                     ConvergenceError, InvalidMeasureError, ParseError,
                     RelwalkError, StateCapError)
from .excursions import FreeProductEngine, TabooContext
from .floyd import (TransitionParams, coned_off_distance, floyd_distance,
                    gromov_product_coned, transition_points, word_geodesic)
from .groups import (Coset, FactorSpec, FreeProductGroup, GroupElement,
                     coset_lattice_part, project_to_coset)
from .induced import FiberIndex, induce_first_return, verify_same_green
from .lattice import BoxGreen, ChainGreen, LatticeChain, absorption_distribution
from .measures import StepMeasure
from .perron import (AssumptionReport, BoundaryPointU, PerronData,
                     check_assumptions, level_set_point,
                     limit_kernel_ratio, minimize_lambda)

__all__ = [
    "AssumptionError", "AssumptionReport", "BoundaryPointU",
    "BoundedSequenceError", "BoxGreen", "ChainGreen", "Classification",
    "ConfigError", "ConvergenceError", "Coset", "ExperimentConfig",
    "FactorSpec", "FiberIndex", "FreeProductEngine",
    "FreeProductGroup", "GroupElement", "InvalidMeasureError", "LatticeChain",
    "ParseError", "PerronData", "RelwalkError", "SequenceSpec",
    "StateCapError", "StepMeasure", "TabooContext", "TransitionParams",
    "absorption_distribution", "ancona_ratio", "ball_elements",
    "check_assumptions", "coned_off_distance", "coset_lattice_part",
    "floyd_distance", "gromov_product_coned", "induce_first_return",
    "level_set_point", "limit_kernel_ratio", "load_config",
    "martin_convergence", "minimize_lambda", "project_to_coset",
    "separation_experiment", "transition_points", "verify_same_green",
    "word_geodesic",
]
