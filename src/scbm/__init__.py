"""Super-coalescing Brownian motion: simulation engines and duality verification.

Subpackage map:

* :mod:`scbm.branching` - critical stable branching semigroup and samplers
* :mod:`scbm.lattice` - coalescing random walks with boundary variants
* :mod:`scbm.oracle` - exact finite-state duality verification
* :mod:`scbm.flow` - replicas of coalescing Brownian paths with barriers, step functionals
* :mod:`scbm.engine` - the measure-valued process built from excursions
* :mod:`scbm.harness` - Monte Carlo identity checks
* :mod:`scbm.experiments` - integral test machinery and survival ensembles
* :mod:`scbm.cli` - experiment command line
"""

from .branching import (
    BranchingParams,
    cumulant,
    cumulant_limit,
    extinction_prob,
    sample_entrance_mass,
    sample_transition,
)
from .engine import MeasureSpec, init_ensemble
from .flow import FlowBoundary, ReplicaFlow, StepFunction
from .harness import ComparisonReport, MCEstimate
from .lattice import BoundarySpec, IntervalPartition, LatticeState, coalesce_state, simulate_walk

__version__ = "0.1.0"

__all__ = [
    "BranchingParams",
    "cumulant",
    "cumulant_limit",
    "extinction_prob",
    "sample_transition",
    "sample_entrance_mass",
    "MeasureSpec",
    "init_ensemble",
    "FlowBoundary",
    "ReplicaFlow",
    "StepFunction",
    "MCEstimate",
    "ComparisonReport",
    "BoundarySpec",
    "IntervalPartition",
    "LatticeState",
    "coalesce_state",
    "simulate_walk",
    "__version__",
]
