"""Super-coalescing Brownian motion: simulation engines and duality verification.

Subpackage map:

* :mod:`scbm.branching` - critical stable branching semigroup and samplers
* :mod:`scbm.lattice` - coalescing random walks with boundary variants, states as position tuples
* :mod:`scbm.oracle` - exact finite-state duality verification
* :mod:`scbm.flow` - replicas of coalescing Brownian paths with barriers, carrying the measure-valued process
* :mod:`scbm.harness` - Monte Carlo identity checks and their step-function integrals
* :mod:`scbm.experiments` - integral test machinery and survival ensembles
* :mod:`scbm.cli` - experiment command line
"""

# numpy 2 imports numpy.random and numpy.ma on first use (np.unique reads np.ma); importing them with the
# package keeps that import out of the first draw and the first grid of every command
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .branching import (
    BranchingParams,
    cumulant,
    cumulant_limit,
    extinction_prob,
    sample_entrance_mass,
    sample_transition,
)
from .flow import FlowBoundary, MeasureSpec, ReplicaFlow, init_ensemble
from .harness import ComparisonReport, MCEstimate
from .lattice import BoundarySpec, simulate_walk

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
    "MCEstimate",
    "ComparisonReport",
    "BoundarySpec",
    "simulate_walk",
    "__version__",
]
