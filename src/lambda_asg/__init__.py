"""Two-type Moran models with coordinated reproduction and selection.

Subpackages:
    measures  -- finite measures, stochastic order, the selective coupling
    rates     -- binomial-mixture rate tables and the limit-chain jump table
    moran     -- finite-population simulator and exact matrix oracles
    asg       -- ancestral selection graph: generation, both sweep directions
    duality   -- sampling function and all duality verification routines
    limits    -- jump-SDE frequency limit, limit ancestor chain, truncation
    fixation  -- fixation probability via the size-biased polynomial recursion
    cli       -- experiment runner (``lambda-asg run/check``)
"""

from . import asg, duality, fixation, limits, measures, moran
from .errors import (
    DegenerateSelection,
    LambdaAsgError,
    NearSingular,
    NotConverged,
    OrderViolation,
    SingularSystem,
    SizeLimit,
    StateCapReached,
    ZeroMass,
)
from .measures import (
    CoupledMeasure,
    FiniteMeasure1D,
    NormalizationRecord,
    coupling_from_pair,
    normalize_pair,
    quantile_coupling,
    stochastic_order_leq,
    transport_cost,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "asg", "duality", "fixation", "limits", "measures", "moran",
    "CoupledMeasure", "FiniteMeasure1D", "NormalizationRecord",
    "coupling_from_pair", "normalize_pair", "quantile_coupling",
    "stochastic_order_leq", "transport_cost",
    "LambdaAsgError", "OrderViolation", "ZeroMass", "SizeLimit",
    "SingularSystem", "StateCapReached",
    "DegenerateSelection", "NearSingular", "NotConverged",
]
