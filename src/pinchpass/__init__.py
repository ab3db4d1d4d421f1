"""Outage and rate analysis for pinching-antenna coverage of a circular region.

Closed-form outage probability and average achievable rate for four
waveguide configurations (full/partial coverage, with/without propagation
loss) behind one entry point, :func:`evaluate`, a seeded Monte-Carlo oracle
for validation, and a CLI harness for parameter sweeps and the
optimal-half-length search.
"""

from .analysis import (
    LengthSearchResult,
    MetricResult,
    evaluate,
    optimal_length_search,
    outage_fwl,
    outage_fwnl,
    outage_pwl,
    outage_pwnl,
    rate_fwl,
    rate_fwnl,
    rate_pwl,
    rate_pwnl,
)
from .montecarlo import (
    McEstimate,
    estimate_many,
    estimate_outage,
    estimate_rate,
    snr_values,
)
from ._outage_lossy import RootReport, classify_crossings
from .params import (
    DerivedConstants,
    Scenario,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    derive_constants,
    linear_to_db,
    watts_to_dbm,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedConstants",
    "LengthSearchResult",
    "McEstimate",
    "MetricResult",
    "RootReport",
    "Scenario",
    "SystemParams",
    "classify_crossings",
    "db_to_linear",
    "dbm_to_watts",
    "derive_constants",
    "estimate_many",
    "evaluate",
    "estimate_outage",
    "estimate_rate",
    "linear_to_db",
    "optimal_length_search",
    "outage_fwl",
    "outage_fwnl",
    "outage_pwl",
    "outage_pwnl",
    "rate_fwl",
    "rate_fwnl",
    "rate_pwl",
    "rate_pwnl",
    "snr_values",
    "watts_to_dbm",
]
