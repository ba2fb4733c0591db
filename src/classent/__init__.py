"""Entanglement change under classical re-encoding of one subsystem.

The package measures how much multiparticle entanglement a tripartite
state loses when subsystem C is measured projectively and replaced by a
classical register carrying the outcome.  It provides the channel
itself, optimized entanglement-change computations with analytic
bounds, and certification routines for states that lose all of their
entanglement this way.
"""

from .certify import (
    CertReport,
    Condition1Report,
    DiscordReport,
    RankReport,
    certify_state,
    condition1_check,
    fixed_point_check,
    rank_report,
    zero_discord_check,
)
from .classicalize import (
    DEFAULT_GRID,
    DeltaResult,
    MeasurementDirection,
    MeasurementOutcome,
    classicalize,
    delta,
    ensemble_values,
    global_value,
    lower_bound,
    upper_bound,
)
from .matcore import (
    Bipartition,
    DensityMatrix,
    PureState,
    as_density,
    kron,
    numeric_rank,
    partial_trace,
    partial_transpose,
    tripartite_cuts,
    von_neumann_entropy,
)
from .measures import (
    MeasureKind,
    SeparabilityVerdict,
    negativity,
    post_value,
    ppt_verdict,
    pure_negativity_schmidt,
    squashed_pure_tripartite,
    tripartite_negativity,
)
from .states import parse_state_spec

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CertReport",
    "Condition1Report",
    "DEFAULT_GRID",
    "DeltaResult",
    "DensityMatrix",
    "DiscordReport",
    "MeasureKind",
    "MeasurementDirection",
    "MeasurementOutcome",
    "PureState",
    "RankReport",
    "SeparabilityVerdict",
    "as_density",
    "certify_state",
    "classicalize",
    "condition1_check",
    "delta",
    "ensemble_values",
    "fixed_point_check",
    "global_value",
    "kron",
    "lower_bound",
    "negativity",
    "numeric_rank",
    "parse_state_spec",
    "partial_trace",
    "partial_transpose",
    "post_value",
    "ppt_verdict",
    "pure_negativity_schmidt",
    "rank_report",
    "squashed_pure_tripartite",
    "tripartite_cuts",
    "tripartite_negativity",
    "upper_bound",
    "von_neumann_entropy",
    "zero_discord_check",
]
