"""Toolkit for run-length-limited binary subshifts and their measures."""

from .words import (
    CapacityError,
    InadmissibleWordError,
    OccurrenceReport,
    complement,
    count_words,
    d2,
    enumerate_words,
    is_admissible_symbols,
    occurrence_report,
    pi2,
)
from .measure import (
    BernoulliTypeMeasure,
    PullbackSeries,
    bernoulli,
    cesaro_lambda,
    mu_closed,
    mu_recursive,
    pullback_cylinder,
    pullback_series,
)
from .markov import (
    ChainSpec,
    RunState,
    SampleRun,
    build_chain,
    final_local_dimension,
    sample,
    stationary,
)
from .dimension import (
    DimensionProfile,
    entropy_binary,
    f_m,
    g_m,
    lower_bound,
    profile,
    profiles,
    solve_qm,
    topo_dim,
)
from .univoque import (
    EventuallyPeriodicSequence,
    GammaVerdict,
    clean_windows,
    gamma_check_periodic,
    gamma_check_prefix,
    theta_embed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
