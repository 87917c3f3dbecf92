"""Direction-persistent lattice walks: simulation, exact laws, verification.

The walk keeps its heading from step to step and redraws it uniformly over
all 2d signed axis directions with a step-dependent probability p_n.  The
package simulates these walks, computes their small-n laws and closed-form
moments and bounds exactly, samples the two scaling limits (Brownian and
zigzag), classifies recurrence regimes, and confronts every formula with
Monte Carlo evidence through reproducible seeded experiments.
"""

from .schedule import (
    Constant,
    Critical,
    Explicit,
    Periodic,
    PowerDecay,
    Regime,
    RegimeClassification,
    Schedule,
    classify_regime,
    schedule_from_json,
    schedule_to_json,
)
from .walk import (
    Direction,
    Path,
    TurnEvent,
    WalkState,
    all_directions,
    embedded_jumps,
    initial_state,
    sample_positions,
    simulate,
    simulate_events,
    step,
    visits,
)
from .analytics import (
    LyapunovConfig,
    correlation_e,
    cosine_sum_bound,
    count_arith_progression,
    fourth_moment_L,
    gambler_pass_once,
    ld_bound,
    lyapunov_drift,
    sgeom_moment,
)
from .oracle import (
    ExactDistribution,
    ResourceLimitError,
    brute_force_L_moment,
    exact_distribution,
)
from .zigzag import (
    LabeledIntervals,
    PPPRealization,
    ZigzagPath,
    b_from_a,
    label_intervals,
    position_at,
    sample_ppp,
)
from .verify import (
    EstimatorResult,
    RecurrencePoint,
    VolkovResult,
    covariance_report,
    critical_limit_test,
    envelope,
    estimate_covariance,
    estimate_tail,
    moment4_experiment,
    moment4_report,
    recurrence_experiment,
    recurrence_report,
    scaling_limit_test,
    tail_report,
    volkov_bc_experiment,
    volkov_report,
)

__version__ = "0.1.0"
