"""Splitting trees, gauge measures, antichain games, and cube transfer maps."""

from .gauge import (
    Gauge,
    OrderVerdict,
    FIRST_LOWER_ORDER,
    INCONCLUSIVE,
    SECOND_LOWER_ORDER,
    bound_table,
    compare_order,
    sparsity_schedule,
)
from .tree import (
    BranchSchedule,
    BranchSelector,
    ConstantSelector,
    ExplicitSelector,
    ExplicitTree,
    GameBuiltSelector,
    Layer,
    SeededSelector,
    SplittingTree,
)
from .hausdorff import (
    DimensionEstimate,
    MeasureCertificate,
    dimension_estimate,
    frostman_lower,
    level_dp_cost,
    measure_certificate,
)
from .game import (
    BadSet,
    BitFlipMap,
    ExplicitNodeMap,
    GameState,
    Requirement,
    ShiftMap,
    TransducerMap,
    TreeMap,
    bad_set,
    run_game,
    stage_step,
    verify_escape,
)
from .transfer import (
    DyadicInterval,
    dyadic_four_cover,
    expand,
    interleave,
    interleave_metric_check,
    to_cube,
)

__version__ = "0.1.0"
