"""Exact and simulated analysis of pass-and-swap queueing models."""

__version__ = "0.1.0"

from .errors import (
    CapabilityError,
    ConvergenceError,
    DeadlockError,
    DomainError,
    ModelFormatError,
    PandsError,
    ResourceError,
    StructureError,
    UnsupportedFeatureError,
    UsageError,
)
from .model import (
    Macrostate,
    MultiServerRates,
    PandsQueue,
    RateFunction,
    State,
    SwappingGraph,
    TableRates,
    ValidationReport,
    all_macrostates,
    all_states,
    macrostate,
    validate_rate_function,
)
from .dynamics import (
    CompletionOutcome,
    Transition,
    apply_completion,
    open_transitions,
    predecessors,
)
from .product_form import (
    PartialBalanceReport,
    StabilityReport,
    TruncatedDistribution,
    balance,
    flow_rates,
    macrostate_flow_identity,
    stability_check,
    state_weight,
    stationary_truncated,
    verify_partial_balance,
)
from .closed import (
    ClassPartition,
    ClosedAnalysis,
    ClosedQueue,
    IsomorphicModel,
    MacrostateAnalysis,
    PlacementOrder,
    TandemAnalysis,
    TandemNetwork,
    TandemState,
    adheres,
    adheres_tandem,
    analyze_closed,
    analyze_tandem,
    analyze_tandem_macrostates,
    closed_step,
    communicating_classes,
    enumerate_adhering,
    enumerate_placement_orders,
    enumerate_sigma,
    first_queue_macrostates,
    isomorphic_model,
    order_from_state,
    successors,
    tandem_step,
    tandem_transitions,
)
from .cluster import (
    ClusterMetrics,
    ClusterSpec,
    CompiledTandem,
    compile_cluster,
    macrostate_metrics,
    metrics,
)
from .oracle import (
    GeneratorMatrix,
    StationarySolution,
    build_generator,
    open_generator,
    solve_stationary,
    solve_unique,
    total_variation,
)
from .sim import (
    ProtocolSimulator,
    SimConfig,
    SimResult,
    simulate,
    simulate_protocol,
)
