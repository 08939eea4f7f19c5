"""Mesh adaptive direct search for mixed-variable hyperparameter optimization,
with static early-stopping and ranking surrogates."""

from .blackbox import (
    EvaluationRequest,
    EvaluationResult,
    ProcessAdapter,
    SimulatedBlackbox,
    external_evaluate,
    simulate_curve,
)
from .campaign import CampaignSettings, resume, run
from .early_stop import (
    BaselineEnvelope,
    StoppingMonitor,
    StopVerdict,
    TrainingHistory,
    check_envelope,
    update_baseline,
)
from .ledger import LedgerRecord, export_convergence, read_ledger, write_ledger
from .mads import (
    CampaignResult,
    Mesh,
    PollSet,
    RunPlan,
    generate_poll,
    opportunistic_evaluate,
    run_campaign,
    update_mesh,
)
from .space import (
    Configuration,
    ConvLayerHP,
    SpaceBounds,
    default_bounds,
    deserialize,
    dimension,
    make_config,
    neighbors,
    preset_config,
    serialize,
    validate,
)
from .surrogates import (
    SurrogateSpec,
    custom_surrogate,
    estimate,
    rank_candidates,
    surrogate_by_name,
)

__version__ = "0.1.0"
