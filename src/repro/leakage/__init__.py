"""Side-channel leakage assessment: TVLA, acquisition harness, SNR, PRNG."""

from .tvla import (
    THRESHOLD,
    TTestAccumulator,
    TvlaResult,
    consistent_leakage,
    threshold_crossings,
    welch_t,
)
from .acquisition import (
    CampaignBatchError,
    CampaignConfig,
    OversubscriptionWarning,
    TraceSource,
    detect_leakage_traces,
    resolve_n_workers,
    run_campaign,
    run_multi_fixed,
    suggest_batch_size,
)
from .stats import BatchRecord, CampaignStats
from .transport import pack_shard, unpack_shard
from .supervisor import (
    CampaignInterrupted,
    SupervisorCheckpoint,
    load_checkpoint_supervised,
    quarantine_checkpoint,
    run_campaign_supervised,
    save_checkpoint_supervised,
    validate_runner_args,
)
from .snr import snr
from .prng import RandomnessSource

__all__ = [
    "THRESHOLD",
    "TTestAccumulator",
    "TvlaResult",
    "consistent_leakage",
    "threshold_crossings",
    "welch_t",
    "CampaignBatchError",
    "CampaignConfig",
    "OversubscriptionWarning",
    "TraceSource",
    "detect_leakage_traces",
    "resolve_n_workers",
    "run_campaign",
    "run_multi_fixed",
    "suggest_batch_size",
    "BatchRecord",
    "CampaignStats",
    "pack_shard",
    "unpack_shard",
    "quarantine_checkpoint",
    "validate_runner_args",
    "CampaignInterrupted",
    "SupervisorCheckpoint",
    "load_checkpoint_supervised",
    "run_campaign_supervised",
    "save_checkpoint_supervised",
    "snr",
    "RandomnessSource",
]
