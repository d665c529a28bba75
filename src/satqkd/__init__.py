"""Satellite downlink decoy-state BB84 simulator and key-rate engine."""

__version__ = "0.1.0"

from .channel import (
    ChannelConfig,
    ElevationLossModel,
    PassProfile,
    sampled_pass,
    synthesize_pass,
    transmittance_from_db,
)
from .config import RunConfig, default_run_config, default_source, load_run_config
from .optimizer import Axis, SearchSpace, optimize
from .protocol import (
    DecoyBounds,
    KeyResult,
    SecurityParams,
    TallyTable,
    analytic_tallies,
    decoy_bounds,
    key_from_fixed_loss,
    simulate_block,
)
from .receiver import DetectorModel
from .source import (
    DiodeProfile,
    ExtinctionSet,
    FilterSpec,
    IntensityClass,
    IntensityLabel,
    PolarizationState,
    SourceConfig,
    distinguishability_report,
    filter_transmission,
    intrinsic_qber,
    shifted_center,
    spectral_overlap,
    temporal_overlap,
)
