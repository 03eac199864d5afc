"""One-bit reflectarray antenna simulator with link-level metrics.

The package models a PIN-diode reflectarray fed by a horn: element
equivalent circuit and its sweep-based tuning, array geometry and feed
placement, far-field synthesis under one-bit grouped phase control,
hierarchical beam training, and the downstream link numbers (EVM,
adjacent-channel leakage, dual-polarization SINR, TDD peak rate).
"""

from .constants import C_MPS, ETA0_OHM, db10, from_db10, wrap_deg
from .element import (
    DEFAULT_START_CIRCUIT,
    DEFAULT_SWEEPS,
    DESIGN_CIRCUIT,
    DesignTargets,
    DiodeModel,
    ElementCircuit,
    OptimizeResult,
    SweepRange,
    element_impedance,
    optimize_structure,
    reflection_coefficient,
    state_metrics,
)
from .feedopt import (
    EfficiencyBreakdown,
    FeedSearchSpace,
    aperture_efficiency,
    coarse_optimize_feed,
    refine_feed,
)
from .geometry import (
    AntennaAssembly,
    Direction,
    FeedModel,
    IncidenceModel,
    RisArray,
    element_positions,
    group_map,
)
from .link import (
    FrameConfig,
    LinkScenario,
    PaModel,
    XpdModel,
    aclr,
    apply_pa,
    dl_duty,
    dual_stream_sinr,
    evm_closed_form,
    evm_vs_distance,
    link_budget,
    measure_aclr,
    ofdm_waveform,
    path_loss_fspl,
    peak_rate_3gpp,
    power_saving,
    simulate_evm,
)
from .pattern import (
    FarFieldPattern,
    PatternMetrics,
    SteeredGain,
    direction_grid,
    directivity_upper_bound,
    far_field,
    pattern_metrics,
    spillover_efficiency,
    steered_gain,
    taper_efficiency,
)
from .scenario import Scenario, ScenarioError, load_scenario, resolve_scenario
from .synthesis import (
    Codebook,
    Codeword,
    TrainingResult,
    WideBeamResult,
    beam_training,
    build_codebook,
    exhaustive_search,
    paired_training,
    quantize_one_bit,
    required_phases,
    scan_evaluation,
    synthesize_codeword,
    synthesize_wide_beam,
)

__version__ = "0.1.0"
