"""Toolkit for feedback-free transmission schedules in ad hoc networks.

Builds periodic binary transmission sequences with guaranteed conflict-free
slots under arbitrary clock misalignment, verifies their combinatorial
properties, plans location-based sequence reuse on a hexagonal grid, and
simulates slot-level superframes to audit the block-free service guarantee.
"""

__version__ = "0.1.0"

from .crt import (ExpandedSetSpec, all_ones, crt0_set, crt_set, expanded_set,
                  product, select_expansion_base)
from .config import sequences_from_config
from .hexalloc import (HexCell, PositionLogEntry, ReusePlan, cell_center,
                       cell_distance, check_fermion, cluster_size, quantize,
                       quantize_many)
from .netsim import (SPEED_OF_LIGHT, BlockFreeReport, ReceptionLog, Scenario,
                     TimingModel, User, adversarial_offset_search,
                     check_block_free, delta_p, frame_offset_audit,
                     run_superframe)
from .rscpc import (ParamSearchError, RsCpcParams, SelectedParams,
                    baseline_compare, element_of_order, length_bounds, pad_set,
                    pad_silent, rs_cpc, select_params_prop1,
                    select_params_prop2, tdma_set)
from .sequences import (BinarySequence, CrtIndexPair, SequenceSet,
                        crt_map, crt_unmap, cyclic_min_distance, cyclic_order,
                        cyclic_shift, hamming_xcorr, min_separation,
                        pairwise_xcorr_peaks, xcorr_profile)
from .verify import (StackedMatrix, StateCapExceeded, VerifyReport,
                     conflict_free_positions, is_ui, max_conflict_free_gap,
                     min_conflict_free_count, separation_audit, window_audit,
                     xcorr_bound_audit, zero_column_window)

__all__ = [
    "__version__",
    # sequences
    "BinarySequence", "SequenceSet", "CrtIndexPair", "cyclic_shift",
    "hamming_xcorr", "xcorr_profile", "pairwise_xcorr_peaks",
    "cyclic_min_distance", "cyclic_order",
    "min_separation", "crt_map", "crt_unmap",
    # constructions
    "crt_set", "crt0_set", "all_ones", "product", "ExpandedSetSpec",
    "expanded_set", "select_expansion_base", "RsCpcParams", "rs_cpc",
    "element_of_order", "pad_silent", "pad_set", "tdma_set",
    "SelectedParams", "select_params_prop1", "select_params_prop2",
    "length_bounds", "ParamSearchError", "baseline_compare",
    "sequences_from_config",
    # verification
    "StackedMatrix", "VerifyReport", "StateCapExceeded",
    "conflict_free_positions", "is_ui", "min_conflict_free_count",
    "max_conflict_free_gap", "zero_column_window", "window_audit",
    "xcorr_bound_audit", "separation_audit",
    # geometry and allocation
    "HexCell", "cell_center", "quantize", "quantize_many", "cell_distance", "cluster_size",
    "ReusePlan", "PositionLogEntry", "check_fermion",
    # simulation
    "SPEED_OF_LIGHT", "delta_p", "TimingModel", "User", "Scenario",
    "ReceptionLog", "run_superframe", "BlockFreeReport", "check_block_free",
    "frame_offset_audit", "adversarial_offset_search",
]
