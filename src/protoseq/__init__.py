"""Toolkit for feedback-free transmission schedules in ad hoc networks.

Builds periodic binary transmission sequences with guaranteed conflict-free
slots under arbitrary clock misalignment, verifies their combinatorial
properties, plans location-based sequence reuse on a hexagonal grid, and
simulates slot-level superframes to audit the block-free service guarantee.

`import protoseq` loads no submodule: each public name below, and each
submodule named as an attribute (`protoseq.verify`), is imported on first
use, so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each submodule's __all__ is its row
_EXPORTS = {
    "sequences": ("BinarySequence", "SequenceSet", "CrtIndexPair", "cyclic_shift",
                  "hamming_xcorr", "xcorr_profile", "pairwise_xcorr_peaks",
                  "cyclic_min_distance", "cyclic_order", "min_separation",
                  "crt_map", "crt_unmap"),
    "crt": ("crt_set", "crt0_set", "all_ones", "product", "ExpandedSetSpec",
            "expanded_set", "select_expansion_base"),
    "rscpc": ("RsCpcParams", "rs_cpc", "element_of_order", "pad_silent", "pad_set",
              "tdma_set", "SelectedParams", "select_params_prop1",
              "select_params_prop2", "length_bounds", "ParamSearchError",
              "baseline_compare"),
    "config": ("sequences_from_config",),
    "verify": ("StackedMatrix", "VerifyReport", "StateCapExceeded",
               "conflict_free_positions", "is_ui", "min_conflict_free_count",
               "max_conflict_free_gap", "zero_column_window", "window_audit",
               "xcorr_bound_audit", "separation_audit"),
    "hexalloc": ("HexCell", "cell_center", "quantize", "quantize_many",
                 "cell_distance", "cluster_size", "ReusePlan", "PositionLogEntry",
                 "check_fermion"),
    "netsim": ("SPEED_OF_LIGHT", "delta_p", "TimingModel", "User", "Scenario",
               "ReceptionLog", "run_superframe", "BlockFreeReport",
               "check_block_free", "frame_offset_audit", "adversarial_offset_search"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    # PEP 562: called only for names not yet in the package namespace
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
