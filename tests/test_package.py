"""The package's public surface, and what a cold import or command loads.

The pytest process already holds every protoseq module, so each load check
runs in a fresh interpreter with this checkout's src/ on PYTHONPATH.
"""

import json
import os
import subprocess
import sys

import pytest

import protoseq

# every public name and the submodule that defines it
PUBLIC = {
    "sequences": ["BinarySequence", "SequenceSet", "CrtIndexPair", "cyclic_shift",
                  "hamming_xcorr", "xcorr_profile", "pairwise_xcorr_peaks",
                  "cyclic_min_distance", "cyclic_order", "min_separation", "crt_map",
                  "crt_unmap"],
    "crt": ["crt_set", "crt0_set", "all_ones", "product", "ExpandedSetSpec",
            "expanded_set", "select_expansion_base"],
    "rscpc": ["RsCpcParams", "rs_cpc", "element_of_order", "pad_silent", "pad_set",
              "tdma_set", "SelectedParams", "select_params_prop1", "select_params_prop2",
              "length_bounds", "ParamSearchError", "baseline_compare"],
    "config": ["sequences_from_config"],
    "verify": ["StackedMatrix", "VerifyReport", "StateCapExceeded",
               "conflict_free_positions", "is_ui", "min_conflict_free_count",
               "max_conflict_free_gap", "zero_column_window", "window_audit",
               "xcorr_bound_audit", "separation_audit"],
    "hexalloc": ["HexCell", "cell_center", "quantize", "quantize_many", "cell_distance",
                 "cluster_size", "ReusePlan", "PositionLogEntry", "check_fermion"],
    "netsim": ["SPEED_OF_LIGHT", "delta_p", "TimingModel", "User", "Scenario",
               "ReceptionLog", "run_superframe", "BlockFreeReport", "check_block_free",
               "frame_offset_audit", "adversarial_offset_search"],
}


def child(code):
    """Run `code` in a fresh interpreter and parse its last stdout line as JSON."""
    src = os.path.dirname(os.path.dirname(protoseq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_by(argv):
    """Exit code of `protoseq <argv>` and the protoseq submodules it loaded."""
    doc = child("import json, sys\n"
                "from protoseq.cli import main\n"
                f"code = main({argv!r})\n"
                "print(json.dumps({'exit': code, 'modules': sorted(m for m in sys.modules "
                "if m.startswith('protoseq.'))}))")
    return doc["exit"], {m.removeprefix("protoseq.") for m in doc["modules"]}


class TestColdImport:
    def test_import_loads_no_submodule_and_no_numpy(self):
        loaded = child("import json, sys\nimport protoseq\n"
                       "print(json.dumps(sorted(m for m in sys.modules "
                       "if m.partition('.')[0] in ('numpy', 'protoseq'))))")
        assert loaded == ["protoseq"]

    def test_verify_skips_netsim_and_hexalloc(self):
        code, loaded = loaded_by(["verify", "ui", "--config",
                                  '{"construction":"crt0","p":3,"q":5}', "--jobs", "1"])
        assert code == 0
        assert "verify" in loaded
        assert not loaded & {"netsim", "hexalloc"}

    def test_sim_skips_verify(self, tmp_path):
        cfg = {"tau_s": 1e-3, "L": 60, "F": 3, "delta_c_slots": 2, "R_m": 500.0,
               "h_m": 1.0, "M": 3,
               "sequences": {"construction": "crt0", "p": 3, "q": 5, "pad_slots": 3},
               "users": [{"id": "a", "x": 0, "y": 0, "label": "g0", "shift": 7},
                         {"id": "b", "x": 200, "y": 0, "label": "g2", "shift": 3}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, loaded = loaded_by(["sim", "--config", str(path), "--seed", "1"])
        assert code == 0
        assert "netsim" in loaded
        assert "verify" not in loaded

    @pytest.mark.parametrize("argv", [
        ["gen", "crt0", "--p", "3", "--q", "5"],
        ["params", "prop2", "--m", "3", "--g", "7"],
        ["compare", "--m", "3", "--g", "7", "--delta", "2"],
    ])
    def test_gen_params_compare_skip_netsim_and_verify(self, argv):
        code, loaded = loaded_by(argv)
        assert code == 0
        assert "rscpc" in loaded
        assert not loaded & {"netsim", "verify"}

    @pytest.mark.parametrize("argv", [
        ["alloc", "--r", "500", "--h", "150"],
        ["params", "prop2", "--m", "3", "--g", "7"],
        ["compare", "--m", "3", "--g", "7", "--delta", "2"],
    ])
    def test_commands_that_build_no_set_skip_the_constructions(self, argv):
        # the parser reads config's construction names; only the rscpc
        # searches behind params and compare are loaded
        code, loaded = loaded_by(argv)
        assert code == 0
        assert "crt" not in loaded
        assert ("rscpc" in loaded) == (argv[0] != "alloc")


class TestPublicSurface:
    def test_all_holds_every_public_name_once(self):
        names = [n for names in PUBLIC.values() for n in names]
        assert len(protoseq.__all__) == len(set(protoseq.__all__)) == 64
        assert set(protoseq.__all__) == {"__version__", *names}

    def test_names_resolve_to_their_submodule_objects_on_first_use(self):
        # a fresh interpreter, so each name goes through the lazy lookup
        doc = child("import importlib, json\nimport protoseq\n"
                    f"public = {PUBLIC!r}\n"
                    "wrong = [n for m, names in public.items() for n in names "
                    "if getattr(protoseq, n) is not "
                    "getattr(importlib.import_module('protoseq.' + m), n)]\n"
                    "subs = [m for m in public "
                    "if getattr(protoseq, m) is not importlib.import_module('protoseq.' + m)]\n"
                    "print(json.dumps([wrong, subs]))")
        assert doc == [[], []]

    def test_star_import_binds_every_name(self):
        missing = child("import json\nfrom protoseq import *\nimport protoseq\n"
                        "print(json.dumps([n for n in protoseq.__all__ "
                        "if n not in globals()]))")
        assert missing == []

    def test_each_module_exports_its_row(self):
        # each submodule's __all__, and what a star import of it binds, in a
        # fresh interpreter; sorted, since a star import sees no order
        doc = child("import importlib, json\n"
                    "rows = {}\n"
                    f"for m in {list(PUBLIC)!r}:\n"
                    "    ns = {}\n"
                    "    exec(f'from protoseq.{m} import *', ns)\n"
                    "    rows[m] = [sorted(importlib.import_module('protoseq.' + m).__all__), "
                    "sorted(set(ns) - {'__builtins__'})]\n"
                    "print(json.dumps(rows))")
        assert doc == {m: [sorted(names)] * 2 for m, names in PUBLIC.items()}

    def test_dir_lists_public_names_and_submodules(self):
        listed = set(dir(protoseq))
        assert set(protoseq.__all__) <= listed
        assert set(PUBLIC) <= listed

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            protoseq.no_such_name
        assert not hasattr(protoseq, "no_such_name")
