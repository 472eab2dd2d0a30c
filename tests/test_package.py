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


# this checkout's src/
SRC = os.path.dirname(os.path.dirname(protoseq.__file__))


def child(code):
    """Run `code` in a fresh interpreter and parse its last stdout line as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_by(argv):
    """Exit code of `protoseq <argv>` and the protoseq submodules it loaded,
    plus "numpy" if it loaded numpy."""
    doc = child("import json, sys\n"
                "from protoseq.cli import main\n"
                f"code = main({argv!r})\n"
                "print(json.dumps({'exit': code, 'modules': sorted(m for m in sys.modules "
                "if m.startswith('protoseq.') or m == 'numpy')}))")
    return doc["exit"], {m.removeprefix("protoseq.") for m in doc["modules"]}


# the constructions gen builds in integer arithmetic, unpadded and padded
INTEGER_GEN = [
    ["gen", "crt", "--p", "3", "--q", "5"],
    ["gen", "crt", "--p", "3", "--q", "5", "--pad", "2"],
    ["gen", "crt0", "--p", "3", "--q", "5"],
    ["gen", "crt0", "--p", "3", "--q", "5", "--pad", "2"],
    ["gen", "rs_cpc", "--n", "16", "--p", "17", "--k", "4"],
    ["gen", "rs_cpc", "--n", "16", "--p", "17", "--k", "4", "--pad", "1"],
    ["gen", "tdma", "--g", "4", "--delta", "1"],
    ["gen", "tdma", "--g", "4", "--delta", "1", "--pad", "2"],
]


def sim_config(tmp_path, pad_slots=3):
    """A two-user scenario file on crt0(3, 5), padded by `pad_slots`."""
    cfg = {"tau_s": 1e-3, "L": 15 * (pad_slots + 1), "F": 3,
           "delta_c_slots": min(pad_slots, 2), "R_m": 500.0, "h_m": 1.0, "M": 3,
           "sequences": {"construction": "crt0", "p": 3, "q": 5},
           "users": [{"id": "a", "x": 0, "y": 0, "label": "g0", "shift": 7},
                     {"id": "b", "x": 200, "y": 0, "label": "g2", "shift": 3}]}
    if pad_slots:
        cfg["sequences"]["pad_slots"] = pad_slots
    path = tmp_path / f"scenario_pad{pad_slots}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestColdImport:
    def test_import_loads_no_submodule_and_no_numpy(self):
        loaded = child("import json, sys\nimport protoseq\n"
                       "print(json.dumps(sorted(m for m in sys.modules "
                       "if m.partition('.')[0] in ('numpy', 'protoseq'))))")
        assert loaded == ["protoseq"]

    def test_sequences_loads_no_numpy(self):
        loaded = child("import json, sys\nimport protoseq.sequences\n"
                       "print(json.dumps('numpy' in sys.modules))")
        assert loaded is False

    @pytest.mark.parametrize("argv", INTEGER_GEN)
    def test_integer_constructions_load_no_numpy(self, argv, tmp_path):
        code, loaded = loaded_by([*argv, "--out", str(tmp_path / "set.json")])
        assert code == 0
        assert "numpy" not in loaded

    def test_expanded_loads_numpy(self, tmp_path):
        # the base audit and the products compute with arrays
        base, out = tmp_path / "base.json", tmp_path / "expanded.json"
        code, loaded = loaded_by(["gen", "rs_cpc", "--n", "8", "--p", "17", "--k", "3",
                                  "--out", str(base)])
        assert (code, "numpy" in loaded) == (0, False)
        code, loaded = loaded_by(["gen", "expanded", "--base", str(base), "--p", "3",
                                  "--m", "3", "--out", str(out)])
        assert (code, "numpy" in loaded) == (0, True)
        assert len(json.loads(out.read_text())["sequences"]) == 17

    def test_verify_skips_netsim_and_hexalloc(self):
        code, loaded = loaded_by(["verify", "ui", "--config",
                                  '{"construction":"crt0","p":3,"q":5}', "--jobs", "1"])
        assert code == 0
        assert "verify" in loaded
        assert not loaded & {"netsim", "hexalloc"}

    def test_sim_skips_verify(self, tmp_path):
        code, loaded = loaded_by(["sim", "--config", sim_config(tmp_path), "--seed", "1"])
        assert code == 0
        assert "netsim" in loaded
        assert "verify" not in loaded

    @pytest.mark.parametrize("argv", [
        ["gen", "crt0", "--p", "3", "--q", "5"],
        ["params", "prop2", "--m", "3", "--g", "7"],
        ["compare", "--m", "3", "--g", "7", "--delta", "2"],
    ])
    def test_gen_params_compare_skip_netsim_and_verify(self, argv):
        # the searches live in _sizing, and crt reads its code search there
        code, loaded = loaded_by(argv)
        assert code == 0
        assert not loaded & {"netsim", "verify", "rscpc"}

    @pytest.mark.parametrize("argv", [
        ["alloc", "--r", "500", "--h", "150"],
        ["params", "prop2", "--m", "3", "--g", "7"],
        ["compare", "--m", "3", "--g", "7", "--delta", "2"],
    ])
    def test_commands_that_build_no_set_skip_the_constructions(self, argv):
        # the parser reads config's construction names, which import no
        # construction; the sizing commands load neither numpy nor any
        # module that needs it
        code, loaded = loaded_by(argv)
        assert code == 0
        assert not loaded & {"numpy", "sequences", "crt", "rscpc"}

    @pytest.mark.parametrize("argv", [
        ["verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}', "--jobs", "1"],
        ["verify", "window", "--p", "3"],
        ["sim", "--seed", "1"],
    ])
    def test_crt0_commands_skip_rscpc(self, argv, tmp_path):
        # gen crt0 is a case above; padding is rscpc's pad_set, so the
        # scenario is unpadded
        if argv[0] == "sim":
            argv = [*argv, "--config", sim_config(tmp_path, pad_slots=0)]
        code, loaded = loaded_by(argv)
        assert code == 0
        assert "crt" in loaded
        assert "rscpc" not in loaded

    def test_cell_allocation_loads_numpy_on_use(self, tmp_path):
        out = tmp_path / "alloc.json"
        code, loaded = loaded_by(["alloc", "--r", "500", "--h", "150", "--cell", "1,2",
                                  "--out", str(out)])
        assert code == 0
        assert "numpy" in loaded
        plan = protoseq.ReusePlan.from_geometry(150.0, 500.0)
        assert json.loads(out.read_text())["index"] == plan.allocate(protoseq.HexCell(1, 2))


def run_cli(argv, cwd, *path):
    """`python -m protoseq.cli <argv>` in `cwd`, with `path` and then this
    checkout's src/ on PYTHONPATH."""
    return subprocess.run([sys.executable, "-m", "protoseq.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([*path, SRC])))


class TestWithoutNumpy:
    """The sizing commands and the integer constructions run, byte for byte
    the same, where numpy cannot be imported."""

    @pytest.fixture()
    def stub(self, tmp_path):
        """A directory whose `numpy` package raises ImportError."""
        (tmp_path / "stub" / "numpy").mkdir(parents=True)
        (tmp_path / "stub" / "numpy" / "__init__.py").write_text(
            "raise ImportError('numpy is not installed')\n")
        return str(tmp_path / "stub")

    @pytest.mark.parametrize("argv", [
        ["params", "prop2", "--m", "5", "--g", "37"],
        ["params", "prop1", "--m", "5", "--g", "37", "--delta", "2"],
        ["compare", "--m", "5", "--g", "37", "--delta", "2"],
        ["compare", "--m", "5", "--g", "37", "--delta", "2", "--format", "csv"],
        ["alloc", "--r", "2000", "--h", "1"],
        *INTEGER_GEN,
    ])
    def test_sizing_commands_match_a_normal_run(self, argv, stub, tmp_path):
        written = []
        for name, path in (("normal", []), ("stubbed", [stub])):
            (tmp_path / name).mkdir()
            proc = run_cli([*argv, "--out", "out"], tmp_path / name, *path)
            assert proc.returncode == 0, proc.stderr
            written.append((tmp_path / name / "out").read_bytes())
        assert written[0] == written[1]

    def test_stub_blocks_numpy(self, stub, tmp_path):
        # the stub works: a command that needs numpy fails on it
        proc = run_cli(["verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}'],
                       tmp_path, stub)
        assert proc.returncode != 0
        assert "numpy is not installed" in proc.stderr


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
