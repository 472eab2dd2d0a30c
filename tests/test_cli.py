import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import protoseq
from protoseq.cli import _GEN_FLAGS, _build_parser, main
from protoseq.crt import crt0_set
from protoseq.hexalloc import ReusePlan
from protoseq.rscpc import tdma_set


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def scenario_file(tmp_path):
    cfg = {
        "tau_s": 1e-3, "L": 60, "F": 3, "delta_c_slots": 2,
        "R_m": 500.0, "h_m": 1.0, "M": 3,
        "sequences": {"construction": "crt0", "p": 3, "q": 5, "pad_slots": 3},
        "users": [
            {"id": "a", "x": 0, "y": 0, "label": "g0", "shift": 7},
            {"id": "b", "x": 200, "y": 0, "label": "g2", "shift": 3},
            {"id": "c", "x": 0, "y": 350, "label": "*", "shift": 11},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGen:
    def test_writes_set_with_manifest(self, tmp_path):
        out = tmp_path / "family.json"
        assert run("gen", "crt0", "--p", "3", "--q", "5",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        labels = [e["label"] for e in doc["sequences"]]
        assert labels == ["g0", "g2", "*"]
        assert doc["manifest"]["command"] == "gen"
        assert "created_utc" not in doc["manifest"]
        side = json.loads((tmp_path / "family.json.manifest.json").read_text())
        assert "created_utc" in side
        assert side["config_digest"] == doc["manifest"]["config_digest"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "rs_cpc", "--n", "5", "--p", "11", "--k", "3", "--out", str(a))
        run("gen", "rs_cpc", "--n", "5", "--p", "11", "--k", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_pad_flag(self, capsys):
        assert run("gen", "crt0", "--p", "3", "--q", "5", "--pad", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sequences"][0]["period"] == 60

    def test_product_from_files(self, tmp_path):
        fx, fy = tmp_path / "x.json", tmp_path / "y.json"
        crt0_set(2, 3).save(str(fx))
        tdma_set(5, 0).save(str(fy))
        out = tmp_path / "prod.json"
        assert run("gen", "product", "--x", str(fx), "--y", str(fy),
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["sequences"][0]["period"] == 30

    def test_expanded_from_base_file(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        run("gen", "rs_cpc", "--n", "8", "--p", "17", "--k", "3",
            "--out", str(base))
        capsys.readouterr()
        assert run("gen", "expanded", "--base", str(base), "--p", "3",
                   "--m", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["cf_floor"] == 12
        assert len(doc["sequences"]) == 17

    def test_missing_flags(self):
        assert run("gen", "crt0", "--p", "3") == 2

    def test_invalid_construction_params(self):
        assert run("gen", "crt0", "--p", "4", "--q", "8") == 2  # gcd != 1

    def test_missing_key_is_named(self, capsys):
        assert run("gen", "tdma", "--g", "4") == 2
        assert ("error: construction 'tdma' is missing required key(s): 'delta'"
                in capsys.readouterr().err)

    def test_unread_flags_are_named(self, capsys):
        assert run("gen", "crt0", "--p", "3", "--q", "5", "--n", "7", "--delta", "4") == 2
        assert ("error: construction 'crt0' does not read flag(s): --n, --delta"
                in capsys.readouterr().err)
        assert run("gen", "crt0", "--p", "3", "--q", "5", "--split", "g0") == 2
        assert "--split" in capsys.readouterr().err

    def test_parser_reads_the_flag_table(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        own = [a for a in sub.choices["gen"]._actions
               if a.option_strings and a.dest not in ("help", "seed", "jobs", "out")]
        assert [(a.option_strings, a.type) for a in own] == \
               [([f"--{flag}"], kind) for flag, (_, kind, _) in _GEN_FLAGS.items()]

    def test_empty_split_and_zero_pad_are_absent(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        run("gen", "rs_cpc", "--n", "8", "--p", "17", "--k", "3",
            "--out", str(base))
        capsys.readouterr()
        docs = []
        for extra in ([], ["--split", "", "--pad", "0"]):
            assert run("gen", "expanded", "--base", str(base), "--p", "3",
                       "--m", "3", *extra) == 0
            doc = json.loads(capsys.readouterr().out)
            docs.append((doc["meta"], doc["sequences"]))
        assert docs[0] == docs[1]


class TestBadLabelsAndPads:
    @pytest.mark.parametrize("argv, message", [
        (["verify", "ui", "--config",
          '{"construction":"crt0","p":3,"q":5,"select":["g0","zz"]}'],
         "select label(s) not in the set: 'zz'"),
        (["gen", "expanded", "--base", "BASE", "--p", "2", "--m", "2", "--split", "zz,yy"],
         "split label(s) not in the base set: 'zz', 'yy'"),
        (["gen", "crt0", "--p", "3", "--q", "5", "--pad", "-2"],
         "'pad_slots' must be >= 0, got -2"),
        (["verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5,"pad_slots":-1}'],
         "'pad_slots' must be >= 0, got -1"),
    ])
    def test_bad_label_or_pad_is_named(self, argv, message, tmp_path, capsys):
        base = tmp_path / "b.json"
        assert run("gen", "rs_cpc", "--n", "5", "--p", "11", "--k", "3",
                   "--out", str(base)) == 0
        capsys.readouterr()
        assert run(*(str(base) if a == "BASE" else a for a in argv)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestMalformedConfigValues:
    @pytest.mark.parametrize("cfg, message", [
        ({"construction": "crt0", "p": 3.5, "q": 5},
         "construction 'crt0' key 'p' must be an integer, got 3.5"),
        ({"construction": "crt0", "p": True, "q": 5},
         "construction 'crt0' key 'p' must be an integer, got True"),
        ({"construction": "crt", "p": 3, "q": 5.5},
         "construction 'crt' key 'q' must be an integer, got 5.5"),
        ({"construction": "rs_cpc", "n": 4.5, "p": 5, "k": 3},
         "construction 'rs_cpc' key 'n' must be an integer, got 4.5"),
        ({"construction": "rs_cpc", "n": 4, "p": 5, "k": 3.5},
         "construction 'rs_cpc' key 'k' must be an integer, got 3.5"),
        ({"construction": "rs_cpc", "n": 4, "p": 5, "k": 3, "alpha": "2"},
         "construction 'rs_cpc' key 'alpha' must be an integer, got '2'"),
        ({"construction": "tdma", "G": 2.5, "delta": 0},
         "construction 'tdma' key 'G' must be an integer, got 2.5"),
        ({"construction": "tdma", "G": 2, "delta": 0.5},
         "construction 'tdma' key 'delta' must be an integer, got 0.5"),
        ({"construction": "expanded", "base": {"file": "BASE"}, "p": 2, "M": 2.5},
         "construction 'expanded' key 'M' must be an integer, got 2.5"),
        ({"construction": "crt0", "p": 3, "q": 5, "pad_slots": 3.9},
         "'pad_slots' must be an integer, got 3.9"),
        ({"construction": "crt0", "p": 3, "q": 5, "select": "g0"},
         "'select' must be a list of labels, got 'g0'"),
        ({"construction": "expanded", "base": {"file": "BASE"}, "p": 2, "M": 2,
          "split_labels": "abc"},
         "construction 'expanded' key 'split_labels' must be a list of labels, got 'abc'"),
        ({"sequences": [{"period": 5, "ones": [0]}, {"period": 5, "label": "b"}]},
         "sequence entry 1 is missing required key(s): 'ones'"),
        ({"sequences": [{"period": 5.5, "ones": [0, 1.7]}, {"period": 5, "ones": [2]}]},
         "sequence entry 0: period must be an integer, got 5.5"),
        ({"sequences": [{"period": 5, "ones": [0, 1.7]}, {"period": 5, "ones": [2]}]},
         "sequence entry 0: ones position must be an integer, got 1.7"),
        ({"sequences": [{"period": 5, "ones": [0]}, {"period": 5, "ones": [0, 1.7]}]},
         "sequence entry 1: ones position must be an integer, got 1.7"),
    ], ids=["float-p", "bool-p", "float-q", "float-n", "float-k", "string-alpha",
            "float-G", "float-delta", "float-M", "float-pad", "string-select",
            "string-split", "entry-without-ones", "float-period", "float-position",
            "float-position-in-entry-1"])
    def test_set_config_value_is_named(self, cfg, message, tmp_path, capsys):
        base = tmp_path / "b.json"
        assert run("gen", "rs_cpc", "--n", "5", "--p", "11", "--k", "3",
                   "--out", str(base)) == 0
        capsys.readouterr()
        text = json.dumps(cfg).replace('"BASE"', json.dumps(str(base)))
        assert run("verify", "xcorr", "--bound", "9", "--config", text) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_whole_float_reads_as_its_integer(self, capsys):
        # 2.0 is the integer 2, as random_users has always read it
        outs = []
        for alpha in ("2", "2.0"):
            cfg = '{"construction":"rs_cpc","n":4,"p":5,"k":3,"alpha":%s}' % alpha
            assert run("verify", "ui", "--config", cfg) == 1
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0]["counterexample"] == outs[1]["counterexample"]

    def test_whole_float_positions_read_as_integers(self, capsys):
        outs = []
        for period, ones in (("5", "[0, 1]"), ("5.0", "[0.0, 1.0]")):
            cfg = ('{"sequences": [{"period": %s, "ones": %s}, {"period": 5, "ones": [2]}]}'
                   % (period, ones))
            assert run("verify", "xcorr", "--bound", "9", "--config", cfg) == 0
            report = json.loads(capsys.readouterr().out)
            del report["manifest"]            # it digests the config text
            outs.append(report)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("change, message", [
        ({"L": 2.5}, "scenario config 'L' must be an integer, got 2.5"),
        ({"F": 3.5}, "scenario config 'F' must be an integer, got 3.5"),
        ({"delta_c_slots": 0.5}, "scenario config 'delta_c_slots' must be an integer, got 0.5"),
        ({"M": 2.5}, "scenario config 'M' must be an integer, got 2.5"),
        ({"users": [{"id": "a", "x": 0, "y": 0, "label": "t0", "shift": 1.5}]},
         "user entry 0 'shift' must be an integer, got 1.5"),
        ({"users": [{"id": "a", "x": 0, "y": 0, "label": "t0"}, {"id": "b", "y": 0}]},
         "user entry 1 is missing required key(s): 'x'"),
        ({"plan": {"h": 1.0, "R": 10.0, "G": 1.5, "b1": 1, "b2": 0}},
         "plan 'G' must be an integer, got 1.5"),
        ({"plan": {"h": 1.0, "R": 10.0, "G": 1, "b1": 1.5, "b2": 0}},
         "plan 'b1' must be an integer, got 1.5"),
        ({"plan": {"h": 1.0, "R": 10.0, "G": 1, "b1": 1, "b2": 0.5}},
         "plan 'b2' must be an integer, got 0.5"),
        ({"plan": {"h": 1.0, "R": 10.0, "b1": 1, "b2": 0}},
         "plan is missing required key(s): 'G'"),
        ({"L": 8, "sequences": {"construction": "tdma", "G": 2, "delta": 0,
                                "pad_slots": 3.9}},
         "'pad_slots' must be an integer, got 3.9"),
        ({"users": {"random_users": 2, "area": [0, 0, 9, 9], "seed": 7.5}},
         "users spec 'seed' must be a non-negative integer, got 7.5"),
        ({"users": {"random_users": 2, "area": [0, 0, 9, 9], "seed": -1}},
         "users spec 'seed' must be a non-negative integer, got -1"),
        ({"users": {"random_users": 1, "area": "0000"}},
         "users spec 'area' must be four numbers [xmin, ymin, xmax, ymax], got '0000'"),
    ], ids=["float-L", "float-F", "float-delta_c", "float-M", "float-shift",
            "user-without-x", "float-plan-G", "float-plan-b1", "float-plan-b2",
            "plan-without-G", "float-pad", "float-seed", "negative-seed", "string-area"])
    def test_scenario_value_is_named(self, change, message, tmp_path, capsys):
        cfg = {
            "tau_s": 1e-3, "L": 2, "F": 3, "delta_c_slots": 0, "R_m": 10.0,
            "h_m": 1.0, "M": 2, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 2, "delta": 0},
            "users": [{"id": "a", "x": 0, "y": 0, "label": "t0"}],
            **change,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert run("sim", "--config", str(path), "--seed", "1") == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestVerify:
    def test_ui_holds(self, tmp_path):
        f = tmp_path / "s.json"
        crt0_set(3, 5).save(str(f))
        assert run("verify", "ui", "--set", str(f)) == 0

    def test_ui_violated(self, capsys):
        # two weight-1 members of period 2 collide whenever shifts align
        cfg = json.dumps({"sequences": [
            {"period": 2, "ones": [0], "label": "a"},
            {"period": 2, "ones": [1], "label": "b"}]})
        assert run("verify", "ui", "--config", cfg) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counterexample"] == {"shifts": [0, 1]}

    def test_window_shortcut(self):
        assert run("verify", "window", "--p", "3") == 0

    def test_window_p_zero_is_usage_error(self, capsys):
        assert run("verify", "window", "--p", "0") == 2
        assert "error: --p must be >= 1, got 0" in capsys.readouterr().err

    def test_window_p_zero_with_config_is_usage_error(self, capsys):
        cfg = json.dumps({"construction": "crt0", "p": 3, "q": 5})
        assert run("verify", "window", "--config", cfg, "--p", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --p must be >= 1, got 0" in captured.err

    def test_xcorr_violated(self, capsys):
        cfg = json.dumps({"construction": "crt0", "p": 4, "q": 7})
        assert run("verify", "xcorr", "--config", cfg, "--bound", "1") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counterexample"]["value"] == 2

    def test_xcorr_negative_bound_is_usage_error(self, capsys):
        cfg = '{"sequences":[{"period":5,"ones":[2],"label":"solo"}]}'
        assert run("verify", "xcorr", "--config", cfg, "--bound", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: bound must be >= 0, got -1" in captured.err

    def test_separation_default_bound(self, tmp_path):
        f = tmp_path / "s.json"
        crt0_set(5, 9).save(str(f))
        assert run("verify", "separation", "--set", str(f)) == 0

    def test_separation_names_a_member_with_one_one(self, capsys):
        cfg = json.dumps({"sequences": [
            {"period": 6, "ones": [0, 3], "label": "pair"},
            {"period": 6, "ones": [4], "label": "lone"}]})
        assert run("verify", "separation", "--config", cfg, "--bound", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: member 'lone' has no min separation" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["cf-count", "--protected", "g0", "--threshold", "-1"],
         "threshold must be >= 0, got -1"),
        (["cf-gap", "--protected", "g0", "--bound", "0"], "bound must be >= 1, got 0"),
        (["separation", "--bound", "-2"], "bound must be >= 0, got -2"),
    ])
    def test_limit_deciding_without_a_scan_is_usage_error(self, argv, message, capsys):
        assert run("verify", *argv, "--config", '{"construction":"crt0","p":3,"q":5}') == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    def test_report_file_and_rerun(self, tmp_path):
        f = tmp_path / "s.json"
        crt0_set(3, 5).save(str(f))
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        run("verify", "ui", "--set", str(f), "--out", str(a))
        run("verify", "ui", "--set", str(f), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["verdict"] == "holds"

    def test_random_mode_needs_seeded_report(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        crt0_set(3, 5).save(str(f))
        assert run("verify", "ui", "--set", str(f), "--mode", "random",
                   "--samples", "500", "--seed", "7") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7 and doc["samples"] == 500

    def test_config_missing_key_is_named(self, capsys):
        assert run("verify", "ui", "--config",
                   '{"construction":"crt0","p":3}') == 2
        assert ("error: construction 'crt0' is missing required key(s): 'q'"
                in capsys.readouterr().err)

    def test_config_unread_key_is_named(self, capsys):
        assert run("verify", "ui", "--config",
                   '{"construction":"crt0","p":3,"q":5,"n":7}') == 2
        assert ("error: construction 'crt0' does not read key(s): 'n'"
                in capsys.readouterr().err)

    def test_window_outside_period(self, capsys):
        assert run("verify", "window", "--p", "3", "--window", "0",
                   "--mode", "random", "--samples", "10", "--seed", "1") == 2
        assert "window must lie in [1, period], got 0" in capsys.readouterr().err

    def test_unknown_protected_label_is_named(self, capsys):
        cfg = json.dumps({"construction": "crt0", "p": 3, "q": 5})
        assert run("verify", "cf-count", "--config", cfg, "--protected",
                   "g0,nosuch", "--threshold", "1", "--mode", "random",
                   "--samples", "10", "--seed", "1") == 2
        assert "'nosuch'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "crt0", "--p", "3", "--q", "5"],
        ["verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}'],
    ])
    def test_output_bytes_ignore_cpu_count(self, argv, tmp_path, monkeypatch):
        # no command reads the CPU count (verify ui without --jobs runs in
        # one process), so it cannot reach the data file
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"out{cpus}.json"
            assert run(*argv, "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_uncertified_scan_starts_no_pool_without_jobs(self, monkeypatch, capsys):
        # the peak certificate fails for these five members, so the shift
        # space is scanned; without --jobs that takes one process
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = '{"construction":"rs_cpc","n":5,"p":11,"k":3,"select":["0","1","2","3","4"]}'
        assert run("verify", "ui", "--config", cfg) == 1
        assert capsys.readouterr().err == "ui: violated\n"

    def test_missing_source(self):
        assert run("verify", "ui") == 2

    def test_missing_set_file(self):
        assert run("verify", "ui", "--set", "/nonexistent/s.json") == 2

    def test_state_cap_is_usage_error(self, tmp_path):
        f = tmp_path / "big.json"
        crt0_set(13, 25).save(str(f))   # 325^12 assignments, way past the cap
        assert run("verify", "ui", "--set", str(f)) == 2

    @pytest.mark.parametrize("argv, samples", [
        (["ui"], "-5"),
        (["ui"], "0"),
        (["cf-count", "--protected", "g0", "--threshold", "1"], "0"),
    ])
    def test_empty_random_audit_is_usage_error(self, argv, samples, capsys):
        assert run("verify", *argv, "--config", '{"construction":"crt0","p":3,"q":5}',
                   "--mode", "random", "--samples", samples, "--seed", "1") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: random mode needs samples >= 1, got {samples}" in err

    def test_single_member_random_audit_is_usage_error(self, capsys):
        assert run("verify", "ui", "--config",
                   '{"sequences":[{"period":5,"ones":[2],"label":"solo"}]}',
                   "--mode", "random", "--samples", "-5") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: random mode needs samples >= 1, got -5" in err

    def test_jobs_below_one_is_usage_error(self, capsys):
        assert run("verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}',
                   "--jobs", "-3") == 2
        assert "error: jobs must be at least 1, got -3" in capsys.readouterr().err


class TestAlloc:
    def test_cluster_summary(self, capsys):
        assert run("alloc", "--r", "500", "--h", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["G"] == 333337
        assert doc["b1"] == 392 and doc["b2"] == 271
        assert doc["min_cochannel_m"] >= 1000.0
        assert doc["plan"]["G"] == 333337

    def test_cell_allocation(self, capsys):
        assert run("alloc", "--r", "1.94", "--h", "1", "--cell", "2,1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == "0"      # (2,1) generates the sublattice
        assert doc["cell"] == [2, 1]

    def test_missing_flags(self):
        assert run("alloc", "--r", "500") == 2

    @pytest.mark.parametrize("r, h", [("inf", "1"), ("nan", "1"), ("1e300", "1e-300")])
    def test_non_finite_geometry_is_a_usage_error(self, r, h, capsys):
        # exit 1 would read as "violated"; a bad radius is a usage error
        assert run("alloc", "--r", r, "--h", h) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"h={float(h)}" in err

    @pytest.mark.parametrize("cell", ["1", "a,b", "1,2,3"])
    def test_malformed_cell(self, cell, capsys):
        assert run("alloc", "--r", "20", "--h", "1", "--cell", cell) == 2
        assert (f"error: --cell must be two integers m,n, got '{cell}'"
                in capsys.readouterr().err)


class TestParams:
    def test_prop1(self, capsys):
        assert run("params", "prop1", "--m", "3", "--g", "7",
                   "--delta", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frame_slots"] == 42
        assert (doc["n"], doc["p"], doc["k"]) == (6, 7, 3)

    def test_prop2(self, capsys):
        assert run("params", "prop2", "--m", "5", "--g", "37") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frame_slots"] == 544
        assert (doc["n"], doc["p"], doc["k"]) == (16, 17, 4)

    def test_prop1_needs_delta(self):
        assert run("params", "prop1", "--m", "3", "--g", "7") == 2

    def test_infeasible(self):
        assert run("params", "prop1", "--m", "499", "--g", "7",
                   "--delta", "0") == 2


class TestSim:
    def test_holds_and_reruns_identically(self, tmp_path, scenario_file):
        out1, out2 = str(tmp_path / "runA"), str(tmp_path / "runB")
        assert run("sim", "--config", scenario_file, "--seed", "5",
                   "--out", out1) == 0
        assert run("sim", "--config", scenario_file, "--seed", "5",
                   "--out", out2) == 0
        for suffix in (".report.json", ".log.csv"):
            a = (tmp_path / ("runA" + suffix)).read_bytes()
            b = (tmp_path / ("runB" + suffix)).read_bytes()
            assert a == b
        report = json.loads((tmp_path / "runA.report.json").read_text())
        assert report["verdict"] == "holds"
        assert report["frame_offset_audit"] is True
        side = json.loads((tmp_path / "runA.manifest.json").read_text())
        assert side["outputs"] == [out1 + ".report.json", out1 + ".log.csv"]

    def test_sidecar_reports_geometry_and_loss_causes(self, tmp_path, monkeypatch,
                                                      scenario_file):
        monkeypatch.chdir(tmp_path)
        assert run("sim", "--config", "scenario.json", "--seed", "5",
                   "--out", "run") == 0
        # the data files hold the bytes they held before the sidecar gained
        # these facts (the report embeds the version and the config path)
        digest = {suffix: hashlib.sha256((tmp_path / ("run" + suffix)).read_bytes()).hexdigest()
                  for suffix in (".report.json", ".log.csv")}
        assert digest == {
            ".report.json": "3c947b2392a61f39b0fe7cc725bd4fe2ebbe878a0188155a26f54b0b5839c7e1",
            ".log.csv": "8302ec232fa8ab1725c48cc94e0bb6d6e424191a542fcb14146ee0de60c1c25d"}
        stats = json.loads((tmp_path / "run.report.json").read_text())["stats"]
        side = json.loads((tmp_path / "run.manifest.json").read_text())
        assert side["max_disk_users"] == 3
        assert side["neighbor_pairs"] == stats["neighbor_pairs"] == 6
        assert set(side["loss_causes"]) == {"overlap", "half_duplex", "both"}
        assert (sum(side["loss_causes"].values())
                == stats["receptions"] - stats["contention_free"] > 0)

    @pytest.mark.parametrize("users, message", [
        ({"random_users": 5}, "users spec is missing required key(s): 'area'"),
        ({"area": [0, 0, 9, 9]}, "users spec is missing required key(s): 'random_users'"),
        ({"random_users": -3, "area": [0, 0, 9, 9]},
         "users spec 'random_users' must be a non-negative integer, got -3"),
        ({"random_users": 2, "area": [0, 0, 9]},
         "users spec 'area' must be four numbers [xmin, ymin, xmax, ymax], got [0, 0, 9]"),
        ({"random_users": 2, "area": [9, 0, 0, 9]},
         "users spec 'area' [9, 0, 0, 9] has a min above its max"),
    ], ids=["no-area", "no-count", "negative-count", "three-numbers", "min-above-max"])
    def test_bad_random_users_spec_is_named(self, tmp_path, capsys, users, message):
        cfg = {
            "tau_s": 1e-3, "L": 2, "F": 3, "delta_c_slots": 0, "R_m": 10.0,
            "h_m": 1.0, "M": 2, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 2, "delta": 0},
            "users": users,
        }
        path = tmp_path / "users.json"
        path.write_text(json.dumps(cfg))
        assert run("sim", "--config", str(path), "--seed", "1") == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_violation_exit_code(self, tmp_path):
        cfg = {
            "tau_s": 1e-3, "L": 2, "F": 3, "delta_c_slots": 0,
            "R_m": 100.0, "h_m": 1.0, "M": 2, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 2, "delta": 0},
            "users": [
                {"id": "a", "x": 0, "y": 0, "label": "t0", "offset_s": 0},
                {"id": "b", "x": 10, "y": 0, "label": "t0", "offset_s": 0},
            ],
        }
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(cfg))
        assert run("sim", "--config", str(path), "--seed", "1") == 1

    def test_generates_seed_when_missing(self, scenario_file, capsys):
        assert run("sim", "--config", scenario_file) == 0
        assert "generated seed:" in capsys.readouterr().err

    def test_missing_config_flag(self):
        assert run("sim") == 2

    def test_nonexistent_config(self):
        assert run("sim", "--config", "/nonexistent/cfg.json") == 2

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("sim", "--config", str(path)) == 2

    def test_missing_key_is_named(self, tmp_path, capsys):
        cfg = {
            "tau_s": 1e-3, "L": 2, "F": 3, "delta_c_slots": 0,
            "h_m": 1.0, "M": 2, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 2, "delta": 0},
            "users": [{"id": "a", "x": 0, "y": 0, "label": "t0"}],
        }
        path = tmp_path / "no_radius.json"
        path.write_text(json.dumps(cfg))
        assert run("sim", "--config", str(path)) == 2
        assert ("error: scenario config is missing required key(s): 'R_m'"
                in capsys.readouterr().err)

    def test_unread_sequence_key_is_named(self, tmp_path, capsys):
        cfg = {
            "tau_s": 1e-3, "L": 2, "F": 3, "delta_c_slots": 0, "R_m": 10.0,
            "h_m": 1.0, "M": 2, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 2, "delta": 0, "p": 3},
            "users": [{"id": "a", "x": 0, "y": 0, "label": "t0"}],
        }
        path = tmp_path / "extra_key.json"
        path.write_text(json.dumps(cfg))
        assert run("sim", "--config", str(path), "--seed", "1") == 2
        assert ("error: construction 'tdma' does not read key(s): 'p'"
                in capsys.readouterr().err)


class TestCompare:
    def test_json_table(self, capsys):
        assert run("compare", "--m", "3", "--g", "7", "--delta", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["winner"] == "tdma"
        assert len(doc["rows"]) == 3

    def test_csv_format(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run("compare", "--m", "5", "--g", "37", "--delta", "2",
                   "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scheme,frame_slots,meets_floor,params"
        assert len(lines) == 4
        assert lines[1].startswith("tdma,111,")

    def test_missing_flags(self):
        assert run("compare", "--m", "3") == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "crt0", "--p", "3", "--q", "5"],
        ["verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}'],
        ["alloc", "--r", "20", "--h", "1"],
        ["params", "prop2", "--m", "3", "--g", "7"],
        ["sim", "--config", "scenario.json"],
    ])
    def test_format_is_compare_only(self, argv, capsys):
        # the other subcommands only write JSON, so the flag is a usage error
        with pytest.raises(SystemExit) as err:
            run(*argv, "--format", "csv")
        assert err.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


class TestUnreadCommonFlags:
    # scripts pass --seed and --jobs to every command, so a command that
    # does not read them only warns and keeps its exit code and output

    def test_jobs_and_seed_warn(self, capsys):
        assert run("alloc", "--r", "20", "--h", "1", "--jobs", "7", "--seed", "3") == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["G"] == 541
        assert err.count("warning:") == 2
        assert "warning: --jobs has no effect here; only 'verify ui' reads it" in err
        assert "warning: --seed has no effect on 'alloc'" in err

    @pytest.mark.parametrize("argv", [
        ["gen", "crt0", "--p", "3", "--q", "5"],
        ["params", "prop2", "--m", "3", "--g", "7"],
        ["compare", "--m", "3", "--g", "7", "--delta", "2"],
    ])
    def test_seed_warns(self, argv, capsys):
        assert run(*argv, "--seed", "3") == 0
        err = capsys.readouterr().err
        assert f"warning: --seed has no effect on '{argv[0]}'" in err
        assert "--jobs" not in err

    def test_jobs_warns_outside_verify_ui(self, capsys):
        assert run("verify", "window", "--p", "3", "--jobs", "1") == 0
        err = capsys.readouterr().err
        assert "warning: --jobs has no effect here" in err
        assert "--seed" not in err

    def test_verify_ui_is_silent(self, capsys):
        # exhaustive mode draws nothing, so the seed goes with random mode,
        # which does not split its scan over --jobs
        assert run("verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}',
                   "--seed", "3", "--mode", "random", "--samples", "50") == 0
        assert "warning" not in capsys.readouterr().err

    def test_jobs_warns_on_random_verify_ui(self, capsys):
        argv = ["verify", "ui", "--config", '{"construction":"crt0","p":3,"q":5}']
        assert run(*argv, "--jobs", "1") == 0
        assert "warning" not in capsys.readouterr().err
        sampled = [*argv, "--mode", "random", "--samples", "50", "--seed", "3"]
        assert run(*sampled) == 0
        plain = json.loads(capsys.readouterr().out)
        assert run(*sampled, "--jobs", "2") == 0
        out, err = capsys.readouterr()
        assert err.count("warning:") == 1
        assert ("warning: --jobs has no effect on 'verify ui' in random mode; "
                "only exhaustive scans are split") in err
        report = json.loads(out)
        for doc in (report, plain):
            del doc["manifest"]
        assert report == plain

    @pytest.mark.parametrize("argv, where", [
        (["verify", "xcorr", "--bound", "1"], "'verify xcorr'"),
        (["verify", "separation"], "'verify separation'"),
        (["verify", "ui"], "'verify ui' in exhaustive mode"),
        (["verify", "cf-gap", "--protected", "g0", "--bound", "15", "--mode", "exhaustive"],
         "'verify cf-gap' in exhaustive mode"),
    ])
    def test_seed_warns_where_nothing_is_drawn(self, argv, where, capsys):
        cfg = ["--config", '{"construction":"crt0","p":3,"q":5}']
        assert run(*argv, *cfg) == 0
        quiet = capsys.readouterr()
        assert "warning" not in quiet.err
        assert run(*argv, *cfg, "--seed", "4") == 0
        out, err = capsys.readouterr()
        assert err.count("warning:") == 1
        assert f"warning: --seed has no effect on {where}; nothing is drawn" in err
        report, plain = json.loads(out), json.loads(quiet.out)
        for doc in (report, plain):
            del doc["manifest"]
        assert report == plain or report == {**plain, "seed": 4}

    def test_sampling_flags_warn_on_exhaustive_only_audits(self, capsys):
        cfg = '{"construction":"crt0","p":3,"q":5}'
        assert run("verify", "xcorr", "--config", cfg, "--bound", "1", "--mode", "random",
                   "--samples", "9") == 0
        out, err = capsys.readouterr()
        assert err.count("warning:") == 2
        for flag in ("--mode", "--samples"):
            assert (f"warning: {flag} has no effect on 'verify xcorr'; "
                    "it is always exhaustive") in err
        assert json.loads(out)["mode"] == "exhaustive"
        assert run("verify", "separation", "--config", cfg, "--samples", "9") == 0
        assert ("warning: --samples has no effect on 'verify separation'"
                in capsys.readouterr().err)
        assert run("verify", "window", "--p", "3", "--mode", "random", "--samples", "9",
                   "--seed", "2") == 0
        assert "warning" not in capsys.readouterr().err

    # one value for each property-specific verify flag, and the flags each
    # property reads
    PROPERTY_FLAGS = {"--bound": "9", "--window": "4", "--p": "3", "--threshold": "1",
                      "--protected": "g0"}

    @pytest.mark.parametrize("prop, reads", [
        ("ui", []),
        ("xcorr", ["--bound"]),
        ("separation", ["--bound"]),
        ("window", ["--window", "--p"]),
        ("cf-count", ["--threshold", "--protected"]),
        ("cf-gap", ["--bound", "--protected"]),
    ])
    def test_property_flags_warn_where_unread(self, prop, reads, capsys):
        def flags(names):
            return [a for name in names for a in (name, self.PROPERTY_FLAGS[name])]

        argv = ["verify", prop, "--config", '{"construction":"crt0","p":3,"q":5}',
                *flags(reads)]
        code = run(*argv)
        quiet = capsys.readouterr()
        assert "warning" not in quiet.err
        unread = [name for name in self.PROPERTY_FLAGS if name not in reads]
        assert run(*argv, *flags(unread)) == code
        out, err = capsys.readouterr()
        assert err.count("warning:") == len(unread)
        for name in unread:
            assert f"warning: {name} has no effect on 'verify {prop}'\n" in err
        report, plain = json.loads(out), json.loads(quiet.out)
        for doc in (report, plain):
            del doc["manifest"]
        assert report == plain


class TestEntryPoints:
    @pytest.mark.skipif(shutil.which("protoseq") is None,
                        reason="the protoseq console script is not on PATH; "
                               "install it with "
                               "`pip install -e . --no-build-isolation`")
    def test_console_script(self):
        proc = subprocess.run(["protoseq", "params", "prop2", "--m", "3",
                               "--g", "7"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["frame_slots"] == 84

    def test_module_invocation(self):
        # the child imports the package the tests import, installed or not
        src = os.path.dirname(os.path.dirname(protoseq.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "protoseq.cli",
                               "alloc", "--r", "1.94", "--h", "1"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["G"] == 7
