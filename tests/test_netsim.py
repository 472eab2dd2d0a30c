import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protoseq.config import sequences_from_config
from protoseq.crt import crt0_set
from protoseq.hexalloc import HexCell, ReusePlan, cell_center, quantize
from protoseq import netsim
from protoseq.netsim import (LOSS_CAUSES, SPEED_OF_LIGHT, ReceptionLog,
                             Scenario, TimingModel, User,
                             adversarial_offset_search, check_block_free,
                             delta_p, frame_offset_audit, run_superframe)
from protoseq.rscpc import baseline_compare, pad_set, tdma_set
from protoseq.sequences import SequenceSet


def timing(L, F=3, dc=0, dp=0, tau=1e-3):
    return TimingModel(tau, L, F, dc, dp)


def two_user_scenario(set_, label_a, label_b, sync=True, R=100.0, **kw):
    users = [User("a", 0.0, 0.0, label_a, 0, 0.0),
             User("b", 10.0, 0.0, label_b, 0, 0.0)]
    tm = timing(set_.period, **kw)
    return Scenario(tm, R, 1.0, 2, users, set_, slot_synchronized=sync)


class TestDeltaP:
    def test_frozen(self):
        assert delta_p(0.0, 1e-3) == 0
        assert delta_p(500.0, 1e-3) == 1
        assert delta_p(500.0, 1e-6) == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            delta_p(-1.0, 1e-3)
        with pytest.raises(ValueError):
            delta_p(10.0, 0.0)


class TestTimingModel:
    def test_derived_quantities(self):
        tm = TimingModel(1e-3, 60, 3, 2, 1)
        assert tm.delta_slots == 3
        assert tm.guard_s == pytest.approx(3e-3)
        assert tm.frame_s == pytest.approx(0.06)
        assert tm.superframe_s == pytest.approx(0.183)
        assert tm.active_slots == 180

    def test_misalignment_cannot_exceed_frame(self):
        with pytest.raises(ValueError):
            TimingModel(1e-3, 2, 3, 2, 1)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TimingModel(0.0, 10, 3, 0, 0)
        with pytest.raises(ValueError):
            TimingModel(1e-3, 0, 3, 0, 0)
        with pytest.raises(ValueError):
            TimingModel(1e-3, 10, 3, -1, 0)


class TestScenarioValidation:
    @pytest.mark.parametrize("R, h, M, message", [
        (0.0, 1.0, 2, "R and h must be positive"),
        (100.0, -1.0, 2, "R and h must be positive"),
        (100.0, 1.0, 0, "M must be >= 1"),
    ], ids=["R", "h", "M"])
    def test_rejects_bad_range_cell_or_cap(self, R, h, M, message):
        users = [User("a", 0, 0, "t0")]
        with pytest.raises(ValueError) as err:
            Scenario(timing(2), R, h, M, users, tdma_set(2, 0), slot_synchronized=True)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_duplicate_ids(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, "t0"), User("a", 5, 0, "t1")]
        with pytest.raises(ValueError):
            Scenario(timing(2), 100.0, 1.0, 2, users, s, slot_synchronized=True)

    def test_period_must_match_frame(self):
        s = crt0_set(3, 5)  # period 15
        users = [User("a", 0, 0, "g0")]
        with pytest.raises(ValueError):
            Scenario(timing(10), 100.0, 1.0, 2, users, s, slot_synchronized=True)

    def test_offset_bounds(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, "t0", 0, 5e-3)]
        with pytest.raises(ValueError):
            Scenario(timing(2, dc=2), 100.0, 1.0, 2, users, s,
                     slot_synchronized=True)

    def test_unknown_label(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, "t9")]
        with pytest.raises(ValueError):
            Scenario(timing(2), 100.0, 1.0, 2, users, s, slot_synchronized=True)

    def test_label_requires_plan_or_explicit(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, None)]
        with pytest.raises(ValueError):
            Scenario(timing(2), 100.0, 1.0, 2, users, s, slot_synchronized=True)

    def test_plan_users_cannot_share_a_cell(self):
        s = tdma_set(7, 0)
        plan = ReusePlan.from_geometry(1.0, 1.94, labels=list(s.labels))
        users = [User("a", 0.0, 0.0), User("b", 0.1, 0.0)]
        with pytest.raises(ValueError):
            Scenario(timing(7), 1.94, 1.0, 7, users, s, plan=plan,
                     slot_synchronized=True)

    @pytest.mark.parametrize("users, message", [
        ([User("a", 0, 0, "t9"), User("b", 5, 0, None)], "label 't9' not in the sequence set"),
        ([User("a", 0, 0, None), User("b", 5, 0, "t9")], "user 'a' has no label and no plan given"),
        ([User("a", 0, 0, "t0"), User("b", 5, 0, "t7"), User("c", 9, 0, "t8")],
         "label 't7' not in the sequence set"),
    ])
    def test_label_errors_name_the_first_user(self, users, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Scenario(timing(2), 100.0, 1.0, 3, users, tdma_set(2, 0),
                     slot_synchronized=True)

    def test_plan_label_missing_from_the_set(self):
        # an identity plan labels cells by coset index, which tdma labels are not
        plan = ReusePlan.from_geometry(1.0, 1.94)
        users = [User("a", 0.0, 0.0, "t0"), User("b", 30.0, 0.0)]
        label = plan.allocate(quantize(30.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=f"^label '{label}' not in the sequence set$"):
            Scenario(timing(7), 1.94, 1.0, 7, users, tdma_set(7, 0), plan=plan,
                     slot_synchronized=True)

    def test_same_cell_error_names_the_first_repeat(self):
        s = tdma_set(7, 0)
        plan = ReusePlan.from_geometry(1.0, 1.94, labels=list(s.labels))
        x1, y1 = cell_center(HexCell(3, 0), 1.0)
        # cells of a, b, c, d, e: (0,0) (3,0) (3,0) (0,0) (3,0); c repeats first
        users = [User("a", 0.0, 0.0), User("b", x1, y1, "t0"), User("c", x1 + 0.1, y1),
                 User("d", 0.1, 0.0), User("e", x1, y1 + 0.1)]
        with pytest.raises(ValueError, match=r"^users 'b' and 'c' occupy the same "
                           r"cell \(3, 0\); one cell holds at most one user$"):
            Scenario(timing(7), 1.94, 1.0, 7, users, s, plan=plan,
                     slot_synchronized=True)

    def test_explicit_labels_may_share_a_cell(self):
        s = tdma_set(2, 0)
        users = [User("a", 0.0, 0.0, "t0"), User("b", 0.1, 0.0, "t1")]
        sc = Scenario(timing(2), 100.0, 1.0, 2, users, s,
                      slot_synchronized=True)
        assert sc.cells[0] == sc.cells[1]

    def test_plan_labels_respect_reuse_distance(self):
        s = tdma_set(7, 0)
        plan = ReusePlan.from_geometry(1.0, 1.94, labels=list(s.labels))
        # cells (0,0) and (2,1) sit in the same coset, sqrt(21) m apart,
        # far below the 100 m reuse requirement of this scenario
        xa, ya = cell_center(HexCell(0, 0), 1.0)
        xb, yb = cell_center(HexCell(2, 1), 1.0)
        users = [User("a", xa, ya), User("b", xb, yb)]
        with pytest.raises(ValueError):
            Scenario(timing(7), 50.0, 1.0, 7, users, s, plan=plan,
                     slot_synchronized=True)

    def test_explicit_shared_label_is_allowed(self):
        s = tdma_set(2, 0)
        users = [User("a", 0.0, 0.0, "t0"), User("b", 1.0, 0.0, "t0")]
        sc = Scenario(timing(2), 100.0, 1.0, 2, users, s,
                      slot_synchronized=True)
        assert sc.resolved_labels == ("t0", "t0")

    def test_interferer_cap(self):
        s = tdma_set(3, 0)
        users = [User("a", 0, 0, "t0"), User("b", 1, 0, "t1"),
                 User("c", 2, 0, "t2")]
        with pytest.raises(ValueError):
            Scenario(timing(3), 10.0, 1.0, 2, users, s, slot_synchronized=True)
        sc = Scenario(timing(3), 10.0, 1.0, 3, users, s, slot_synchronized=True)
        assert sc.max_disk_users == 3

    def test_cap_uses_two_point_disks(self):
        # no user-centered disk holds all three, but a disk through the two
        # outer users does; the audit must catch it
        s = tdma_set(3, 0)
        R = 10.0
        users = [User("a", -9.9, 0, "t0"), User("b", 9.9, 0, "t1"),
                 User("c", 0.0, 1.2, "t2")]
        with pytest.raises(ValueError):
            Scenario(timing(3), R, 1.0, 2, users, s, slot_synchronized=True)


    def test_understated_propagation_bound(self):
        # 450 m at tau = 0.1 us is a 15-slot delay; with delta_p = 0 the
        # arrivals leave the frame window, so the scenario must be refused
        s = crt0_set(3, 5)
        users = [User("a", 0.0, 0.0, "g0"), User("b", 450.0, 0.0, "g2")]
        tm = TimingModel(1e-7, 15, 3, 0, 0)
        with pytest.raises(ValueError, match="'a' and 'b' are 450.000 m apart"):
            Scenario(tm, 500.0, 1.0, 2, users, s)
        sc = Scenario(tm, 500.0, 1.0, 2, users, s, slot_synchronized=True)
        assert len(run_superframe(sc, seed=0)) == 2 * s.get("g0").weight * 3


class TestRunSuperframe:
    def test_out_of_range_users_exchange_nothing(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, "t0", 0, 0.0), User("b", 500, 0, "t1", 0, 0.0)]
        sc = Scenario(timing(2), 100.0, 1.0, 2, users, s,
                      slot_synchronized=True)
        assert len(run_superframe(sc)) == 0

    def test_disjoint_slots_all_contention_free(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1")
        log = run_superframe(sc)
        assert len(log) == 6                       # weight 1 x 3 frames x 2 dirs
        assert log.contention_free.all()
        rep = check_block_free(log, sc)
        assert rep.holds
        assert rep.stats["min_count"] == 1

    def test_identical_sequences_lose_everything(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t0")
        log = run_superframe(sc)
        assert len(log) == 6
        assert not log.contention_free.any()       # half duplex eats them all
        rep = check_block_free(log, sc)
        assert rep.verdict == "violated"
        assert len(rep.violations) == 2             # both directions, frame 1

    def test_loss_causes_sum_to_lost_receptions(self):
        s = crt0_set(3, 5)
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3),
                 User("c", 0, 350, "*", 11), User("d", 100, 100, "g0", 0)]
        sc = Scenario(timing(15, dc=2, dp=1), 500.0, 1.0, 4, users, s)
        log = run_superframe(sc, seed=7)
        causes = log.loss_counts()
        assert list(causes) == list(LOSS_CAUSES)
        assert sum(causes.values()) == len(log) - int(log.contention_free.sum())
        assert causes["overlap"] and causes["half_duplex"] and causes["both"]
        assert np.array_equal(log.loss_cause == 0, log.contention_free)

    def test_deterministic_for_seed(self):
        s = crt0_set(3, 5)
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3),
                 User("c", 0, 350, "*", 11)]
        sc = Scenario(timing(15, dc=2, dp=1), 500.0, 1.0, 3, users, s)
        a = run_superframe(sc, seed=42)
        b = run_superframe(sc, seed=42)
        assert np.array_equal(a.offsets_slots, b.offsets_slots)
        assert np.array_equal(a.arrive_slots, b.arrive_slots)
        assert np.array_equal(a.contention_free, b.contention_free)
        c = run_superframe(sc, seed=43)
        assert not np.array_equal(a.offsets_slots, c.offsets_slots)

    def test_explicit_offsets_override_draws(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, "t0", 0, 1.5e-3), User("b", 10, 0, "t1", 0, 0.0)]
        sc = Scenario(timing(2, dc=2, tau=1e-3), 100.0, 1.0, 2, users, s,
                      slot_synchronized=True)
        log = run_superframe(sc, seed=1)
        assert log.offsets_slots.tolist() == [1.5, 0.0]

    def test_drawn_offsets_stay_in_bounds(self):
        s = tdma_set(2, 0)
        users = [User("a", 0, 0, "t0"), User("b", 10, 0, "t1")]
        sc = Scenario(timing(2, dc=2), 100.0, 1.0, 2, users, s,
                      slot_synchronized=True)
        for seed in range(5):
            off = run_superframe(sc, seed=seed).offsets_slots
            assert (off >= 0).all() and (off <= 2).all()

    def test_reception_counts_per_direction(self):
        s = crt0_set(3, 5)
        sc = two_user_scenario(s, "g0", "g2")
        log = run_superframe(sc)
        w = s.get("g0").weight
        a_to_b = ((log.tx == 0) & (log.rx == 1)).sum()
        assert a_to_b == w * sc.timing.frames

    def test_removing_a_user_never_hurts(self):
        s = crt0_set(3, 5)
        mk = lambda ids: [User(i, x, y, lab, sh, off) for i, x, y, lab, sh, off in ids]
        all3 = mk([("a", 0, 0, "g0", 7, 0.5e-3), ("b", 200, 0, "g2", 3, 1.5e-3),
                   ("c", 0, 350, "*", 11, 2e-3)])
        tm = timing(15, dc=2, dp=1)
        big = run_superframe(Scenario(tm, 500.0, 1.0, 3, all3, s))
        small = run_superframe(Scenario(tm, 500.0, 1.0, 3, all3[:2], s))
        small_cf = {(log_tx, log_rx, int(sl)): bool(cf)
                    for log_tx, log_rx, sl, cf in zip(
                        small.tx, small.rx, small.slot, small.contention_free)}
        for i in range(len(big)):
            if big.tx[i] <= 1 and big.rx[i] <= 1 and big.contention_free[i]:
                key = (big.tx[i], big.rx[i], int(big.slot[i]))
                assert small_cf[key]

    def test_csv_roundtrip(self, tmp_path):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1")
        log = run_superframe(sc)
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "tx,rx,slot,t_arrive_s,t_end_s,contention_free"
        assert len(lines) == len(log) + 1
        first = lines[1].split(",")
        assert first[0] in ("a", "b") and first[5] in ("0", "1")
        assert float(first[4]) == float(first[3]) + sc.timing.tau_s


class TestBlockFreeAudit:
    def test_needs_three_frames(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1", F=2)
        log = run_superframe(sc)
        with pytest.raises(ValueError):
            check_block_free(log, sc)

    def test_counts_cover_all_pairs_and_frames(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1", F=5)
        rep = check_block_free(run_superframe(sc), sc)
        assert rep.holds
        assert len(rep.counts) == 2 * 3            # 2 directions, frames 1..3
        assert {c["frame"] for c in rep.counts} == {1, 2, 3}

    def test_report_json_shape(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1")
        rep = check_block_free(run_superframe(sc), sc)
        obj = rep.to_json()
        assert obj["property"] == "block_free"
        assert obj["verdict"] == "holds"
        assert rep.exit_code == 0

    def test_holds_and_stats_build_no_counts(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1", F=5)
        rep = check_block_free(run_superframe(sc), sc)
        assert rep.holds and rep.exit_code == 0 and rep.violations == []
        assert rep.stats["neighbor_pairs"] == 2 and rep.stats["min_count"] == 1
        assert "counts" not in vars(rep)
        assert len(rep.counts) == 6 and "counts" in vars(rep)
        assert rep.counts is rep.counts

    @pytest.mark.parametrize("labels", [("t0", "t1"), ("t0", "t0")])
    def test_counts_violations_and_json_match_the_oracle(self, labels):
        # one label for both users: every reception collides, so every
        # (pair, frame) is a violation
        sc = two_user_scenario(tdma_set(2, 0), *labels, F=5)
        log = run_superframe(sc)
        counts, violations, min_count = block_free_oracle(log, sc)
        rep = check_block_free(log, sc)
        assert rep.violations == violations and bool(violations) == (labels[1] == "t0")
        assert rep.counts == counts and rep.stats["min_count"] == min_count
        assert rep.to_json() == {"property": "block_free",
                                 "verdict": "violated" if violations else "holds",
                                 "violations": violations, "counts": counts,
                                 "stats": rep.stats}

    def test_padded_family_holds_across_seeds(self):
        s = pad_set(crt0_set(3, 5), 3)             # period 60 covers skew 3
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3),
                 User("c", 0, 350, "*", 11)]
        sc = Scenario(timing(60, dc=2, dp=1), 500.0, 1.0, 3, users, s)
        for seed in range(10):
            log = run_superframe(sc, seed=seed)
            assert frame_offset_audit(log, sc)
            assert check_block_free(log, sc).holds


class TestFrameOffsetAudit:
    def test_empty_log_passes(self):
        sc = two_user_scenario(tdma_set(2, 0), "t0", "t1")
        empty = ReceptionLog(("a", "b"), np.zeros(2), 1e-3,
                             np.zeros(0, dtype=np.int32),
                             np.zeros(0, dtype=np.int32),
                             np.zeros(0, dtype=np.int64), np.zeros(0),
                             np.zeros(0, dtype=np.uint8))
        assert frame_offset_audit(empty, sc)

    def test_detects_out_of_window_arrival(self):
        s = crt0_set(3, 5)
        sc = two_user_scenario(s, "g0", "g2")
        late = ReceptionLog(("a", "b"), np.zeros(2), 1e-3,
                            np.array([0], dtype=np.int32),
                            np.array([1], dtype=np.int32),
                            np.array([0], dtype=np.int64),
                            np.array([45.0]), np.array([0], dtype=np.uint8))
        assert not frame_offset_audit(late, sc)

    def test_holds_on_simulated_logs(self):
        s = pad_set(crt0_set(3, 5), 3)
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3)]
        sc = Scenario(timing(60, dc=2, dp=1), 500.0, 1.0, 2, users, s)
        assert frame_offset_audit(run_superframe(sc, seed=3), sc)

    def test_late_arrival_in_a_later_block(self, monkeypatch):
        # one arrival a frame too late, in the third block of four rows
        monkeypatch.setattr(netsim, "_BLOCK_ROWS", 4)
        s = crt0_set(3, 5)
        sc = two_user_scenario(s, "g0", "g2")
        L = sc.timing.frame_slots
        slot = np.arange(10, dtype=np.int64)
        arrive = slot.astype(float)
        rows = [np.zeros(10, dtype=np.int32), np.ones(10, dtype=np.int32), slot]
        ok = ReceptionLog(("a", "b"), np.zeros(2), 1e-3, *rows, arrive,
                          np.zeros(10, dtype=np.uint8))
        assert frame_offset_audit(ok, sc)
        arrive = arrive.copy()
        arrive[9] += 2 * L
        late = replace(ok, arrive_slots=arrive)
        assert not frame_offset_audit(late, sc)


class TestAdversarialSearch:
    def _unpadded(self):
        s = crt0_set(3, 5)
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3),
                 User("c", 0, 350, "*", 11)]
        return Scenario(timing(15, dc=2, dp=1), 500.0, 1.0, 3, users, s)

    def test_finds_violation_without_padding(self):
        sc = self._unpadded()
        found = adversarial_offset_search(sc, step_slots=1.0)
        assert found is not None
        offsets, report = found
        assert report.verdict == "violated"
        # replaying the found offsets reproduces the violation
        users = [User(u.id, u.x, u.y, u.label, u.shift, o)
                 for u, o in zip(sc.users, offsets)]
        replay = Scenario(sc.timing, sc.R_m, sc.h_m, sc.M, users,
                          sc.sequence_set)
        assert not check_block_free(run_superframe(replay, seed=0), replay).holds

    @pytest.mark.parametrize("step", [-1.0, 0, 0.0, math.nan])
    def test_rejects_nonpositive_step(self, step):
        # a negative step used to test nothing and report a clean grid
        with pytest.raises(ValueError, match="^step_slots must be positive"):
            adversarial_offset_search(self._unpadded(), step_slots=step)

    def test_combo_cap(self, monkeypatch):
        sc = self._unpadded()
        monkeypatch.setattr(netsim, "_COMBO_CAP", 100)
        with pytest.raises(ValueError):
            adversarial_offset_search(sc, step_slots=0.01)

    def test_grid_stays_within_clock_bound(self):
        # a step that does not divide delta_c used to overshoot it (0.3 * 7 = 2.1)
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3)]
        sc = Scenario(TimingModel(1e-3, 15, 3, 2, 1), 500.0, 1.0, 2, users,
                      crt0_set(3, 5))
        # the whole grid, up to delta_c itself, is scanned and stays block-free
        assert adversarial_offset_search(sc, step_slots=0.3) is None

    @staticmethod
    def _rebuilt_search(sc, step):
        """Reference: a new scenario per grid point, its offsets set on its users."""
        dc, tau = sc.timing.delta_c_slots, sc.timing.tau_s
        grid = []
        while len(grid) * step < dc + step / 2:
            grid.append(min(len(grid) * step, dc))
        for combo in itertools.product(grid, repeat=len(sc.users)):
            offsets = [o * tau for o in combo]
            users = [replace(u, offset_s=o) for u, o in zip(sc.users, offsets)]
            trial = Scenario(sc.timing, sc.R_m, sc.h_m, sc.M, users, sc.sequence_set)
            report = check_block_free(run_superframe(trial, seed=0), trial)
            if not report.holds:
                return offsets, report.to_json()
        return None

    @pytest.mark.parametrize("users, step", [
        (3, 1.0), (3, 0.5), (3, 0.7), (2, 0.3), (2, 1.0)])
    def test_matches_rebuilt_scenarios(self, users, step):
        # the unpadded three-user scenario is criterion 9's negative control
        sc = self._unpadded()
        if users == 2:
            sc = Scenario(TimingModel(1e-3, 15, 3, 2, 1), 500.0, 1.0, 2, sc.users[:2],
                          crt0_set(3, 5))
        found = adversarial_offset_search(sc, step_slots=step)
        assert (found if found is None else (found[0], found[1].to_json())) \
            == self._rebuilt_search(sc, step)


class TestUserColumns:
    def test_columns_follow_the_users(self):
        users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3, 1e-3),
                 User("c", 0, 350, "*", 11, 0.0)]
        sc = Scenario(timing(15, dc=2, dp=1), 500.0, 1.0, 3, users, crt0_set(3, 5))
        assert sc.ids == ("a", "b", "c")
        assert sc.shifts.dtype == np.int64 and sc.shifts.tolist() == [7, 3, 11]
        assert sc.offsets_s.dtype == np.float64
        assert np.isnan(sc.offsets_s).tolist() == [u.offset_s is None for u in users]
        assert sc.offsets_s[1:].tolist() == [1e-3, 0.0]

    def test_given_nan_offset_is_refused(self):
        # NaN marks a drawn offset in the column, but a user cannot give one
        users = [User("a", 0, 0, "g0", 7, math.nan)]
        with pytest.raises(ValueError, match="^offset of 'a' outside"):
            Scenario(timing(15, dc=2, dp=1), 500.0, 1.0, 3, users, crt0_set(3, 5))


class TestConfigLoading:
    def test_inline_users_and_construction(self, tmp_path):
        cfg = {
            "tau_s": 1e-3, "L": 60, "F": 3, "delta_c_slots": 2,
            "R_m": 500.0, "h_m": 1.0, "M": 3,
            "sequences": {"construction": "crt0", "p": 3, "q": 5,
                          "pad_slots": 3},
            "users": [
                {"id": "a", "x": 0, "y": 0, "label": "g0", "shift": 7},
                {"id": "b", "x": 200, "y": 0, "label": "g2", "shift": 3,
                 "offset_s": 1e-3},
            ],
        }
        sc = Scenario.from_config(cfg)
        assert sc.timing.delta_p_slots == 1        # derived from R and tau
        assert sc.sequence_set.period == 60
        assert sc.users[1].offset_s == 1e-3
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        sc2 = Scenario.load(str(path))
        assert sc2.resolved_labels == sc.resolved_labels

    def test_unread_sequence_key_is_named(self):
        cfg = {"tau_s": 1e-3, "L": 60, "F": 3, "delta_c_slots": 2, "R_m": 500.0,
               "h_m": 1.0, "M": 3,
               "sequences": {"construction": "crt0", "p": 3, "q": 5, "pad": 3},
               "users": [{"id": "a", "x": 0, "y": 0, "label": "g0"}]}
        with pytest.raises(ValueError, match=r"'crt0' does not read key\(s\): 'pad'"):
            Scenario.from_config(cfg)

    def test_slot_synchronized_drops_propagation_guard(self):
        cfg = {
            "tau_s": 1e-3, "L": 2, "F": 3, "delta_c_slots": 0,
            "R_m": 500.0, "h_m": 1.0, "M": 2, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 2, "delta": 0},
            "users": [{"id": "a", "x": 0, "y": 0, "label": "t0"},
                      {"id": "b", "x": 10, "y": 0, "label": "t1"}],
        }
        sc = Scenario.from_config(cfg)
        assert sc.timing.delta_p_slots == 0

    def test_auto_plan_and_random_users(self):
        cfg = {
            "tau_s": 1e-3, "L": 7, "F": 3, "delta_c_slots": 0,
            "R_m": 1.94, "h_m": 1.0, "M": 7, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 7, "delta": 0},
            "plan": "auto",
            "users": {"random_users": 5, "area": [0, 0, 12, 12], "seed": 3},
        }
        sc = Scenario.from_config(cfg)
        assert len(sc.users) == 5
        assert all(lab in sc.sequence_set.labels for lab in sc.resolved_labels)
        assert len(set(sc.cells)) == 5
        sc2 = Scenario.from_config(cfg)
        assert [(u.id, u.x, u.y, u.shift) for u in sc.users] == \
               [(u.id, u.x, u.y, u.shift) for u in sc2.users]

    def test_plan_file_reference(self, tmp_path):
        s = tdma_set(7, 0)
        plan = ReusePlan.from_geometry(1.0, 1.94, labels=list(s.labels))
        plan.save(str(tmp_path / "plan.json"))
        xa, ya = cell_center(HexCell(0, 0), 1.0)
        xb, yb = cell_center(HexCell(1, 0), 1.0)
        cfg = {
            "tau_s": 1e-3, "L": 7, "F": 3, "delta_c_slots": 0,
            "R_m": 1.94, "h_m": 1.0, "M": 7, "slot_synchronized": True,
            "sequences": {"construction": "tdma", "G": 7, "delta": 0},
            "plan": {"file": "plan.json"},
            "users": [{"id": "a", "x": xa, "y": ya},
                      {"id": "b", "x": xb, "y": yb}],
        }
        sc = Scenario.from_config(cfg, base_dir=str(tmp_path))
        assert sc.plan.G == 7
        assert sc.resolved_labels[0] != sc.resolved_labels[1]

    def test_missing_keys_are_named(self):
        cfg = {
            "L": 2, "F": 3, "delta_c_slots": 0, "R_m": 100.0, "h_m": 1.0,
            "M": 2, "sequences": {"construction": "tdma", "G": 2, "delta": 0},
            "users": None,
        }
        with pytest.raises(ValueError, match=r"scenario config is missing "
                           r"required key\(s\): 'tau_s', 'users'$"):
            Scenario.from_config(cfg)

    def test_area_too_small_for_random_users(self):
        cfg = {"random_users": 100, "area": [0, 0, 3, 3], "seed": 1}
        from protoseq.netsim import _random_users
        with pytest.raises(ValueError):
            _random_users(cfg, 1.0, tdma_set(2, 0))


class TestBaselineCompare:
    def test_small_population(self):
        out = baseline_compare(3, 7, 0)
        by = {r["scheme"]: r for r in out["rows"]}
        assert out["floor"] == 8
        assert by["tdma"]["frame_slots"] == 7
        assert by["prop1"]["frame_slots"] == 42
        assert by["prop2"]["frame_slots"] == 84
        assert by["tdma"]["meets_floor"] is False   # floor binds shift-tolerant schemes
        assert by["prop1"]["meets_floor"] is True
        assert out["winner"] == "tdma"

    def test_wide_population(self):
        out = baseline_compare(5, 37, 2)
        by = {r["scheme"]: r for r in out["rows"]}
        assert out["floor"] == 23
        assert by["tdma"]["frame_slots"] == 111
        assert by["prop1"]["frame_slots"] == 330
        assert by["prop2"]["frame_slots"] == 544

    def test_population_growth_hits_tdma_hardest(self):
        # 100x the population costs tdma 100x the frame; the sequence
        # schemes only need a bigger codebook (55 slots instead of 42)
        small = baseline_compare(3, 7, 0)
        large = baseline_compare(3, 700, 0)
        pick = lambda o, s: [r["frame_slots"] for r in o["rows"]
                             if r["scheme"] == s][0]
        assert pick(large, "tdma") == 100 * pick(small, "tdma")
        assert pick(small, "prop1") == 42
        assert pick(large, "prop1") == 55
        assert large["winner"] == "prop1"


class TestSequencesFromConfig:
    def test_constructions(self):
        assert sequences_from_config({"construction": "crt", "p": 3, "q": 5}).period == 15
        assert sequences_from_config({"construction": "crt0", "p": 5, "q": 9}).period == 45
        s = sequences_from_config({"construction": "rs_cpc", "n": 5, "p": 11, "k": 3})
        assert s.period == 55 and len(s) == 11
        assert sequences_from_config({"construction": "tdma", "G": 4, "delta": 1}).period == 8

    def test_product(self):
        s = sequences_from_config({
            "construction": "product",
            "x": {"construction": "crt0", "p": 2, "q": 3},
            "y": {"construction": "tdma", "G": 5, "delta": 0},
        })
        assert s.period == 30
        assert "g0*t0" in s.labels

    def test_expanded(self):
        s = sequences_from_config({
            "construction": "expanded", "p": 3, "M": 3,
            "base": {"construction": "rs_cpc", "n": 8, "p": 17, "k": 3},
        })
        assert s.period == 2040 and len(s) == 17
        assert s.meta["cf_floor"] == 12

    def test_select_and_pad(self):
        s = sequences_from_config({"construction": "crt0", "p": 3, "q": 5,
                                   "select": ["g0", "*"], "pad_slots": 3})
        assert s.labels == ("g0", "*") and s.period == 60

    def test_file_reference(self, tmp_path):
        crt0_set(3, 5).save(str(tmp_path / "family.json"))
        s = sequences_from_config({"file": "family.json"}, base_dir=str(tmp_path))
        assert s.labels == ("g0", "g2", "*")

    def test_inline_members(self):
        s = sequences_from_config({
            "sequences": [{"period": 4, "ones": [0, 2], "label": "a"},
                          {"period": 4, "ones": [1], "label": "b"}],
        })
        assert s.period == 4 and set(s.labels) == {"a", "b"}

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            sequences_from_config({"construction": "mystery"})

    def test_missing_key_names_construction_and_key(self):
        with pytest.raises(ValueError, match=r"'rs_cpc' is missing required key\(s\): 'k'"):
            sequences_from_config({"construction": "rs_cpc", "n": 5, "p": 11})
        with pytest.raises(ValueError, match=r"'expanded'.*'base', 'M'"):
            sequences_from_config({"construction": "expanded", "p": 3})
        with pytest.raises(ValueError, match="'construction'"):
            sequences_from_config({"p": 3, "q": 5})

    def test_unread_key_names_construction_and_key(self):
        with pytest.raises(ValueError, match=r"'crt0' does not read key\(s\): 'n', 'delta'"):
            sequences_from_config({"construction": "crt0", "p": 3, "q": 5, "n": 7, "delta": 4})
        with pytest.raises(ValueError, match=r"'tdma' does not read key\(s\): 'q'"):
            sequences_from_config({"construction": "product",
                                   "x": {"construction": "crt0", "p": 2, "q": 3},
                                   "y": {"construction": "tdma", "G": 5, "delta": 0, "q": 1}})
        with pytest.raises(ValueError, match=r"'expanded' does not read key\(s\): 'alpha'"):
            sequences_from_config({"construction": "expanded", "p": 3, "M": 3, "alpha": 2,
                                   "base": {"construction": "crt0", "p": 3, "q": 5}})
        # optional and common keys are read
        s = sequences_from_config({"construction": "rs_cpc", "n": 5, "p": 11, "k": 3,
                                   "alpha": None, "select": ["3"], "pad_slots": 0})
        assert s.labels == ("3",)


# ---------------------------------------------------------------------------
# Slow oracles: the direct loops the vectorised geometry, simulator and
# audit replaced, plus a brute-force pairwise overlap test.  The fast paths
# must agree with them exactly on small random scenarios.

def densest_disk_oracle(users, R):
    pts = [(u.x, u.y) for u in users]
    k = len(pts)
    tol = 1e-9 * max(1.0, R)

    def count(cx, cy):
        return sum(1 for (x, y) in pts if math.hypot(x - cx, y - cy) <= R + tol)

    worst = 0
    for x, y in pts:
        worst = max(worst, count(x, y))
    for i in range(k):
        for j in range(i + 1, k):
            xi, yi = pts[i]
            xj, yj = pts[j]
            d = math.hypot(xi - xj, yi - yj)
            if d > 2 * R + tol or d == 0:
                continue
            mx, my = (xi + xj) / 2, (yi + yj) / 2
            t = math.sqrt(max(R * R - (d / 2) ** 2, 0.0)) / d
            ux, uy = -(yj - yi), (xj - xi)
            for s in (t, -t):
                worst = max(worst, count(mx + s * ux, my + s * uy))
    return worst


def allocation_oracle(users, plan, h, R):
    """Message for the first plan-labelled pair closer than 2R, or None."""
    labels = [u.label if u.label is not None else plan.allocate(quantize(u.x, u.y, h))
              for u in users]
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            if users[i].label is not None or users[j].label is not None:
                continue
            if labels[i] != labels[j]:
                continue
            d = math.hypot(users[i].x - users[j].x, users[i].y - users[j].y)
            if d < 2 * R * (1 - 1e-12):
                return (f"users {users[i].id!r} and {users[j].id!r} share "
                        f"label {labels[i]!r} at distance {d:.3f} m "
                        f"< 2R = {2 * R:.3f} m")
    return None


def near_pairs_oracle(xy, reach):
    """The dense k x k distance matrix the bucketed pair search replaced."""
    x, y = xy[:, 0], xy[:, 1]
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    i, j = np.nonzero(dist <= reach)
    return i, j, dist[i, j]


def random_users_oracle(spec, h, period):
    """The cell-by-cell placement loop _random_users replaced."""
    count = int(spec["random_users"])
    xmin, ymin, xmax, ymax = (float(v) for v in spec["area"])
    rng = np.random.default_rng(spec.get("seed"))
    d = math.sqrt(3) * h
    m_lo, m_hi = int(xmin / d) - 3, int(xmax / d) + 3
    n_lo, n_hi = (int(2 * ymin / (d * math.sqrt(3))) - 3,
                  int(2 * ymax / (d * math.sqrt(3))) + 3)
    cells = []
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            x, y = cell_center(HexCell(m, n), h)
            if xmin <= x <= xmax and ymin <= y <= ymax:
                cells.append((m, n))
    pick = rng.permutation(len(cells))[:count]
    shifts = rng.integers(0, period, size=count)
    return [(f"u{idx}", *cell_center(HexCell(*cells[ci]), h), int(sh))
            for idx, (ci, sh) in enumerate(zip(pick, shifts))]


def neighbor_pairs_oracle(sc):
    users = sc.users
    return [(b, a) for b in range(len(users)) for a in range(len(users))
            if a != b and math.hypot(users[a].x - users[b].x,
                                     users[a].y - users[b].y) < sc.R_m]


def own_slots_oracle(sc, u):
    n = sc.sequence_set.period
    ones = sc.sequence_set.get(sc.resolved_labels[u]).ones
    return sorted(r * n + (o + sc.users[u].shift) % n
                  for r in range(sc.timing.frames) for o in ones)


def superframe_rows_oracle(sc, offsets):
    """(tx, rx, slot, arrival) rows: receivers ascending, each sorted by
    arrival with ties in (transmitter, slot) order."""
    rows = []
    for b, a_list in itertools.groupby(neighbor_pairs_oracle(sc), key=lambda p: p[0]):
        mine = []
        for _, a in a_list:
            ua, ub = sc.users[a], sc.users[b]
            delay = 0.0 if sc.slot_synchronized else (
                math.hypot(ua.x - ub.x, ua.y - ub.y)
                / (SPEED_OF_LIGHT * sc.timing.tau_s))
            mine += [(a, b, s, float(offsets[a]) + s + delay)
                     for s in own_slots_oracle(sc, a)]
        rows += sorted(mine, key=lambda r: r[3])
    return rows


def loss_cause_oracle(log, sc):
    """Per reception: 1 when another arrival at its receiver overlaps it, 2
    when it overlaps one of the receiver's own transmit slots, 3 for both,
    and 0 (contention-free) for neither."""
    own = [own_slots_oracle(sc, u) for u in range(len(sc.users))]
    out = []
    for i in range(len(log)):
        b = log.rx[i]
        s, e = log.arrive_slots[i], log.end_slots[i]
        clash = any(log.rx[j] == b and s < log.end_slots[j] and log.arrive_slots[j] < e
                    for j in range(len(log)) if j != i)
        rel = s - log.offsets_slots[b]
        busy = any(j - 1 < rel < j + 1 for j in own[b])
        out.append(int(clash) + 2 * int(busy))
    return out


def contention_free_oracle(log, sc):
    """A reception is contention-free when no other arrival at its receiver
    overlaps it and it overlaps none of the receiver's own transmit slots."""
    return [cause == 0 for cause in loss_cause_oracle(log, sc)]


def block_free_oracle(log, sc):
    """(counts, violations, min_count) from a dict of per-key counts."""
    F, L = sc.timing.frames, sc.timing.frame_slots
    frame_of = np.floor((log.arrive_slots - log.offsets_slots[log.rx]) / L).astype(np.int64)
    got = {}
    for i in np.nonzero(log.contention_free)[0]:
        key = (int(log.rx[i]), int(log.tx[i]), int(frame_of[i]))
        got[key] = got.get(key, 0) + 1
    counts, violations = [], []
    for b, a in neighbor_pairs_oracle(sc):
        for f in range(1, F - 1):
            c = got.get((b, a, f), 0)
            ids = {"receiver": log.user_ids[b], "transmitter": log.user_ids[a], "frame": f}
            counts.append({**ids, "count": c})
            if c == 0:
                violations.append(ids)
    return counts, violations, min((c["count"] for c in counts), default=None)


R_SMALL = 10.0
# integer coordinates on a 25 m square: pairs exactly R (10, 0), (6, 8) and
# 2R (20, 0), (12, 16) apart, and cocircular triples, come up often
grid_points = st.tuples(st.integers(0, 24), st.integers(0, 24))


@st.composite
def small_scenarios(draw):
    s = draw(st.sampled_from([crt0_set(3, 5), tdma_set(5, 0)]))
    pts = draw(st.lists(grid_points, min_size=1, max_size=6))
    dc = draw(st.integers(0, 2))
    tau = 2e-8                                  # a 10 m hop is 1.67 slots
    sync = draw(st.booleans())
    dp = 0 if sync else delta_p(R_SMALL, tau)
    users = []
    for i, (x, y) in enumerate(pts):
        # -1e-12 s, the least offset admitted, puts slot 0 just before 0
        offset = draw(st.one_of(
            st.none(), st.integers(0, 2 * dc).map(lambda v: v * 0.5 * tau),
            st.floats(0.0, 1.0).map(lambda v: v * dc * tau), st.just(-1e-12)))
        users.append(User(f"u{i}", x, y, draw(st.sampled_from(s.labels)),
                          draw(st.integers(0, s.period - 1)), offset))
    tm = TimingModel(tau, s.period, draw(st.integers(3, 5)), dc, dp)
    return Scenario(tm, R_SMALL, 1.0, len(users), users, s,
                    slot_synchronized=sync), draw(st.integers(0, 2 ** 16))


# same-label cells of the 7-cell plan below, such as (0, 0) and (2, 1), sit
# sqrt(21) m apart; half of it puts them exactly 2R apart
SAME_LABEL_M = math.hypot(*np.subtract(cell_center(HexCell(2, 1), 1.0),
                                       cell_center(HexCell(0, 0), 1.0)))


class TestAgainstSlowOracles:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(grid_points, min_size=1, max_size=9),
           st.sampled_from([R_SMALL, 5.0, 7.5]))
    @example([(0, 0), (20, 0)], R_SMALL)         # only the 2R-pair disk holds both
    @example([(0, 0), (12, 16), (6, 8)], R_SMALL)
    def test_densest_disk_and_neighbor_pairs(self, pts, R):
        users = [User(f"u{i}", x, y, "t0") for i, (x, y) in enumerate(pts)]
        worst = densest_disk_oracle(users, R)
        sc = Scenario(timing(2), R, 1.0, worst, users, tdma_set(2, 0),
                      slot_synchronized=True)
        assert sc.max_disk_users == worst
        assert list(zip(*(a.tolist() for a in sc.hearing))) == neighbor_pairs_oracle(sc)
        if worst > 1:
            with pytest.raises(ValueError, match=f"^{worst} users fit in one hearing disk"):
                Scenario(timing(2), R, 1.0, worst - 1, users, tdma_set(2, 0),
                         slot_synchronized=True)

    def test_densest_disk_over_many_chunks(self, monkeypatch):
        # 60 users in a 3R square: about 1e5 (centre, user) tests, counted
        # in blocks of the default size and of much smaller ones, and a
        # two-point disk holds 2 users more than any user-centred one
        rng = np.random.default_rng(5)
        users = [User(f"u{i}", float(x), float(y), "t0")
                 for i, (x, y) in enumerate(rng.uniform(0, 30, size=(60, 2)))]
        worst = densest_disk_oracle(users, R_SMALL)
        for block in (netsim._BLOCK_ROWS, 999, 50):
            monkeypatch.setattr(netsim, "_BLOCK_ROWS", block)
            sc = Scenario(timing(2), R_SMALL, 1.0, worst, users, tdma_set(2, 0),
                          slot_synchronized=True)
            assert sc.max_disk_users == worst

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=14),
           st.sampled_from([R_SMALL, 5.0, 7.5]))
    # buckets are a little over 2R = 20 wide from x = 0: pairs exactly R and
    # 2R apart, straight and diagonal, on both sides of the edges at 20 and 40
    @example([(0, 0), (5, 0), (15, 0), (25, 0), (37, 16), (45, 0), (41, 40)], R_SMALL)
    # a span of 2^40 m is more than 2^20 buckets, so the grid widens
    @example([(0, 0), (10, 0), (2 ** 40, 0), (2 ** 40 + 12, 16)], R_SMALL)
    @example([(3, 3), (3, 3), (13, 3)], R_SMALL)  # two users at one point
    def test_pairs_against_dense_matrix(self, pts, R):
        xy = np.array(pts, dtype=np.float64).reshape(-1, 2)
        reach = 2 * R + 2 * (1e-9 * max(1.0, R))
        i, j, d = near_pairs_oracle(xy, reach)
        got = netsim._near_pairs(xy, reach)
        assert [a.tolist() for a in got] == [i.tolist(), j.tolist(), d.tolist()]
        if not pts:
            return
        users = [User(f"u{n}", x, y, "t0") for n, (x, y) in enumerate(pts)]
        sc = Scenario(timing(2), R, 1.0, len(users), users, tdma_set(2, 0),
                      slot_synchronized=True)
        hears = (d < R) & (i != j)
        assert [a.tolist() for a in sc.hearing] == [i[hears].tolist(), j[hears].tolist()]
        assert sc.hearing_dist.tolist() == d[hears].tolist()

    def test_within_agrees_with_hypot_at_the_boundary(self):
        # points on, just inside and just outside circles of several radii,
        # where the squared distance alone could round the other way
        rng = np.random.default_rng(2)
        theta = rng.uniform(0, 2 * np.pi, size=4000)
        for r in (1.0, 10.0 + 2e-8, 500.000001, 1000.000002):
            scale = r * (1 + rng.integers(-8, 9, size=theta.size) * 2.0 ** -52)
            dx, dy = scale * np.cos(theta), scale * np.sin(theta)
            assert netsim._within(dx, dy, r).tolist() == (np.hypot(dx, dy) <= r).tolist()

    @pytest.mark.parametrize("spec, h", [
        ({"random_users": 40, "area": [0, 0, 12, 12], "seed": 3}, 1.0),
        ({"random_users": 7, "area": [-30, -20, -5, 4], "seed": 8}, 2.5),
        ({"random_users": 0, "area": [0, 0, 5, 5]}, 1.0),
        ({"random_users": 400, "area": [0, 0, 8000, 7000], "seed": 1}, 150.0),
    ])
    def test_random_users_against_loop(self, spec, h):
        from protoseq.netsim import _random_users
        got = [(u.id, u.x, u.y, u.shift) for u in _random_users(spec, h, tdma_set(5, 0))]
        assert got == random_users_oracle(spec, h, 5)
        assert all(u.label is None and u.offset_s is None
                   for u in _random_users(spec, h, tdma_set(5, 0)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=2, max_size=8, unique=True),
           st.lists(st.booleans(), min_size=8, max_size=8),
           st.sampled_from([1.0, 1.5, SAME_LABEL_M / 2, 3.0]))
    @example([(0, 0), (2, 1)], [False] * 8, SAME_LABEL_M / 2)
    def test_allocation_constraint(self, cells, explicit, R):
        s = tdma_set(7, 0)
        plan = ReusePlan.from_geometry(1.0, 1.94, labels=list(s.labels))
        users = []
        for i, (m, n) in enumerate(cells):
            x, y = cell_center(HexCell(m, n), 1.0)
            users.append(User(f"u{i}", x, y, "t0" if explicit[i] else None))
        expected = allocation_oracle(users, plan, 1.0, R)
        if expected is None:
            Scenario(timing(7), R, 1.0, len(users), users, s, plan=plan,
                     slot_synchronized=True)
        else:
            with pytest.raises(ValueError) as err:
                Scenario(timing(7), R, 1.0, len(users), users, s, plan=plan,
                         slot_synchronized=True)
            assert str(err.value) == expected

    def test_block_free_ignores_pairs_out_of_range(self):
        # a log row between users out of hearing range belongs to no
        # audited pair and must not shift any count
        s = tdma_set(3, 0)
        users = [User("a", 0, 0, "t0", 0, 0.0), User("b", 10, 0, "t1", 0, 0.0),
                 User("c", 500, 0, "t2", 0, 0.0)]
        sc = Scenario(timing(3), 100.0, 1.0, 3, users, s, slot_synchronized=True)
        log = run_superframe(sc)
        extra = ReceptionLog(log.user_ids, log.offsets_slots, log.tau_s,
                             np.append(log.tx, np.int32(2)),
                             np.append(log.rx, np.int32(0)),
                             np.append(log.slot, 5), np.append(log.arrive_slots, 5.0),
                             np.append(log.loss_cause, np.uint8(0)))
        rep = check_block_free(extra, sc)
        assert rep.counts == block_free_oracle(extra, sc)[0]
        assert rep.counts == check_block_free(log, sc).counts

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_scenarios())
    # receivers whose clocks run 1.5 and 2 slots late hear slot 0 of "a"
    # before their own slot 0: no transmission of theirs can overlap it
    @example((Scenario(TimingModel(2e-8, 5, 3, 2, 0), R_SMALL, 1.0, 3,
                       [User("a", 0, 0, "t0", 0, 0.0),
                        User("b", 5, 0, "t3", 0, 4e-8),
                        User("c", 0, 5, "t4", 0, 3e-8)],
                       tdma_set(5, 0), slot_synchronized=True), 0))
    def test_superframe_log_and_block_free_counts(self, case):
        sc, seed = case
        log = run_superframe(sc, seed=seed)
        rows = superframe_rows_oracle(sc, log.offsets_slots)
        assert log.tx.tolist() == [r[0] for r in rows]
        assert log.rx.tolist() == [r[1] for r in rows]
        assert log.slot.tolist() == [r[2] for r in rows]
        assert log.arrive_slots.tolist() == [r[3] for r in rows]
        assert log.contention_free.tolist() == contention_free_oracle(log, sc)
        assert log.loss_cause.tolist() == loss_cause_oracle(log, sc)
        rep = check_block_free(log, sc)
        counts, violations, min_count = block_free_oracle(log, sc)
        assert rep.counts == counts
        assert rep.violations == violations
        assert rep.stats["min_count"] == min_count
        assert rep.stats["neighbor_pairs"] == len(neighbor_pairs_oracle(sc))


def receiver_order_oracle(rx, start):
    """One stable argsort per receiver: the loop the block sort replaced."""
    bounds = np.append(np.flatnonzero(np.diff(rx, prepend=-1)), rx.size).tolist()
    return np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [lo + np.argsort(start[lo:hi], kind="stable")
                             for lo, hi in zip(bounds[:-1], bounds[1:])])


# starts on a coarse grid tie exactly and share floors with different
# fractions; -5e-5 is slot 0 of a clock 1e-12 s early at tau = 2e-8 s
tie_prone_starts = st.one_of(st.integers(-4, 12).map(lambda v: v / 4),
                             st.sampled_from([-5e-5, -1e-300, -0.0, 1 - 2 ** -52]),
                             st.floats(-2.0, 1e6, allow_nan=False))


@st.composite
def receiver_blocks(draw):
    """(rx, start): a block's receiver column, non-decreasing with gaps,
    and arrival starts near some base."""
    sizes = draw(st.lists(st.integers(1, 15), max_size=8))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(sizes), max_size=len(sizes)))
    rx = np.repeat(draw(st.integers(0, 10 ** 6)) + np.cumsum(gaps, dtype=np.int64),
                   sizes).astype(np.int32)
    base = draw(st.sampled_from([0.0, 1e3, 2.0 ** 40]))
    start = base + np.array(draw(st.lists(tie_prone_starts, min_size=rx.size,
                                          max_size=rx.size)), dtype=np.float64)
    return rx, start


class TestReceiverOrder:
    """The block sort gives each receiver's stable argsort by start."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(receiver_blocks())
    def test_against_per_receiver_argsort(self, block):
        rx, start = block
        got = netsim._receiver_order(rx, start)
        assert got.tolist() == receiver_order_oracle(rx, start).tolist()

    def test_key_of_63_bits_sorts_and_64_raise(self):
        # one bit each for the receiver and the row, and 61 or 62 for the floor
        rx = np.array([0, 1], dtype=np.int32)
        fits = np.array([2.0 ** 60, 0.0])
        assert netsim._receiver_order(rx, fits).tolist() == [0, 1]
        rx = np.array([0, 0], dtype=np.int32)
        assert netsim._receiver_order(rx, fits).tolist() == [1, 0]
        rx = np.array([0, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="sort key of 64 bits; at most 63 fit"):
            netsim._receiver_order(rx, np.array([2.0 ** 61, 0.0]))

    def test_empty_block(self):
        got = netsim._receiver_order(np.zeros(0, dtype=np.int32), np.zeros(0))
        assert got.size == 0


def log_columns(log):
    """Each column of a log with its dtype, as bytes."""
    return [(c.dtype.str, c.tobytes()) for c in (log.tx, log.rx, log.slot, log.arrive_slots,
                                                 log.loss_cause, log.offsets_slots)]


class TestReceiverBlocks:
    """run_superframe builds and classifies blocks of whole receivers, and
    check_block_free reads the log in blocks: at any block size the log and
    the report are those of one block over the whole superframe."""

    BLOCKS = (1, 7, 50)

    def runs(self, sc, seed):
        """(block size, log, report) with `_BLOCK_ROWS` at each of BLOCKS."""
        for block in self.BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(netsim, "_BLOCK_ROWS", block)
                log = run_superframe(sc, seed=seed)
                rep = check_block_free(log, sc)
            yield block, log, rep

    def check_against_oracles(self, sc, seed):
        whole = run_superframe(sc, seed=seed)
        report = json.dumps(check_block_free(whole, sc).to_json())
        rows = superframe_rows_oracle(sc, whole.offsets_slots)
        causes = loss_cause_oracle(whole, sc)
        counts, violations, min_count = block_free_oracle(whole, sc)
        for block, log, rep in self.runs(sc, seed):
            assert log_columns(log) == log_columns(whole), block
            assert json.dumps(rep.to_json()) == report, block
            assert list(zip(log.tx.tolist(), log.rx.tolist(), log.slot.tolist(),
                            log.arrive_slots.tolist())) == rows
            assert log.loss_cause.tolist() == causes
            assert rep.counts == counts and rep.violations == violations
            assert rep.stats["min_count"] == min_count

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_scenarios())
    def test_small_blocks_against_oracles(self, case):
        self.check_against_oracles(*case)

    def test_receiver_larger_than_a_block(self):
        # a hub 9 m from five spokes that are over R = 10 m apart: the hub
        # hears 45 rows, each spoke 9, so at a block of 7 or 50 rows the hub,
        # in the middle of the receiver order, has a block of its own
        s = crt0_set(3, 5)
        spokes = [(9 * math.cos(a), 9 * math.sin(a)) for a in np.arange(5) * 2 * math.pi / 5]
        points = spokes[:2] + [(0.0, 0.0)] + spokes[2:]
        users = [User(f"u{i}", x, y, s.labels[i % 3], 2 * i) for i, (x, y) in enumerate(points)]
        sc = Scenario(TimingModel(2e-8, s.period, 3, 1, 2), R_SMALL, 1.0, 6, users, s)
        assert np.bincount(sc.hearing[0]).tolist() == [1, 1, 5, 1, 1, 1]
        for seed in range(3):
            self.check_against_oracles(sc, seed)

    @pytest.mark.parametrize("offsets_s", [(0.0,) * 4, (-1e-12, 0.0, -1e-12, 1e-8)])
    def test_exact_ties_and_starts_below_zero(self, offsets_s):
        # slot-synchronised users with one label and shift arrive together:
        # equal offsets tie exactly, and an offset of -1e-12 s starts slot 0
        # just below 0 and shares floor -1 or 0 with starts of other fractions
        s = crt0_set(3, 5)
        users = [User(f"u{i}", x, y, "g0", 0 if i < 3 else 4, off)
                 for i, ((x, y), off) in enumerate(zip([(0, 0), (3, 0), (0, 4), (3, 4)],
                                                       offsets_s))]
        sc = Scenario(TimingModel(2e-8, s.period, 3, 1, 0), R_SMALL, 1.0, 4, users, s,
                      slot_synchronized=True)
        log = run_superframe(sc)
        starts = log.arrive_slots.tolist()
        assert len(set(zip(log.rx.tolist(), starts))) < len(starts)
        assert (min(starts) < 0) == (offsets_s[0] < 0)
        self.check_against_oracles(sc, 0)

    def test_shared_floors_with_different_fractions(self):
        # propagation delays of 0.5 to 1.7 slots and offsets of a quarter slot
        s = crt0_set(3, 5)
        users = [User(f"u{i}", x, y, s.labels[i % 3], 3 * i, 0.25 * i * 2e-8)
                 for i, (x, y) in enumerate([(0, 0), (3, 0), (0, 9), (6, 6), (9, 2)])]
        sc = Scenario(TimingModel(2e-8, s.period, 3, 1, 2), R_SMALL, 1.0, 5, users, s)
        log = run_superframe(sc)
        floors = {(int(r), math.floor(a)) for r, a in zip(log.rx, log.arrive_slots)}
        assert len(floors) < len(log)
        assert len(set(zip(log.rx.tolist(), log.arrive_slots.tolist()))) == len(log)
        self.check_against_oracles(sc, 0)

    def test_no_hearing_pair(self):
        s = crt0_set(3, 5)
        users = [User("a", 0, 0, "g0"), User("b", 500, 0, "g2", 4)]
        sc = Scenario(TimingModel(2e-8, s.period, 3, 1, 2), R_SMALL, 1.0, 2, users, s)
        for block, log, rep in self.runs(sc, 0):
            assert len(log) == 0
            assert [c.dtype for c in (log.tx, log.rx, log.slot, log.arrive_slots,
                                      log.loss_cause)] == [np.int32, np.int32, np.int64,
                                                           np.float64, np.uint8]
            assert rep.holds and rep.counts == [] and rep.violations == []
            assert rep.stats["min_count"] is None and rep.stats["receptions"] == 0


def field_config(users):
    """The 400-user field deployment on an area scaled to keep its density."""
    h, R = 150.0, 500.0
    labels = list(crt0_set(17, 33).labels)
    side = math.sqrt(users / 400)
    return {"sequences": {"construction": "crt0", "p": 17, "q": 33, "pad_slots": 4},
            "tau_s": 1e-6, "R_m": R, "h_m": h, "L": 17 * 33 * 5, "F": 3,
            "delta_c_slots": 2, "M": 17,
            "plan": ReusePlan.from_geometry(h, R, labels=labels).to_json(),
            "users": {"random_users": users, "seed": 1,
                      "area": [0, 0, 8000 * side, 7000 * side]}}


class TestSparseGeometry:
    def test_scenario_memory_stays_far_below_a_dense_matrix(self):
        # the field deployment at 3,000 users: one 3,000 x 3,000 float64
        # matrix is 72 MB, and building the scenario must stay well below it
        tracemalloc.start()
        try:
            sc = Scenario.from_config(field_config(3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sc.users) == 3000 and sc.hearing[0].size > 3000
        assert peak < 72e6 / 4

    def test_superframe_memory_per_reception(self):
        # the log holds tx and rx (int32), slot (int64), arrival (float64)
        # and loss cause (uint8), 25 bytes a row; ends and contention-free
        # flags are derived, not stored
        sc = Scenario.from_config(field_config(3000))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = run_superframe(sc, seed=0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) > 3000
        assert (peak - base) / len(log) <= 35
        assert (held - base) / len(log) <= 26

    def test_frame_offset_audit_memory(self):
        # the log is read in fixed-size blocks: about 0.9 M receptions here,
        # where whole-log temporaries took 46 MB (49 B per reception)
        sc = Scenario.from_config(field_config(3000))
        log = run_superframe(sc, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ok = frame_offset_audit(log, sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and len(log) > 500_000
        assert peak - base < 4e6

    def test_block_free_memory(self):
        # the log is read in fixed-size blocks, and the counts are one array
        # over the hearing pairs' normal frames; whole-log temporaries took
        # 19.8 MB here
        sc = Scenario.from_config(field_config(3000))
        log = run_superframe(sc, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = check_block_free(log, sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds and len(log) > 500_000
        assert peak - base < 8e6
