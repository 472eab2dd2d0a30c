import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoseq import verify
from protoseq.crt import (ExpandedSetSpec, crt0_set, crt_set, expanded_set,
                          select_expansion_base)
from protoseq.rscpc import RsCpcParams, rs_cpc
from protoseq.sequences import BinarySequence, SequenceSet, hamming_xcorr
from protoseq.verify import (_BATCH, StackedMatrix, StateCapExceeded,
                             VerifyReport, _assignment_batches,
                             _max_circular_run, _max_packed_run,
                             _member_frames, _rotations, _stack,
                             conflict_free_positions,
                             is_ui, max_conflict_free_gap,
                             min_conflict_free_count, separation_audit,
                             window_audit, xcorr_bound_audit,
                             zero_column_window)


def brute_force_ui(s):
    """Reference check: scan all shift assignments with the first pinned to 0."""
    n = s.period
    k = len(s)
    for rest in itertools.product(range(n), repeat=k - 1):
        shifts = (0, *rest)
        col = np.zeros(n, dtype=int)
        pos = [np.asarray([(x + t) % n for x in seq.ones])
               for seq, t in zip(s.sequences, shifts)]
        for q in pos:
            col[q] += 1
        if any((col[q] == 1).sum() == 0 for q in pos):
            return shifts
    return None


class TestStackedMatrix:
    def test_from_set(self):
        s = crt0_set(3, 5)
        m = StackedMatrix.from_set(s, (0, 1, 2))
        assert m.rows.shape == (3, 15)
        assert m.labels == ("g0", "g2", "*")
        assert m.rows.sum() == sum(x.weight for x in s.sequences)

    def test_shift_reduction(self):
        s = crt0_set(3, 5)
        a = StackedMatrix.from_set(s, (15, 16, 17))
        b = StackedMatrix.from_set(s, (0, 1, 2))
        assert np.array_equal(a.rows, b.rows)
        assert a.shifts == (0, 1, 2)

    def test_shift_count_mismatch(self):
        with pytest.raises(ValueError):
            StackedMatrix.from_set(crt0_set(3, 5), (0, 0))

    def test_conflict_free_positions(self):
        s = SequenceSet((BinarySequence(4, (0, 1)), BinarySequence(4, (1, 2))),
                        ("a", "b"))
        m = StackedMatrix.from_set(s, (0, 0))
        assert conflict_free_positions(m, 0) == (0,)
        assert conflict_free_positions(m, 1) == (2,)


class TestVerifyReport:
    def test_holds_and_exit_code(self):
        r = VerifyReport("ui", "exhaustive", 10, None, "holds")
        assert r.holds and r.exit_code == 0
        v = VerifyReport("ui", "random", 10, 3, "violated", {"shifts": [0]})
        assert not v.holds and v.exit_code == 1

    def test_save_roundtrip(self, tmp_path):
        import json
        r = VerifyReport("ui", "random", 5, 1, "holds", None, {"x": 2})
        path = tmp_path / "report.json"
        r.save(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == r.to_json()
        assert loaded["stats"] == {"x": 2}


class TestIsUi:
    def test_toy_violation(self):
        s = SequenceSet((BinarySequence(2, (0,)), BinarySequence(2, (1,))),
                        ("a", "b"))
        r = is_ui(s)
        assert r.verdict == "violated"
        assert r.counterexample == {"shifts": [0, 1]}

    def test_crt0_3_5_exhaustive(self):
        r = is_ui(crt0_set(3, 5))
        assert r.holds
        assert r.samples == 225
        assert r.stats["pinned_first_shift"] is True

    def test_matches_brute_force(self):
        cases = [
            crt0_set(3, 5),
            SequenceSet((BinarySequence(6, (0, 1)), BinarySequence(6, (0, 2)),
                         BinarySequence(6, (0, 3))), ("a", "b", "c")),
            SequenceSet((BinarySequence(3, (0,)),) * 3, ("a", "b", "c")),
        ]
        for s in cases:
            expected = brute_force_ui(s)
            r = is_ui(s)
            if expected is None:
                assert r.holds
            else:
                assert r.counterexample == {"shifts": list(expected)}

    def test_jobs_equivalence_holds(self):
        a = is_ui(crt0_set(3, 5), jobs=1)
        b = is_ui(crt0_set(3, 5), jobs=2)
        assert a.to_json() == b.to_json()

    def test_jobs_equivalence_violated(self):
        s = SequenceSet((BinarySequence(3, (0,)),) * 3, ("a", "b", "c"))
        a = is_ui(s, jobs=1)
        b = is_ui(s, jobs=3)
        assert a.verdict == b.verdict == "violated"
        assert a.counterexample == b.counterexample == {"shifts": [0, 0, 0]}

    def test_single_member(self):
        s = SequenceSet((BinarySequence(5, (2,)),), ("solo",))
        assert is_ui(s).holds

    def test_single_member_random_report(self):
        s = SequenceSet((BinarySequence(5, (2,)),), ("solo",))
        r = is_ui(s, mode="random", samples=40, seed=9)
        assert (r.mode, r.samples, r.seed, r.verdict) == ("random", 40, 9, "holds")
        assert r.stats == {"members": 1, "period": 5, "min_conflict_free_count": 1}

    def test_weightless_single_member_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started")

        s = SequenceSet((BinarySequence(5, ()),), ("silent",))
        one = is_ui(s, jobs=1).to_json()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert is_ui(s, jobs=2).to_json() == one
        assert one["samples"] == 1 and one["counterexample"] == {"shifts": [0]}

    @pytest.mark.parametrize("kw, message", [
        (dict(mode="random", samples=-5), "samples >= 1, got -5"),
        (dict(mode="guess"), "mode must be"),
    ])
    def test_single_member_checks_arguments(self, kw, message):
        s = SequenceSet((BinarySequence(5, (2,)),), ("solo",))
        with pytest.raises(ValueError, match=message):
            is_ui(s, **kw)

    def test_random_mode_reproducible(self):
        s = crt0_set(3, 5)
        a = is_ui(s, mode="random", samples=500, seed=7)
        b = is_ui(s, mode="random", samples=500, seed=7)
        assert a.to_json() == b.to_json()
        assert a.holds
        assert a.stats["min_conflict_free_count"] >= 1

    def test_random_mode_finds_toy_violation(self):
        s = SequenceSet((BinarySequence(2, (0,)), BinarySequence(2, (1,))),
                        ("a", "b"))
        r = is_ui(s, mode="random", samples=200, seed=0)
        assert r.verdict == "violated"
        t = r.counterexample["shifts"]
        assert (t[0] + 0) % 2 == (t[1] + 1) % 2  # both land on one column

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "STATE_CAP", 1000)
        with pytest.raises(StateCapExceeded):
            is_ui(crt0_set(5, 9))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            is_ui(crt0_set(3, 5), mode="guess")

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, mode, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            is_ui(crt0_set(3, 5), mode=mode, samples=10, seed=1, jobs=jobs)


class TestPeakCertificate:
    """Exhaustive is_ui proves "holds" from pairwise peaks where it can."""

    BLOCK_COMB = SequenceSet((BinarySequence(130, tuple(range(64))),
                              BinarySequence(130, tuple(range(0, 128, 2)))),
                             ("block", "comb"))
    # holds, but each member's weight, 4, does not exceed its summed peaks
    UNCERTIFIED = SequenceSet((BinarySequence(15, (5, 6, 12, 14)),
                               BinarySequence(15, (2, 6, 10, 14)),
                               BinarySequence(15, (0, 3, 4, 14))), ("a", "b", "c"))

    @pytest.mark.parametrize("s, jobs", [
        (crt0_set(3, 5), 1),
        (crt0_set(5, 9), 1),
        (crt0_set(5, 9), 2),
        (BLOCK_COMB, 1),
    ], ids=["crt0_3_5", "crt0_5_9", "crt0_5_9_jobs2", "block_comb"])
    def test_scan_gives_the_certified_report(self, monkeypatch, s, jobs):
        assert verify._peaks_certify_ui(s)
        certified = is_ui(s, jobs=jobs).to_json()
        monkeypatch.setattr(verify, "_peaks_certify_ui", lambda s: False)
        assert is_ui(s, jobs=jobs).to_json() == certified

    def test_certified_families_hold(self):
        # every family the certificate proves must hold by the dense oracle
        certified = []

        def check(s):
            if verify._peaks_certify_ui(s):
                certified.append(s)
                want = oracle_reports(s, "exhaustive", 0, None, [s.labels[0]],
                                      0, s.period, s.period)
                assert want["ui"]["verdict"] == "holds"
                assert is_ui(s).to_json() == want["ui"]

        @settings(derandomize=True, max_examples=60, deadline=None)
        @given(word_edge_families(exhaustive=True))
        def check_word_edges(case):
            check(case[0])

        check_word_edges()
        edges = len(certified)
        for seed, n, k in itertools.product(range(12), (9, 13, 17), (2, 3)):
            check(small_family(seed, n, k)[0])
        assert edges and len(certified) > edges

    def test_jobs_equivalence_holds_by_scan(self):
        s = self.UNCERTIFIED
        assert brute_force_ui(s) is None
        assert not verify._peaks_certify_ui(s)
        a = is_ui(s, jobs=1)
        assert a.holds
        assert a.to_json() == is_ui(s, jobs=2).to_json()

    def test_certified_family_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert is_ui(crt0_set(5, 9), jobs=4).holds
        with pytest.raises(AssertionError, match="process pool started"):
            is_ui(self.UNCERTIFIED, jobs=2)


class TestEmptyRandomAudits:
    """A random audit that draws nothing cannot say "holds"."""

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize("audit", [
        is_ui,
        lambda s, **kw: window_audit(s, window=6, **kw),
        lambda s, **kw: min_conflict_free_count(s, ["g0"], threshold=1, **kw),
        lambda s, **kw: max_conflict_free_gap(s, ["g0"], bound=15, **kw),
    ], ids=["ui", "window", "count", "gap"])
    def test_rejected(self, audit, samples):
        with pytest.raises(ValueError, match=f"samples >= 1, got {samples}"):
            audit(crt0_set(3, 5), mode="random", samples=samples, seed=1)


class TestDenseFallback:
    # members with more ones than one 64-bit word holds, so their ones span
    # two words of the packed rotation table

    def test_violated(self):
        s = SequenceSet((BinarySequence(70, tuple(range(70))),
                         BinarySequence(70, (0,))), ("wall", "dot"))
        r = is_ui(s)
        assert r.verdict == "violated"
        assert r.counterexample == {"shifts": [0, 0]}

    def test_holds_against_brute_force(self):
        block = BinarySequence(130, tuple(range(64)))
        comb = BinarySequence(130, tuple(range(0, 128, 2)))
        s = SequenceSet((block, comb), ("block", "comb"))
        assert brute_force_ui(s) is None
        assert is_ui(s).holds


class TestZeroColumnWindow:
    def test_direct(self):
        s = SequenceSet((BinarySequence(6, (0, 1)), BinarySequence(6, (3,))),
                        ("a", "b"))
        m = StackedMatrix.from_set(s, (0, 0))
        assert zero_column_window(m, 3)
        assert not zero_column_window(m, 2)

    def test_all_occupied(self):
        s = SequenceSet((BinarySequence(4, (0, 1, 2, 3)),), ("full",))
        m = StackedMatrix.from_set(s, (0,))
        assert not zero_column_window(m, 4)

    def test_empty_matrix(self):
        s = SequenceSet((BinarySequence(4, ()),), ("quiet",))
        m = StackedMatrix.from_set(s, (0,))
        assert zero_column_window(m, 1)

    def test_window_bounds(self):
        s = SequenceSet((BinarySequence(4, (0,)),), ("a",))
        m = StackedMatrix.from_set(s, (0,))
        with pytest.raises(ValueError):
            zero_column_window(m, 0)
        with pytest.raises(ValueError):
            zero_column_window(m, 5)

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_max_circular_run_matches_naive(self, bits):
        n = len(bits)
        best = cur = 0
        for b in bits + bits:
            cur = cur + 1 if b else 0
            best = max(best, cur)
        expected = min(best, n)
        got = int(_max_circular_run(np.asarray([bits], dtype=bool))[0])
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 130).flatmap(lambda n: st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=12)))
    def test_max_packed_run_matches_unpacked(self, rows):
        bits = np.asarray(rows, dtype=bool)
        n = bits.shape[1]
        padded = np.pad(bits, ((0, 0), (0, -n % 64)))
        words = np.packbits(padded, axis=1, bitorder="little").view(np.uint64).T
        got = _max_packed_run(np.ascontiguousarray(words), n)
        assert got.tolist() == _max_circular_run(bits).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 40),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3)),
                 min_size=1, max_size=40))))
    def test_max_packed_run_with_one_period_long_run(self, case):
        # one row stays non-zero for the whole period while the short runs end
        n, at, short = case
        bits = np.zeros((len(short), n), dtype=bool)
        for row, (start, length) in enumerate(short):
            bits[row, (start + np.arange(length)) % n] = True
        bits = np.insert(bits, min(at, len(short)), True, axis=0)
        padded = np.pad(bits, ((0, 0), (0, -n % 64)))
        words = np.packbits(padded, axis=1, bitorder="little").view(np.uint64).T
        got = _max_packed_run(np.ascontiguousarray(words), n)
        assert got.tolist() == _max_circular_run(bits).tolist()


class TestWindowAudit:
    def test_crt0_3_5_exhaustive(self):
        r = window_audit(crt0_set(3, 5))
        assert r.holds
        assert r.stats == {"max_occupied_run": 4, "window": 6}
        assert r.samples == 225

    def test_crt0_5_9_random(self):
        r = window_audit(crt0_set(5, 9), mode="random", samples=2000, seed=11)
        assert r.holds
        assert r.stats["window"] == 10
        assert r.stats["max_occupied_run"] <= 9

    def test_violated_with_tight_window(self):
        r = window_audit(crt0_set(3, 5), window=2)
        assert r.verdict == "violated"
        assert r.counterexample["occupied_run"] >= 2

    def test_window_required_without_meta(self):
        s = SequenceSet((BinarySequence(4, (0,)),), ("a",))
        with pytest.raises(ValueError):
            window_audit(s)

    def test_window_outside_period(self):
        s = crt0_set(3, 5)
        for window in (0, -1, 16):
            with pytest.raises(ValueError, match=r"window must lie in \[1, period\]"):
                window_audit(s, window=window, mode="random", samples=10, seed=1)
        assert window_audit(s, window=15).holds


class TestExpandedAudits:
    @pytest.fixture(scope="class")
    @staticmethod
    def selection():
        n, field, k = select_expansion_base(3, 3)
        base = rs_cpc(RsCpcParams(n=n, p=field, k=k))
        es = expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3))
        picks = list(es.meta["guard_labels"]) + list(es.meta["open_labels"])[:2]
        return es.select(picks)

    def test_selection_shape(self, selection):
        assert selection.labels == ("g0*0", "g2*1", "**2", "U*3", "U*4")
        assert selection.meta["cf_floor"] == 12
        assert selection.meta["cf_gap_bound"] == 816

    def test_min_count_frozen(self, selection):
        r = min_conflict_free_count(selection, samples=10_000, seed=20240817)
        assert r.holds
        assert r.stats == {"min_count": 73, "threshold": 12}

    def test_max_gap_frozen(self, selection):
        r = max_conflict_free_gap(selection, samples=10_000, seed=20240817)
        assert r.holds
        assert r.stats == {"max_gap": 125, "bound": 816}

    def test_threshold_violation_path(self, selection):
        r = min_conflict_free_count(selection, samples=10_000, seed=20240817,
                                    threshold=74)
        assert r.verdict == "violated"
        assert r.stats["min_count"] == 73
        assert r.counterexample["count"] == 73
        assert r.counterexample["row"] in ("U*3", "U*4")

    def test_gap_bound_violation_path(self, selection):
        r = max_conflict_free_gap(selection, samples=10_000, seed=20240817,
                                  bound=124)
        assert r.verdict == "violated"
        assert r.stats["max_gap"] == 125
        assert r.counterexample["gap"] == 125

    def test_default_protown_rows_are_open_tier(self, selection):
        # explicit protected set matching the default gives the same report
        explicit = min_conflict_free_count(selection,
                                           protected_labels=["U*3", "U*4"],
                                           samples=2000, seed=5)
        default = min_conflict_free_count(selection, samples=2000, seed=5)
        assert explicit.to_json() == default.to_json()

    @pytest.mark.parametrize("audit", [min_conflict_free_count, max_conflict_free_gap])
    def test_traced_peak(self, selection, audit):
        # At period 2040 an assignment stacks 32 words, so blocks of 512
        # assignments keep every buffer and the gap audit's unpacked bits
        # small; one block of the whole 10 k draw peaks at 20 MB and 60 MB.
        tracemalloc.start()
        try:
            audit(selection, samples=10_000, seed=20240817)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10 ** 6

    @pytest.mark.parametrize("audit", [min_conflict_free_count, max_conflict_free_gap])
    def test_traced_peak_in_member_frames(self, selection, audit):
        # Each protected row's coverage table is 5 x 2040 x 2 words, and a
        # block's covers take 2 words per assignment; the 32-word stack of
        # every draw read 4.6 and 5.6 MB here.
        tracemalloc.start()
        try:
            audit(selection, samples=10_000, seed=20240817)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 10 ** 6


class TestProtectedRowAudits:
    def test_requires_labels_without_meta(self):
        with pytest.raises(ValueError):
            min_conflict_free_count(crt_set(3, 5), threshold=1)

    def test_rejects_empty_protected(self):
        with pytest.raises(ValueError):
            min_conflict_free_count(crt_set(3, 5), protected_labels=[],
                                    threshold=1)

    def test_requires_threshold_without_meta(self):
        with pytest.raises(ValueError):
            min_conflict_free_count(crt_set(3, 5), protected_labels=["g0"])

    def test_exhaustive_matches_brute_force(self):
        s = crt_set(3, 5)
        r = min_conflict_free_count(s, protected_labels=["g0"], threshold=1,
                                    mode="exhaustive")
        n = s.period
        chars = [np.asarray(x.ones) for x in s.sequences]
        best = None
        for rest in itertools.product(range(n), repeat=2):
            shifts = (0, *rest)
            col = np.zeros(n, dtype=int)
            pos = [(c + t) % n for c, t in zip(chars, shifts)]
            for q in pos:
                col[q] += 1
            cf = int((col[pos[0]] == 1).sum())
            if best is None or cf < best:
                best = cf
        assert r.stats["min_count"] == best
        assert r.holds == (best >= 1)

    def test_gap_requires_bound_without_meta(self):
        with pytest.raises(ValueError):
            max_conflict_free_gap(crt_set(3, 5), protected_labels=["g0"])


class TestXcorrBoundAudit:
    def test_holds(self):
        r = xcorr_bound_audit(crt_set(3, 5), 1)
        assert r.holds
        assert r.stats == {"max_xcorr": 1, "bound": 1}

    def test_violated_composite_base(self):
        r = xcorr_bound_audit(crt0_set(4, 7), 1)
        assert r.verdict == "violated"
        assert r.counterexample == {"pair": ["g0", "g2"], "shift": 0, "value": 2}

    def test_tied_peaks_report_first_pair_at_first_shift(self):
        # a, b and c rotate one word of period 6, so each of their three
        # pairs peaks at 4 at two shifts; d comes first and peaks lower
        ones = {"d": (0, 3), "a": (0, 1, 6, 7), "b": (2, 3, 8, 9), "c": (0, 5, 6, 11)}
        s = SequenceSet(tuple(BinarySequence(12, o) for o in ones.values()), tuple(ones))
        best = None
        for i, j in itertools.combinations(range(len(s)), 2):
            for t in range(s.period):
                v = hamming_xcorr(s.sequences[i], s.sequences[j], t)
                if best is None or v > best[0]:
                    best = (v, i, j, t)
        v, i, j, t = best
        tied = [[u for u in range(s.period) if hamming_xcorr(x, y, u) == v]
                for x, y in itertools.combinations(s.sequences, 2)]
        assert sorted(map(len, tied)) == [0, 0, 0, 2, 2, 2]
        r = xcorr_bound_audit(s, v - 1)
        assert r.counterexample == {"pair": [s.labels[i], s.labels[j]],
                                    "shift": t, "value": v}
        assert r.counterexample == {"pair": ["a", "b"], "shift": 4, "value": 4}

    def test_tie_across_rows_reports_the_earlier_row(self):
        # (a, d) and (b, c) both peak at 3; (a, d) comes first in row-major
        # order, (b, c) first in column-major order
        ones = {"a": (0, 1, 2), "b": (0, 2, 4), "c": (0, 2, 4), "d": (0, 1, 2)}
        s = SequenceSet(tuple(BinarySequence(11, o) for o in ones.values()), tuple(ones))
        r = xcorr_bound_audit(s, 2)
        assert r.counterexample == {"pair": ["a", "d"], "shift": 0, "value": 3}
        assert r.samples == 6 * 11

    def test_negative_bound_is_rejected(self):
        solo = SequenceSet((BinarySequence(5, (2,)),), ("solo",))
        with pytest.raises(ValueError, match="bound must be >= 0, got -1"):
            xcorr_bound_audit(solo, -1)


class TestLimitsThatDecideWithoutAScan:
    @pytest.mark.parametrize("audit, kw, message", [
        (min_conflict_free_count, dict(threshold=-1), "threshold must be >= 0, got -1"),
        (max_conflict_free_gap, dict(bound=0), "bound must be >= 1, got 0"),
        (separation_audit, dict(bound=-2), "bound must be >= 0, got -2"),
    ])
    def test_rejected(self, audit, kw, message):
        if audit is not separation_audit:
            kw.update(protected_labels=["g0"], samples=10, seed=1)
        with pytest.raises(ValueError, match=message):
            audit(crt0_set(3, 5), **kw)


class TestMetaDefaults:
    # an audit argument left as None falls back to a meta key; a family
    # without that key names both
    @pytest.mark.parametrize("audit, kw, message", [
        (min_conflict_free_count, dict(threshold=1),
         "protected_labels required (no open_labels in meta)"),
        (min_conflict_free_count, dict(protected_labels=["a"]),
         "threshold required (no cf_floor in meta)"),
        (max_conflict_free_gap, dict(protected_labels=["a"]),
         "bound required (no cf_gap_bound in meta)"),
        (window_audit, {}, "window required (no p in meta)"),
        (separation_audit, {}, "bound required (no p in meta)"),
    ])
    def test_missing_meta_key_is_named(self, audit, kw, message):
        s = SequenceSet((BinarySequence(6, (0, 3)), BinarySequence(6, (1, 4))), ("a", "b"))
        with pytest.raises(ValueError) as err:
            audit(s, **kw)
        assert str(err.value) == message


class TestSeparationAudit:
    def test_default_bound_from_meta(self):
        r = separation_audit(crt0_set(5, 9))
        assert r.holds
        assert r.stats == {"min_separation": 5, "bound": 5}

    def test_violated_with_raised_bound(self):
        r = separation_audit(crt0_set(5, 9), bound=6)
        assert r.verdict == "violated"
        assert r.counterexample["min_separation"] == 5

    def test_bound_required_without_meta(self):
        s = SequenceSet((BinarySequence(6, (0, 3)),), ("a",))
        with pytest.raises(ValueError):
            separation_audit(s)

    def test_member_with_one_one_is_named(self):
        s = SequenceSet((BinarySequence(6, (0, 3)), BinarySequence(6, (4,))),
                        ("pair", "lone"))
        with pytest.raises(ValueError, match="member 'lone' has no min separation"):
            separation_audit(s, bound=2)

    def test_first_member_at_the_minimum_is_reported(self):
        s = SequenceSet(tuple(BinarySequence(12, ones) for ones in
                              [(0, 6), (0, 2, 5), (1, 3, 9), (0, 4, 8)]),
                        ("a", "b", "c", "d"))
        r = separation_audit(s, bound=3)
        assert r.counterexample == {"label": "b", "min_separation": 2, "bound": 3}
        assert r.stats == {"min_separation": 2, "bound": 3}


# ---------------------------------------------------------------------------
# the packed shift-space engine against a dense column-count oracle

def stack_facts(s, shifts):
    """Conflict-free counts and gaps per member, and the longest occupied run."""
    rows = StackedMatrix.from_set(s, shifts).rows.tolist()
    col = [sum(c) for c in zip(*rows)]
    n = len(col)
    counts, gaps = [], []
    for row in rows:
        cf = [x for x in range(n) if row[x] and col[x] == 1]
        counts.append(len(cf))
        gaps.append(n if len(cf) < 2 else
                    max((cf[(a + 1) % len(cf)] - cf[a]) % n for a in range(len(cf))))
    best = cur = 0
    for c in col + col:
        cur = cur + 1 if c else 0
        best = max(best, cur)
    return counts, gaps, min(best, n)


def oracle_reports(s, mode, samples, seed, protected, threshold, bound, window):
    """Reports of all four audits, from one dense evaluation per assignment.

    Exhaustive mode lists the space with the first shift pinned; random mode
    draws _BATCH-sized blocks exactly as the audits' sampling contract says.
    The floor, gap and window audits report the first assignment reaching
    the extreme of the first _BATCH block that crosses their limit.  The
    block size is read at call time, so a test may patch it.
    """
    n, k = s.period, len(s)
    batch = verify._BATCH
    if mode == "exhaustive":
        space = [(0, *rest) for rest in itertools.product(range(n), repeat=k - 1)]
    else:
        rng = np.random.default_rng(seed)
        space = []
        while len(space) < samples:
            b = min(batch, samples - len(space))
            space += [tuple(int(t) for t in row) for row in rng.integers(0, n, size=(b, k))]
    facts = [stack_facts(s, shifts) for shifts in space]
    blocks = [range(a, min(a + batch, len(space))) for a in range(0, len(space), batch)]
    rows = [s.labels.index(l) for l in protected]
    out = {}

    def report(prop, n_samples, verdict, ce, stats):
        return {"property": prop, "mode": mode, "samples": n_samples,
                "seed": None if mode == "exhaustive" and prop == "ui" else seed,
                "verdict": verdict, "counterexample": ce, "stats": stats}

    bad = next((a for a, f in enumerate(facts) if min(f[0]) == 0), None)
    ce = None if bad is None else {"shifts": list(space[bad])}
    if mode == "exhaustive":
        out["ui"] = report("ui", len(space), "holds" if bad is None else "violated", ce,
                           {"members": k, "period": n, "pinned_first_shift": True})
    elif bad is not None:
        out["ui"] = report("ui", bad + 1, "violated", ce, {"members": k, "period": n})
    else:
        least = min((min(f[0]) for f in facts), default=None)
        out["ui"] = report("ui", samples, "holds", None,
                           {"members": k, "period": n, "min_conflict_free_count": least})

    def scan(value, extreme, crossed):
        best = None
        for block in blocks:
            vals = [value(a) for a in block]
            ext = extreme(vals)
            best = ext if best is None else extreme(best, ext)
            if crossed(ext):
                return block[vals.index(ext)], ext
        return None, best

    a, m = scan(lambda a: min(facts[a][0][r] for r in rows), min, lambda m: m < threshold)
    if a is None:
        out["count"] = report("conflict_free_count", len(space), "holds", None,
                              {"min_count": m, "threshold": threshold})
    else:
        row = rows[[facts[a][0][r] for r in rows].index(m)]
        out["count"] = report("conflict_free_count", a + 1, "violated",
                              {"shifts": list(space[a]), "row": s.labels[row], "count": m},
                              {"min_count": m, "threshold": threshold})

    a, m = scan(lambda a: max(facts[a][1][r] for r in rows), max, lambda m: m > bound)
    if a is None:
        out["gap"] = report("conflict_free_gap", len(space), "holds", None,
                            {"max_gap": m or 0, "bound": bound})
    else:
        row = rows[[facts[a][1][r] for r in rows].index(m)]
        out["gap"] = report("conflict_free_gap", a + 1, "violated",
                            {"shifts": list(space[a]), "row": s.labels[row], "gap": m},
                            {"max_gap": m, "bound": bound})

    a, m = scan(lambda a: facts[a][2], max, lambda m: m > window - 1)
    if a is None:
        out["window"] = report("zero_column_window", len(space), "holds", None,
                               {"max_occupied_run": m or 0, "window": window})
    else:
        out["window"] = report("zero_column_window", a + 1, "violated",
                               {"shifts": list(space[a]), "occupied_run": m,
                                "window": window},
                               {"max_occupied_run": m, "window": window})
    return out


@st.composite
def word_edge_families(draw, exhaustive):
    """Families at the 64-bit word edges, dense members included."""
    n = draw(st.sampled_from([63, 64, 65, 128, 129]))
    k = draw(st.sampled_from([2, 3] if exhaustive and n < 128 else
                             [2] if exhaustive else [2, 3, 4]))
    members = []
    for _ in range(k):
        density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.6, 0.97]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        ones = np.flatnonzero(rng.random(n) < density)
        members.append(BinarySequence(n, tuple(int(x) for x in ones)))
    labels = tuple(f"m{i}" for i in range(k))
    s = SequenceSet(tuple(members), labels)
    protected = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=k,
                              unique=True))
    limits = dict(threshold=draw(st.integers(0, 6)), bound=draw(st.integers(1, n)),
                  window=draw(st.integers(1, n)))
    return s, protected, limits


def engine_reports(s, mode, samples, seed, protected, threshold, bound, window):
    kw = dict(mode=mode, samples=samples, seed=seed)
    return {
        "ui": is_ui(s, **kw).to_json(),
        "count": min_conflict_free_count(s, protected, threshold=threshold, **kw).to_json(),
        "gap": max_conflict_free_gap(s, protected, bound=bound, **kw).to_json(),
        "window": window_audit(s, window=window, **kw).to_json(),
    }


class TestEngineAgainstDenseOracle:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(word_edge_families(exhaustive=True))
    def test_exhaustive_reports(self, case):
        s, protected, limits = case
        args = ("exhaustive", 0, None, protected)
        assert engine_reports(s, *args, **limits) == oracle_reports(s, *args, **limits)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(word_edge_families(exhaustive=False), st.integers(0, 2 ** 32 - 1))
    def test_random_reports(self, case, seed):
        s, protected, limits = case
        args = ("random", 150, seed, protected)
        assert engine_reports(s, *args, **limits) == oracle_reports(s, *args, **limits)

    def test_random_reports_across_blocks(self):
        # the least conflict-free count, 1, turns up in the first block only
        s = SequenceSet((BinarySequence(39, (2, 10, 13, 23, 29, 35)),
                         BinarySequence(39, (5, 18, 20, 21, 27, 31, 38)),
                         BinarySequence(39, (0, 2, 14, 19, 23, 37))), ("a", "b", "c"))
        args = ("random", _BATCH + 300, 9, ["a", "c"])
        limits = dict(threshold=0, bound=39, window=39)
        assert engine_reports(s, *args, **limits) == oracle_reports(s, *args, **limits)


class TestLaterBlockViolations:
    """Exhaustive floor and gap violations first met past the first _BATCH block.

    Member b covers column 0 of member a from shift 98 on and columns 0 and
    2 from shift 100, so the first crossing (0, 98, ...) has count 2 and
    gap 199, while the block's extreme at (0, 100, 151) has count 1 and gap
    200.  The reports, frozen from the per-audit kernels the shared engine
    replaced, name the extreme.
    """

    FAMILY = SequenceSet((BinarySequence(200, (0, 1, 2, 3)),
                          BinarySequence(200, (100, 102)),
                          BinarySequence(200, (50,))), ("a", "b", "c"))

    def test_min_count(self):
        r = min_conflict_free_count(self.FAMILY, ["a"], mode="exhaustive", threshold=3)
        assert r.samples > _BATCH
        assert r.to_json() == {
            "property": "conflict_free_count", "mode": "exhaustive", "samples": 20152,
            "seed": None, "verdict": "violated",
            "counterexample": {"shifts": [0, 100, 151], "row": "a", "count": 1},
            "stats": {"min_count": 1, "threshold": 3}}

    def test_max_gap(self):
        r = max_conflict_free_gap(self.FAMILY, ["a"], mode="exhaustive", bound=198)
        assert r.samples > _BATCH
        assert r.to_json() == {
            "property": "conflict_free_gap", "mode": "exhaustive", "samples": 20152,
            "seed": None, "verdict": "violated",
            "counterexample": {"shifts": [0, 100, 151], "row": "a", "gap": 200},
            "stats": {"max_gap": 200, "bound": 198}}


class TestRotationTable:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(word_edge_families(exhaustive=False))
    def test_matches_shifted_members(self, case):
        s = case[0]
        n = s.period
        table = _rotations(s)  # [word, member, shift]
        bits = np.unpackbits(np.ascontiguousarray(table.transpose(1, 2, 0)).view(np.uint8),
                             axis=-1, bitorder="little")
        want = np.zeros_like(bits)
        for i, seq in enumerate(s.sequences):
            for t in range(n):
                want[i, t, [(x + t) % n for x in seq.ones]] = 1
        assert (bits == want).all()


class TestPrefixBlocks:
    """Exhaustive scans computed in prefix blocks, against the dense oracle.

    A prefix block stacks members 0..k-2 once per prefix row and joins every
    shift of the last member by broadcast; the reports must not depend on
    how those blocks cut the index space.
    """

    def test_violations_mid_row(self):
        s = SequenceSet((BinarySequence(24, (7, 21, 22)), BinarySequence(24, (10, 12)),
                         BinarySequence(24, (5, 13, 21))), ("a", "b", "c"))
        args = ("exhaustive", 0, None, ["a"])
        limits = dict(threshold=2, bound=15, window=5)
        got = engine_reports(s, *args, **limits)
        assert got == oracle_reports(s, *args, **limits)
        assert [got[a]["counterexample"]["shifts"] for a in ("ui", "count", "window")] == \
            [[0, 9, 6], [0, 9, 1], [0, 8, 6]]

    def test_batch_boundary_inside_a_prefix_row(self):
        # At period 130 a block holds 126 prefix rows, so the first _BATCH
        # range ends 4 shifts into prefix row 126, which b completes: there
        # b keeps only 4 conflict-free 1s, with a gap of 121, and the
        # occupied run 70..81 is 12 long.  The first block alone already
        # crosses every limit (its extremes: count 5, gap 98, run 10), and c
        # deepens each extreme further along row 126, past the boundary
        # (count 3, gap 124, run 13).  The reports must name the extreme of
        # the first range, at (0, 126, 0).
        s = SequenceSet((
            BinarySequence(130, (0, 1, 4, 9, 15, 22, 32, 34,
                                 70, 72, 73, 75, 76, 77, 78, 81)),
            BinarySequence(130, (4, 5, 8, 19, 36, 38, 75, 78, 83, 84)),
            BinarySequence(130, (0,))), ("a", "b", "c"))
        args = ("exhaustive", 0, None, ["b"])
        limits = dict(threshold=6, bound=97, window=10)
        got = engine_reports(s, *args, **limits)
        assert got == oracle_reports(s, *args, **limits)
        assert [(got[a]["samples"], got[a]["counterexample"]["shifts"])
                for a in ("count", "gap", "window")] == [(_BATCH - 3, [0, 126, 0])] * 3
        assert (got["count"]["stats"]["min_count"], got["gap"]["stats"]["max_gap"],
                got["window"]["stats"]["max_occupied_run"]) == (4, 121, 12)

    @pytest.mark.parametrize("n", [63, 64, 65])
    @pytest.mark.parametrize("k", [2, 3])
    def test_word_edges_split_over_two_jobs(self, n, k):
        # a's one is first covered by b at shift 35, in the second job's half
        members = [(40,), (0, 3, 5), (1, 2, 7, 20, n - 1)][:k]
        s = SequenceSet(tuple(BinarySequence(n, m) for m in members),
                        ("a", "b", "c")[:k])
        args = ("exhaustive", 0, None, ["a"])
        limits = dict(threshold=1, bound=n // 2, window=6)
        want = oracle_reports(s, *args, **limits)
        if k == 2:
            assert want["ui"]["counterexample"] == {"shifts": [0, 35]}
        assert is_ui(s, jobs=2).to_json() == want["ui"]
        assert engine_reports(s, *args, **limits) == want


def small_family(seed, n, k):
    """k seeded members of period n with mixed densities, and a protected subset."""
    rng = np.random.default_rng(seed)
    members = [BinarySequence(n, tuple(int(x) for x in np.flatnonzero(rng.random(n) < d)))
               for d in rng.choice([0.1, 0.2, 0.35, 0.5], size=k)]
    labels = tuple(f"m{i}" for i in range(k))
    protected = [l for l in labels if rng.random() < 0.6] or [labels[0]]
    return SequenceSet(tuple(members), labels), protected


class TestBlockBudget:
    """Blocks hold at most _BATCH packed words, and never less than one row."""

    def test_random_blocks_cut_each_draw(self, monkeypatch):
        # period 640 stacks 10 words, so a draw of 50 is cut into blocks of 5
        monkeypatch.setattr(verify, "_BATCH", 50)
        blocks = list(_assignment_batches(640, 3, "random", 120, 7))
        assert [(start, len(p)) for start, p, _ in blocks] == [(a, 5) for a in range(0, 120, 5)]
        rng = np.random.default_rng(7)
        drawn = np.concatenate([rng.integers(0, 640, size=(b, 3)) for b in (50, 50, 20)])
        assert (np.concatenate([p for _, p, _ in blocks]) == drawn).all()

    def test_exhaustive_row_over_budget(self, monkeypatch):
        # period 65 stacks 2 words: a prefix row of 65 assignments exceeds
        # the budget of 75, so every block holds exactly one prefix row
        monkeypatch.setattr(verify, "_BATCH", 150)
        blocks = list(_assignment_batches(65, 3, "exhaustive"))
        assert [(start, p.tolist(), last) for start, p, last in blocks] == \
            [(65 * i, [[0, i]], range(65)) for i in range(65)]


class TestJoinOrder:
    """A joined exhaustive block lists its assignments in index order."""

    @pytest.mark.parametrize("kind", ["occupied", "all", "repeated"])
    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_joined_blocks_match_full_rows(self, n, kind):
        # the occupied and all-members stacks, and the protected-row kernel's
        # counts and gaps on repeated members, the last member among them
        s, _ = small_family(5, n, 3)
        if kind == "repeated":
            blocks = [_member_frames(s, [2, 0, 2], gaps) for gaps in (False, True)]
        else:
            rot = _rotations(s)
            blocks = [lambda prefix, last: _stack(rot, prefix, last, kind == "all")]
        for _, prefix, last in _assignment_batches(n, 3, "exhaustive"):
            # the same assignments written out as full rows, one per
            # assignment, the way random mode stacks them
            full = np.column_stack([np.repeat(prefix, len(last), axis=0),
                                    np.tile(np.asarray(last), len(prefix))])
            for values in blocks:
                assert (values(prefix, last) == values(full, None)).all()


def member_frame_oracle(s, idx, space):
    """Counts and gaps [protected member, assignment] from the dense oracle."""
    facts = [stack_facts(s, tuple(shifts)) for shifts in space]
    return [[[f[kind][i] for f in facts] for i in idx] for kind in (0, 1)]


class TestMemberFrames:
    """The protected-row kernel against the dense oracle, assignment by assignment."""

    @staticmethod
    def check(s, idx, draw):
        counts, gaps = member_frame_oracle(s, idx, draw.tolist())
        assert _member_frames(s, idx, False)(draw, None).tolist() == counts
        assert _member_frames(s, idx, True)(draw, None).tolist() == gaps
        return counts, gaps

    @pytest.mark.parametrize("weight", [0, 1, 63, 64, 65, 128])
    def test_protected_weights_at_word_edges(self, weight):
        n = 200
        rng = np.random.default_rng(weight)
        members = [BinarySequence(n, tuple(sorted(rng.choice(n, weight, replace=False))))]
        for density in (0.02, 0.1, 0.3):
            ones = np.flatnonzero(rng.random(n) < density)
            members.append(BinarySequence(n, tuple(int(x) for x in ones)))
        s = SequenceSet(tuple(members), ("a", "b", "c", "d"))
        counts, gaps = self.check(s, [0, 2], rng.integers(0, n, size=(300, 4)))
        if weight >= 2:  # covers that differ from draw to draw
            assert len(set(counts[0])) > 1 and len(set(gaps[0])) > 1

    def test_covered_run_wrapping_round_the_row(self):
        # b covers a's 1s at 40 and 0, indices 4 and 0 of a: one covered
        # run round the row's edge, leaving the gap 30 -> 10 of 30
        s = SequenceSet((BinarySequence(50, (0, 10, 20, 30, 40)),
                         BinarySequence(50, (0, 40)),
                         BinarySequence(50, (5,))), ("a", "b", "c"))
        assert self.check(s, [0], np.array([[0, 0, 0], [7, 7, 3]])) == \
            ([[3, 3]], [[30, 30]])

    def test_every_one_covered(self):
        s = SequenceSet((BinarySequence(50, (0, 10, 20)),
                         BinarySequence(50, (0, 10, 20, 33))), ("a", "b"))
        assert self.check(s, [0, 1], np.array([[0, 0], [4, 4]])) == \
            ([[0, 0], [1, 1]], [[50, 50], [50, 50]])

    def test_exactly_one_conflict_free_one(self):
        s = SequenceSet((BinarySequence(50, (0, 10, 20)),
                         BinarySequence(50, (0, 10, 45))), ("a", "b"))
        assert self.check(s, [0, 1], np.array([[0, 0], [9, 9]])) == \
            ([[1, 1], [1, 1]], [[50, 50], [50, 50]])

    def test_repeated_protected_labels(self):
        s, _ = small_family(3, 65, 4)
        self.check(s, [1, 0, 1, 3, 3], np.random.default_rng(3).integers(0, 65, size=(200, 4)))
        args = ("random", 150, 3, ["m1", "m0", "m1", "m3", "m3"])
        limits = dict(threshold=3, bound=20, window=65)
        assert engine_reports(s, *args, **limits) == oracle_reports(s, *args, **limits)

    @pytest.mark.parametrize("batch", [7, 29, 50])
    @pytest.mark.parametrize("n", [12, 65])
    def test_exhaustive_blocks_with_small_batches(self, monkeypatch, n, batch):
        # blocks of several prefix rows at n = 12, one prefix row at n = 65
        monkeypatch.setattr(verify, "_BATCH", batch)
        s, _ = small_family(n, n, 3)
        idx = [2, 0]
        space = [(0, *rest) for rest in itertools.product(range(n), repeat=2)]
        counts, gaps = member_frame_oracle(s, idx, space)
        for want, values in ((counts, _member_frames(s, idx, False)),
                             (gaps, _member_frames(s, idx, True))):
            got = np.concatenate([values(prefix, last) for _, prefix, last
                                  in _assignment_batches(n, 3, "exhaustive")], axis=1)
            assert got.tolist() == want


class TestSmallBatches:
    """The range fold at many range edges, with _BATCH patched down.

    With a few assignments per range, one exhaustive prefix row crosses
    several range boundaries, blocks and ranges cut each other at shifting
    offsets, and random mode draws many short blocks.  Each family is
    audited under limits nothing crosses, under limits that only the
    extremes of the whole space cross, which are often met past the first
    range, and under limits a little short of those extremes, which an
    earlier range may cross with a milder extreme.  Every report must match
    the dense oracle at the same batch size.
    """

    @pytest.mark.parametrize("k, periods, batches, mode, samples", [
        (2, (30, 65), (7, 11), "exhaustive", 0),
        (3, (12, 17), (7, 29, 50), "exhaustive", 0),
        (3, (13, 40), (7, 50), "random", 120),
    ], ids=["exhaustive_k2", "exhaustive_k3", "random"])
    def test_reports(self, monkeypatch, k, periods, batches, mode, samples):
        late = 0
        for batch, n, seed in itertools.product(batches, periods, range(4)):
            s, protected = small_family(seed, n, k)
            monkeypatch.setattr(verify, "_BATCH", batch)
            for r in self.crossed_reports(s, (mode, samples, seed, protected)):
                late += r["samples"] > batch
        assert late

    @pytest.mark.parametrize("k, n, batch, mode, samples, seeds", [
        (3, 640, 50, "random", 120, 3),
        (3, 65, 150, "exhaustive", 0, 1),
    ], ids=["random_10_words", "exhaustive_2_words"])
    def test_blocks_within_ranges(self, monkeypatch, k, n, batch, mode, samples, seeds):
        # Random mode cuts each draw of 50 into blocks of 5.  An exhaustive
        # prefix row of 65 exceeds the budget of 75, so each block is one
        # row.  Some crossing range must reach its extreme in a later block
        # than the one it starts in.
        monkeypatch.setattr(verify, "_BATCH", batch)
        later = 0
        for seed in range(seeds):
            s, protected = small_family(seed, n, k)
            starts = [b[0] for b in _assignment_batches(n, k, mode, samples, seed)]
            for r in self.crossed_reports(s, (mode, samples, seed, protected)):
                a = r["samples"] - 1
                later += any(a - a % batch < b <= a for b in starts)
        assert later

    @staticmethod
    def crossed_reports(s, args):
        """Engine against oracle under limits nothing crosses, limits the
        extremes cross and limits up to two steps short of them; returns the
        violated floor, gap and window reports."""
        n = s.period
        where = (verify._BATCH, n, args[2])  # batch, period, seed
        lax = dict(threshold=0, bound=n, window=n)
        want = oracle_reports(s, *args, **lax)
        assert engine_reports(s, *args, **lax) == want, where
        low = want["count"]["stats"]["min_count"]
        high = want["gap"]["stats"]["max_gap"]
        run = want["window"]["stats"]["max_occupied_run"]
        crossed = []
        for slack in (0, 1, 2):  # crossed by the extremes and by values short of them
            limits = dict(threshold=low + 1 + slack, bound=high - 1 - slack,
                          window=max(1, run - slack))
            want = oracle_reports(s, *args, **limits)
            assert engine_reports(s, *args, **limits) == want, (*where, slack)
            crossed += [r for a, r in want.items() if a != "ui" and r["verdict"] == "violated"]
        return crossed
