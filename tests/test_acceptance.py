"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL summary line (shown with `pytest -s`, or in
the captured output of a failing test).  Expected values are frozen from
independent reference computations; none are tuned to the implementation.
"""

import itertools
import math

import numpy as np
import pytest

from protoseq.crt import (ExpandedSetSpec, crt0_set, expanded_set,
                          select_expansion_base)
from protoseq.hexalloc import HexCell, ReusePlan, cell_center, cluster_size
from protoseq.netsim import (Scenario, TimingModel, User,
                             adversarial_offset_search, check_block_free,
                             delta_p, frame_offset_audit, run_superframe)
from protoseq.rscpc import RsCpcParams, baseline_compare, pad_set, rs_cpc
from protoseq.sequences import (SequenceSet, cyclic_order, cyclic_shift,
                                min_separation, xcorr_profile)
from protoseq.verify import (StackedMatrix, conflict_free_positions, is_ui,
                             max_conflict_free_gap, min_conflict_free_count,
                             window_audit)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_pairwise_xcorr_bound():
    # exhaustive pairwise cross-correlation <= 1, exact, for every listed
    # (p, q) with p prime, gcd(p, q) = 1 and q >= 2p - 1.  The bound needs
    # every generator difference to be a unit mod p, which only prime p
    # guarantees.  The composite-p value 2 of crt0_set(4, 7) is pinned by
    # test_crt.py::TestCrt0Set::test_composite_p_has_correlation_two,
    # test_verify.py::TestXcorrBoundAudit::test_violated_composite_base and
    # test_cli.py::TestVerify::test_xcorr_violated.
    pairs = [(2, 3), (3, 5), (3, 7), (5, 9), (5, 11), (7, 13)]
    worst = {}
    for p, q in pairs:
        s = crt0_set(p, q)
        m = 0
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                m = max(m, int(xcorr_profile(s.sequences[i], s.sequences[j]).max()))
        worst[(p, q)] = m
    bad = {pq: m for pq, m in worst.items() if m > 1}
    report(1, not bad,
           f"max pairwise cross-correlation per family: {worst}"
           + (f"; exceeds 1 for {sorted(bad)}" if bad else ""))


def test_criterion_02_ui_exhaustive():
    r1 = is_ui(crt0_set(3, 5), mode="exhaustive")
    r2 = is_ui(crt0_set(5, 9), mode="exhaustive", jobs=4)
    ok = r1.holds and r2.holds and r1.samples == 225 and r2.samples == 45 ** 4
    report(2, ok,
           f"crt0(3,5): {r1.verdict} over {r1.samples}; "
           f"crt0(5,9): {r2.verdict} over {r2.samples} assignments")


def test_criterion_03_min_separation():
    results = {}
    for p in (3, 5, 7, 11, 13):
        s = crt0_set(p, 2 * p - 1)
        results[p] = min(min_separation(x) for x in s.sequences)
    ok = all(results[p] >= p for p in results)
    report(3, ok, f"min circular spacing by p (bound = p, exact): {results}")


def test_criterion_04_zero_column_window():
    r_small = window_audit(crt0_set(3, 5), mode="exhaustive")
    details = [f"crt0(3,5) exhaustive {r_small.samples}: {r_small.verdict}"]
    ok = r_small.holds
    for p, q in ((5, 9), (7, 13)):
        r = window_audit(crt0_set(p, q), mode="random", samples=100_000,
                         seed=20240817)
        ok = ok and r.holds and r.samples == 100_000
        details.append(f"crt0({p},{q}) random {r.samples}: {r.verdict} "
                       f"(longest occupied run {r.stats['max_occupied_run']} "
                       f"< window {r.stats['window']})")
    report(4, ok, "; ".join(details))


def test_criterion_04_exhaustive_crt0_5_9():
    # the whole shift space of crt0(5,9), first shift pinned, at the
    # default window 2p = 10
    r = window_audit(crt0_set(5, 9), mode="exhaustive")
    ok = (r.holds and r.samples == 45 ** 4
          and r.stats == {"max_occupied_run": 6, "window": 10})
    report(4, ok, f"crt0(5,9) exhaustive {r.samples}: {r.verdict} "
                  f"(longest occupied run {r.stats['max_occupied_run']} "
                  f"< window {r.stats['window']})")


def test_criterion_05_expanded_family_floor_and_gap():
    n, field, k = select_expansion_base(3, 3)
    base = rs_cpc(RsCpcParams(n=n, p=field, k=k))
    es = expanded_set(ExpandedSetSpec(base_set=base, p=3, M=3))
    sel = es.select(list(es.meta["guard_labels"])
                    + list(es.meta["open_labels"])[: es.meta["M"] - 1])
    cnt = min_conflict_free_count(sel, samples=10_000, seed=20240817)
    gap = max_conflict_free_gap(sel, samples=10_000, seed=20240817)
    ok = (cnt.holds and gap.holds
          and cnt.stats["threshold"] == 12 and gap.stats["bound"] == 816)
    report(5, ok,
           f"10000 seeded assignments of {sel.labels}: protected rows keep "
           f">= {cnt.stats['min_count']} conflict-free 1s (floor 12) and "
           f"gap <= {gap.stats['max_gap']} (bound 816)")


def test_criterion_06_code_structure():
    s = rs_cpc(RsCpcParams(n=5, p=11, k=3))
    seqs = s.sequences
    checks = {
        "codewords == 11": len(s) == 11,
        "period == 55": s.period == 55,
        "constant weight 5": all(x.weight == 5 for x in seqs),
        "all cyclic orders == 55": all(cyclic_order(x) == 55 for x in seqs),
    }
    canon = {min(tuple(cyclic_shift(x, t).ones) for t in range(55)) for x in seqs}
    checks["pairwise cyclically distinct"] = len(canon) == 11
    worst_pair = max(int(xcorr_profile(a, b).max())
                     for a, b in itertools.combinations(seqs, 2))
    checks["pairwise cyclic xcorr <= 2"] = worst_pair <= 2
    dmin = min(2 * 5 - 2 * int(xcorr_profile(a, b).max())
               for a, b in itertools.combinations(seqs, 2))
    dself = min(2 * 5 - 2 * int(xcorr_profile(x, x)[1:].max()) for x in seqs)
    checks["cyclic min distance >= 6"] = min(dmin, dself) >= 6
    failed = [name for name, good in checks.items() if not good]
    report(6, not failed,
           f"(5,11,3) code: {len(checks)} structural checks"
           + (f"; failing: {failed}" if failed else " all hold"))


def test_criterion_07_cluster_size_and_reuse_soundness():
    # targets are (2R/d)^2 values; h = 1 puts d = sqrt(3)
    d = math.sqrt(3.0)
    small = {4: cluster_size(d * 1.0, 1.0)[0],        # (2R/d)^2 = 4
             5: cluster_size(d * math.sqrt(5) / 2, 1.0)[0],
             9: cluster_size(d * 1.5, 1.0)[0]}
    ok = small == {4: 4, 5: 7, 9: 9}

    G, b1, b2 = cluster_size(500.0, 1.0)
    # the commonly quoted value for this radius is 333333, which is not
    # a Loeschian number; the nearest admissible cluster is slightly larger
    discrepancy = abs(G - 333_333)
    ok = ok and G >= 10 ** 6 / 3 and discrepancy <= 200

    plan = ReusePlan(1.0, 500.0, G, b1, b2)
    idx = np.empty((200, 200), dtype=np.int64)
    for m in range(200):
        for n in range(200):
            idx[m, n] = plan.coset_index(HexCell(m, n))
    # any same-index pair in the patch must be >= 2R apart; with this G the
    # reuse vectors are ~1000 m long, so the 200x200 patch holds no repeats
    unique = len(np.unique(idx)) == idx.size
    ok = ok and unique
    report(7, ok,
           f"small targets {small}; G = {G} (witness {b1},{b2}; "
           f"off the quoted 333333 by {discrepancy} <= 200); 200x200 patch "
           f"indexes all distinct: {unique} (so no cochannel pair < 1000 m)")


def _sim_matches_ui_oracle(labels, positions, shifts_grid):
    base = crt0_set(3, 5)
    member = {lab: base.get(lab) for lab in set(labels)}
    stack = SequenceSet(tuple(member[lab] for lab in labels),
                        tuple(f"u{i}" for i in range(len(labels))))
    tm = TimingModel(1e-3, 15, 3, 0, 0)
    mismatches = 0
    total = 0
    for rest in shifts_grid:
        shifts = (0, *rest)
        users = [User(f"u{i}", x, y, lab, sh, 0.0)
                 for i, ((x, y), lab, sh) in enumerate(zip(positions, labels, shifts))]
        sc = Scenario(tm, 100.0, 1.0, len(users), users, base,
                      slot_synchronized=True)
        log = run_superframe(sc, seed=0)
        sim_holds = check_block_free(log, sc).holds
        m = StackedMatrix.from_set(stack, shifts)
        oracle_holds = all(conflict_free_positions(m, r)
                           for r in range(len(labels)))
        total += 1
        if sim_holds != oracle_holds:
            mismatches += 1
    return mismatches, total


def test_criterion_08_simulator_matches_shift_oracle():
    # with zero clock and propagation misalignment, the simulator verdict
    # must equal the stacked-matrix analysis at integer shifts
    n = 15
    mism3, tot3 = _sim_matches_ui_oracle(
        ["g0", "g2", "*"],
        [(0.0, 0.0), (10.0, 0.0), (0.0, 12.0)],
        itertools.product(range(n), repeat=2))
    mism4, tot4 = _sim_matches_ui_oracle(
        ["g0", "g2", "*", "g0"],
        [(0.0, 0.0), (10.0, 0.0), (0.0, 12.0), (10.0, 12.0)],
        itertools.product(range(n), repeat=3))
    ok = mism3 == 0 and mism4 == 0
    report(8, ok,
           f"3 users: {mism3}/{tot3} grid mismatches; "
           f"4 users (one label reused): {mism4}/{tot4} grid mismatches")


def _padded_scenario(tau, dc, seed_placement=20240817):
    R, h = 500.0, 150.0
    dp = delta_p(R, tau)
    pad = dc + dp
    family = pad_set(crt0_set(17, 33), pad)
    cfg_users = {"random_users": 50, "area": [0, 0, 3000, 2600],
                 "seed": seed_placement}
    from protoseq.netsim import _random_users
    users = _random_users(cfg_users, h, family)
    plan = ReusePlan.from_geometry(h, R, labels=list(family.labels))
    tm = TimingModel(tau, family.period, 3, dc, dp)
    return Scenario(tm, R, h, 17, users, family, plan=plan)


def test_criterion_09_padding_sufficiency():
    combos = [(tau, dc) for tau in (1e-3, 1e-6) for dc in (0, 1, 2)]
    runs_per_combo = 100
    failures = []
    for tau, dc in combos:
        sc = _padded_scenario(tau, dc)
        for seed in range(runs_per_combo):
            rep = check_block_free(run_superframe(sc, seed=seed), sc)
            if not rep.holds:
                failures.append((tau, dc, seed))
                break
    # negative control: same misalignment, no padding
    base = crt0_set(3, 5)
    users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3),
             User("c", 0, 350, "*", 11)]
    control = Scenario(TimingModel(1e-3, 15, 3, 2, 1), 500.0, 1.0, 3,
                       users, base)
    found = adversarial_offset_search(control, step_slots=1.0)
    ok = not failures and found is not None
    report(9, ok,
           f"{len(combos)} (tau, clock-bound) combos x {runs_per_combo} seeded "
           f"runs of 50 users: {'all hold' if not failures else failures}; "
           f"unpadded control violated at offsets "
           f"{None if found is None else found[0]}")


def test_criterion_10_baseline_table_and_frame_audit():
    ok = True
    details = []
    for M, G, delta in ((3, 7, 0), (5, 37, 2)):
        table = baseline_compare(M, G, delta)
        by = {r["scheme"]: r for r in table["rows"]}
        floor = table["floor"]
        assert floor == math.ceil(8 * M * M / 9)
        ok = ok and by["tdma"]["frame_slots"] == (delta + 1) * G
        ok = ok and by["prop2"]["frame_slots"] == 2 * by["prop2"]["params"]["n"] * by["prop2"]["params"]["p"]
        for scheme in ("prop1", "prop2"):
            ok = ok and by[scheme]["meets_floor"]
        details.append(f"(M={M}, G={G}, delta={delta}): floor {floor}, "
                       + ", ".join(f"{r['scheme']}={r['frame_slots']}"
                                   for r in table["rows"]))

    # every scenario simulated here must keep arrivals within one frame of
    # the transmit frame
    audits = []
    pads = pad_set(crt0_set(3, 5), 3)
    users = [User("a", 0, 0, "g0", 7), User("b", 200, 0, "g2", 3),
             User("c", 0, 350, "*", 11)]
    sc1 = Scenario(TimingModel(1e-3, 60, 3, 2, 1), 500.0, 1.0, 3, users, pads)
    audits.append(frame_offset_audit(run_superframe(sc1, seed=1), sc1))
    sc2 = _padded_scenario(1e-6, 2)
    audits.append(frame_offset_audit(run_superframe(sc2, seed=1), sc2))
    ok = ok and all(audits)
    report(10, ok, "; ".join(details)
           + f"; frame-offset audits on simulated scenarios: {audits}")
