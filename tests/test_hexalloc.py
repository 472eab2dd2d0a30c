import itertools
import json
import math
import re

import numpy as np
import pytest

from protoseq.hexalloc import (HexCell, PositionLogEntry, ReusePlan,
                               cell_center, cell_distance, check_fermion,
                               cluster_size, quantize, quantize_many)


class TestGeometry:
    def test_cell_center(self):
        assert cell_center(HexCell(0, 0), 1.0) == (0.0, 0.0)
        x, y = cell_center(HexCell(1, 0), 1.0)
        assert x == pytest.approx(math.sqrt(3)) and y == 0.0
        x, y = cell_center(HexCell(0, 1), 1.0)
        assert (x, y) == pytest.approx((math.sqrt(3) / 2, 1.5))

    def test_quantize_origin(self):
        assert quantize(0.0, 0.0, 1.0) == HexCell(0, 0)

    def test_quantize_idempotent_on_centers(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                for h in (0.5, 1.0, 2.7):
                    c = HexCell(m, n)
                    x, y = cell_center(c, h)
                    assert quantize(x, y, h) == c

    def test_quantize_tie_prefers_smaller_cell(self):
        # midpoint between the (0,0) and (1,0) centers
        assert quantize(math.sqrt(3) / 2, 0.0, 1.0) == HexCell(0, 0)

    def test_quantize_returns_nearest(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x, y = rng.uniform(-20, 20, size=2)
            h = float(rng.choice([0.5, 1.0, 3.0]))
            c = quantize(x, y, h)
            dist = math.hypot(*(np.subtract((x, y), cell_center(c, h))))
            # circumradius of a cell is h, so the nearest center is within h
            assert dist <= h + 1e-9
            for dm in (-1, 0, 1):
                for dn in (-1, 0, 1):
                    other = HexCell(c.m + dm, c.n + dn)
                    od = math.hypot(*(np.subtract((x, y), cell_center(other, h))))
                    assert dist <= od + 1e-9

    def test_quantize_rejects_bad_h(self):
        with pytest.raises(ValueError):
            quantize(0.0, 0.0, 0.0)

    def test_cell_distance_exact_values(self):
        assert cell_distance(HexCell(0, 0), HexCell(1, 1), 1.0) == 3.0
        assert cell_distance(HexCell(0, 0), HexCell(1, 0), 2.0) == pytest.approx(2 * math.sqrt(3))
        assert cell_distance(HexCell(2, -1), HexCell(2, -1), 1.0) == 0.0

    def test_cell_distance_symmetric(self):
        a, b = HexCell(3, -2), HexCell(-1, 4)
        assert cell_distance(a, b, 1.3) == cell_distance(b, a, 1.3)

    def test_cell_distance_matches_centers(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = HexCell(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            b = HexCell(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            direct = math.hypot(*(np.subtract(cell_center(a, 1.7),
                                              cell_center(b, 1.7))))
            assert cell_distance(a, b, 1.7) == pytest.approx(direct)


def cluster_size_double_loop(R, h):
    """Slow oracle: every (b1, b2) with b1 >= b2 >= 0 up to the same bound."""
    d = math.sqrt(3.0) * h
    target = (2.0 * R / d) ** 2
    if abs(target - round(target)) < 1e-9:
        target = round(target)
    bound = math.isqrt(int(math.ceil(target))) + 2
    best = None
    for b1 in range(bound + 1):
        for b2 in range(b1 + 1):
            v = b1 * b1 + b1 * b2 + b2 * b2
            if v >= target and (best is None or v < best[0]
                                or (v == best[0] and (b1, b2) < best[1:])):
                best = (v, b1, b2)
    return best


class TestClusterSize:
    def test_matches_double_loop_oracle(self):
        d = math.sqrt(3.0)
        # criterion 7's exact-boundary radii (targets 4, 5 and 9) and its
        # wide-area radius, then every target 1..300 hit exactly, just
        # below and just above, at several cell radii
        cases = [(d * 1.0, 1.0), (d * math.sqrt(5) / 2, 1.0), (d * 1.5, 1.0),
                 (500.0, 1.0), (1.5, 1.0), (1.94, 1.0), (2.55, 1.0)]
        for h in (1.0, 0.37, 150.0):
            for v in range(1, 301):
                R = d * h * math.sqrt(v) / 2
                cases += [(R, h), (R * (1 - 1e-7), h), (R * (1 + 1e-7), h)]
        rng = np.random.default_rng(11)
        cases += [(float(R), 1.0) for R in rng.uniform(0.01, 40.0, size=200)]
        for R, h in cases:
            assert cluster_size(R, h) == cluster_size_double_loop(R, h), (R, h)

    def test_frozen_small(self):
        assert cluster_size(math.sqrt(3), 1.0) == (4, 2, 0)
        assert cluster_size(1.94, 1.0) == (7, 2, 1)
        assert cluster_size(2.55, 1.0) == (9, 3, 0)

    def test_frozen_wide_area(self):
        G, b1, b2 = cluster_size(500.0, 1.0)
        assert (G, b1, b2) == (333337, 392, 271)
        # achieved reuse spacing just clears the 2R requirement
        assert math.sqrt(3.0) * math.sqrt(G) >= 1000.0

    def test_exact_boundary_snaps(self):
        # target (2R/d)^2 is exactly 3 up to float noise; G = 3 must qualify
        assert cluster_size(1.5, 1.0)[0] == 3

    def test_minimality(self):
        for R, h in [(1.94, 1.0), (2.55, 1.0), (7.3, 0.5)]:
            G, b1, b2 = cluster_size(R, h)
            target = (2.0 * R / (math.sqrt(3.0) * h)) ** 2
            assert G >= target - 1e-6
            smaller = {a * a + a * b + b * b
                       for a in range(60) for b in range(a + 1)}
            assert not any(target <= v < G for v in smaller)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cluster_size(0.0, 1.0)
        with pytest.raises(ValueError):
            cluster_size(1.0, -2.0)

    @pytest.mark.parametrize("R, h, named", [
        (math.inf, 1.0, "R=inf h=1.0"),
        (math.nan, 1.0, "R=nan h=1.0"),
        (1.0, math.inf, "R=1.0 h=inf"),
        (-math.inf, 1.0, "R=-inf h=1.0"),
        # finite inputs whose threshold (2R/d)^2 overflows
        (1e300, 1e-300, "R=1e+300 h=1e-300"),
        (1e200, 1.0, "R=1e+200 h=1.0"),
    ])
    def test_rejects_non_finite_inputs_and_threshold(self, R, h, named):
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            cluster_size(R, h)


class TestReusePlan:
    def test_witness_identity_enforced(self):
        with pytest.raises(ValueError):
            ReusePlan(1.0, 1.0, 4, 1, 1)

    def test_representatives_cover_all_cosets(self):
        plan = ReusePlan(1.0, math.sqrt(3), 4, 2, 0)
        reps = plan.representative_cells()
        assert len(reps) == 4
        assert sorted(plan.coset_index(c) for c in reps) == [0, 1, 2, 3]
        for c in reps:
            assert plan.representative(c) == c

    def test_lattice_invariance(self):
        plan = ReusePlan(1.0, 1.94, 7, 2, 1)
        v1 = (plan.b1, plan.b2)
        v2 = (-plan.b2, plan.b1 + plan.b2)
        rng = np.random.default_rng(9)
        for _ in range(200):
            c = HexCell(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)))
            a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            moved = HexCell(c.m + a * v1[0] + b * v2[0],
                            c.n + a * v1[1] + b * v2[1])
            assert plan.coset_index(moved) == plan.coset_index(c)

    def test_cochannel_spacing_on_patch(self):
        plan = ReusePlan(1.0, 1.94, 7, 2, 1)
        groups = {}
        for m in range(-6, 7):
            for n in range(-6, 7):
                groups.setdefault(plan.coset_index(HexCell(m, n)), []).append(
                    HexCell(m, n))
        assert sorted(groups) == list(range(7))
        closest = min(cell_distance(a, b, plan.h)
                      for cells in groups.values()
                      for a, b in itertools.combinations(cells, 2))
        # minimum cochannel spacing equals d * sqrt(G)
        assert closest == pytest.approx(math.sqrt(21))
        assert closest >= 2 * plan.R

    def test_identity_labels(self):
        plan = ReusePlan(1.0, math.sqrt(3), 4, 2, 0)
        assert plan.allocate(HexCell(0, 0)) == "0"
        labels = {plan.allocate(HexCell(m, n))
                  for m in range(4) for n in range(4)}
        assert labels == {"0", "1", "2", "3"}

    def test_from_geometry_with_labels(self):
        plan = ReusePlan.from_geometry(1.0, math.sqrt(3),
                                       labels=["a", "b", "c", "d", "spare"])
        assert plan.G == 4
        used = {plan.allocate(HexCell(m, n)) for m in range(6) for n in range(6)}
        assert used == {"a", "b", "c", "d"}

    def test_from_geometry_needs_enough_labels(self):
        with pytest.raises(ValueError):
            ReusePlan.from_geometry(1.0, math.sqrt(3), labels=["a", "b"])

    def test_assignment_validation(self):
        with pytest.raises(ValueError):  # wrong size
            ReusePlan(1.0, math.sqrt(3), 4, 2, 0, {"0,0": "a"})
        with pytest.raises(ValueError):  # duplicate labels
            ReusePlan(1.0, math.sqrt(3), 4, 2, 0,
                      {"0,0": "a", "0,1": "a", "1,0": "b", "1,1": "c"})
        with pytest.raises(ValueError):  # keys not canonical representatives
            ReusePlan(1.0, math.sqrt(3), 4, 2, 0,
                      {"9,9": "a", "0,1": "b", "1,0": "c", "1,1": "d"})

    def test_json_roundtrip(self, tmp_path):
        plan = ReusePlan.from_geometry(1.0, math.sqrt(3),
                                       labels=["a", "b", "c", "d"])
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = ReusePlan.load(str(path))
        assert loaded == plan
        assert json.loads(path.read_text())["G"] == 4

    def test_wide_area_plan(self):
        plan = ReusePlan.from_geometry(1.0, 500.0)
        assert plan.G == 333337
        c = HexCell(123456, -98765)
        assert 0 <= plan.coset_index(c) < plan.G
        assert plan.allocate(c) == str(plan.coset_index(c))


def quantize_oracle(x, y, h):
    """The scalar 3x3 scan quantize_many replaced, with math.hypot."""
    d = math.sqrt(3.0) * h
    nf = 2.0 * y / (d * math.sqrt(3.0))
    mf = x / d - 0.5 * nf
    m0, n0 = round(mf), round(nf)
    best = None
    for m in (m0 - 1, m0, m0 + 1):
        for n in (n0 - 1, n0, n0 + 1):
            cx, cy = cell_center(HexCell(m, n), h)
            dist = math.hypot(x - cx, y - cy)
            if best is None or dist < best[0] - 1e-9 or (
                    abs(dist - best[0]) <= 1e-9 and (m, n) < best[1]):
                best = (dist, (m, n))
    return HexCell(*best[1])


def allocate_oracle(plan, c):
    if plan.assignment is None:
        return str(plan.coset_index(c))
    return plan.assignment[plan.rep_key(plan.representative(c))]


class TestArrayForms:
    # points where two or three centers are equally near: edge midpoints
    # and cell corners, at several cells and radii
    TIES = [(math.sqrt(3) / 2, 0.0, 1.0), (0.0, 1.0, 1.0), (math.sqrt(3) / 4, 0.75, 1.0),
            (-math.sqrt(3) / 2, 0.0, 1.0), (0.0, -1.0, 1.0), (math.sqrt(3), 1.0, 2.0),
            (3 * math.sqrt(3) / 2, 1.5, 1.0), (-math.sqrt(3) / 4, -0.75, 1.0)]

    def test_quantize_many_against_scalar_scan(self):
        rng = np.random.default_rng(11)
        for h in (0.5, 1.0, 150.0):
            x = rng.uniform(-40 * h, 40 * h, size=400)
            y = rng.uniform(-40 * h, 40 * h, size=400)
            m, n = quantize_many(x, y, h)
            assert m.dtype == n.dtype == np.int64
            assert list(zip(m.tolist(), n.tolist())) == [
                tuple(quantize_oracle(a, b, h)) for a, b in zip(x.tolist(), y.tolist())]

    def test_ties_go_to_the_smaller_cell(self):
        for h in (1.0, 2.0):
            pts = [(x, y) for x, y, hh in self.TIES if hh == h]
            m, n = quantize_many(*zip(*pts), h)
            want = [tuple(quantize_oracle(x, y, h)) for x, y in pts]
            assert list(zip(m.tolist(), n.tolist())) == want
            assert [tuple(quantize(x, y, h)) for x, y in pts] == want
        assert quantize(math.sqrt(3) / 2, 0.0, 1.0) == HexCell(0, 0)

    def test_quantize_many_shapes_and_inputs(self):
        m, n = quantize_many([], [], 1.0)
        assert m.shape == n.shape == (0,)
        with pytest.raises(ValueError, match="h must be positive"):
            quantize_many([0.0], [0.0], -1.0)
        for bad in (math.nan, math.inf, 1e17):
            with pytest.raises(ValueError, match="coordinates must be finite and within"):
                quantize_many([0.0, bad], [0.0, 0.0], 1.0)

    @pytest.mark.parametrize("labels", [None, list("abcdefg")])
    def test_allocate_many_against_scalar_lookup(self, labels):
        plan = ReusePlan.from_geometry(1.0, 1.94, labels=labels)
        m, n = (a.ravel() for a in np.meshgrid(np.arange(-9, 10), np.arange(-9, 10)))
        got = plan.allocate_many(m, n).tolist()
        assert got == [allocate_oracle(plan, HexCell(a, b))
                       for a, b in zip(m.tolist(), n.tolist())]
        assert all(type(lab) is str for lab in got)
        for cell in ((2 ** 63, 0), (2 ** 62, 0), (0, -(2 ** 63) + 1)):
            with pytest.raises(ValueError, match="too large for 64-bit coset arithmetic"):
                plan.allocate(HexCell(*cell))
        assert [plan.allocate(HexCell(a, b)) for a, b in zip(m.tolist(), n.tolist())] == got


class TestCheckFermion:
    def test_no_breach(self):
        log = [PositionLogEntry("u1", 0, HexCell(0, 0)),
               PositionLogEntry("u2", 0, HexCell(1, 0)),
               PositionLogEntry("u1", 1, HexCell(0, 1)),
               PositionLogEntry("u2", 1, HexCell(0, 0))]
        assert check_fermion(log) == []

    def test_breach_reported_sorted(self):
        log = [PositionLogEntry("u2", 3, HexCell(5, -1)),
               PositionLogEntry("u1", 3, HexCell(5, -1)),
               PositionLogEntry("u3", 1, HexCell(0, 0)),
               PositionLogEntry("u4", 1, HexCell(0, 0))]
        assert check_fermion(log) == [
            (1, HexCell(0, 0), ("u3", "u4")),
            (3, HexCell(5, -1), ("u1", "u2")),
        ]

    def test_duplicate_consistent_entries_ok(self):
        log = [PositionLogEntry("u1", 0, HexCell(0, 0)),
               PositionLogEntry("u1", 0, HexCell(0, 0))]
        assert check_fermion(log) == []

    def test_conflicting_duplicate_rejected(self):
        log = [PositionLogEntry("u1", 0, HexCell(0, 0)),
               PositionLogEntry("u1", 0, HexCell(1, 0))]
        with pytest.raises(ValueError):
            check_fermion(log)

    def test_spaced_users_never_collide(self):
        # two points farther apart than the cell diameter 2h cannot quantize
        # to the same cell; drive a jittered swarm and audit every superframe
        h = 0.5
        rng = np.random.default_rng(42)
        log = []
        for k in range(30):
            pts = []
            while len(pts) < 20:
                cand = rng.uniform(0, 50, size=2)
                if all(math.hypot(*(cand - p)) > 2 * h + 0.05 for p in pts):
                    pts.append(cand)
            for i, p in enumerate(pts):
                log.append(PositionLogEntry(f"u{i}", k, quantize(p[0], p[1], h)))
        assert check_fermion(log) == []

    def test_mobility_margin_preserves_exclusion(self):
        # 60 km/h sampled every 100 ms moves a user at most ~1.667 m, so
        # spacing above 2h + 2*v*dt at one sample keeps cells distinct at
        # the next sample too, before any re-check
        h = 0.5
        v_dt = (60.0 / 3.6) * 0.1
        margin = 2 * h + 2 * v_dt
        rng = np.random.default_rng(7)
        log = []
        sf = 0
        for _ in range(20):
            pts = []
            while len(pts) < 12:
                cand = rng.uniform(0, 60, size=2)
                if all(math.hypot(*(cand - p)) > margin + 0.01 for p in pts):
                    pts.append(cand)
            for i, p in enumerate(pts):
                log.append(PositionLogEntry(f"u{i}", sf, quantize(p[0], p[1], h)))
            ang = rng.uniform(0, 2 * math.pi, size=12)
            r = rng.uniform(0, v_dt, size=12)
            for i, p in enumerate(pts):
                q = p + r[i] * np.array([math.cos(ang[i]), math.sin(ang[i])])
                log.append(PositionLogEntry(f"u{i}", sf + 1, quantize(q[0], q[1], h)))
            sf += 2
        assert check_fermion(log) == []

    def test_cohabiting_users_detected(self):
        h = 0.5
        x, y = 12.3, 4.56
        log = [PositionLogEntry("a", 0, quantize(x, y, h)),
               PositionLogEntry("b", 0, quantize(x + 0.01, y, h))]
        breaches = check_fermion(log)
        assert len(breaches) == 1
        assert breaches[0][2] == ("a", "b")
