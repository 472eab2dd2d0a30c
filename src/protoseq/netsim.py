"""Slot-level simulator for feedback-free transmission schedules.

Time is kept in slot units internally (one slot = tau seconds); seconds
appear only at the I/O boundary.  A scenario fixes user positions for one
superframe, resolves each user's sequence (explicitly or through a reuse
plan), draws clock offsets within the configured bound, and produces a
reception log: one row per packet arrival at a user within hearing range.
A reception is contention-free when its arrival interval overlaps no other
arrival at that receiver (any positive-measure overlap destroys both) and
does not overlap the receiver's own transmit slots (half-duplex).

The block-free audit then checks, per receiver and per hearing-range
neighbor, that every normal frame of the receiver's local clock contains
at least one contention-free reception.  Frame length equals the sequence
period, so a scenario's sequence set must have period L.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _EXPORTS
from ._sizing import _config_int, _require_keys
from .config import sequences_from_config
from .hexalloc import HexCell, ReusePlan, cell_center, quantize_many
from .sequences import SequenceSet

__all__ = list(_EXPORTS["netsim"])

SPEED_OF_LIGHT = 299_792_458.0
# loss_cause codes 1, 2 and 3: another arrival at the receiver overlaps the
# reception, the receiver transmits during it, or both
LOSS_CAUSES = ("overlap", "half_duplex", "both")
# rows per block of the array passes: (pair, user) tests of the densest-disk
# count, and log rows in run_superframe, check_block_free and
# frame_offset_audit.  Their temporaries stay this size at any user count
_BLOCK_ROWS = 1 << 14
# offset combinations adversarial_offset_search scans at most
_COMBO_CAP = 200_000
# the keys a scenario config must give (Scenario.from_config)
_REQUIRED_KEYS = ("sequences", "tau_s", "R_m", "L", "F", "delta_c_slots", "M", "h_m",
                  "users")


def delta_p(R_m: float, tau_s: float) -> int:
    """Propagation bound in slots: smallest count covering R at light speed."""
    if R_m < 0 or tau_s <= 0:
        raise ValueError("R must be >= 0 and tau > 0")
    return math.ceil(R_m / (SPEED_OF_LIGHT * tau_s))


@dataclass(frozen=True)
class TimingModel:
    """Slot, frame, and superframe durations plus misalignment bounds."""

    tau_s: float
    frame_slots: int          # L
    frames: int               # F
    delta_c_slots: int        # clock-offset bound
    delta_p_slots: int        # propagation bound

    def __post_init__(self):
        if self.tau_s <= 0:
            raise ValueError("tau must be positive")
        if self.frame_slots < 1 or self.frames < 1:
            raise ValueError("frame_slots and frames must be >= 1")
        if self.delta_c_slots < 0 or self.delta_p_slots < 0:
            raise ValueError("misalignment bounds must be >= 0")
        if self.delta_slots > self.frame_slots:
            raise ValueError(
                f"total misalignment {self.delta_slots} exceeds frame length "
                f"{self.frame_slots}")

    @property
    def delta_slots(self) -> int:
        return self.delta_c_slots + self.delta_p_slots

    @property
    def guard_s(self) -> float:
        return self.tau_s * self.delta_slots

    @property
    def frame_s(self) -> float:
        return self.frame_slots * self.tau_s

    @property
    def superframe_s(self) -> float:
        return self.frames * self.frame_slots * self.tau_s + self.guard_s

    @property
    def active_slots(self) -> int:
        """Slots in which transmissions may start (guard excluded)."""
        return self.frames * self.frame_slots


@dataclass
class User:
    id: str
    x: float
    y: float
    label: str | None = None      # sequence label; None -> from reuse plan
    shift: int = 0                # cyclic shift applied to the sequence
    offset_s: float | None = None  # local clock offset; None -> drawn per run


@dataclass
class Scenario:
    """One superframe's users, schedules and timing, validated.

    Validation also fixes the geometry every consumer reads: `positions`
    (k x 2), `hearing`, the (receiver, transmitter) index arrays of every
    ordered pair closer than R, receiver-major with ascending transmitters,
    `hearing_dist` and `hearing_delay_slots`, the distance and propagation
    delay of each of those pairs (no delay when slot-synchronised),
    `label_index`, each user's position in the sequence set, and the user
    columns the simulator reads: `ids`, `shifts` and `offsets_s`.  No k x k
    array is formed: candidate pairs come from a grid of buckets at least
    2R wide (see `_near_pairs`), and the checks run on the pairs within 2R.
    """

    timing: TimingModel
    R_m: float
    h_m: float
    M: int
    users: list[User]
    sequence_set: SequenceSet
    plan: ReusePlan | None = None
    slot_synchronized: bool = False

    def __post_init__(self):
        if self.R_m <= 0 or self.h_m <= 0:
            raise ValueError("R and h must be positive")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        self.ids: tuple[str, ...] = tuple(u.id for u in self.users)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("user ids must be unique")
        if self.sequence_set.period != self.timing.frame_slots:
            raise ValueError(
                f"sequence period {self.sequence_set.period} must equal frame "
                f"length {self.timing.frame_slots}")
        self.shifts: np.ndarray = np.array([u.shift for u in self.users], dtype=np.int64)
        # NaN where the offset is drawn per run: numpy reads None as NaN
        self.offsets_s: np.ndarray = np.array([u.offset_s for u in self.users],
                                              dtype=np.float64)
        self._check_offsets(np.array([u.offset_s is None for u in self.users], dtype=bool))
        self.positions: np.ndarray = np.array(
            [(u.x, u.y) for u in self.users], dtype=np.float64).reshape(-1, 2)
        self._resolve_labels()
        tol = 1e-9 * max(1.0, self.R_m)
        near = _near_pairs(self.positions, 2 * self.R_m + 2 * tol)
        i, j, d = near
        hears = (d < self.R_m) & (i != j)
        self.hearing: tuple[np.ndarray, np.ndarray] = (i[hears], j[hears])
        self.hearing_dist: np.ndarray = d[hears]
        self.hearing_delay_slots: np.ndarray = (
            np.zeros(self.hearing_dist.size) if self.slot_synchronized
            else self.hearing_dist / (SPEED_OF_LIGHT * self.timing.tau_s))
        self._check_allocation_constraint(near)
        self._check_interferer_cap(near, tol)
        self._check_propagation_bound()

    def _check_offsets(self, drawn: np.ndarray):
        # a drawn offset lies inside the bound; a given NaN does not
        bound = self.timing.tau_s * self.timing.delta_c_slots
        off = self.offsets_s
        bad = np.flatnonzero(~((-1e-12 <= off) & (off <= bound + 1e-12)) & ~drawn)
        if bad.size:
            raise ValueError(f"offset of {self.ids[bad[0]]!r} outside [0, {bound}]")

    def _resolve_labels(self):
        x, y = self.positions.T
        m, n = quantize_many(x, y, self.h_m)
        names = self.sequence_set.labels
        index = {lab: i for i, lab in enumerate(names)}
        planned = np.array([u.label is None for u in self.users], dtype=bool)
        wanted = np.array([u.label for u in self.users], dtype=object)
        if planned.any() and self.plan is not None:
            wanted[planned] = self.plan.allocate_many(m[planned], n[planned]).tolist()
        # -1: not in the sequence set, or neither given nor planned
        label = np.array([index.get(lab, -1) for lab in wanted.tolist()], dtype=np.int64)
        bad = np.flatnonzero(label < 0)
        if bad.size:
            b = int(bad[0])
            if self.plan is None and planned[b]:
                raise ValueError(f"user {self.ids[b]!r} has no label and no plan given")
            raise ValueError(f"label {wanted[bad[0]]!r} not in the sequence set")
        if planned.any():
            # the first user whose cell an earlier user holds, and that user
            _, first, cell = np.unique(np.stack((m, n), axis=1), axis=0,
                                       return_index=True, return_inverse=True)
            again = np.flatnonzero(first[cell] != np.arange(m.size))
            if again.size:
                b = int(again[0])
                a = int(first[cell[b]])
                raise ValueError(
                    f"users {self.ids[a]!r} and {self.ids[b]!r} occupy the "
                    f"same cell {(int(m[b]), int(n[b]))}; one cell holds at most one user")
        self.label_index: np.ndarray = label
        self.resolved_labels: tuple[str, ...] = tuple(
            np.array(names, dtype=object)[label].tolist())
        self.label_from_plan: np.ndarray = planned
        self._cell_mn = (m, n)

    @property
    def cells(self) -> tuple[HexCell, ...]:
        """Each user's hex cell."""
        return tuple(map(HexCell, *(a.tolist() for a in self._cell_mn)))

    def _check_allocation_constraint(self, near):
        # plan-derived labels must respect the reuse distance; explicitly
        # labeled users are the scenario author's responsibility (collision
        # scenarios are legitimate experiments)
        i, j, d = near
        planned = self.label_from_plan
        lab = self.label_index
        clash = np.flatnonzero((i < j) & planned[i] & planned[j] & (lab[i] == lab[j])
                               & (d < 2 * self.R_m * (1 - 1e-12)))
        if clash.size:
            n = clash[0]
            a, b = int(i[n]), int(j[n])
            raise ValueError(
                f"users {self.ids[a]!r} and {self.ids[b]!r} share "
                f"label {self.resolved_labels[a]!r} at distance "
                f"{float(d[n]):.3f} m < 2R = {2 * self.R_m:.3f} m")

    def _check_interferer_cap(self, near, tol):
        """The densest closed disk of radius R must hold at most M users.

        It is enough to test disks centred at a user and disks with two
        users on the boundary.  The centre of a two-point disk through
        users i and j lies R from i (d/2 <= R + tol/2 when the pair is
        just over 2R apart), so every user within R + tol of the centre
        lies within 2R + 2 tol of i, with room left for rounding.  Counting
        each centre against `near`, the pairs within 2R + 2 tol, of i alone
        therefore finds every user the disk holds, and the count is exact.
        Pairs are taken in blocks of about `_BLOCK_ROWS` (pair, user)
        tests, so the work arrays stay the same size at any user count.
        """
        R = self.R_m
        i, j, d = near
        x, y = self.positions[:, 0], self.positions[:, 1]
        worst = int(np.bincount(i[d <= R + tol], minlength=1).max())

        two = np.flatnonzero((i < j) & (d > 0) & (d <= 2 * R + tol))
        a, b, d = i[two], j[two], d[two]
        mx, my = (x[a] + x[b]) / 2, (y[a] + y[b]) / 2
        t = np.sqrt(np.maximum(R * R - (d / 2) ** 2, 0.0)) / d
        ux, uy = -(y[b] - y[a]), (x[b] - x[a])

        # `near` is sorted by i: row i's neighbourhood is j[first[i]:][:size[i]]
        size = np.bincount(i, minlength=x.size)
        first = np.cumsum(size) - size
        jx, jy = x[j], y[j]
        tests = size[a]
        cuts = np.searchsorted(np.cumsum(tests),
                               np.arange(_BLOCK_ROWS, tests.sum(), _BLOCK_ROWS))
        bounds = [0, *cuts.tolist(), a.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = slice(lo, hi)
            member = _ranges(first[a[block]], tests[block])
            px, py = jx[member], jy[member]
            starts = np.cumsum(tests[block]) - tests[block]
            for sign in (1.0, -1.0):
                cx = mx[block] + sign * t[block] * ux[block]
                cy = my[block] + sign * t[block] * uy[block]
                inside = _within(px - np.repeat(cx, tests[block]),
                                 py - np.repeat(cy, tests[block]), R + tol)
                if starts.size:
                    worst = max(worst, int(np.add.reduceat(inside, starts,
                                                           dtype=np.int64).max()))
        self.max_disk_users = worst
        if worst > self.M:
            raise ValueError(
                f"{worst} users fit in one hearing disk; exceeds M = {self.M}")

    def _check_propagation_bound(self):
        # an arrival later than delta_p slots falls outside the window the
        # frame structure and the simulator's slot bookkeeping allow for;
        # slot-synchronised delays are zero, so they never exceed it
        rx, tx = self.hearing
        over = np.nonzero(self.hearing_delay_slots > self.timing.delta_p_slots)[0]
        if over.size:
            n = int(over[0])
            b, a = int(rx[n]), int(tx[n])
            raise ValueError(
                f"users {self.ids[b]!r} and {self.ids[a]!r} are "
                f"{float(self.hearing_dist[n]):.3f} m apart: propagation delay "
                f"{float(self.hearing_delay_slots[n]):.3f} slots exceeds delta_p = "
                f"{self.timing.delta_p_slots} slots")

    # -- config I/O ---------------------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict, base_dir: str = ".") -> "Scenario":
        _require_keys(cfg, _REQUIRED_KEYS, "scenario config")
        L, F, delta_c, M = (_config_int(cfg[key], f"scenario config {key!r}")
                            for key in ("L", "F", "delta_c_slots", "M"))
        tau, R, h = (float(cfg[key]) for key in ("tau_s", "R_m", "h_m"))
        seq = sequences_from_config(cfg["sequences"], base_dir)
        slot_sync = bool(cfg.get("slot_synchronized", False))
        timing = TimingModel(tau, L, F, delta_c, 0 if slot_sync else delta_p(R, tau))
        plan, p = None, cfg.get("plan")
        if p == "auto":
            plan = ReusePlan.from_geometry(h, R, labels=list(seq.labels))
        elif isinstance(p, dict) and "file" in p:
            plan = ReusePlan.load(os.path.join(base_dir, p["file"]))
        elif p is not None:
            plan = ReusePlan.from_json(p)
        users_cfg = cfg["users"]
        if isinstance(users_cfg, dict):
            users = _random_users(users_cfg, h, seq)
        else:
            users = []
            for i, u in enumerate(users_cfg):
                _require_keys(u, ("id", "x", "y"), f"user entry {i}")
                users.append(User(str(u["id"]), float(u["x"]), float(u["y"]), u.get("label"),
                                  _config_int(u.get("shift", 0), f"user entry {i} 'shift'"),
                                  None if u.get("offset_s") is None else float(u["offset_s"])))
        return cls(timing, R, h, M, users, seq, plan, slot_sync)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            cfg = json.load(fh)
        return cls.from_config(cfg, base_dir=os.path.dirname(path) or ".")


def _near_pairs(xy: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered pairs (i, j) of points at most `reach` apart, i == j
    included, sorted by (i, j), with their distances.

    Points are bucketed on a square grid wider than `reach`, so a pair
    lies in one bucket or in two adjacent ones: each point is tested only
    against the points of its own bucket and the 8 around it.  The 1e-9
    margin on the width outweighs the rounding of the bucket coordinates.
    The grid widens further only when the points span more than 2^20
    buckets, which keeps bucket keys far from overflow.  The distance of
    (i, j) is hypot(x_i - x_j, y_i - y_j), which is the same for (j, i).
    """
    k = xy.shape[0]
    if k == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0)
    x, y = xy[:, 0], xy[:, 1]
    x0, y0 = x.min(), y.min()
    side = max(reach, float(max(x.max() - x0, y.max() - y0)) / (1 << 20)) * (1 + 1e-9)
    bx = ((x - x0) // side).astype(np.int64)
    by = ((y - y0) // side).astype(np.int64)
    # a spare row on each side of a column keeps by +- 1 inside the column
    rows = int(by.max()) + 3
    key = bx * rows + by + 1
    order = np.argsort(key)
    sorted_key = key[order]
    # the keys of the 3 x 3 buckets centred on each point's own
    block = (key[:, None] + (np.arange(-1, 2)[:, None] * rows + np.arange(-1, 2)).ravel()).ravel()
    lo = np.searchsorted(sorted_key, block, side="left")
    count = np.searchsorted(sorted_key, block, side="right") - lo
    i = np.repeat(np.arange(k).repeat(9), count)
    j = order[_ranges(lo, count)]
    keep = _within(x[i] - x[j], y[i] - y[j], reach)
    i, j = i[keep], j[keep]
    order = np.argsort(i * k + j)
    i, j = i[order], j[order]
    return i, j, np.hypot(x[i] - x[j], y[i] - y[j])


def _within(dx: np.ndarray, dy: np.ndarray, r: float) -> np.ndarray:
    """hypot(dx, dy) <= r, elementwise.  The squared distance decides every
    entry farther than a relative 1e-12 from the boundary, where its
    rounding cannot flip the answer; np.hypot, ten times dearer, decides
    the rest, so the result is that of np.hypot alone."""
    s = dx * dx
    s += dy * dy
    r2 = r * r
    inside = s <= r2 * (1 + 1e-12)
    edge = np.flatnonzero(inside & (s >= r2 * (1 - 1e-12)))
    inside[edge] = np.hypot(dx[edge], dy[edge]) <= r
    return inside


def _random_users(spec: dict, h: float, seq: SequenceSet) -> list[User]:
    """Users at distinct hex-cell centers inside a rectangle, seeded."""
    _require_keys(spec, ("random_users", "area"), "users spec")
    count = _config_int(spec["random_users"], "users spec 'random_users'", non_negative=True)
    seed = spec.get("seed")
    if seed is not None:
        seed = _config_int(seed, "users spec 'seed'", non_negative=True)
    area = spec["area"]
    try:
        xmin, ymin, xmax, ymax = (float(v) for v in area)
    except (TypeError, ValueError):
        xmin = ymin = xmax = ymax = math.nan
    # a string is read letter by letter, so it is refused whole
    if isinstance(area, str) or not all(map(math.isfinite, (xmin, ymin, xmax, ymax))):
        raise ValueError(f"users spec 'area' must be four numbers [xmin, ymin, "
                         f"xmax, ymax], got {area!r}")
    if xmin > xmax or ymin > ymax:
        raise ValueError(f"users spec 'area' {area!r} has a min above its max")
    rng = np.random.default_rng(seed)
    # cover the area generously, then keep centers inside, in (m, n) order
    d = math.sqrt(3) * h
    m_lo, m_hi = int(xmin / d) - 3, int(xmax / d) + 3
    n_lo, n_hi = int(2 * ymin / (d * math.sqrt(3))) - 3, int(2 * ymax / (d * math.sqrt(3))) + 3
    m, n = (a.ravel() for a in np.meshgrid(np.arange(m_lo, m_hi + 1),
                                           np.arange(n_lo, n_hi + 1), indexing="ij"))
    x, y = cell_center(HexCell(m, n), h)
    inside = np.flatnonzero((xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax))
    if inside.size < count:
        raise ValueError(f"area holds only {inside.size} cells, need {count}")
    pick = inside[rng.permutation(inside.size)[:count]]
    shifts = rng.integers(0, seq.period, size=count)
    return [User(f"u{idx}", px, py, None, sh, None)
            for idx, (px, py, sh) in enumerate(zip(x[pick].tolist(), y[pick].tolist(),
                                                   shifts.tolist()))]


# ---------------------------------------------------------------------------
# simulation

@dataclass
class ReceptionLog:
    """Columnar packet-arrival log for one superframe.

    Times are in slot units; the CSV view converts to seconds.  Only what
    was measured is stored; arrival ends and contention-free flags derive from it.
    """

    user_ids: tuple[str, ...]
    offsets_slots: np.ndarray         # per user, resolved for this run
    tau_s: float
    tx: np.ndarray                    # user index
    rx: np.ndarray                    # user index
    slot: np.ndarray                  # transmitter-local slot of the packet
    arrive_slots: np.ndarray          # arrival-interval start at receiver
    # per row: 0 contention-free, else a bit mask of LOSS_CAUSES (not in the CSV)
    loss_cause: np.ndarray

    def __len__(self) -> int:
        return int(self.tx.size)

    @property
    def end_slots(self) -> np.ndarray:
        return self.arrive_slots + 1.0

    @property
    def contention_free(self) -> np.ndarray:
        return self.loss_cause == 0

    def loss_counts(self) -> dict[str, int]:
        """Lost receptions by cause; they sum to len(self) minus the
        contention-free ones."""
        count = np.bincount(self.loss_cause, minlength=len(LOSS_CAUSES) + 1)
        return {name: int(c) for name, c in zip(LOSS_CAUSES, count[1:])}

    def to_csv(self, path: str) -> None:
        ids = self.user_ids
        with open(path, "w") as fh:
            fh.write("tx,rx,slot,t_arrive_s,t_end_s,contention_free\n")
            # a block of rows at a time keeps the Python lists small
            for lo in range(0, len(self), 1 << 10):
                part = slice(lo, lo + (1 << 10))
                start = self.arrive_slots[part]
                rows = zip(self.tx[part].tolist(), self.rx[part].tolist(),
                           self.slot[part].tolist(), (start * self.tau_s).tolist(),
                           ((start + 1.0) * self.tau_s).tolist(),
                           (self.loss_cause[part] == 0).tolist())
                fh.writelines(f"{ids[tx]},{ids[rx]},{slot},{ta!r},{te!r},{int(cf)}\n"
                              for tx, rx, slot, ta, te, cf in rows)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices that concatenate the ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - ends + lens, lens))


def _receiver_order(rx: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The permutation that sorts each receiver's rows by start, ties kept
    in row order; `rx` is non-decreasing and rows stay within their receiver.

    One integer sort orders the rows by (receiver, floor(start), row): its
    key packs the receiver and floor(start), each less the block's least,
    above the row index.  floor is monotone and equal starts share a floor,
    so only runs of rows with one receiver and one floor can still be out
    of start order; one lexsort over just those rows puts each run in
    (start, row) order.  A block whose three fields need more than 63 bits
    raises ValueError rather than let the key wrap.
    """
    rows = start.size
    if rows == 0:
        return np.zeros(0, dtype=np.int64)
    floor = np.floor(start).astype(np.int64)
    floor -= floor.min()
    rx_span, floor_span = int(rx[-1] - rx[0]), int(floor.max())
    rx_bits, floor_bits, row_bits = (rx_span.bit_length(), floor_span.bit_length(),
                                     (rows - 1).bit_length())
    if rx_bits + floor_bits + row_bits > 63:
        raise ValueError(f"a block of {rows} rows over {rx_span + 1} receivers and "
                         f"{floor_span + 1} slots needs a sort key of "
                         f"{rx_bits + floor_bits + row_bits} bits; at most 63 fit")
    key = rx.astype(np.int64)
    key -= key[0]
    key <<= floor_bits
    key |= floor
    key <<= row_bits
    key |= np.arange(rows)
    key.sort()
    order = key & ((1 << row_bits) - 1)
    key >>= row_bits
    tie = key[1:] == key[:-1]
    shared = np.zeros(rows, dtype=bool)
    shared[1:] = tie
    shared[:-1] |= tie
    at = np.flatnonzero(shared)
    if at.size:
        run = order[at]
        order[at] = run[np.lexsort((start[run], key[at]))]
    return order


def run_superframe(sc: Scenario, seed: int | None = None) -> ReceptionLog:
    """Simulate one superframe; deterministic for a given scenario and seed.

    Rows are grouped by receiver in ascending order; within a receiver
    they are sorted by arrival, ties kept in (transmitter, slot) order.
    """
    rng = np.random.default_rng(seed)
    k = len(sc.ids)
    tm = sc.timing
    n = sc.sequence_set.period
    total = tm.active_slots

    draws = rng.uniform(0.0, float(tm.delta_c_slots), size=k)
    t = np.where(np.isnan(sc.offsets_s), draws, sc.offsets_s / tm.tau_s)
    label_of = sc.label_index

    # each user's transmit slots over the superframe, user-major: one period
    # of its shifted ones, repeated frame by frame.  Their order within a
    # user does not matter, since no two of them arrive at one time and the
    # rows are sorted by arrival below
    members = sc.sequence_set.sequences
    weight = np.array([len(member.ones) for member in members], dtype=np.int64)
    ones = np.array([o for member in members for o in member.ones], dtype=np.int64)
    w = weight[label_of]
    owner = np.repeat(np.arange(k, dtype=np.int64), w)
    shifted = (ones[_ranges((np.cumsum(weight) - weight)[label_of], w)] + sc.shifts[owner]) % n
    per_frame = np.repeat(w, tm.frames)
    all_slots = shifted[_ranges(np.repeat(np.cumsum(w) - w, tm.frames), per_frame)]
    all_slots += np.repeat(np.tile(np.arange(0, total, n), k), per_frame)
    lens = w * tm.frames

    # half duplex: lost when the arrival overlaps one of the receiver's own
    # transmit slots, i.e. an own slot j with j - 1 < rel < j + 1.  Row r of
    # `pattern` marks one period of label r's ones; its extra last column
    # repeats column 0, so the slot after k0 is always at index + 1.
    pattern = np.zeros((len(members), n + 1), dtype=bool)
    pattern[np.repeat(np.arange(len(members)), weight), ones] = True
    pattern[:, n] = pattern[:, 0]
    pattern = pattern.ravel()
    row_of = label_of * (n + 1)       # each user's row of `pattern`

    # one row per (receiver b, transmitter a, slot of a), b-major.  The
    # columns are allocated once; the rows are built and classified in
    # blocks of whole receivers, about `_BLOCK_ROWS` rows each, and a
    # receiver with more rows has a block of its own.  Every test below
    # compares rows of one receiver, so no test crosses a block.
    rx_pair, tx_pair = sc.hearing
    per_pair = lens[tx_pair]
    first_slot = np.cumsum(lens) - lens
    # the pairs where a receiver begins, then the pair count, and the first
    # log row of each
    edge = np.append(np.flatnonzero(np.diff(rx_pair, prepend=-1)), rx_pair.size)
    row_at = np.concatenate(([0], np.cumsum(per_pair)))[edge]
    size = int(row_at[-1])
    tx = np.empty(size, dtype=np.int32)
    rx = np.empty(size, dtype=np.int32)
    slot = np.empty(size, dtype=np.int64)
    start = np.empty(size, dtype=np.float64)
    cause = np.empty(size, dtype=np.uint8)
    i = 0
    while i < edge.size - 1:
        j = max(i + 1, int(np.searchsorted(row_at, row_at[i] + _BLOCK_ROWS, "right")) - 1)
        pairs, out = slice(edge[i], edge[j]), slice(row_at[i], row_at[j])
        i = j

        # the block's rows are written straight into its slice of the columns
        a, reps = tx_pair[pairs], per_pair[pairs]
        b_tx, b_rx, b_slot, b_start = tx[out], rx[out], slot[out], start[out]
        b_tx[:] = np.repeat(a.astype(np.int32), reps)
        b_rx[:] = np.repeat(rx_pair[pairs].astype(np.int32), reps)
        b_slot[:] = all_slots[_ranges(first_slot[a], reps)]
        b_start[:] = t[b_tx]
        b_start += b_slot
        b_start += np.repeat(sc.hearing_delay_slots[pairs], reps)

        # sort each receiver's rows by arrival, ties kept in (a, slot) order.
        # Rows stay within their receiver, so rx needs no reordering
        order = _receiver_order(b_rx, b_start)
        for column in (b_tx, b_slot, b_start):
            column[:] = column[order]
        del order

        # cause bit 0: sorted by start within a receiver, so the latest
        # earlier end is the previous row's end, one slot after its start;
        # any positive-measure overlap destroys both
        b_cause = cause[out]
        overlap = (b_rx[1:] == b_rx[:-1]) & (b_start[1:] < b_start[:-1] + 1.0)
        b_cause[:1] = 0
        b_cause[1:] = overlap
        b_cause[:-1] |= overlap

        # cause bit 1: own slot k0 = floor(rel) counts when 0 <= k0 < total,
        # and own slot k0 + 1 when rel is not whole and 0 <= k0 + 1 < total.
        # One unsigned compare tests each range: a negative k0 wraps past total
        rel = b_start - t[b_rx]
        k0 = np.floor(rel)
        inexact = rel != k0
        del rel
        k0 = k0.astype(np.int64)
        at = k0 - sc.shifts[b_rx]
        at %= n
        at += row_of[b_rx]
        lost = pattern[at]
        lost &= k0.view(np.uint64) < total
        at += 1
        k0 += 1
        inexact &= pattern[at]
        inexact &= k0.view(np.uint64) < total
        lost |= inexact
        b_cause |= lost.view(np.uint8) << 1
        # nothing of this block outlives it
        del overlap, k0, at, lost, inexact

    return ReceptionLog(sc.ids, t, tm.tau_s, tx, rx, slot, start, cause)


# ---------------------------------------------------------------------------
# audits

@dataclass(eq=False)
class BlockFreeReport:
    """The block-free verdict, its violations and stats, and `count`: the
    contention-free receptions of each hearing pair in each normal frame,
    pair-major, the pairs being `pairs` (receiver and transmitter index
    arrays).  `counts`, one dict per entry of `count`, is built the first
    time it is read; callers that read only `holds` and `stats` skip it."""

    verdict: str
    violations: list[dict]
    stats: dict
    user_ids: tuple[str, ...]
    pairs: tuple[np.ndarray, np.ndarray]
    count: np.ndarray

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def exit_code(self) -> int:
        return 0 if self.holds else 1

    @cached_property
    def counts(self) -> list[dict]:
        ids, (rx, tx) = self.user_ids, self.pairs
        normal = self.stats["normal_frames"]
        return [{"receiver": ids[b], "transmitter": ids[a], "frame": f, "count": c}
                for b, a, f, c in zip(np.repeat(rx, len(normal)).tolist(),
                                      np.repeat(tx, len(normal)).tolist(),
                                      normal * rx.size, self.count.tolist())]

    def to_json(self) -> dict:
        return {"property": "block_free", "verdict": self.verdict,
                "violations": self.violations, "counts": self.counts,
                "stats": self.stats}


def check_block_free(log: ReceptionLog, sc: Scenario) -> BlockFreeReport:
    """Every neighbor must be heard contention-free in every normal frame.

    Frames are indexed on the receiver's local clock; a reception belongs
    to the frame containing its arrival-interval start.  The first and
    last frames absorb boundary effects and are not audited.
    """
    F, L = sc.timing.frames, sc.timing.frame_slots
    if F < 3:
        raise ValueError("block-free audit needs F >= 3 (no normal frame otherwise)")
    normal = range(1, F - 1)
    nf = len(normal)
    k = len(sc.ids)

    # contention-free receptions per (rx, tx, normal frame): `want` lists
    # the keys of the hearing pairs times the normal frames, ascending.  The
    # log is read in blocks of `_BLOCK_ROWS` rows, and each block's bincount
    # spans only the entries of `want` between its least and greatest hit,
    # so a block's temporaries do not grow with the hearing pairs
    rx, tx = sc.hearing
    want = (((rx * k + tx) * nf)[:, None] + np.arange(nf)).ravel()
    count = np.zeros(want.size, dtype=np.int64)
    cf = 0
    for lo in range(0, len(log), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        b_rx = log.rx[rows]
        frame_of = np.floor((log.arrive_slots[rows] - log.offsets_slots[b_rx])
                            / L).astype(np.int64)
        keep = log.loss_cause[rows] == 0
        cf += int(np.count_nonzero(keep))
        keep &= (frame_of >= 1) & (frame_of <= F - 2)
        key = ((b_rx[keep].astype(np.int64) * k + log.tx[rows][keep]) * nf
               + frame_of[keep] - 1)
        at = np.searchsorted(want, key)
        hit = at < want.size
        hit[hit] = want[at[hit]] == key[hit]
        at = at[hit]
        if at.size:
            first = int(at.min())
            part = np.bincount(at - first)
            count[first:first + part.size] += part

    ids = log.user_ids
    pair, frame = np.divmod(np.flatnonzero(count == 0), nf)
    violations = [{"receiver": ids[b], "transmitter": ids[a], "frame": f}
                  for b, a, f in zip(rx[pair].tolist(), tx[pair].tolist(),
                                     (frame + normal.start).tolist())]
    verdict = "holds" if not violations else "violated"
    stats = {"users": k, "neighbor_pairs": int(rx.size),
             "normal_frames": list(normal),
             "min_count": int(count.min()) if count.size else None,
             "receptions": len(log), "contention_free": cf}
    return BlockFreeReport(verdict, violations, stats, ids, (rx, tx), count)


def frame_offset_audit(log: ReceptionLog, sc: Scenario) -> bool:
    """Packets sent in frame i must arrive within receiver frames i-1..i+1.

    The log is read in blocks of `_BLOCK_ROWS` rows, so the temporaries stay
    the same size however long the log is.
    """
    L = sc.timing.frame_slots
    eps = 1e-9
    for a in range(0, len(log), _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        i_tx = log.slot[rows] // L
        arrive = log.arrive_slots[rows]
        offset = log.offsets_slots[log.rx[rows]]
        if not (np.all(arrive - offset >= (i_tx - 1) * L - eps)
                and np.all(arrive + 1.0 - offset <= (i_tx + 2) * L + eps)):
            return False
    return True


def adversarial_offset_search(sc: Scenario, step_slots: float = 0.5):
    """Grid-search user clock offsets for a block-free violation.

    Scans every combination of offsets in [0, tau*delta_c] at the given
    slot-unit step, at most `_COMBO_CAP` of them.  Returns (offsets_s,
    report) for the first violating one, or None when the grid is clean.
    """
    from itertools import product as iproduct

    if not step_slots > 0:
        raise ValueError(f"step_slots must be positive, got {step_slots!r}")
    tm = sc.timing
    # the last point is clamped: a step that does not divide delta_c overshoots it
    vals = np.minimum(np.arange(0.0, tm.delta_c_slots + step_slots / 2, step_slots),
                      tm.delta_c_slots)
    combos = len(vals) ** len(sc.ids)
    if combos > _COMBO_CAP:
        raise ValueError(f"{combos} offset combinations exceed cap {_COMBO_CAP}")
    # only the offsets change, so the validated geometry carries over; the
    # clamped grid lies inside the clock bound
    trial = copy.copy(sc)
    for combo in iproduct(vals, repeat=len(sc.ids)):
        trial.offsets_s = np.array(combo) * tm.tau_s
        report = check_block_free(run_superframe(trial, seed=0), trial)
        if not report.holds:
            return trial.offsets_s.tolist(), report
    return None
