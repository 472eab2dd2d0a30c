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
from dataclasses import dataclass, replace

import numpy as np

from .config import sequences_from_config
from .hexalloc import HexCell, ReusePlan, cell_center, quantize
from .sequences import SequenceSet

__all__ = [
    "SPEED_OF_LIGHT",
    "delta_p",
    "TimingModel",
    "User",
    "Scenario",
    "ReceptionLog",
    "run_superframe",
    "BlockFreeReport",
    "check_block_free",
    "frame_offset_audit",
    "adversarial_offset_search",
]

SPEED_OF_LIGHT = 299_792_458.0
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
    (k x 2), the pairwise distance matrix `dist` (k x k) and `hearing`, the
    (receiver, transmitter) index arrays of every ordered pair closer than
    R, receiver-major with ascending transmitters.
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
        ids = [u.id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueError("user ids must be unique")
        if self.sequence_set.period != self.timing.frame_slots:
            raise ValueError(
                f"sequence period {self.sequence_set.period} must equal frame "
                f"length {self.timing.frame_slots}")
        self._check_offsets()
        self._resolve_labels()
        self._build_geometry()
        self._check_allocation_constraint()
        self._check_interferer_cap()
        self._check_propagation_bound()

    def _check_offsets(self):
        bound = self.timing.tau_s * self.timing.delta_c_slots
        for u in self.users:
            if u.offset_s is not None and not -1e-12 <= u.offset_s <= bound + 1e-12:
                raise ValueError(f"offset of {u.id!r} outside [0, {bound}]")

    def _resolve_labels(self):
        labels = []
        cells = []
        from_plan = []
        for u in self.users:
            cell = quantize(u.x, u.y, self.h_m)
            cells.append(cell)
            if u.label is not None:
                lab = u.label
            else:
                if self.plan is None:
                    raise ValueError(f"user {u.id!r} has no label and no plan given")
                lab = self.plan.allocate(cell)
            from_plan.append(u.label is None)
            if lab not in self.sequence_set.labels:
                raise ValueError(f"label {lab!r} not in the sequence set")
            labels.append(lab)
        if any(from_plan):
            seen: dict[HexCell, str] = {}
            for u, c in zip(self.users, cells):
                if c in seen:
                    raise ValueError(
                        f"users {seen[c]!r} and {u.id!r} occupy the same cell "
                        f"{tuple(c)}; one cell holds at most one user")
                seen[c] = u.id
        self.resolved_labels: tuple[str, ...] = tuple(labels)
        self.cells: tuple[HexCell, ...] = tuple(cells)
        self.label_from_plan: tuple[bool, ...] = tuple(from_plan)

    def _build_geometry(self):
        xy = np.array([(u.x, u.y) for u in self.users],
                      dtype=np.float64).reshape(-1, 2)
        x, y = xy[:, 0], xy[:, 1]
        dist = x[:, None] - x[None, :]
        np.hypot(dist, y[:, None] - y[None, :], out=dist)
        hears = dist < self.R_m
        np.fill_diagonal(hears, False)
        self.positions: np.ndarray = xy
        self.dist: np.ndarray = dist
        self.hearing: tuple[np.ndarray, np.ndarray] = np.nonzero(hears)

    def _check_allocation_constraint(self):
        # plan-derived labels must respect the reuse distance; explicitly
        # labeled users are the scenario author's responsibility (collision
        # scenarios are legitimate experiments)
        lab = np.array(self.resolved_labels, dtype=str)
        planned = np.array(self.label_from_plan, dtype=bool)
        clash = (planned[:, None] & planned[None, :]
                 & (lab[:, None] == lab[None, :])
                 & (self.dist < 2 * self.R_m * (1 - 1e-12)))
        first, second = np.nonzero(np.triu(clash, 1))
        if first.size:
            i, j = int(first[0]), int(second[0])
            raise ValueError(
                f"users {self.users[i].id!r} and {self.users[j].id!r} share "
                f"label {self.resolved_labels[i]!r} at distance "
                f"{float(self.dist[i, j]):.3f} m < 2R = {2 * self.R_m:.3f} m")

    def _check_interferer_cap(self):
        """The densest closed disk of radius R must hold at most M users.

        It is enough to test disks centred at a user and disks with two
        users on the boundary.  The centre of a two-point disk through
        users i and j lies R from i (d/2 <= R + tol/2 when the pair is
        just over 2R apart), so every user within R + tol of the centre
        lies within 2R + 2 tol of i, with room left for rounding.  Counting
        each centre against that neighbourhood of i alone therefore finds
        every user the disk holds, and the count is exact.  Centres are
        counted in chunks of about max(k^2 / 8, 4096) (centre, user) tests,
        so the work arrays stay within the size of the distance matrix.
        """
        R = self.R_m
        tol = 1e-9 * max(1.0, R)
        dist = self.dist
        x, y = self.positions[:, 0], self.positions[:, 1]
        worst = int((dist <= R + tol).sum(axis=1).max(initial=0))

        i, j = np.nonzero(np.triu((dist > 0) & (dist <= 2 * R + tol), 1))
        d = dist[i, j]
        mx, my = (x[i] + x[j]) / 2, (y[i] + y[j]) / 2
        t = np.sqrt(np.maximum(R * R - (d / 2) ** 2, 0.0)) / d
        ux, uy = -(y[j] - y[i]), (x[j] - x[i])
        cx = np.concatenate((mx + t * ux, mx - t * ux))
        cy = np.concatenate((my + t * uy, my - t * uy))
        owner = np.concatenate((i, i))

        near = dist <= 2 * R + 2 * tol
        members = np.nonzero(near)[1]          # each row's neighbourhood, in row order
        size = near.sum(axis=1)
        first = np.cumsum(size) - size
        tests = size[owner]
        ends = np.cumsum(tests)
        chunk = max(dist.size // 8, 1 << 12)
        cuts = np.searchsorted(ends, np.arange(chunk, ends[-1] if ends.size else 0, chunk))
        bounds = [0, *cuts.tolist(), owner.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            centre = np.repeat(np.arange(hi - lo), tests[lo:hi])
            p = members[_ranges(first[owner[lo:hi]], tests[lo:hi])]
            inside = np.hypot(x[p] - cx[lo:hi][centre],
                              y[p] - cy[lo:hi][centre]) <= R + tol
            worst = max(worst, int(np.bincount(centre[inside]).max(initial=0)))
        self.max_disk_users = worst
        if worst > self.M:
            raise ValueError(
                f"{worst} users fit in one hearing disk; exceeds M = {self.M}")

    def _check_propagation_bound(self):
        # an arrival later than delta_p slots falls outside the window the
        # frame structure and the simulator's slot bookkeeping allow for
        if self.slot_synchronized:
            return
        rx, tx = self.hearing
        delay = self.dist[tx, rx] / (SPEED_OF_LIGHT * self.timing.tau_s)
        over = np.nonzero(delay > self.timing.delta_p_slots)[0]
        if over.size:
            n = int(over[0])
            b, a = int(rx[n]), int(tx[n])
            raise ValueError(
                f"users {self.users[b].id!r} and {self.users[a].id!r} are "
                f"{float(self.dist[a, b]):.3f} m apart: propagation delay "
                f"{float(delay[n]):.3f} slots exceeds delta_p = "
                f"{self.timing.delta_p_slots} slots")

    # -- config I/O ---------------------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict, base_dir: str = ".") -> "Scenario":
        missing = [key for key in _REQUIRED_KEYS if cfg.get(key) is None]
        if missing:
            raise ValueError("scenario config is missing required key(s): "
                             + ", ".join(repr(key) for key in missing))
        seq = sequences_from_config(cfg["sequences"], base_dir)
        slot_sync = bool(cfg.get("slot_synchronized", False))
        tau = float(cfg["tau_s"])
        R = float(cfg["R_m"])
        dp = 0 if slot_sync else delta_p(R, tau)
        timing = TimingModel(tau, int(cfg["L"]), int(cfg["F"]),
                             int(cfg["delta_c_slots"]), dp)
        plan = None
        if "plan" in cfg and cfg["plan"] is not None:
            p = cfg["plan"]
            if p == "auto":
                plan = ReusePlan.from_geometry(float(cfg["h_m"]), R,
                                               labels=list(seq.labels))
            elif isinstance(p, dict) and "file" in p:
                plan = ReusePlan.load(os.path.join(base_dir, p["file"]))
            else:
                plan = ReusePlan.from_json(p)
        users_cfg = cfg["users"]
        if isinstance(users_cfg, dict):
            users = _random_users(users_cfg, float(cfg["h_m"]), seq)
        else:
            users = [User(str(u["id"]), float(u["x"]), float(u["y"]),
                          u.get("label"), int(u.get("shift", 0)),
                          (float(u["offset_s"]) if u.get("offset_s") is not None
                           else None)) for u in users_cfg]
        return cls(timing, R, float(cfg["h_m"]), int(cfg["M"]), users, seq,
                   plan, slot_sync)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            cfg = json.load(fh)
        return cls.from_config(cfg, base_dir=os.path.dirname(path) or ".")


def _random_users(spec: dict, h: float, seq: SequenceSet) -> list[User]:
    """Users at distinct hex-cell centers inside a rectangle, seeded."""
    count = int(spec["random_users"])
    xmin, ymin, xmax, ymax = (float(v) for v in spec["area"])
    rng = np.random.default_rng(spec.get("seed"))
    cells = []
    # cover the area generously, then keep centers strictly inside
    d = math.sqrt(3) * h
    m_lo, m_hi = int(xmin / d) - 3, int(xmax / d) + 3
    n_lo, n_hi = int(2 * ymin / (d * math.sqrt(3))) - 3, int(2 * ymax / (d * math.sqrt(3))) + 3
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            x, y = cell_center(HexCell(m, n), h)
            if xmin <= x <= xmax and ymin <= y <= ymax:
                cells.append((m, n))
    if len(cells) < count:
        raise ValueError(f"area holds only {len(cells)} cells, need {count}")
    pick = rng.permutation(len(cells))[:count]
    shifts = rng.integers(0, seq.period, size=count)
    users = []
    for idx, (ci, sh) in enumerate(zip(pick, shifts)):
        x, y = cell_center(HexCell(*cells[ci]), h)
        users.append(User(f"u{idx}", x, y, None, int(sh), None))
    return users


# ---------------------------------------------------------------------------
# simulation

@dataclass
class ReceptionLog:
    """Columnar packet-arrival log for one superframe.

    Times are in slot units; the CSV view converts to seconds.
    """

    user_ids: tuple[str, ...]
    offsets_slots: np.ndarray         # per user, resolved for this run
    tau_s: float
    tx: np.ndarray                    # user index
    rx: np.ndarray                    # user index
    slot: np.ndarray                  # transmitter-local slot of the packet
    arrive_slots: np.ndarray          # arrival-interval start at receiver
    end_slots: np.ndarray
    contention_free: np.ndarray       # bool
    seed: int | None = None

    def __len__(self) -> int:
        return int(self.tx.size)

    @property
    def t_arrive_s(self) -> np.ndarray:
        return self.arrive_slots * self.tau_s

    @property
    def t_end_s(self) -> np.ndarray:
        return self.end_slots * self.tau_s

    def to_csv(self, path: str) -> None:
        ids = self.user_ids
        with open(path, "w") as fh:
            fh.write("tx,rx,slot,t_arrive_s,t_end_s,contention_free\n")
            # a block of rows at a time keeps the Python lists small
            for lo in range(0, len(self), 1 << 10):
                part = slice(lo, lo + (1 << 10))
                rows = zip(self.tx[part].tolist(), self.rx[part].tolist(),
                           self.slot[part].tolist(),
                           (self.arrive_slots[part] * self.tau_s).tolist(),
                           (self.end_slots[part] * self.tau_s).tolist(),
                           self.contention_free[part].tolist())
                fh.writelines(f"{ids[tx]},{ids[rx]},{slot},{ta!r},{te!r},{int(cf)}\n"
                              for tx, rx, slot, ta, te, cf in rows)


def _tx_slots(seq_ones, shift: int, period: int, total: int) -> np.ndarray:
    pos = np.array(sorted((o + shift) % period for o in seq_ones), dtype=np.int64)
    reps = np.arange(0, total, period, dtype=np.int64)
    return (reps[:, None] + pos[None, :]).ravel()


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices that concatenate the ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - ends + lens, lens))


def run_superframe(sc: Scenario, seed: int | None = None) -> ReceptionLog:
    """Simulate one superframe; deterministic for a given scenario and seed.

    Rows are grouped by receiver in ascending order; within a receiver
    they are sorted by arrival, ties kept in (transmitter, slot) order.
    """
    rng = np.random.default_rng(seed)
    users = sc.users
    k = len(users)
    tm = sc.timing
    n = sc.sequence_set.period
    total = tm.active_slots

    draws = rng.uniform(0.0, float(tm.delta_c_slots), size=k)
    t = np.array([u.offset_s / tm.tau_s if u.offset_s is not None else draws[i]
                  for i, u in enumerate(users)], dtype=np.float64)

    slots_by_user = [
        _tx_slots(sc.sequence_set.get(sc.resolved_labels[i]).ones,
                  users[i].shift, n, total)
        for i in range(k)
    ]
    lens = np.array([s.size for s in slots_by_user], dtype=np.int64)
    all_slots = np.concatenate([np.zeros(0, dtype=np.int64), *slots_by_user])

    # one row per (receiver b, transmitter a, slot of a), b-major
    rx_pair, tx_pair = sc.hearing
    per_pair = lens[tx_pair]
    tx = np.repeat(tx_pair.astype(np.int32), per_pair)
    rx = np.repeat(rx_pair.astype(np.int32), per_pair)
    slot = all_slots[_ranges((np.cumsum(lens) - lens)[tx_pair], per_pair)]
    if sc.slot_synchronized:
        delay = np.zeros(tx_pair.size)
    else:
        delay = sc.dist[tx_pair, rx_pair] / (SPEED_OF_LIGHT * tm.tau_s)
    start = t[tx]
    start += slot
    start += np.repeat(delay, per_pair)

    # sort each receiver's rows by arrival; a stable sort keeps ties in
    # (a, slot) order
    cut = (np.flatnonzero(rx[1:] != rx[:-1]) + 1).tolist()
    order = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [lo + np.argsort(start[lo:hi], kind="stable")
           for lo, hi in zip([0] + cut, cut + [rx.size])])
    tx, rx, slot, start = tx[order], rx[order], slot[order], start[order]
    del order
    end = start + 1.0

    # sorted by start within a receiver, so the latest earlier end is the
    # previous row's end; any positive-measure overlap destroys both
    overlap = (rx[1:] == rx[:-1]) & (start[1:] < end[:-1])
    coll = np.zeros(start.size, dtype=bool)
    coll[1:] = overlap
    coll[:-1] |= overlap

    # half duplex: lost when the arrival overlaps one of the receiver's own
    # transmit slots, i.e. an own slot j with j - 1 < rel < j + 1.  Row r of
    # `pattern` marks one period of label r's ones; its extra last column
    # repeats column 0, so the slot after k0 is always at index + 1.
    index = {lab: i for i, lab in enumerate(sc.sequence_set.labels)}
    pattern = np.zeros((len(index), n + 1), dtype=bool)
    for i, member in enumerate(sc.sequence_set.sequences):
        pattern[i, list(member.ones)] = True
    pattern[:, n] = pattern[:, 0]
    pattern = pattern.ravel()
    label_of = np.array([index[lab] for lab in sc.resolved_labels], dtype=np.int64)
    shift_of = np.array([u.shift for u in users], dtype=np.int64)

    rel = start - t[rx]
    k0 = np.floor(rel).astype(np.int64)
    at = k0 - shift_of[rx]
    at %= n
    at += label_of[rx] * (n + 1)
    lost = pattern[at] & (k0 >= 0) & (k0 < total)
    lost |= pattern[at + 1] & (rel != k0) & (k0 >= -1) & (k0 < total - 1)

    return ReceptionLog(tuple(u.id for u in users), t, tm.tau_s, tx, rx,
                        slot, start, end, ~coll & ~lost, seed)


# ---------------------------------------------------------------------------
# audits

@dataclass
class BlockFreeReport:
    verdict: str
    violations: list[dict]
    counts: list[dict]
    stats: dict

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def exit_code(self) -> int:
        return 0 if self.holds else 1

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
    k = len(sc.users)
    cf = log.contention_free
    frame_of = np.floor((log.arrive_slots - log.offsets_slots[log.rx]) / L).astype(np.int64)

    # contention-free receptions per (rx, tx, normal frame): `want` lists
    # the keys of the hearing pairs times the normal frames, ascending
    rx, tx = sc.hearing
    want = (((rx * k + tx) * nf)[:, None] + np.arange(nf)).ravel()
    keep = cf & (frame_of >= 1) & (frame_of <= F - 2)
    key = ((log.rx[keep].astype(np.int64) * k + log.tx[keep]) * nf
           + frame_of[keep] - 1)
    at = np.searchsorted(want, key)
    hit = at < want.size
    hit[hit] = want[at[hit]] == key[hit]
    count = np.bincount(at[hit], minlength=want.size)

    ids = log.user_ids
    violations = []
    counts = []
    for b, a, f, c in zip(np.repeat(rx, nf).tolist(), np.repeat(tx, nf).tolist(),
                          list(normal) * rx.size, count.tolist()):
        counts.append({"receiver": ids[b], "transmitter": ids[a],
                       "frame": f, "count": c})
        if c == 0:
            violations.append({"receiver": ids[b], "transmitter": ids[a],
                               "frame": f})
    verdict = "holds" if not violations else "violated"
    stats = {"users": len(sc.users), "neighbor_pairs": int(rx.size),
             "normal_frames": list(normal),
             "min_count": int(count.min()) if count.size else None,
             "receptions": len(log), "contention_free": int(cf.sum())}
    return BlockFreeReport(verdict, violations, counts, stats)


def frame_offset_audit(log: ReceptionLog, sc: Scenario) -> bool:
    """Packets sent in frame i must arrive within receiver frames i-1..i+1."""
    if len(log) == 0:
        return True
    L = sc.timing.frame_slots
    eps = 1e-9
    i_tx = log.slot // L
    rel_start = log.arrive_slots - log.offsets_slots[log.rx]
    rel_end = log.end_slots - log.offsets_slots[log.rx]
    lo = (i_tx - 1) * L
    hi = (i_tx + 2) * L
    return bool(np.all(rel_start >= lo - eps) and np.all(rel_end <= hi + eps))


def adversarial_offset_search(sc: Scenario, step_slots: float = 0.5,
                              combo_cap: int = 200_000):
    """Grid-search user clock offsets for a block-free violation.

    Scans every combination of offsets in [0, tau*delta_c] at the given
    slot-unit step.  Returns (offsets_s, report) for the first violating
    combination, or None when the grid is clean.
    """
    from itertools import product as iproduct

    tm = sc.timing
    # the last point is clamped: a step that does not divide delta_c overshoots it
    vals = np.minimum(np.arange(0.0, tm.delta_c_slots + step_slots / 2, step_slots),
                      tm.delta_c_slots)
    combos = len(vals) ** len(sc.users)
    if combos > combo_cap:
        raise ValueError(f"{combos} offset combinations exceed cap {combo_cap}")
    for combo in iproduct(vals, repeat=len(sc.users)):
        # only the offsets change, so the validated geometry carries over
        trial = copy.copy(sc)
        trial.users = [replace(u, offset_s=float(o) * tm.tau_s)
                       for u, o in zip(sc.users, combo)]
        trial._check_offsets()
        log = run_superframe(trial, seed=0)
        report = check_block_free(log, trial)
        if not report.holds:
            return [float(o) * tm.tau_s for o in combo], report
    return None
