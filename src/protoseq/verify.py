"""Property verifiers for sequence families under arbitrary cyclic shifts.

The central object is the stacked matrix: one row per family member, each
row cyclically shifted by an arbitrary amount.  Verifiers either enumerate
the whole shift space (first shift pinned to 0, since every property here
is invariant under common rotation) or sample it with a seeded generator.
Every verifier returns a VerifyReport with a reproducible counterexample
on failure.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .sequences import (SequenceSet, json_text, min_separation,
                        pairwise_xcorr_peaks)

__all__ = [
    "StackedMatrix",
    "VerifyReport",
    "StateCapExceeded",
    "conflict_free_positions",
    "is_ui",
    "min_conflict_free_count",
    "max_conflict_free_gap",
    "zero_column_window",
    "window_audit",
    "xcorr_bound_audit",
    "separation_audit",
]

DEFAULT_STATE_CAP = 100_000_000
_BATCH = 1 << 14


class StateCapExceeded(ValueError):
    """Exhaustive enumeration would exceed the configured state cap."""


@dataclass(frozen=True)
class StackedMatrix:
    """Dense k-by-period matrix of independently shifted family members."""

    rows: np.ndarray
    shifts: tuple[int, ...]
    labels: tuple[str, ...]

    @classmethod
    def from_set(cls, s: SequenceSet, shifts: tuple[int, ...] | list[int]) -> "StackedMatrix":
        if len(shifts) != len(s):
            raise ValueError("one shift per member required")
        n = s.period
        rows = np.zeros((len(s), n), dtype=np.uint8)
        for i, seq in enumerate(s.sequences):
            rows[i, [(x + shifts[i]) % n for x in seq.ones]] = 1
        return cls(rows, tuple(int(t) % n for t in shifts), tuple(s.labels))


def conflict_free_positions(m: StackedMatrix, row: int) -> tuple[int, ...]:
    """Columns where the given row holds the only 1 of the whole stack."""
    colsum = m.rows.sum(axis=0)
    mask = (m.rows[row] == 1) & (colsum == 1)
    return tuple(int(i) for i in np.nonzero(mask)[0])


@dataclass
class VerifyReport:
    property: str
    mode: str
    samples: int
    seed: int | None
    verdict: str  # "holds" | "violated"
    counterexample: dict | None = None
    stats: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def exit_code(self) -> int:
        return 0 if self.holds else 1

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "stats": self.stats,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json_text(self.to_json()))


# ---------------------------------------------------------------------------
# the shift-space engine: one enumerator, one rotation table, one stack

def _check_cap(n: int, k: int, cap: int) -> int:
    states = n ** (k - 1)
    if states > cap:
        raise StateCapExceeded(
            f"exhaustive mode needs {states} assignments (> cap {cap}); "
            f"use random mode with a seed instead"
        )
    return states


def _assignment_batches(n: int, k: int, mode: str, samples: int = 0,
                        seed: int | None = None, cap: int = DEFAULT_STATE_CAP,
                        lo: int = 0, hi: int | None = None):
    """Yield (start_index, shifts) blocks of at most _BATCH assignments.

    Exhaustive mode counts in lexicographic order with mixed-radix digits,
    the first shift pinned to 0 and the second in [lo, hi).  Its blocks share
    one buffer (fresh ones made glibc trim and re-fault the heap per block),
    so each is valid until the next is drawn.  Random mode draws seeded ones.
    """
    if mode == "exhaustive":
        _check_cap(n, k, cap)
        radix = [(n if hi is None else hi) - lo, *[n] * (k - 2)][:k - 1]
        total = math.prod(radix)
        cols = np.zeros((k, _BATCH), dtype=np.int64)
        for start in range(0, total, _BATCH):
            b = min(_BATCH, total - start)
            idx = np.arange(start, start + b)
            for col in range(k - 1, 0, -1):
                q = idx // radix[col - 1]
                np.subtract(idx, q * radix[col - 1], out=cols[col, :b])
                idx = q
            cols[1:2, :b] += lo
            yield start, cols[:, :b].T
    elif mode == "random":
        rng = np.random.default_rng(seed)
        done = 0
        while done < samples:
            b = min(_BATCH, samples - done)
            yield done, rng.integers(0, n, size=(b, k))
            done += b
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'random', got {mode!r}")


def _rotations(s: SequenceSet) -> np.ndarray:
    """Table [word, member, shift] of every member at every shift.

    Column j of the period is bit j % 64 of word j // 64, so the table takes
    k * period * ceil(period / 64) * 8 bytes.
    """
    n = s.period
    words = -(-n // 64)
    out = np.empty((words, len(s), n), dtype=np.uint64)
    t = np.arange(n)[:, None]
    for i, seq in enumerate(s.sequences):
        bits = np.zeros((n, 64 * words), dtype=bool)
        bits[t, (np.asarray(seq.ones, dtype=np.int64) + t) % n] = True
        out[:, i] = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).T
    return out


def _stack(rot: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack every member at its shift, one assignment per row of `shifts`.

    `occ` collects the columns holding at least one 1 and `dup` those holding
    two or more.  Returns the conflict-free bits [word, member, assignment]
    (a member's 1s in columns no other member touches) and the occupied bits
    [word, assignment].  Shifts lie in [0, period), so mode="clip" changes no
    index; it only lets `take` write into `rows` without a buffer.
    """
    words, k, _ = rot.shape
    rows = np.empty((words, k, shifts.shape[0]), dtype=np.uint64)
    occ = np.zeros((words, shifts.shape[0]), dtype=np.uint64)
    dup = np.zeros_like(occ)
    for i in range(k):
        rot[:, i].take(shifts[:, i], axis=1, out=rows[:, i], mode="clip")
        dup |= occ & rows[:, i]
        occ |= rows[:, i]
    rows &= ~dup[:, None]
    return rows, occ


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Packed [word, assignment] bits back to a (assignments, n) boolean matrix."""
    return np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8), axis=1,
                         count=n, bitorder="little").view(bool)


def _cf_counts(cf: np.ndarray) -> np.ndarray:
    """Conflict-free-1 counts per (member, assignment)."""
    return np.bitwise_count(cf).sum(axis=0, dtype=np.int32)


def _cf_gaps(cf: np.ndarray, n: int) -> np.ndarray:
    """Max circular gap between conflict-free 1s per (member, assignment).

    The gap after a conflict-free 1 is one more than the run of other columns
    that follows it; members with fewer than two get gap = period.
    """
    return np.stack([np.minimum(_max_circular_run(_unpack(~cf[:, i], n)) + 1, n)
                     for i in range(cf.shape[1])])


def _max_circular_run(bits: np.ndarray) -> np.ndarray:
    """Max circular run length of True per row of a boolean matrix.

    Runs are read off their edges, the False bits: the run after each False
    bit ends at the next one of its row, the last wrapping round to the
    first.  A row with no False bit is one run of its full length.
    """
    b, n = bits.shape
    row, col = np.divmod(np.flatnonzero(~bits), n)
    out = np.full(b, n, dtype=np.int64)
    if row.size:
        first = np.flatnonzero(np.diff(row, prepend=-1))
        last = np.append(first[1:], row.size) - 1
        after = np.empty_like(col)  # column of the next False bit round the circle
        after[:-1] = col[1:]
        after[last] = col[first] + n
        out[row[first]] = np.maximum.reduceat(after - col - 1, first)
    return out


def _chunk_ranges(n: int, jobs: int) -> list[tuple[int, int]]:
    jobs = max(1, min(jobs, n))
    step = -(-n // jobs)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _scan_ui(args: tuple) -> tuple[int | None, list[int] | None, int | None]:
    """First assignment leaving some member without a conflict-free 1.

    Returns (index, shifts, None) for it, or (None, None, least) with the
    least conflict-free count seen when every assignment passes.
    """
    rot, mode, samples, seed, cap, lo, hi = args
    _, k, n = rot.shape
    least = []
    for start, shifts in _assignment_batches(n, k, mode, samples, seed, cap, lo, hi):
        worst = _cf_counts(_stack(rot, shifts)[0]).min(axis=0)
        bad = np.flatnonzero(worst == 0)
        if bad.size:
            return start + int(bad[0]), [int(t) for t in shifts[bad[0]]], None
        least.append(int(worst.min()))
    return None, None, min(least, default=None)


def is_ui(s: SequenceSet, mode: str = "exhaustive", samples: int = 100_000,
          seed: int | None = None, jobs: int = 1,
          state_cap: int = DEFAULT_STATE_CAP) -> VerifyReport:
    """Check that every member keeps a conflict-free 1 under any shifts.

    Equivalent to the stacked matrix always containing a k-by-k permutation
    submatrix.  Exhaustive mode pins the first shift to 0 and enumerates the
    remaining period^(k-1) assignments (capped), split over `jobs` processes
    by the second shift; random mode samples full assignments from a seeded
    generator.  Reports the lexicographically earliest violating assignment
    (exhaustive) or the first drawn (random).
    """
    n = s.period
    k = len(s)
    if k == 1:
        verdict = "holds" if s.sequences[0].weight >= 1 else "violated"
        ce = None if verdict == "holds" else {"shifts": [0]}
        return VerifyReport("ui", "exhaustive", 1, None, verdict, ce,
                            {"members": 1, "period": n})

    rot = _rotations(s)
    stats = {"members": k, "period": n}
    if mode == "exhaustive":
        states = _check_cap(n, k, state_cap)
        args = [(rot, mode, 0, None, state_cap, lo, hi)
                for lo, hi in _chunk_ranges(n, jobs)]
        if len(args) == 1:
            found = [_scan_ui(args[0])]
        else:
            with ProcessPoolExecutor(max_workers=len(args)) as pool:
                found = list(pool.map(_scan_ui, args))
        # chunks are in ascending second-shift order
        ce = next((shifts for _, shifts, _ in found if shifts is not None), None)
        return VerifyReport("ui", "exhaustive", states, None,
                            "holds" if ce is None else "violated",
                            None if ce is None else {"shifts": ce},
                            {**stats, "pinned_first_shift": True})

    index, ce, least = _scan_ui((rot, mode, samples, seed, state_cap, 0, None))
    if ce is not None:
        return VerifyReport("ui", "random", index + 1, seed, "violated",
                            {"shifts": ce}, stats)
    return VerifyReport("ui", "random", samples, seed, "holds", None,
                        {**stats, "min_conflict_free_count": least})


def _protected_indices(s: SequenceSet, protected_labels) -> list[int]:
    if protected_labels is None:
        labels = s.meta.get("open_labels")
        if labels is None:
            raise ValueError("protected_labels required (no open_labels in meta)")
        protected_labels = [l for l in labels if l in s.labels]
    unknown = [l for l in protected_labels if l not in s.labels]
    if unknown:
        raise ValueError("protected label(s) not in the set: "
                         + ", ".join(repr(l) for l in unknown))
    idx = [s.labels.index(l) for l in protected_labels]
    if not idx:
        raise ValueError("no protected rows selected")
    return idx


def min_conflict_free_count(s: SequenceSet, protected_labels=None,
                            mode: str = "random", samples: int = 10_000,
                            seed: int | None = None, threshold: int | None = None,
                            state_cap: int = DEFAULT_STATE_CAP) -> VerifyReport:
    """Minimum per-period conflict-free-1 count over protected rows.

    Verdict compares the minimum against `threshold` (default: the family's
    recorded floor in meta["cf_floor"]).
    """
    if threshold is None:
        threshold = s.meta.get("cf_floor")
    if threshold is None:
        raise ValueError("threshold required (no cf_floor in meta)")
    idx = _protected_indices(s, protected_labels)
    rot = _rotations(s)
    best = None
    total = 0
    for start, shifts in _assignment_batches(s.period, len(s), mode, samples, seed, state_cap):
        counts = _cf_counts(_stack(rot, shifts)[0][:, idx])
        worst = counts.min(axis=0)
        bmin = int(worst.min())
        total = start + shifts.shape[0]
        if best is None or bmin < best:
            best = bmin
        if bmin < threshold:
            first = int(np.nonzero(worst == bmin)[0][0])
            row = idx[int(np.argmin(counts[:, first]))]
            ce = {"shifts": [int(t) for t in shifts[first]],
                  "row": s.labels[row], "count": bmin}
            return VerifyReport("conflict_free_count", mode, start + first + 1, seed,
                                "violated", ce,
                                {"min_count": bmin, "threshold": threshold})
    return VerifyReport("conflict_free_count", mode, total, seed, "holds", None,
                        {"min_count": best, "threshold": threshold})


def max_conflict_free_gap(s: SequenceSet, protected_labels=None,
                          mode: str = "random", samples: int = 10_000,
                          seed: int | None = None, bound: int | None = None,
                          state_cap: int = DEFAULT_STATE_CAP) -> VerifyReport:
    """Largest circular gap between conflict-free 1s over protected rows.

    Verdict compares against `bound` (default meta["cf_gap_bound"]).
    """
    if bound is None:
        bound = s.meta.get("cf_gap_bound")
    if bound is None:
        raise ValueError("bound required (no cf_gap_bound in meta)")
    idx = _protected_indices(s, protected_labels)
    rot = _rotations(s)
    worst_gap = 0
    total = 0
    for start, shifts in _assignment_batches(s.period, len(s), mode, samples, seed, state_cap):
        gaps = _cf_gaps(_stack(rot, shifts)[0][:, idx], s.period)
        bworst = gaps.max(axis=0)
        bmax = int(bworst.max())
        total = start + shifts.shape[0]
        worst_gap = max(worst_gap, bmax)
        if bmax > bound:
            first = int(np.nonzero(bworst == bmax)[0][0])
            row = idx[int(np.argmax(gaps[:, first]))]
            ce = {"shifts": [int(t) for t in shifts[first]],
                  "row": s.labels[row], "gap": bmax}
            return VerifyReport("conflict_free_gap", mode, start + first + 1, seed,
                                "violated", ce, {"max_gap": bmax, "bound": bound})
    return VerifyReport("conflict_free_gap", mode, total, seed, "holds", None,
                        {"max_gap": worst_gap, "bound": bound})


def _check_window(window: int, period: int) -> None:
    if not 1 <= window <= period:
        raise ValueError(f"window must lie in [1, period], got {window}")


def zero_column_window(m: StackedMatrix, window: int) -> bool:
    """True iff every circular window of `window` columns has an all-zero column."""
    _check_window(window, m.rows.shape[1])
    occupied = m.rows.sum(axis=0) > 0
    return int(_max_circular_run(occupied[None, :])[0]) <= window - 1


def window_audit(s: SequenceSet, window: int | None = None, mode: str = "exhaustive",
                 samples: int = 100_000, seed: int | None = None,
                 state_cap: int = DEFAULT_STATE_CAP) -> VerifyReport:
    """zero_column_window across shift assignments of a whole family.

    Default window is 2p for families carrying meta["p"].  Exhaustive mode
    pins the first shift; random mode samples seeded assignments.
    """
    if window is None:
        p = s.meta.get("p")
        if p is None:
            raise ValueError("window required (no p in meta)")
        window = 2 * int(p)
    _check_window(window, s.period)
    rot = _rotations(s)
    longest = 0
    total = 0
    for start, shifts in _assignment_batches(s.period, len(s), mode, samples, seed, state_cap):
        runs = _max_circular_run(_unpack(_stack(rot, shifts)[1], s.period))
        bmax = int(runs.max())
        total = start + runs.size
        longest = max(longest, bmax)
        if bmax > window - 1:
            first = int(np.nonzero(runs == bmax)[0][0])
            ce = {"shifts": [int(t) for t in shifts[first]],
                  "occupied_run": bmax, "window": window}
            return VerifyReport("zero_column_window", mode, start + first + 1, seed,
                                "violated", ce,
                                {"max_occupied_run": bmax, "window": window})
    return VerifyReport("zero_column_window", mode, total, seed, "holds", None,
                        {"max_occupied_run": longest, "window": window})


def xcorr_bound_audit(s: SequenceSet, bound: int) -> VerifyReport:
    """Exhaustive pairwise cross-correlation bound over all shifts.

    The counterexample is the first pair reaching the largest peak, at its
    first peak shift; pairs that never meet are not reported.
    """
    first, second, peak, shift = pairwise_xcorr_peaks(s.sequences)
    worst = int(peak.max(initial=0))
    ce = None
    if worst > max(bound, 0):
        pair = int(np.argmax(peak))
        ce = {"pair": [s.labels[first[pair]], s.labels[second[pair]]],
              "shift": int(shift[pair]), "value": worst}
    return VerifyReport("xcorr_bound", "exhaustive", peak.size * s.period, None,
                        "holds" if worst <= bound else "violated", ce,
                        {"max_xcorr": worst, "bound": bound})


def separation_audit(s: SequenceSet, bound: int | None = None) -> VerifyReport:
    """Every member's minimum circular one-to-one spacing is >= bound.

    Default bound is meta["p"] for the families that promise it.
    """
    if bound is None:
        p = s.meta.get("p")
        if p is None:
            raise ValueError("bound required (no p in meta)")
        bound = int(p)
    worst = None
    ce = None
    for label, seq in s:
        m = min_separation(seq)
        if worst is None or m < worst:
            worst = m
            if m < bound:
                ce = {"label": label, "min_separation": m, "bound": bound}
    verdict = "holds" if worst is not None and worst >= bound else "violated"
    return VerifyReport("min_separation", "exhaustive", len(s), None, verdict,
                        ce if verdict == "violated" else None,
                        {"min_separation": worst, "bound": bound})
