"""Property verifiers for sequence families under arbitrary cyclic shifts.

The central object is the stacked matrix: one row per family member, each
row cyclically shifted by an arbitrary amount.  Verifiers either enumerate
the whole shift space (first shift pinned to 0, since every property here
is invariant under common rotation) or sample it with a seeded generator.
Every verifier returns a VerifyReport with a reproducible counterexample
on failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _EXPORTS
from .sequences import (SequenceSet, _pair_peaks, json_text, min_separation,
                        xcorr_profile)

__all__ = list(_EXPORTS["verify"])

# assignments an exhaustive scan enumerates at most
STATE_CAP = 100_000_000
_BATCH = 1 << 14


class StateCapExceeded(ValueError):
    """Exhaustive enumeration would exceed the state cap, `STATE_CAP`."""


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
        return asdict(self)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json_text(self.to_json()))


# ---------------------------------------------------------------------------
# the shift-space engine: one enumerator, one rotation table, one stack

def _check_cap(n: int, k: int) -> int:
    states = n ** (k - 1)
    if states > STATE_CAP:
        raise StateCapExceeded(
            f"exhaustive mode needs {states} assignments (> cap {STATE_CAP}); "
            f"use random mode with a seed instead"
        )
    return states


def _check_mode(mode: str, samples: int) -> None:
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    if mode == "random" and samples < 1:
        raise ValueError(f"random mode needs samples >= 1, got {samples}")


def _assignment_batches(n: int, k: int, mode: str, samples: int = 0,
                        seed: int | None = None, lo: int = 0, hi: int | None = None):
    """Yield (start_index, prefix, last) blocks of about _BATCH packed words.

    An assignment stacks ceil(n / 64) words, so a block holds at most
    _BATCH // words assignments, but never less than one prefix row or draw.
    Exhaustive mode counts in lexicographic order with mixed-radix digits,
    the first shift pinned to 0 and the second in [lo, hi).  A block holds
    the shifts of members 0..k-2 once per prefix row and the range `last` of
    the last member's shifts, whose digit runs fastest: assignment j of the
    block is (*prefix[j // len(last)], last[j % len(last)]).  Random mode
    draws `samples` >= 1 seeded assignments _BATCH at a time and cuts each
    draw into blocks, one assignment per row of `prefix`, with `last` None.
    """
    _check_mode(mode, samples)
    per = max(1, _BATCH // -(-n // 64))  # assignments per block
    if mode == "exhaustive":
        _check_cap(n, k)
        digits = [range(1), range(lo, n if hi is None else hi), *[range(n)] * (k - 2)][:k]
        last = digits.pop()
        prefixes = math.prod(map(len, digits))
        step = max(1, per // len(last))
        for first in range(0, prefixes, step):
            idx = np.arange(first, min(first + step, prefixes))
            prefix = np.empty((idx.size, k - 1), dtype=np.int64)
            for col in range(k - 2, -1, -1):
                idx, prefix[:, col] = np.divmod(idx, len(digits[col]))
                prefix[:, col] += digits[col].start
            yield first * len(last), prefix, last
    else:
        rng = np.random.default_rng(seed)
        done = 0
        while done < samples:
            draw = rng.integers(0, n, size=(min(_BATCH, samples - done), k))
            for i in range(0, len(draw), per):
                yield done + i, draw[i:i + per], None
            done += len(draw)


def _rotations(s: SequenceSet) -> np.ndarray:
    """Table [word, member, shift] of every member at every shift.

    Column j of the period is bit j % 64 of word j // 64, so the table takes
    k * period * ceil(period / 64) * 8 bytes.  Column j of a member at shift
    t is column n - t + j of the member written out twice, so every word of
    the table is one of the 64-bit windows of that doubled row.
    """
    n = s.period
    words = -(-n // 64)
    out = np.empty((words, len(s), n), dtype=np.uint64)
    start = n - np.arange(n) + 64 * np.arange(words)[:, None]  # [word, shift]
    for i, seq in enumerate(s.sequences):
        twice = np.zeros(2 * n + 64 * words, dtype=bool)
        ones = np.asarray(seq.ones, dtype=np.int64)
        twice[ones] = twice[ones + n] = True
        windows = np.packbits(sliding_window_view(twice, 64), axis=1, bitorder="little")
        out[:, i] = windows.view(np.uint64)[start, 0]
    out[-1] &= ~np.uint64(0) >> np.uint64(64 * words - n)  # clear columns >= n
    return out


def _stack(rot: np.ndarray, prefix: np.ndarray, last: range | None = None,
           conflict_free: bool = False) -> np.ndarray:
    """Stack every member at its shift, for one block of assignments.

    `occ` collects the columns holding at least one 1 and `dup` those holding
    two or more; a member's conflict-free bits are its 1s outside `dup`.
    The members of each `prefix` row are gathered into `rows` and folded
    into `occ` and `dup` one by one.  An exhaustive block then joins the last
    member's rotation row `r` over `last` to every prefix row by
    broadcasting into [word, prefix row, shift].  The join needs no second
    pass over the members: a prefix member keeps its conflict-free bits
    outside r, and the last member keeps the bits of r outside occ.

    Returns the occupied bits [word, assignment], or with `conflict_free`
    the conflict-free bits [word, member, assignment] of every member, with
    the assignments in index order.  Shifts lie in [0, period), so
    mode="clip" changes no index; it only lets `take` write into `rows`
    without a buffer.
    """
    words, k, _ = rot.shape
    b, g = prefix.shape
    rows = np.empty((words, g, b), dtype=np.uint64)
    occ = np.zeros((words, b), dtype=np.uint64)
    dup = np.zeros((words, b), dtype=np.uint64)
    for i in range(g):
        row = rows[:, i]
        rot[:, i].take(prefix[:, i], axis=1, out=row, mode="clip")
        if conflict_free:
            dup |= occ & row
        occ |= row
    r = None if last is None else rot[:, k - 1, None, last.start:last.stop]  # [word, 1, shift]
    if not conflict_free:
        return occ if r is None else (occ[:, :, None] | r).reshape(words, -1)
    rows &= np.invert(dup, out=dup)[:, None]
    if r is None:
        return rows
    out = np.empty((words, k, b, len(last)), dtype=np.uint64)
    np.bitwise_and(rows[..., None], ~r[:, None], out=out[:, :g])
    np.bitwise_and(~occ[:, :, None], r, out=out[:, g])
    return out.reshape(words, k, -1)


def _scan(blocks, values, extreme, crossed):
    """First assignment reaching the extreme of the first range crossing a limit.

    `values(prefix, last)` maps a block of assignments to one number per
    assignment, in index order.  The ranges are [m * _BATCH, (m + 1) *
    _BATCH) of the index order, and a range crosses when its extreme (np.min
    or np.max of its values) is `crossed`.  Each block's values are cut at
    the range ends and folded into the extreme so far and the first
    assignment reaching it, and the limit is tested at each range end.  As
    `crossed` tests a limit, that extreme first crosses at the end of the
    first range that crosses, and the assignment lies in that range.
    Returns (shifts, extreme, scanned) with the assignments scanned up to
    and including it, or (None, the extreme, scanned) when no range
    crosses; the extreme is None when nothing was scanned.
    """
    found = None  # (shifts, extreme, scanned)
    scanned = 0
    for start, prefix, last in blocks:
        vals = values(prefix, last)
        width = 1 if last is None else len(last)
        pos = 0
        while pos < vals.size:
            offset = (start + pos) % _BATCH
            if not offset and found and crossed(found[1]):
                return found
            piece = vals[pos:pos + _BATCH - offset]
            ext = int(extreme(piece))
            if found is None or extreme((found[1], ext)) != found[1]:
                j = pos + int(np.flatnonzero(piece == ext)[0])
                row, col = divmod(j, width)
                shifts = prefix[row].tolist() + ([] if last is None else [last[col]])
                found = (shifts, ext, start + j + 1)
            pos += piece.size
        scanned = start + vals.size
    if found and crossed(found[1]):
        return found
    return None, None if found is None else found[1], scanned


def _cf_counts(cf: np.ndarray) -> np.ndarray:
    """Conflict-free-1 counts per (member, assignment)."""
    counts = np.bitwise_count(cf)
    return counts[0] if len(counts) == 1 else counts.sum(axis=0, dtype=np.int32)


def _member_frames(s: SequenceSet, idx: list[int], gaps: bool):
    """Block function of the conflict-free count or gap of each protected member.

    Each protected member i is audited in its own frame.  With its 1s at
    `pos` (weight w), entry [j, d] of its coverage table is a mask of
    ceil(w / 64) words whose bit a is set when member j, shifted by d
    against i, covers i's 1 at pos[a], that is when (pos[a] - d) mod n is a
    1 of j.  The table is filled from the w * w_j differences (pos[a] -
    ones_j) mod n, so it costs no n * n work.  Under shifts t, i's cover is
    the OR over j != i of entry [j, (t_j - t_i) mod n]; the uncovered 1s
    are its conflict-free 1s.  The gap after a conflict-free 1 runs to the
    next one round the circle; a member with fewer than two has gap = n.

    Returns values(prefix, last) -> [protected member, assignment], the
    count w - popcount(cover), or with `gaps` the largest gap, in the index
    order of `_assignment_batches`.
    """
    n = s.period
    frames = {}
    for i in idx:
        pos = np.asarray(s.sequences[i].ones, dtype=np.int64)
        word, bit = np.divmod(np.arange(pos.size, dtype=np.uint64)[:, None], np.uint64(64))
        table = np.zeros((len(s), n, -(-pos.size // 64)), dtype=np.uint64)
        for j, seq in enumerate(s.sequences):
            if j != i:
                d = (pos[:, None] - np.asarray(seq.ones, dtype=np.int64)) % n
                np.bitwise_or.at(table[j], (d, word), np.uint64(1) << bit)
        frames[i] = pos, table

    def values(prefix, last):
        # each member's shifts as [prefix row, 1], and the last one's as [shift]
        shifts = [prefix[:, j, None] for j in range(prefix.shape[1])]
        if last is not None:
            shifts.append(np.arange(last.start, last.stop))
        width = 1 if last is None else len(last)
        out = np.empty((len(idx), len(prefix) * width), dtype=np.int64)
        for m, i in enumerate(idx):
            pos, table = frames[i]
            cover = np.zeros((len(prefix), width, table.shape[2]), dtype=np.uint64)
            for j, t in enumerate(shifts):
                if j != i:
                    cover |= table[j, (t - shifts[i]) % n]
            cover = cover.reshape(out.shape[1], table.shape[2])
            count = pos.size - np.bitwise_count(cover).sum(axis=1, dtype=np.int64)
            out[m] = _gaps(pos, cover, count, n) if gaps else count
        return out

    return values


def _gaps(pos: np.ndarray, cover: np.ndarray, count: np.ndarray, n: int) -> np.ndarray:
    """Largest gap between conflict-free 1s per row of [assignment, word] covers.

    Own gap g[a] runs from pos[a] to the next 1 round the circle.  A gap
    between consecutive conflict-free 1s is one own gap when no 1 lies
    between them, and otherwise spans a maximal run s..e of covered 1s:
    g[s - 1] + ... + g[e].  Every own gap lies in one of these gaps, so the
    largest is max(G, the run sums), G the largest own gap.  A run through
    w - 1 and 0 is cut in two at the row's edge; its part from 0, less its
    first own gap g[w - 1], is added to its part up to w - 1.  Rows whose
    `count` of conflict-free 1s is below two get gap = n.
    """
    w = pos.size
    g = np.diff(pos, append=pos[:1] + n)
    covered = np.unpackbits(cover.view(np.uint8), axis=1, count=w,
                            bitorder="little").view(bool)
    out = np.full(len(cover), g.max(initial=0))
    flat = np.flatnonzero(covered)
    if flat.size:
        row, a = np.divmod(flat, w)
        start = np.flatnonzero((np.diff(flat, prepend=-2) != 1) | (a == 0))
        span = np.add.reduceat(g[a], start) + g[a[start] - 1]
        end = np.append(start[1:], flat.size) - 1
        first = np.flatnonzero(np.diff(row[start], prepend=-1))  # each row's first run
        last = np.append(first[1:], start.size) - 1
        wraps = (a[start[first]] == 0) & (a[end[last]] == w - 1)
        span[last[wraps]] += span[first[wraps]] - g[w - 1]
        where = row[start[first]]
        out[where] = np.maximum(out[where], np.maximum.reduceat(span, first))
    out[count < 2] = n
    return out


def _max_circular_run(bits: np.ndarray) -> np.ndarray:
    """Max circular run length of True per row of a boolean matrix.

    A row with a False is rotated to start at one, so that no run wraps;
    a row without one is a single run of its full length.
    """
    runs = []
    for row in bits.tolist():
        if all(row):
            runs.append(len(row))
            continue
        cut = row.index(False)
        runs.append(max((sum(run) for on, run in itertools.groupby(row[cut:] + row[:cut])
                         if on), default=0))
    return np.array(runs, dtype=np.int64)


def _max_packed_run(words: np.ndarray, n: int) -> np.ndarray:
    """Max circular run of set bits per assignment of packed [word, assignment] rows.

    Bits at and past column n must be clear.  Each step ANDs every row with
    itself moved down one column round the period, so a bit survives t
    steps where a run of t + 1 starts; a row's run is the number of steps
    it stays non-zero, at most n.  The steps stop when every row is empty,
    so the work follows the longest run of the block, not the period.
    """
    top = (n - 1) % 64
    out = np.zeros(words.shape[1], dtype=np.int64)
    y = words.copy()
    down = np.empty_like(y)
    for _ in range(n):
        nz = y.any(axis=0)
        if not nz.any():
            break
        out += nz
        np.right_shift(y, 1, out=down)
        if len(y) > 1:
            down[:-1] |= y[1:] << 63
        down[-1] |= (y[0] & 1) << top
        y &= down
    return out


def _chunk_ranges(n: int, jobs: int) -> list[tuple[int, int]]:
    jobs = min(jobs, n)
    step = -(-n // jobs)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _scan_ui(args: tuple) -> tuple[list[int] | None, int | None, int]:
    """First assignment leaving some member without a conflict-free 1.

    Returns (shifts, 0, scanned) for it, or (None, least, scanned) with the
    least conflict-free count seen when every assignment passes.
    """
    rot, mode, samples, seed, lo, hi = args
    _, k, n = rot.shape
    return _scan(
        _assignment_batches(n, k, mode, samples, seed, lo, hi),
        lambda prefix, last: _cf_counts(_stack(rot, prefix, last, True)).min(axis=0),
        np.min, lambda m: m < 1)


def _peaks_certify_ui(s: SequenceSet) -> bool:
    """True when pairwise peaks alone prove that is_ui holds.

    At any relative shift member j covers at most peak(i, j) of member i's
    1s, so a member whose weight exceeds the sum of its peaks against all
    others keeps a conflict-free 1 under every assignment.  False proves
    nothing: the shift space must then be scanned.
    """
    covered = _pair_peaks(s.sequences).sum(axis=1)
    return bool((np.array([x.weight for x in s.sequences]) > covered).all())


def is_ui(s: SequenceSet, mode: str = "exhaustive", samples: int = 100_000,
          seed: int | None = None, jobs: int = 1) -> VerifyReport:
    """Check that every member keeps a conflict-free 1 under any shifts.

    Equivalent to the stacked matrix always containing a k-by-k permutation
    submatrix.  Exhaustive mode pins the first shift to 0, so the space
    holds period^(k-1) assignments (capped).  It first tries a counting
    certificate: if every member's weight exceeds the sum of its pairwise
    cross-correlation peaks against the others, "holds" is proved without
    enumeration.  Otherwise it enumerates the space, split over `jobs` >= 1
    processes by the second shift, and reports the lexicographically
    earliest violating assignment.  Random mode samples full assignments
    from a seeded generator and reports the first violating one drawn, or
    the least conflict-free count seen.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _check_mode(mode, samples)
    n = s.period
    k = len(s)
    stats = {"members": k, "period": n}
    if mode == "exhaustive":
        states = _check_cap(n, k)
        stats["pinned_first_shift"] = True
        if _peaks_certify_ui(s):
            return VerifyReport("ui", "exhaustive", states, None, "holds", None, stats)
        rot = _rotations(s)
        # no more chunks than states: one member has a single state
        args = [(rot, mode, 0, None, lo, hi)
                for lo, hi in _chunk_ranges(n, min(jobs, states))]
        if len(args) == 1:
            found = [_scan_ui(args[0])]
        else:
            # imported here: the pool's import costs every CLI command ~20 ms
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=len(args)) as pool:
                found = list(pool.map(_scan_ui, args))
        # chunks are in ascending second-shift order
        ce = next((shifts for shifts, _, _ in found if shifts is not None), None)
        return VerifyReport("ui", "exhaustive", states, None,
                            "holds" if ce is None else "violated",
                            None if ce is None else {"shifts": ce}, stats)

    ce, least, scanned = _scan_ui((_rotations(s), mode, samples, seed, 0, None))
    if ce is not None:
        return VerifyReport("ui", "random", scanned, seed, "violated",
                            {"shifts": ce}, stats)
    return VerifyReport("ui", "random", samples, seed, "holds", None,
                        {**stats, "min_conflict_free_count": least})


def _meta_default(s: SequenceSet, value, key: str, argument: str):
    """An audit's `argument` as given, or s.meta[key] when it is None."""
    if value is None and (value := s.meta.get(key)) is None:
        raise ValueError(f"{argument} required (no {key} in meta)")
    return value


def _protected_indices(s: SequenceSet, protected_labels) -> list[int]:
    if protected_labels is None:
        protected_labels = [l for l in _meta_default(s, None, "open_labels", "protected_labels")
                            if l in s.labels]
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
                            seed: int | None = None,
                            threshold: int | None = None) -> VerifyReport:
    """Minimum per-period conflict-free-1 count over protected rows.

    Verdict compares the minimum against `threshold` (default: the family's
    recorded floor in meta["cf_floor"]).
    """
    threshold = _meta_default(s, threshold, "cf_floor", "threshold")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    idx = _protected_indices(s, protected_labels)
    counts = _member_frames(s, idx, gaps=False)
    ce, low, scanned = _scan(
        _assignment_batches(s.period, len(s), mode, samples, seed),
        lambda prefix, last: counts(prefix, last).min(axis=0), np.min,
        lambda m: m < threshold)
    stats = {"min_count": low, "threshold": threshold}
    if ce is None:
        return VerifyReport("conflict_free_count", mode, scanned, seed, "holds", None,
                            stats)
    per_row = counts(np.array([ce]), None)[:, 0]
    return VerifyReport("conflict_free_count", mode, scanned, seed, "violated",
                        {"shifts": ce, "row": s.labels[idx[int(np.argmin(per_row))]],
                         "count": low}, stats)


def max_conflict_free_gap(s: SequenceSet, protected_labels=None,
                          mode: str = "random", samples: int = 10_000,
                          seed: int | None = None, bound: int | None = None) -> VerifyReport:
    """Largest circular gap between conflict-free 1s over protected rows.

    Verdict compares against `bound` (default meta["cf_gap_bound"]).
    """
    bound = _meta_default(s, bound, "cf_gap_bound", "bound")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    idx = _protected_indices(s, protected_labels)
    gaps = _member_frames(s, idx, gaps=True)
    ce, high, scanned = _scan(
        _assignment_batches(s.period, len(s), mode, samples, seed),
        lambda prefix, last: gaps(prefix, last).max(axis=0), np.max, lambda m: m > bound)
    stats = {"max_gap": high or 0, "bound": bound}
    if ce is None:
        return VerifyReport("conflict_free_gap", mode, scanned, seed, "holds", None, stats)
    per_row = gaps(np.array([ce]), None)[:, 0]
    return VerifyReport("conflict_free_gap", mode, scanned, seed, "violated",
                        {"shifts": ce, "row": s.labels[idx[int(np.argmax(per_row))]],
                         "gap": high}, stats)


def _check_window(window: int, period: int) -> None:
    if not 1 <= window <= period:
        raise ValueError(f"window must lie in [1, period], got {window}")


def zero_column_window(m: StackedMatrix, window: int) -> bool:
    """True iff every circular window of `window` columns has an all-zero column."""
    _check_window(window, m.rows.shape[1])
    occupied = m.rows.sum(axis=0) > 0
    return int(_max_circular_run(occupied[None, :])[0]) <= window - 1


def window_audit(s: SequenceSet, window: int | None = None, mode: str = "exhaustive",
                 samples: int = 100_000, seed: int | None = None) -> VerifyReport:
    """zero_column_window across shift assignments of a whole family.

    Default window is 2p for families carrying meta["p"].  Exhaustive mode
    pins the first shift; random mode samples seeded assignments.
    """
    if window is None:
        window = 2 * int(_meta_default(s, None, "p", "window"))
    _check_window(window, s.period)
    rot = _rotations(s)
    ce, longest, scanned = _scan(
        _assignment_batches(s.period, len(s), mode, samples, seed),
        lambda prefix, last: _max_packed_run(_stack(rot, prefix, last), s.period), np.max,
        lambda m: m > window - 1)
    stats = {"max_occupied_run": longest or 0, "window": window}
    if ce is None:
        return VerifyReport("zero_column_window", mode, scanned, seed, "holds", None, stats)
    return VerifyReport("zero_column_window", mode, scanned, seed, "violated",
                        {"shifts": ce, "occupied_run": longest, "window": window}, stats)


def xcorr_bound_audit(s: SequenceSet, bound: int) -> VerifyReport:
    """Exhaustive pairwise cross-correlation bound over all shifts.

    The counterexample is the first pair reaching the largest peak, at its
    first peak shift; pairs that never meet are not reported.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    peak = _pair_peaks(s.sequences)
    worst = int(peak.max(initial=0))
    ce = None
    if worst > bound:
        # symmetric, diagonal 0 < worst: the first maximum has i < j
        i, j = divmod(int(np.argmax(peak)), len(s))
        shift = xcorr_profile(s.sequences[i], s.sequences[j]).argmax()
        ce = {"pair": [s.labels[i], s.labels[j]], "shift": int(shift), "value": worst}
    return VerifyReport("xcorr_bound", "exhaustive", math.comb(len(s), 2) * s.period, None,
                        "holds" if worst <= bound else "violated", ce,
                        {"max_xcorr": worst, "bound": bound})


def separation_audit(s: SequenceSet, bound: int | None = None) -> VerifyReport:
    """Every member's minimum circular one-to-one spacing is >= bound.

    Default bound is meta["p"] for the families that promise it.
    """
    if bound is None:
        bound = int(_meta_default(s, None, "p", "bound"))
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    for label, seq in s:
        if seq.weight < 2:
            raise ValueError(f"member {label!r} has no min separation: fewer than two ones")
    seps = [min_separation(seq) for seq in s.sequences]
    worst = min(seps)
    ce = None if worst >= bound else {
        "label": s.labels[seps.index(worst)], "min_separation": worst, "bound": bound}
    return VerifyReport("min_separation", "exhaustive", len(s), None,
                        "holds" if ce is None else "violated", ce,
                        {"min_separation": worst, "bound": bound})
