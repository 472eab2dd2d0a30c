"""Core types for periodic binary transmission sequences.

A sequence of period n is stored by its characteristic set: the sorted
0-based positions of its ones.  Position arithmetic is always mod n.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from . import _EXPORTS
# defined where importing them loads no numpy; re-exported here
from ._sizing import _config_int, _is_prime, _require_keys, json_text  # noqa: F401

# numpy is imported inside the functions that compute with arrays, so that
# building and saving a set loads none
if TYPE_CHECKING:
    import numpy as np

__all__ = list(_EXPORTS["sequences"])


@dataclass(frozen=True)
class BinarySequence:
    """A periodic 0/1 sequence, value 1 exactly at the ones positions."""

    period: int
    ones: tuple[int, ...]

    def __post_init__(self) -> None:
        period = _config_int(self.period, "period")
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        # a tuple, so that an iterator is read whole by both passes below
        given = self.ones if isinstance(self.ones, tuple) else tuple(self.ones)
        # plain ints need no reading; anything else is read as config
        # integers are, so a whole float reads as its integer and a fraction
        # or a bool is named
        if set(map(type, given)) <= {int}:
            ones = given
        else:
            ones = tuple(_config_int(o, "ones position") for o in given)
        # increasing positions lie in range when their ends do; the range
        # message comes first when both checks fail
        increasing = all(map(operator.lt, ones, ones[1:]))
        if ones:
            lo, hi = (ones[0], ones[-1]) if increasing else (min(ones), max(ones))
            if lo < 0 or hi >= period:
                raise ValueError("ones positions must lie in [0, period)")
        if not increasing:
            raise ValueError("ones must be strictly increasing and unique")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "ones", ones)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BinarySequence":
        bits = list(bits)
        return cls(len(bits), tuple(i for i, b in enumerate(bits) if b))

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        """Parse a dense textual form such as '01001'."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError("dense form must be a nonempty string of 0s and 1s")
        return cls.from_bits(int(c) for c in text)

    @property
    def weight(self) -> int:
        return len(self.ones)

    def bits(self) -> np.ndarray:
        import numpy as np
        out = np.zeros(self.period, dtype=np.uint8)
        out[list(self.ones)] = 1
        return out

    def __getitem__(self, i: int) -> int:
        i %= self.period
        j = bisect.bisect_left(self.ones, i)
        return int(j < len(self.ones) and self.ones[j] == i)

    def to_json(self, label: str | None = None) -> dict:
        obj: dict = {"period": self.period, "ones": list(self.ones)}
        if label is not None:
            obj["label"] = label
        return obj

    @classmethod
    def from_json(cls, obj: dict | str) -> "BinarySequence":
        """Accepts {'period','ones'}, {'bits': '0101'}, or a bare dense string."""
        if isinstance(obj, str):
            return cls.from_string(obj)
        if "bits" in obj:
            seq = cls.from_string(obj["bits"])
            if "period" in obj and obj["period"] != seq.period:
                raise ValueError("period does not match dense form length")
            return seq
        return cls(obj["period"], obj["ones"])


def cyclic_shift(x: BinarySequence, t: int) -> BinarySequence:
    """Rotate x so that each one at position i moves to (i + t) mod period."""
    n = x.period
    return BinarySequence(n, tuple(sorted((i + t) % n for i in x.ones)))


def hamming_xcorr(x: BinarySequence, y: BinarySequence, t: int) -> int:
    """Number of positions where both x and the t-shifted y hold a 1.

    Equals |ones(x) ∩ (ones(y) + t mod n)|.  x and y must share a period;
    t may be negative and is reduced mod the period.
    """
    if x.period != y.period:
        raise ValueError("sequences must share a period")
    n = x.period
    shifted = {(i + t) % n for i in y.ones}
    return sum(1 for i in x.ones if i in shifted)


def xcorr_profile(x: BinarySequence, y: BinarySequence) -> np.ndarray:
    """All-shift Hamming cross-correlation, index t -> hamming_xcorr(x, y, t)."""
    if x.period != y.period:
        raise ValueError("sequences must share a period")
    import numpy as np
    n = x.period
    a = np.asarray(x.ones, dtype=np.int64)
    b = np.asarray(y.ones, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return np.zeros(n, dtype=np.int64)
    diffs = (a[:, None] - b[None, :]) % n
    return np.bincount(diffs.ravel(), minlength=n)


def pairwise_xcorr_peaks(seqs: Sequence[BinarySequence]) -> tuple[np.ndarray, ...]:
    """Peak cross-correlation of every pair i < j, pairs in lexicographic order.

    Returns int64 arrays (i, j, peak, shift): peak is the maximum over t of
    xcorr_profile(seqs[i], seqs[j])[t] and shift the first t reaching it.
    """
    import numpy as np
    first, second = (a.astype(np.int64) for a in np.triu_indices(len(seqs), 1))
    peak, shift = np.zeros_like(first), np.zeros_like(first)
    at = 0
    for prof in _profile_rows(seqs):
        m = prof.shape[1]
        peak[at:at + m] = top = prof.max(axis=0)
        shift[at:at + m] = (prof == top).argmax(axis=0)
        at += m
    return first, second, peak, shift


def _pair_peaks(seqs: Sequence[BinarySequence]) -> np.ndarray:
    """The peaks of pairwise_xcorr_peaks, without locating the shifts, as a
    symmetric k × k matrix with a zero diagonal."""
    import numpy as np
    k = len(seqs)
    peak = np.zeros((k, k), dtype=np.int64)
    for i, prof in enumerate(_profile_rows(seqs)):
        peak[i, i + 1:] = prof.max(axis=0)
    return peak + peak.T


def _profile_rows(seqs: Sequence[BinarySequence]) -> Iterator[np.ndarray]:
    """For each member i < k - 1, its profiles against members i+1, …, k-1.

    Yields an (n × (k-1-i)) array whose column c, row t holds
    hamming_xcorr(seqs[i], seqs[i+1+c], t).  The array is a view of a
    buffer reused by the next member.

    With rt[u, j] = 1 iff (-u) mod n is a one of member j, member j's ones
    at a - t (mod n) are rt[n - a + t, j], so member i's profiles are the
    sum over its ones a of rt[n - a : 2n - a, i+1:].  No count exceeds the
    larger weight, which sizes the accumulator's dtype.
    """
    if len({x.period for x in seqs}) > 1:
        raise ValueError("sequences must share a period")
    k = len(seqs)
    if k < 2:
        return
    import numpy as np
    sizes = [x.weight for x in seqs]
    flat = np.fromiter(itertools.chain.from_iterable(x.ones for x in seqs),
                       dtype=np.int64, count=sum(sizes))
    n = seqs[0].period
    rows, cols = -flat % n, np.repeat(np.arange(k), sizes)
    dt = np.min_scalar_type(max(sizes))
    buf = np.empty(n * (k - 1), dtype=dt)
    bounds = np.cumsum([0, *sizes])
    step = -(-(k - 1) // 16)
    for lo in range(0, k - 1, step):
        # rt[:, lo+1:] built contiguous, so that each row add below is one
        # flat add; member i reads columns i - lo onward of the sum
        block = np.zeros((2 * n, k - 1 - lo), dtype=dt)
        at = bounds[lo + 1]
        block[rows[at:], cols[at:] - (lo + 1)] = 1
        block[n:] = block[:n]
        acc = buf[:block.size // 2].reshape(n, -1)
        for i in range(lo, min(lo + step, k - 1)):
            ones = flat[bounds[i]:bounds[i + 1]].tolist()
            if not ones:
                acc.fill(0)
            else:
                np.copyto(acc, block[n - ones[0]:2 * n - ones[0]])
                for a in ones[1:]:
                    np.add(acc, block[n - a:2 * n - a], out=acc)
            yield acc[:, i - lo:]


def cyclic_min_distance(seqs: Sequence[BinarySequence]) -> int:
    """Minimum Hamming distance between distinct members over all cyclic shifts.

    For 0/1 words, d(x, shift_t(y)) = w(x) + w(y) - 2 * H(x,y)(t), so the
    minimum is taken over every ordered pair of distinct members and every t.
    """
    if len(seqs) < 2:
        raise ValueError("need at least two sequences")
    import numpy as np
    weight = np.asarray([x.weight for x in seqs])
    dist = weight[:, None] + weight - 2 * _pair_peaks(seqs)
    return int(dist[~np.eye(len(seqs), dtype=bool)].min())


def cyclic_order(x: BinarySequence) -> int:
    """Smallest t >= 1 with shift(x, t) == x.  Always divides the period."""
    n = x.period
    ones = set(x.ones)
    for t in sorted(d for d in range(1, n + 1) if n % d == 0):
        if {(i + t) % n for i in ones} == ones:
            return t
    raise AssertionError("unreachable: t = period always fixes x")


def min_separation(x: BinarySequence) -> int:
    """Minimum circular gap between consecutive ones; requires weight >= 2."""
    if x.weight < 2:
        raise ValueError("min separation needs at least two ones")
    n = x.period
    s = list(x.ones)
    return min((s[(i + 1) % len(s)] - s[i]) % n for i in range(len(s)))


class CrtIndexPair(NamedTuple):
    row: int
    col: int


def crt_map(l: int, p: int, q: int) -> CrtIndexPair:
    """Map a position l in [0, pq) to its residue pair (l mod p, l mod q)."""
    _require_coprime(p, q)
    return CrtIndexPair(l % p, l % q)


def crt_unmap(pair, p: int, q: int):
    """Inverse of crt_map: the unique l in [0, pq) with the given residues.

    l = r*e_p + c*e_q mod pq for the idempotents (e_p, e_q) of _idempotents.
    The residues r and c may be ints, mapped exactly, or int64 arrays,
    mapped element-wise as numpy broadcasts them.
    """
    e_p, e_q = _idempotents(p, q)
    r, c = pair
    return (r * e_p + c * e_q) % (p * q)


def _idempotents(p: int, q: int) -> tuple[int, int]:
    """(e_p, e_q) in [0, pq): e_p is 1 mod p and 0 mod q, e_q the other way round."""
    _require_coprime(p, q)
    n = p * q
    return q * pow(q, -1, p) % n, p * pow(p, -1, q) % n


def _require_coprime(p: int, q: int) -> None:
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime positive integers, got ({p}, {q})")


@dataclass
class SequenceSet:
    """A labeled family of equal-period sequences plus construction metadata."""

    sequences: tuple[BinarySequence, ...]
    labels: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sequences = tuple(self.sequences)
        self.labels = tuple(self.labels)
        if len(self.sequences) != len(self.labels):
            raise ValueError("one label per sequence required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if not self.sequences:
            raise ValueError("empty sequence set")
        periods = {s.period for s in self.sequences}
        if len(periods) != 1:
            raise ValueError(f"members must share a period, got {sorted(periods)}")

    @property
    def period(self) -> int:
        return self.sequences[0].period

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[tuple[str, BinarySequence]]:
        return iter(zip(self.labels, self.sequences))

    def get(self, label: str) -> BinarySequence:
        try:
            return self.sequences[self.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def select(self, labels: Iterable[str]) -> "SequenceSet":
        """Subset preserving the given label order; meta records the parent."""
        labels = list(labels)
        unknown = ", ".join(repr(l) for l in labels if l not in self.labels)
        if unknown:
            raise ValueError(f"select label(s) not in the set: {unknown}")
        seqs = tuple(self.get(l) for l in labels)
        meta = dict(self.meta)
        meta["selected_from"] = meta.get("construction")
        return SequenceSet(seqs, tuple(labels), meta)

    def to_json(self) -> dict:
        return {
            "meta": dict(self.meta),
            "sequences": [s.to_json(label=l) for l, s in self],
        }

    @classmethod
    def from_json(cls, obj: dict | list) -> "SequenceSet":
        """Accepts {'meta':…, 'sequences':[…]} or a bare array of sequences."""
        if isinstance(obj, list):
            items, meta = obj, {}
        else:
            items, meta = obj["sequences"], dict(obj.get("meta", {}))
        seqs, labels = [], []
        for i, entry in enumerate(items):
            if isinstance(entry, Mapping) and "bits" not in entry:
                _require_keys(entry, ("period", "ones"), f"sequence entry {i}")
            try:
                seqs.append(BinarySequence.from_json(entry))
            except ValueError as e:
                raise ValueError(f"sequence entry {i}: {e}") from None
            labels.append(str(entry.get("label", i) if isinstance(entry, Mapping) else i))
        return cls(tuple(seqs), tuple(labels), meta)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json_text(self.to_json()))

    @classmethod
    def load(cls, path: str) -> "SequenceSet":
        with open(path) as fh:
            return cls.from_json(json.load(fh))
