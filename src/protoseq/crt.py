"""Residue-pair (CRT) sequence families, products, and the expanded family.

All constructions emit a SequenceSet whose meta dict records the recipe, so
verifiers and the allocator can recover parameters without re-deriving them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import _EXPORTS
from ._sizing import _is_prime, _min_code
from .sequences import BinarySequence, SequenceSet, _idempotents, _pair_peaks, crt_unmap

__all__ = list(_EXPORTS["crt"])


def _crt_family(p: int, q: int, steps: list[tuple[int, int]], labels: list[str],
                construction: str) -> SequenceSet:
    # member (a, b) of steps places its j-th one, j in [0, p), at the
    # position with residues (j*a mod p, j*b mod q)
    e_p, e_q = _idempotents(p, q)
    if q < 2 * p - 1:
        raise ValueError(f"q must be at least 2p-1 = {2 * p - 1}, got {q}")
    n = p * q
    ones = [sorted([(j * a % p * e_p + j * b % q * e_q) % n for j in range(p)])
            for a, b in steps]
    return SequenceSet(tuple(BinarySequence(n, tuple(o)) for o in ones),
                       tuple(labels), {"construction": construction, "p": p, "q": q})


def crt_set(p: int, q: int) -> SequenceSet:
    """The p-member residue-pair family of period pq, generators 0..p-1.

    Member g has weight p: one 1 for each j in [0, p), placed where the
    position is congruent to j*g mod p and to j mod q.  Requires coprime
    p, q with q >= 2p-1.

    Pairwise cross-correlation is at most 1 when every generator difference
    g - g' is a unit mod p, which holds for all prime p.  Composite p is
    accepted, but members whose difference shares a factor with p coincide
    more often: g0 and g2 of crt_set(4, 7) meet twice at shift 0.
    """
    return _crt_family(p, q, [(g, 1) for g in range(p)], [f"g{g}" for g in range(p)],
                       "crt")


def crt0_set(p: int, q: int) -> SequenceSet:
    """Variant family with generator 1 swapped out for the q-multiples member.

    Generators {0} ∪ {2..p-1} give p-1 members; the extra member "*" holds
    its ones at the p multiples of q.  The run-of-ones generator 1 is omitted
    because its minimum separation of 1 defeats the spacing guarantees.

    Pairwise cross-correlation is at most 1 when every generator difference
    g - g' is a unit mod p, which holds for all prime p; the "*" member
    meets any other member at most once for every p.  Composite p is
    accepted and can reach 2: g0 and g2 of crt0_set(4, 7) meet twice at
    shift 0.
    """
    gens = [0, *range(2, p)]
    return _crt_family(p, q, [(g, 1) for g in gens] + [(1, 0)],
                       [f"g{g}" for g in gens] + ["*"], "crt0")


def all_ones(length: int) -> BinarySequence:
    """Constant-one sequence of the given period."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return BinarySequence(length, tuple(range(length)))


def product(x: BinarySequence, y: BinarySequence) -> BinarySequence:
    """Position-wise product sequence of coprime-period factors.

    The result has period period(x)*period(y) and holds a 1 at l exactly
    when x holds a 1 at l mod period(x) and y at l mod period(y); its weight
    is w(x)*w(y).  Shifting either factor shifts the product accordingly.
    """
    return _products(x, [y])[0]


def _products(x: BinarySequence, ys: list[BinarySequence]) -> list[BinarySequence]:
    """product(x, y) for every y of ys, which share a period, in one pass."""
    if not ys:
        return []
    import numpy as np
    px, py = x.period, ys[0].period
    if math.gcd(px, py) != 1:
        raise ValueError(f"factor periods must be coprime, got ({px}, {py})")
    # crt_unmap over every pair at once; y's products are keyed to
    # [y*n, (y+1)*n), so one sort orders each within its own range
    n = px * py
    sizes = [y.weight for y in ys]
    a = np.asarray(x.ones, dtype=np.int64)
    b = np.fromiter(itertools.chain.from_iterable(y.ones for y in ys),
                    dtype=np.int64, count=sum(sizes))
    base = np.repeat(np.arange(len(ys)) * n, sizes)
    keys = np.sort((crt_unmap((a, b[:, None]), px, py) + base[:, None]).ravel())
    ones = (keys % n).tolist()
    cuts = [0, *itertools.accumulate(w * x.weight for w in sizes)]
    return [BinarySequence(n, tuple(ones[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


@dataclass
class ExpandedSetSpec:
    """Recipe for expanding a base family for geographic reuse.

    base_set: common-period family with bounded pairwise cross-correlation.
    p:        prime expansion factor, at most the interferer budget M.
    M:        maximum number of simultaneous interferers to protect against.
    split_labels: the p base members that get paired with the spacing family;
        defaults to the first p labels.

    The base-code parameters n (columns) and k (degree bound) come from the
    base set's meta.
    """

    base_set: SequenceSet
    p: int
    M: int
    split_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.split_labels:
            self.split_labels = tuple(self.base_set.labels[: self.p])
        self.split_labels = tuple(self.split_labels)


def expanded_set(spec: ExpandedSetSpec) -> SequenceSet:
    """Blow up a base family so reuse groups stay conflict-free.

    Two tiers are produced, both of period p(2p-1) * base period:

    * tier "guard": each of the p split members is multiplied by one member
      of crt0_set(p, 2p-1), pairing by position.  These keep the spacing
      structure that guarantees periodic all-zero windows.
    * tier "open": every remaining base member is multiplied by the all-ones
      sequence of length p(2p-1).  Any selection of all guard members plus
      at most M-1 open members leaves each open member a guaranteed floor of
      p(3p-1)/2 conflict-free ones per period.

    Preconditions: p prime, p <= M, gcd(p(2p-1), base period) = 1,
    n >= (k-1)(M-1) + 1 for the n and k in the base set's meta, and
    pairwise cross-correlation of the base <= k-1 (audited).
    """
    base, p, M = spec.base_set, spec.p, spec.M
    if not _is_prime(p):
        raise ValueError(f"expansion factor p must be prime, got {p}")
    if p > M:
        raise ValueError(f"p must not exceed the interferer budget M, got p={p} M={M}")
    L = base.period
    spread = p * (2 * p - 1)
    if math.gcd(spread, L) != 1:
        raise ValueError(f"gcd(p(2p-1), base period) must be 1, got gcd({spread}, {L})")
    n, k = base.meta.get("n"), base.meta.get("k")
    if n is None or k is None:
        raise ValueError("base set meta must record code parameters n and k")
    n, k = int(n), int(k)
    if n < (k - 1) * (M - 1) + 1:
        raise ValueError(f"need n >= (k-1)(M-1)+1 = {(k - 1) * (M - 1) + 1}, got n={n}")
    if len(spec.split_labels) != p or len(set(spec.split_labels)) != p:
        raise ValueError(f"split_labels must name {p} distinct members")
    unknown = ", ".join(repr(lab) for lab in spec.split_labels if lab not in base.labels)
    if unknown:
        raise ValueError(f"split label(s) not in the base set: {unknown}")
    import numpy as np
    peak = _pair_peaks(base.sequences)
    over = np.argwhere(np.triu(peak > k - 1, 1))  # pairs i < j, in row-major order
    if over.size:
        i, j = over[0]
        raise ValueError(
            f"base pair ({base.labels[i]}, {base.labels[j]}) "
            f"has cross-correlation {peak[i, j]} > k-1 = {k - 1}"
        )

    spacing = crt0_set(p, 2 * p - 1)
    guard_labels, seqs = [], []
    for (clabel, cseq), slabel in zip(spacing, spec.split_labels):
        guard_labels.append(f"{clabel}*{slabel}")
        seqs.append(product(cseq, base.get(slabel)))
    rest = [(lab, seq) for lab, seq in base if lab not in spec.split_labels]
    open_labels = [f"U*{lab}" for lab, _ in rest]
    seqs += _products(all_ones(spread), [seq for _, seq in rest])
    labels = guard_labels + open_labels

    meta = {
        "construction": "expanded",
        "p": p,
        "M": M,
        "n": n,
        "k": k,
        "base_period": L,
        "split_labels": list(spec.split_labels),
        "guard_labels": guard_labels,
        "open_labels": open_labels,
        "cf_floor": p * (3 * p - 1) // 2,
        "cf_gap_bound": 2 * p * L,
        "base_meta": dict(base.meta),
    }
    if "q" in base.meta:
        meta["q"] = base.meta["q"]
    return SequenceSet(tuple(seqs), tuple(labels), meta)


def select_expansion_base(p: int, M: int, k: int = 3, field_cap: int = 997) -> tuple[int, int, int]:
    """Smallest-period base-code triple (n, field, k) compatible with expansion.

    Searches field primes up to field_cap for divisors n of field-1 with
    n >= (k-1)(M-1)+1, k < n <= field, and gcd(p(2p-1), n*field) = 1,
    minimizing the base period n*field (ties: smaller field, then smaller n).
    """
    spread = p * (2 * p - 1)
    best = _min_code(range(3, field_cap + 1), max((k - 1) * (M - 1) + 1, k + 1),
                     field_cap, lambda n, f: k if math.gcd(spread, n * f) == 1 else None)
    if best is None:
        raise ValueError(
            f"no feasible base triple with k={k}, M={M}, p={p} and field <= {field_cap}"
        )
    return (best[2], best[1], k)
