"""Constant-weight sequence codes from polynomial evaluation over GF(p).

Each codeword is a p-by-n one-per-column binary matrix flattened to a
length-pn sequence through the residue-pair correspondence.  Restricting
messages to f(x) = x + sum_{i>=2} m_i x^i and evaluating at the n powers of
an order-n element makes any nonzero cyclic shift leave the codebook, which
yields full cyclic order and pairwise cyclic distinctness.

Also here: silent-slot padding, the trivial one-slot-per-member round-robin
family, and (re-exported from `_sizing`) the two parameter searches used
for sizing comparisons and the comparison table built from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _EXPORTS
# the searches and the comparison table are integer-only and live where
# importing them loads no numpy; this module re-exports them
from ._sizing import (ParamSearchError, SelectedParams, _config_int, _is_prime,
                      baseline_compare, length_bounds, select_params_prop1,
                      select_params_prop2)
from .sequences import BinarySequence, SequenceSet, _idempotents

__all__ = list(_EXPORTS["rscpc"])


def _order(a: int, p: int) -> int | None:
    """Multiplicative order of a mod the prime p, or None when p divides a."""
    a %= p
    if a == 0:
        return None
    x, order = a, 1
    while x != 1:
        x = x * a % p
        order += 1
    return order


def element_of_order(n: int, p: int) -> int:
    """Smallest element of GF(p)* with multiplicative order exactly n; p prime.

    GF(p)* is cyclic of order p - 1, so it holds such an element for every
    n dividing p - 1.
    """
    if not _is_prime(p):
        raise ValueError(f"field size must be prime, got {p}")
    if n < 1 or (p - 1) % n != 0:
        raise ValueError(f"order {n} must divide p-1 = {p - 1}")
    return next(a for a in range(1, p) if _order(a, p) == n)


@dataclass(frozen=True)
class RsCpcParams:
    """Code parameters: n evaluation points, field prime p, degree bound k.

    Requires p prime, 3 <= k < n <= p, and n | p-1 so an order-n evaluation
    element exists.  alpha may pin that element; it defaults to the smallest
    one and is validated either way.
    """

    n: int
    p: int
    k: int
    alpha: int | None = None

    def __post_init__(self) -> None:
        # a fractional alpha would never return to 1 in `_order`
        for key in ("n", "p", "k", "alpha"):
            value = getattr(self, key)
            if value is not None:
                object.__setattr__(self, key, _config_int(value, f"RsCpcParams {key}"))
        if not _is_prime(self.p):
            raise ValueError(f"field size must be prime, got {self.p}")
        if not (3 <= self.k < self.n <= self.p):
            raise ValueError(f"need 3 <= k < n <= p, got k={self.k} n={self.n} p={self.p}")
        if (self.p - 1) % self.n != 0:
            raise ValueError(f"n must divide p-1, got n={self.n} p={self.p}")
        if self.alpha is not None:
            order = _order(self.alpha, self.p)
            if order is None:
                raise ValueError(f"alpha={self.alpha} is not invertible mod {self.p}")
            if order != self.n:
                raise ValueError(f"alpha={self.alpha} has order {order}, need {self.n}")

    def resolved_alpha(self) -> int:
        return self.alpha if self.alpha is not None else element_of_order(self.n, self.p)


def rs_cpc(params: RsCpcParams) -> SequenceSet:
    """All p^(k-2) codeword sequences of period n*p, constant weight n.

    Message (m_2, …, m_{k-1}) encodes f(x) = x + m_2 x² + … ; column j holds
    a single 1 in row f(alpha^j) mod p, and position l of the flattened
    sequence is the unique l ≡ row (mod p), l ≡ j (mod n).
    """
    n, p, k = params.n, params.p, params.k
    alpha = params.resolved_alpha()
    period = n * p
    e_row, e_col = _idempotents(p, n)
    points = [pow(alpha, j, p) for j in range(n)]
    # with c_j = x_j^(k-1), a unit, column j's row is c_j*(t_j + m_{k-1})
    # mod p for t_j = (x_j + m_2 x_j² + … + m_{k-2} x_j^(k-2)) / c_j; so
    # its ones for the p messages sharing m_2..m_{k-2} are the slice
    # [t_j, t_j + p) of the positions of its rows 0, c_j, 2c_j, …, twice over
    tables = []
    for j, x in enumerate(points):
        c = pow(x, k - 1, p)
        placed = [(c * s % p * e_row + j * e_col) % period for s in range(p)]
        tables.append(placed + placed)
    # t for every m_2..m_{k-2} in lexicographic order: m_i adds x_j^i / c_j
    starts = [[pow(x, 2 - k, p) for x in points]]
    for i in range(2, k - 1):
        step = [pow(x, i + 1 - k, p) for x in points]
        starts = [[(t + m * d) % p for t, d in zip(row, step)]
                  for row in starts for m in range(p)]
    digits = [str(m) for m in range(p)]
    seqs, labels = [], []
    for prefix, row in zip(itertools.product(digits, repeat=k - 3), starts):
        members = zip(*[tab[t:t + p] for tab, t in zip(tables, row)])
        seqs += [BinarySequence(period, tuple(sorted(ones))) for ones in members]
        head = "".join(f"{m}," for m in prefix)
        labels += [head + d for d in digits]
    meta = {"construction": "rs_cpc", "n": n, "p": p, "k": k, "alpha": alpha}
    return SequenceSet(tuple(seqs), tuple(labels), meta)


def pad_silent(x: BinarySequence, delta: int) -> BinarySequence:
    """Stretch each slot to a group of delta+1 slots, transmitting in the first.

    Position i maps to (delta+1)*i in a period (delta+1)*n sequence.  The
    padding guarantees that transmissions with distinct group indices can
    never overlap once relative timing skew is below delta+1 slots.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    step = delta + 1
    return BinarySequence(step * x.period, tuple(step * i for i in x.ones))


def pad_set(s: SequenceSet, delta: int) -> SequenceSet:
    meta = dict(s.meta)
    meta.update({"padded_from": s.meta.get("construction"), "pad": delta})
    return SequenceSet(tuple(pad_silent(x, delta) for x in s.sequences), s.labels, meta)


def tdma_set(G: int, delta: int) -> SequenceSet:
    """Round-robin family: member i of G owns slot group i of a (delta+1)G frame."""
    if G < 1:
        raise ValueError("G must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    period = (delta + 1) * G
    seqs = tuple(BinarySequence(period, ((delta + 1) * i,)) for i in range(G))
    labels = tuple(f"t{i}" for i in range(G))
    return SequenceSet(seqs, labels, {"construction": "tdma", "G": G, "delta": delta})
