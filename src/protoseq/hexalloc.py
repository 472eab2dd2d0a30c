"""Hexagonal-grid geometry and location-based sequence allocation.

Cells form a hex lattice with centers m*e1 + n*e2 for integers (m, n),
where e1 = (d, 0), e2 = (d/2, d*sqrt(3)/2), d = sqrt(3)*h and h is the
cell radius in meters.  A reuse plan partitions the cells into G cosets
of a sublattice whose minimum vector norm is d*sqrt(G), so any two cells
sharing a sequence sit at least 2R apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .sequences import json_text

__all__ = [
    "HexCell",
    "cell_center",
    "quantize",
    "cell_distance",
    "cluster_size",
    "ReusePlan",
    "PositionLogEntry",
    "check_fermion",
]

_TIE_EPS = 1e-9


class HexCell(NamedTuple):
    m: int
    n: int


def cell_center(c: HexCell, h: float) -> tuple[float, float]:
    """Cartesian center of a cell, meters."""
    d = math.sqrt(3.0) * h
    return (d * c.m + 0.5 * d * c.n, 0.5 * math.sqrt(3.0) * d * c.n)


def quantize(x: float, y: float, h: float) -> HexCell:
    """Cell whose center is nearest to (x, y); ties go to smaller (m, n).

    The fractional lattice coordinates of the true nearest center differ
    from the point's by less than 2/3 in each axis, so rounding plus a
    3x3 neighborhood always contains it.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    d = math.sqrt(3.0) * h
    nf = 2.0 * y / (d * math.sqrt(3.0))
    mf = x / d - 0.5 * nf
    m0, n0 = round(mf), round(nf)
    best = None
    for m in (m0 - 1, m0, m0 + 1):
        for n in (n0 - 1, n0, n0 + 1):
            cx, cy = cell_center(HexCell(m, n), h)
            dist = math.hypot(x - cx, y - cy)
            if best is None or dist < best[0] - _TIE_EPS or (
                    abs(dist - best[0]) <= _TIE_EPS and (m, n) < best[1]):
                best = (dist, (m, n))
    return HexCell(*best[1])


def cell_distance(a: HexCell, b: HexCell, h: float) -> float:
    """Euclidean distance between two cell centers, meters."""
    u, v = a.m - b.m, a.n - b.n
    # single sqrt keeps integer radicands exact (e.g. cells one diagonal
    # step apart at h=1 give exactly 3.0)
    return h * math.sqrt(3.0 * (u * u + u * v + v * v))


def cluster_size(R: float, h: float) -> tuple[int, int, int]:
    """Smallest G = b1^2 + b1*b2 + b2^2 with G >= (2R/d)^2.

    Returns (G, b1, b2) with b1 >= b2 >= 0; minimal G, then smallest
    witness pair.  The threshold is snapped to an integer when within
    1e-9 to keep exact-boundary inputs exact.
    """
    if R <= 0 or h <= 0:
        raise ValueError("R and h must be positive")
    d = math.sqrt(3.0) * h
    target = (2.0 * R / d) ** 2
    if abs(target - round(target)) < _TIE_EPS:
        target = round(target)
    bound = math.isqrt(int(math.ceil(target))) + 2
    best = None
    for b1 in range(bound + 1):
        # b1^2 + b1*b2 + b2^2 grows with b2, so each b1 needs only its
        # smallest b2 reaching the target.  The floor of the quadratic's
        # positive root is at most that b2 (its float error is far below 1
        # at any size this loop can reach); exact comparisons step it up.
        b2 = max(0, math.floor((math.sqrt(max(4 * target - 3 * b1 * b1, 0)) - b1) / 2))
        while b1 * b1 + b1 * b2 + b2 * b2 < target:
            b2 += 1
        cand = (b1 * b1 + b1 * b2 + b2 * b2, b1, b2)
        if b2 <= b1 and (best is None or cand < best):
            best = cand
    return best


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _hnf(b1: int, b2: int) -> tuple[int, int, int]:
    """Hermite form (h11, h12, h22) of the lattice rows (b1,b2), (-b2,b1+b2)."""
    G = b1 * b1 + b1 * b2 + b2 * b2
    g, x, y = _ext_gcd(b1, b2)
    # (g, h12) = x*(b1, b2) - y*(-b2, b1+b2)... solve first coord = g:
    # a*b1 - b*b2 = g with a = x, b = -y; second coord a*b2 + b*(b1+b2)
    h11 = g
    h22 = G // g
    h12 = (x * b2 - y * (b1 + b2)) % h22
    return h11, h12, h22


@dataclass
class ReusePlan:
    """Cochannel assignment: cells in the same sublattice coset share a label.

    The sublattice is generated by (b1, b2) and its 60-degree rotation
    (-b2, b1+b2); it has exactly G cosets and minimum vector norm
    d*sqrt(G) >= 2R.  `assignment` maps canonical coset representatives
    ("m,n" strings) to sequence labels; None means identity labeling by
    coset index.
    """

    h: float
    R: float
    G: int
    b1: int
    b2: int
    assignment: dict[str, str] | None = None

    def __post_init__(self):
        if self.b1 * self.b1 + self.b1 * self.b2 + self.b2 * self.b2 != self.G:
            raise ValueError("b1^2 + b1*b2 + b2^2 must equal G")
        self._h11, self._h12, self._h22 = _hnf(self.b1, self.b2)
        if self.assignment is not None:
            if len(self.assignment) != self.G:
                raise ValueError("assignment must cover all G cosets")
            if len(set(self.assignment.values())) != self.G:
                raise ValueError("assignment must be one-to-one")
            reps = {self.rep_key(c) for c in self.representative_cells()}
            if set(self.assignment) != reps:
                raise ValueError("assignment keys must be the canonical representatives")

    @classmethod
    def from_geometry(cls, h: float, R: float,
                      labels: list[str] | None = None) -> "ReusePlan":
        G, b1, b2 = cluster_size(R, h)
        assignment = None
        if labels is not None:
            if len(labels) < G:
                raise ValueError(f"need at least G={G} labels, got {len(labels)}")
            plan = cls(h, R, G, b1, b2, None)
            reps = plan.representative_cells()
            assignment = {cls.rep_key(c): labels[i] for i, c in enumerate(reps)}
        return cls(h, R, G, b1, b2, assignment)

    @staticmethod
    def rep_key(c: HexCell) -> str:
        return f"{c.m},{c.n}"

    def representative_cells(self) -> list[HexCell]:
        """Canonical coset representatives in lexicographic order."""
        return [HexCell(i, j) for i in range(self._h11) for j in range(self._h22)]

    def representative(self, c: HexCell) -> HexCell:
        i = c.m % self._h11
        q = (c.m - i) // self._h11
        j = (c.n - q * self._h12) % self._h22
        return HexCell(i, j)

    def coset_index(self, c: HexCell) -> int:
        r = self.representative(c)
        return r.m * self._h22 + r.n

    def allocate(self, c: HexCell) -> str:
        """Sequence label assigned to the cell's coset."""
        if self.assignment is None:
            return str(self.coset_index(c))
        return self.assignment[self.rep_key(self.representative(c))]

    def to_json(self) -> dict:
        return {"h": self.h, "R": self.R, "G": self.G, "b1": self.b1,
                "b2": self.b2, "assignment": self.assignment}

    @classmethod
    def from_json(cls, obj: dict) -> "ReusePlan":
        return cls(float(obj["h"]), float(obj["R"]), int(obj["G"]),
                   int(obj["b1"]), int(obj["b2"]), obj.get("assignment"))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json_text(self.to_json()))

    @classmethod
    def load(cls, path: str) -> "ReusePlan":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class PositionLogEntry:
    """Cell occupied by a user at the start of one of its superframes."""

    user: str
    superframe: int
    cell: HexCell


def check_fermion(log: list[PositionLogEntry]) -> list[tuple[int, HexCell, tuple[str, ...]]]:
    """Same-cell exclusion audit: no two users may occupy one cell in the
    same superframe.  Returns (superframe, cell, users) for each breach.
    """
    seen: dict[tuple[str, int], HexCell] = {}
    groups: dict[tuple[int, HexCell], set[str]] = {}
    for e in log:
        key = (e.user, e.superframe)
        if key in seen and seen[key] != e.cell:
            raise ValueError(f"user {e.user!r} logged twice in superframe "
                             f"{e.superframe} with different cells")
        seen[key] = e.cell
        groups.setdefault((e.superframe, e.cell), set()).add(e.user)
    out = []
    for (k, cell), users in sorted(groups.items()):
        if len(users) > 1:
            out.append((k, cell, tuple(sorted(users))))
    return out
