"""Integer-only sizing: the frame-length searches and comparison table, the
package's JSON data format, and the config readers' key and integer checks.

Nothing here imports numpy, so `params`, `compare` and `alloc` start
without it.  The public names are re-exported by the modules the package's
export table names as their owners: `json_text` and `_is_prime` by
`sequences`, the rest by `rscpc`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


def json_text(doc) -> str:
    """The package's JSON data format: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require_keys(cfg: dict, keys, what: str) -> None:
    """ValueError naming `what` and each of `keys` that `cfg` lacks or holds as null."""
    missing = [key for key in keys if cfg.get(key) is None]
    if missing:
        raise ValueError(f"{what} is missing required key(s): "
                         + ", ".join(repr(key) for key in missing))


def _config_int(value, name: str, non_negative: bool = False) -> int:
    """`value` as an int if it is an int or a whole float, not a bool; else ValueError."""
    whole = ((hasattr(value, "__index__") and not isinstance(value, bool))
             or (isinstance(value, float) and value.is_integer()))
    if not whole or (non_negative and value < 0):
        raise ValueError(f"{name} must be {'a non-negative' if non_negative else 'an'} "
                         f"integer, got {value!r}")
    return int(value)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class ParamSearchError(ValueError):
    """No admissible parameters inside the search caps."""


@dataclass(frozen=True)
class SelectedParams:
    scheme: str
    M: int
    G: int
    delta: int
    n: int
    p: int
    k: int
    period: int


def _feasible_k(n: int, p: int, M: int, G: int, codebook_exponent_offset: int) -> int | None:
    # smallest k in [3, n) with p^(k - offset) >= G and n >= (k-1)(M-1) + 1
    k_hi = n - 1
    if M > 1:
        k_hi = min(k_hi, (n - 1) // (M - 1) + 1)
    for k in range(3, k_hi + 1):
        if p ** (k - codebook_exponent_offset) >= G:
            return k
    return None


def _min_code(primes: range, floor: int, n_cap: int, fit) -> tuple | None:
    """Least (n*p, p, n, fit(n, p)) over primes p in `primes` and divisors n
    of p-1 in [floor, min(p, n_cap)] whose fit is not None."""
    best = None
    for p in primes:
        if best is not None and best[0] <= floor * p:
            break  # n*p >= floor*p, so no later p can win
        if not _is_prime(p):
            continue
        for n in range(floor, min(p, n_cap) + 1):
            if (p - 1) % n == 0 and (found := fit(n, p)) is not None:
                if best is None or n * p < best[0]:
                    best = (n * p, p, n, found)
                break  # the least n of this p
    return best


def _search(scheme: str, M: int, G: int, delta: int, offset: int,
            frame_factor: int, p_cap: int, n_cap: int) -> SelectedParams:
    if M < 2 or G < 1 or delta < 0:
        raise ValueError(f"need M >= 2, G >= 1, delta >= 0; got M={M} G={G} delta={delta}")
    n_min = max(4, 2 * (M - 1) + 1)  # smallest n admitting k = 3
    best = _min_code(range(max(M, 5), p_cap + 1), n_min, n_cap,
                     lambda n, p: _feasible_k(n, p, M, G, offset))
    if best is None:
        raise ParamSearchError(
            f"{scheme}: no admissible (n, p, k) with p <= {p_cap}, n <= {n_cap} "
            f"for M={M}, G={G}, delta={delta}"
        )
    _, p, n, k = best
    return SelectedParams(scheme, M, G, delta, n, p, k, frame_factor * n * p)


def select_params_prop1(M: int, G: int, delta: int,
                        p_cap: int = 997, n_cap: int = 997) -> SelectedParams:
    """Cheapest padded-code frame: minimize (delta+1)*n*p.

    Constraints: p prime >= M, p^k >= G, n >= (k-1)(M-1)+1, n | p-1,
    3 <= k < n <= p.  Ties break toward smaller p, then smaller n.
    """
    return _search("prop1", M, G, delta, 0, delta + 1, p_cap, n_cap)


def select_params_prop2(M: int, G: int,
                        p_cap: int = 997, n_cap: int = 997) -> SelectedParams:
    """Cheapest doubled-slot frame for shift-tolerant codes: minimize 2*n*p.

    Constraints as for prop1 except the codebook requirement is
    p^(k-2) >= G (cyclically inequivalent codewords, not raw messages).
    """
    return _search("prop2", M, G, 0, 2, 2, p_cap, n_cap)


def length_bounds(M: int) -> tuple[int, int]:
    """(minimum weight, minimum period) every M-user conflict-free family obeys."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return M, -(-8 * M * M // 9)


def baseline_compare(M: int, G: int, delta: int) -> dict:
    """Frame lengths achieved by the dedicated-slot baseline and the two
    sequence constructions, against the quadratic floor.
    """
    floor = length_bounds(M)[1]
    rows = [{"scheme": "tdma", "frame_slots": (delta + 1) * G,
             "params": {"G": G, "delta": delta}}]
    for name, sel in (("prop1", select_params_prop1(M, G, delta)),
                      ("prop2", select_params_prop2(M, G))):
        rows.append({"scheme": name, "frame_slots": sel.period,
                     "params": {"n": sel.n, "p": sel.p, "k": sel.k}})
    for r in rows:
        r["meets_floor"] = bool(r["frame_slots"] >= floor)
    winner = min(rows, key=lambda r: r["frame_slots"])["scheme"]
    return {"M": M, "G": G, "delta": delta, "floor": floor, "rows": rows,
            "winner": winner,
            "note": ("dedicated slots stay competitive only when the local "
                     "user bound M is on the order of the population G; "
                     "otherwise the sequence schemes need far shorter frames")}
