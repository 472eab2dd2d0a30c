"""Sequence sets from config fragments; the only module that knows the
construction names.

A fragment names a saved set (``file``, relative to ``base_dir``), holds
inline members (``sequences``) or names a ``construction`` with the keys
``CONSTRUCTIONS`` requires of it, plus any of its optional keys.  Any
fragment may add the ``COMMON_KEYS``: ``select`` (labels to keep, in order)
and ``pad_slots``.  A construction fragment holding any other key is
rejected, so no key is dropped without a word.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from . import _EXPORTS

# sequences, crt and rscpc are imported inside the builders that call them:
# the CLI's parser reads CONSTRUCTIONS, and a command that builds no set
# loads none of them, nor numpy
if TYPE_CHECKING:
    from .sequences import SequenceSet

__all__ = list(_EXPORTS["config"])


def _crt(cfg: dict, base_dir: str) -> SequenceSet:
    from .crt import crt_set
    return crt_set(int(cfg["p"]), int(cfg["q"]))


def _crt0(cfg: dict, base_dir: str) -> SequenceSet:
    from .crt import crt0_set
    return crt0_set(int(cfg["p"]), int(cfg["q"]))


def _rs_cpc(cfg: dict, base_dir: str) -> SequenceSet:
    from .rscpc import RsCpcParams, rs_cpc
    return rs_cpc(RsCpcParams(int(cfg["n"]), int(cfg["p"]), int(cfg["k"]), cfg.get("alpha")))


def _tdma(cfg: dict, base_dir: str) -> SequenceSet:
    from .rscpc import tdma_set
    return tdma_set(int(cfg["G"]), int(cfg["delta"]))


def _product(cfg: dict, base_dir: str) -> SequenceSet:
    from .crt import product
    from .sequences import SequenceSet
    x = sequences_from_config(cfg["x"], base_dir)
    y = sequences_from_config(cfg["y"], base_dir)
    pairs = [(lx, sx, ly, sy) for lx, sx in x for ly, sy in y]
    return SequenceSet(tuple(product(sx, sy) for _, sx, _, sy in pairs),
                       tuple(f"{lx}*{ly}" for lx, _, ly, _ in pairs),
                       {"construction": "product"})


def _expanded(cfg: dict, base_dir: str) -> SequenceSet:
    from .crt import ExpandedSetSpec, expanded_set
    base = sequences_from_config(cfg["base"], base_dir)
    return expanded_set(ExpandedSetSpec(
        base_set=base, p=int(cfg["p"]), M=int(cfg["M"]),
        split_labels=cfg.get("split_labels")))


# keys every fragment may add
COMMON_KEYS = ("select", "pad_slots")

# construction name -> (required keys, optional keys, builder(cfg, base_dir))
CONSTRUCTIONS = {
    "crt": (("p", "q"), (), _crt),
    "crt0": (("p", "q"), (), _crt0),
    "rs_cpc": (("n", "p", "k"), ("alpha",), _rs_cpc),
    "product": (("x", "y"), (), _product),
    "expanded": (("base", "p", "M"), ("split_labels",), _expanded),
    "tdma": (("G", "delta"), (), _tdma),
}


def sequences_from_config(cfg: dict, base_dir: str = ".") -> SequenceSet:
    """Build or load a sequence set from a config fragment.

    A missing required key, or a key a construction fragment does not
    read, raises ValueError naming the construction and the key.
    """
    from .sequences import SequenceSet
    if "file" in cfg:
        s = SequenceSet.load(os.path.join(base_dir, cfg["file"]))
    elif "sequences" in cfg:
        s = SequenceSet.from_json(cfg)
    elif "construction" in cfg:
        kind = cfg["construction"]
        if kind not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {kind!r}; expected one of "
                             + ", ".join(CONSTRUCTIONS))
        required, optional, build = CONSTRUCTIONS[kind]
        missing = [key for key in required if cfg.get(key) is None]
        if missing:
            raise ValueError(f"construction {kind!r} is missing required key(s): "
                             + ", ".join(repr(key) for key in missing))
        unread = [key for key in cfg
                  if key not in ("construction", *required, *optional, *COMMON_KEYS)]
        if unread:
            raise ValueError(f"construction {kind!r} does not read key(s): "
                             + ", ".join(repr(key) for key in unread))
        s = build(cfg, base_dir)
    else:
        raise ValueError("a sequence config needs a 'file', 'sequences' or "
                         "'construction' key")
    if cfg.get("select"):
        s = s.select(list(cfg["select"]))
    pad = int(cfg.get("pad_slots", 0))
    if pad < 0:
        raise ValueError(f"'pad_slots' must be >= 0, got {pad}")
    if pad:
        from .rscpc import pad_set
        s = pad_set(s, pad)
    return s
