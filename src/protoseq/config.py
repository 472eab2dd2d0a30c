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
from ._sizing import _config_int, _require_keys

# sequences, crt and rscpc are imported inside the builders that call them:
# the CLI's parser reads CONSTRUCTIONS, and a command that builds no set
# loads none of them, nor numpy
if TYPE_CHECKING:
    from .sequences import SequenceSet

__all__ = list(_EXPORTS["config"])


def _crt(cfg: dict, base_dir: str) -> SequenceSet:
    from .crt import crt_set
    return crt_set(cfg["p"], cfg["q"])


def _crt0(cfg: dict, base_dir: str) -> SequenceSet:
    from .crt import crt0_set
    return crt0_set(cfg["p"], cfg["q"])


def _rs_cpc(cfg: dict, base_dir: str) -> SequenceSet:
    from .rscpc import RsCpcParams, rs_cpc
    return rs_cpc(RsCpcParams(cfg["n"], cfg["p"], cfg["k"], cfg.get("alpha")))


def _tdma(cfg: dict, base_dir: str) -> SequenceSet:
    from .rscpc import tdma_set
    return tdma_set(cfg["G"], cfg["delta"])


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
    split = cfg.get("split_labels")
    return expanded_set(ExpandedSetSpec(
        sequences_from_config(cfg["base"], base_dir), cfg["p"], cfg["M"],
        split and _labels(split, "construction 'expanded' key 'split_labels'")))


def _labels(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of labels, got {value!r}")
    return list(value)


# keys every fragment may add
COMMON_KEYS = ("select", "pad_slots")
_INT_KEYS = ("p", "q", "n", "k", "alpha", "G", "delta", "M")  # checked before a builder runs

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

    A missing required key, a key a construction fragment does not read,
    a non-integer where an integer is read, or a label list that is not a
    list raises ValueError naming the key.
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
        _require_keys(cfg, required, f"construction {kind!r}")
        unread = [key for key in cfg
                  if key not in ("construction", *required, *optional, *COMMON_KEYS)]
        if unread:
            raise ValueError(f"construction {kind!r} does not read key(s): "
                             + ", ".join(repr(key) for key in unread))
        s = build({**cfg, **{key: _config_int(cfg[key], f"construction {kind!r} key {key!r}")
                             for key in _INT_KEYS if cfg.get(key) is not None}}, base_dir)
    else:
        raise ValueError("a sequence config needs a 'file', 'sequences' or "
                         "'construction' key")
    if cfg.get("select"):
        s = s.select(_labels(cfg["select"], "'select'"))
    pad = _config_int(cfg.get("pad_slots", 0), "'pad_slots'")
    if pad < 0:
        raise ValueError(f"'pad_slots' must be >= 0, got {pad}")
    if pad:
        from .rscpc import pad_set
        s = pad_set(s, pad)
    return s
