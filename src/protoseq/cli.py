"""Command-line interface.

Subcommands: gen (construct sequence sets), verify (property audits),
alloc (hex reuse planning), params (frame-length search), sim (slot-level
superframe simulation), compare (scheme comparison table).

Exit codes: 0 = property holds / success, 1 = property violated,
2 = usage error or infeasible parameters.

Every run carries a manifest: the deterministic core (command, input
digest, seed, version) is embedded in data outputs; wall-clock timestamps
live only in the sidecar <out>.manifest.json so reruns with equal inputs
produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from . import __version__
# the parser needs CONSTRUCTIONS, and config loads no numpy; sequences,
# verify, hexalloc and netsim are imported inside the commands that run
# them, so a cold run loads only its own, and params, compare and alloc
# load no numpy
from ._sizing import baseline_compare, json_text, select_params_prop1, select_params_prop2
from .config import COMMON_KEYS, CONSTRUCTIONS, sequences_from_config

if TYPE_CHECKING:
    from .sequences import SequenceSet


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _manifest_core(args: argparse.Namespace, extra: dict | None = None) -> dict:
    payload = {k: v for k, v in vars(args).items()
               if k not in ("func", "out", "format") and v is not None}
    if extra:
        payload.update(extra)
    return {"command": args.command, "config_digest": _digest(payload),
            "seed": getattr(args, "seed", None), "version": __version__}


def _emit(doc: dict, args: argparse.Namespace, manifest: dict) -> None:
    doc = dict(doc)
    doc["manifest"] = manifest
    text = json_text(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_sidecar(args.out, manifest, [args.out])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _write_sidecar(out_path: str, manifest: dict, outputs: list[str],
                   facts: dict | None = None) -> None:
    side = dict(manifest)
    side["outputs"] = outputs
    side.update(facts or {})
    side["created_utc"] = datetime.now(timezone.utc).isoformat()
    with open(out_path + ".manifest.json", "w") as fh:
        fh.write(json_text(side))


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required flag(s): "
                         + ", ".join("--" + n.replace("_", "-") for n in missing))


# ---------------------------------------------------------------------------

# gen flag -> (config key, type, help), in the order --help lists them; the
# file flags name saved sets, and an empty string counts as absent (--pad 0
# pads nothing either way)
_GEN_FLAGS = {
    "p": ("p", int, None),
    "q": ("q", int, None),
    "n": ("n", int, None),
    "k": ("k", int, None),
    "alpha": ("alpha", int, None),
    "g": ("G", int, None),
    "delta": ("delta", int, None),
    "x": ("x", str, "left factor set file (product)"),
    "y": ("y", str, "right factor set file (product)"),
    "base": ("base", str, "base set file (expanded)"),
    "m": ("M", int, "local user bound (expanded)"),
    "split": ("split_labels", str, "comma-separated guard labels"),
    "pad": ("pad_slots", int, "pad with this many silent slots per 1"),
}
_FILE_FLAGS = ("x", "y", "base")


def cmd_gen(args) -> int:
    cfg = {"construction": args.kind}
    for flag, (key, _, _) in _GEN_FLAGS.items():
        value = getattr(args, flag)
        if value is None or value == "":
            continue
        if flag in _FILE_FLAGS:
            value = {"file": value}
        elif flag == "split":
            value = value.split(",")
        cfg[key] = value
    required, optional, _ = CONSTRUCTIONS[args.kind]
    unread = [f"--{flag}" for flag, (key, _, _) in _GEN_FLAGS.items()
              if key in cfg and key not in (*required, *optional, *COMMON_KEYS)]
    if unread:
        raise ValueError(f"construction {args.kind!r} does not read flag(s): "
                         + ", ".join(unread))
    s = sequences_from_config(cfg)
    weights = sorted({seq.weight for seq in s.sequences})
    print(f"{len(s)} sequences, period {s.period}, weights {weights}",
          file=sys.stderr)
    _emit(s.to_json(), args, _manifest_core(args))
    return 0


def _load_set(args) -> SequenceSet:
    if getattr(args, "set", None):
        from .sequences import SequenceSet
        return SequenceSet.load(args.set)
    if getattr(args, "config", None):
        return sequences_from_config(json.loads(args.config))
    if args.property == "window" and getattr(args, "p", None) is not None:
        from .crt import crt0_set
        return crt0_set(args.p, 2 * args.p - 1)
    raise ValueError("provide --set FILE or --config JSON"
                     + (" or --p" if args.property == "window" else ""))


def cmd_verify(args) -> int:
    from .verify import (is_ui, max_conflict_free_gap, min_conflict_free_count,
                         separation_audit, window_audit, xcorr_bound_audit)
    # the flags default to None so that _warn_unread sees which were given;
    # the defaults are filled in before the manifest's config digest
    mode = args.mode = args.mode or "exhaustive"
    if args.samples is None:
        args.samples = 100_000
    prop = args.property
    if prop == "window" and args.p is not None and args.p < 1:
        raise ValueError(f"--p must be >= 1, got {args.p}")
    s = _load_set(args)
    protected = args.protected.split(",") if args.protected else None
    if prop == "ui":
        rep = is_ui(s, mode=mode, samples=args.samples, seed=args.seed,
                    jobs=1 if args.jobs is None else args.jobs)
    elif prop == "xcorr":
        _require(args, "bound")
        rep = xcorr_bound_audit(s, args.bound)
    elif prop == "separation":
        rep = separation_audit(s, args.bound)
    elif prop == "window":
        window = args.window if args.window is not None else (
            2 * args.p if args.p is not None else None)
        rep = window_audit(s, window=window, mode=mode, samples=args.samples,
                           seed=args.seed)
    elif prop == "cf-count":
        rep = min_conflict_free_count(
            s, protected, mode=mode, samples=args.samples, seed=args.seed,
            threshold=args.threshold)
    elif prop == "cf-gap":
        rep = max_conflict_free_gap(
            s, protected, mode=mode, samples=args.samples, seed=args.seed,
            bound=args.bound)
    _emit(rep.to_json(), args, _manifest_core(args))
    print(f"{prop}: {rep.verdict}", file=sys.stderr)
    return rep.exit_code


def cmd_alloc(args) -> int:
    import math

    from .hexalloc import HexCell, ReusePlan
    _require(args, "r", "h")
    R, h = args.r, args.h
    plan = ReusePlan.from_geometry(h, R)
    d = math.sqrt(3.0) * h
    doc = {"G": plan.G, "b1": plan.b1, "b2": plan.b2,
           "threshold": (2 * R / d) ** 2,
           "min_cochannel_m": d * math.sqrt(plan.G)}
    if args.cell:
        try:
            m, n = (int(v) for v in args.cell.split(","))
        except ValueError:
            raise ValueError(f"--cell must be two integers m,n, got {args.cell!r}") from None
        doc["cell"] = [m, n]
        doc["index"] = plan.allocate(HexCell(m, n))
        print(f"cell ({m},{n}) -> index {doc['index']}", file=sys.stderr)
    else:
        doc["plan"] = plan.to_json()
        print(f"G={plan.G} (b1={plan.b1}, b2={plan.b2}), min cochannel "
              f"{doc['min_cochannel_m']:.3f} m", file=sys.stderr)
    _emit(doc, args, _manifest_core(args))
    return 0


def cmd_params(args) -> int:
    _require(args, "m", "g")
    if args.scheme == "prop1":
        _require(args, "delta")
        sel = select_params_prop1(args.m, args.g, args.delta)
    else:
        sel = select_params_prop2(args.m, args.g)
    doc = {"scheme": sel.scheme, "M": sel.M, "G": sel.G, "delta": sel.delta,
           "n": sel.n, "p": sel.p, "k": sel.k, "frame_slots": sel.period}
    _emit(doc, args, _manifest_core(args))
    print(f"{sel.scheme}: L={sel.period} at (n={sel.n}, p={sel.p}, k={sel.k})",
          file=sys.stderr)
    return 0


def cmd_sim(args) -> int:
    from .netsim import (Scenario, check_block_free, frame_offset_audit,
                         run_superframe)
    _require(args, "config")
    with open(args.config) as fh:
        cfg = json.load(fh)
    sc = Scenario.from_config(cfg, base_dir=os.path.dirname(args.config) or ".")
    seed = args.seed
    if seed is None:
        import numpy as np
        seed = int(np.random.SeedSequence().entropy % (2 ** 31))
        print(f"generated seed: {seed}", file=sys.stderr)
    log = run_superframe(sc, seed=seed)
    report = check_block_free(log, sc)
    doc = report.to_json()
    doc["frame_offset_audit"] = frame_offset_audit(log, sc)
    manifest = _manifest_core(args, {"config_content": cfg, "resolved_seed": seed})
    doc["manifest"] = manifest
    if args.out:
        report_path = args.out + ".report.json"
        csv_path = args.out + ".log.csv"
        with open(report_path, "w") as fh:
            fh.write(json_text(doc))
        log.to_csv(csv_path)
        # facts the pinned data files do not carry go to the sidecar only
        _write_sidecar(args.out, manifest, [report_path, csv_path],
                       {"max_disk_users": sc.max_disk_users,
                        "neighbor_pairs": report.stats["neighbor_pairs"],
                        "loss_causes": log.loss_counts()})
        print(f"wrote {report_path} and {csv_path}", file=sys.stderr)
    else:
        sys.stdout.write(json_text(doc))
    print(f"block_free: {report.verdict}", file=sys.stderr)
    return report.exit_code


def cmd_compare(args) -> int:
    _require(args, "m", "g", "delta")
    table = baseline_compare(args.m, args.g, args.delta)
    if args.format == "csv":
        lines = ["scheme,frame_slots,meets_floor,params"]
        for r in table["rows"]:
            params = ";".join(f"{k}={v}" for k, v in sorted(r["params"].items()))
            lines.append(f"{r['scheme']},{r['frame_slots']},"
                         f"{int(r['meets_floor'])},{params}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            _write_sidecar(args.out, _manifest_core(args), [args.out])
        else:
            sys.stdout.write(text)
    else:
        _emit(table, args, _manifest_core(args))
    print(f"winner: {table['winner']} (floor {table['floor']})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--jobs", type=int, default=None)
    common.add_argument("--out", type=str, default=None)

    ap = argparse.ArgumentParser(
        prog="protoseq",
        description="Construct, verify, allocate, and simulate feedback-free "
                    "transmission schedules.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common],
                       help="construct a sequence set and write it as JSON")
    g.add_argument("kind", choices=list(CONSTRUCTIONS))
    for flag, (_, kind, text) in _GEN_FLAGS.items():
        g.add_argument(f"--{flag}", type=kind, help=text)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", parents=[common],
                       help="run a property audit and write a report")
    v.add_argument("property", choices=list(_VERIFY_READS))
    v.add_argument("--set", type=str, help="sequence set JSON file")
    v.add_argument("--config", type=str, help="inline construction config JSON")
    v.add_argument("--mode", choices=["exhaustive", "random"],
                   help="default: exhaustive")
    v.add_argument("--samples", type=int, help="random mode (default: 100000)")
    v.add_argument("--bound", type=int)
    v.add_argument("--threshold", type=int)
    v.add_argument("--window", type=int)
    v.add_argument("--p", type=int,
                   help="window shortcut: audit the p-member split family")
    v.add_argument("--protected", type=str,
                   help="comma-separated protected labels (cf-count/cf-gap)")
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("alloc", parents=[common],
                       help="compute reuse cluster size and cell allocation")
    a.add_argument("--r", "--R", dest="r", type=float, help="hearing radius (m)")
    a.add_argument("--h", type=float, help="cell radius (m)")
    a.add_argument("--cell", type=str, help="m,n cell to allocate")
    a.set_defaults(func=cmd_alloc)

    p = sub.add_parser("params", parents=[common],
                       help="search frame parameters for a scheme")
    p.add_argument("scheme", choices=["prop1", "prop2"])
    p.add_argument("--m", "--M", dest="m", type=int)
    p.add_argument("--g", "--G", dest="g", type=int)
    p.add_argument("--delta", type=int)
    p.set_defaults(func=cmd_params)

    s = sub.add_parser("sim", parents=[common],
                       help="simulate one superframe and audit block-free service")
    s.add_argument("--config", type=str, help="scenario config JSON file")
    s.set_defaults(func=cmd_sim)

    c = sub.add_parser("compare", parents=[common],
                       help="frame lengths of the baseline and both schemes")
    c.add_argument("--m", "--M", dest="m", type=int)
    c.add_argument("--g", "--G", dest="g", type=int)
    c.add_argument("--delta", type=int)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.set_defaults(func=cmd_compare)
    return ap


# the property-specific verify flags each property reads
_VERIFY_READS = {"ui": (), "xcorr": ("bound",), "separation": ("bound",),
                 "window": ("window", "p"), "cf-count": ("threshold", "protected"),
                 "cf-gap": ("bound", "protected")}


def _warn_unread(args) -> None:
    """Warn on stderr about the flags a command does not read.

    Only a warning: scripts pass --seed and --jobs to every command, and
    one verify command line may be reused across properties.
    """
    ui = args.command == "verify" and args.property == "ui"
    if args.jobs is not None and not ui:
        print("warning: --jobs has no effect here; only 'verify ui' reads it", file=sys.stderr)
    elif args.jobs is not None and args.mode == "random":
        print("warning: --jobs has no effect on 'verify ui' in random mode; "
              "only exhaustive scans are split", file=sys.stderr)
    if args.seed is not None and args.command in ("gen", "alloc", "params", "compare"):
        print(f"warning: --seed has no effect on '{args.command}'", file=sys.stderr)
    if args.command != "verify":
        return
    drawless = args.property in ("xcorr", "separation")
    if args.seed is not None and (drawless or args.mode != "random"):
        print(f"warning: --seed has no effect on 'verify {args.property}'"
              + ("" if drawless else " in exhaustive mode") + "; nothing is drawn",
              file=sys.stderr)
    for flag in ("mode", "samples"):
        if drawless and getattr(args, flag) is not None:
            print(f"warning: --{flag} has no effect on 'verify {args.property}'; "
                  "it is always exhaustive", file=sys.stderr)
    for flag in ("bound", "window", "p", "threshold", "protected"):
        if getattr(args, flag) is not None and flag not in _VERIFY_READS[args.property]:
            print(f"warning: --{flag} has no effect on 'verify {args.property}'",
                  file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    _warn_unread(args)
    try:
        return args.func(args)
    # missing flags, state-cap overruns, infeasible searches and malformed
    # JSON are all ValueErrors
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
