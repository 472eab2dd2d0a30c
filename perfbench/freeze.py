"""Freeze the correctness oracle: run every job once at the default seed and
write the outputs to expected.json.

    python3 perfbench/freeze.py

Re-freezing accepts whatever the current code outputs, so do it only for a
change that is meant to alter a verdict, a counterexample or an output
byte, and say so in its description.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, load_package
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Field


def freeze(P, smoke: bool) -> dict:
    out = {}
    for name, cls in WORKLOADS.items():
        workdir = HERE / ".work" / f"freeze-{name}"
        try:
            wl = cls(P, Tracer(), DEFAULT_SEED, smoke, workdir)
            passes = len(wl.placements) if cls is Field else 1
            jobs = {}
            for k in range(passes):
                for _, job, value, _ in wl.run_pass(k, k).outputs:
                    jobs[job] = value
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        raised = [j for j, v in jobs.items() if isinstance(v, dict) and "raised" in v]
        if raised:
            sys.exit(f"error: jobs raised while freezing: {raised}")
        out[name] = jobs
        print(f"froze {len(jobs)} {name} jobs{' (smoke)' if smoke else ''}", file=sys.stderr)
    return out


def main() -> int:
    P = load_package()
    doc = {"default_seed": DEFAULT_SEED,
           "full": freeze(P, smoke=False), "smoke": freeze(P, smoke=True)}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
