"""protoseq benchmark: audit, field and cli workloads.

Usage, from the root of a checkout (nothing to build; the package is
imported from ./src):

    python3 perfbench/run.py --workload audit --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

A run sets up, then runs passes of its workload's jobs until `--seconds`
have gone by, checks every output against the oracle frozen in
expected.json, and prints one JSON result as its last line.  `--trace 0`
reports the end-to-end metrics; `--trace 1` alternates traced and untraced
passes and reports the per-layer metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, PER_LAYER, WORKLOADS, unit_of  # noqa: E402

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "job_s": "s", "work_per_s": "1/s"}
SETUP_REPEATS = 9
RESULTS = HERE / "results"
# what each workload's end-to-end metrics are called in the `all` table
ALL_NAMES = {"audit.job_s": "audit.pass_s", "audit.work_per_s": "audit.audits_per_s",
             "field.work_per_s": "field.rx_per_s",
             "cli.job_s": "cli.cmd_s_p50", "cli.work_per_s": "cli.cmd_per_s"}


def load_package():
    """Import protoseq from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "protoseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no protoseq sources under {src}; "
                         "run from the root of a protoseq checkout")
    sys.path.insert(0, str(src))
    import protoseq
    from protoseq import cli, crt, hexalloc, netsim, rscpc, sequences, verify  # noqa: F401
    if Path(protoseq.__file__).resolve().parent != (src / "protoseq").resolve():
        raise SystemExit(f"error: protoseq imported from {protoseq.__file__}, not {src}")
    return protoseq


def setup(args, tracer, workdir):
    """Everything before the first timed job: imports and input files."""
    P = load_package()
    expected = json.loads((HERE / "expected.json").read_text())
    oracle = expected["smoke" if args.smoke else "full"][args.workload]
    wl = WORKLOADS[args.workload](P, tracer, args.seed, args.smoke, workdir)
    return wl, oracle


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that runs `setup` and exits."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit}


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    s = sorted(values)
    return {"percentile": pct, "value": s[math.ceil(pct / 100 * n) - 1]}


def percentile(values: list[float], pct: int) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def check(outputs, oracle: dict, full: bool) -> list[str]:
    """Names of failed jobs, each with the reason."""
    failed = []
    for k, name, out, seed_free in outputs:
        if name not in oracle:
            failed.append(f"{name} (pass {k}): no frozen expectation")
            continue
        want = oracle[name]
        if full or seed_free is None:
            ok = out == want
        else:
            ok = seed_free(out) == seed_free(want)
        if not ok:
            failed.append(f"{name} (pass {k}): got {json.dumps(out)[:300]}")
    return failed


def run(args) -> dict:
    tracer = Tracer()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        wl, oracle = setup(args, tracer, workdir)
        if args.setup_probe:
            return {}
        env = environment()
        env["loadavg_before"] = os.getloadavg()
        probes = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
        setups = []
        probe_s = 0.0   # time spent in setup probes, not measured

        passes = []   # (traced, duration, work, job_times)
        outputs = []
        t_start = time.perf_counter()
        k = 0
        # stop when the next pass would more likely end after `--seconds`
        # than before, so a run measures about `--seconds`
        while k < (2 if args.trace else 1) or (
                time.perf_counter() - t_start - probe_s
                + statistics.median(p[1] for p in passes) / 2 < args.seconds):
            # trace runs alternate: untraced even passes, traced odd ones
            tracer.enabled = bool(args.trace) and k % 2 == 1
            t0 = time.perf_counter()
            with tracer.span("bench.pass"):
                res = wl.run_pass(k, k // 2 if args.trace else k)
            passes.append((tracer.enabled, time.perf_counter() - t0, res.work, res.job_times))
            outputs.extend(res.outputs)
            k += 1
            # setup probes are spread over the run, so that a slow moment of
            # the host sets neither setup_s alone nor the passes alone
            if len(setups) < probes and (time.perf_counter() - t_start - probe_s
                                         >= len(setups) * args.seconds / probes):
                t0 = time.perf_counter()
                setups.append(time_setup(args))
                probe_s += time.perf_counter() - t0
        tracer.enabled = False
        elapsed = time.perf_counter() - t_start - probe_s
        setups += [time_setup(args) for _ in range(probes - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_after"] = os.getloadavg()
    env["loaded"] = max(env["loadavg_before"][0], env["loadavg_after"][0]) > env["nproc"]
    failed = check(outputs, oracle, args.seed == DEFAULT_SEED)
    job_times = [t for _, _, _, jt in passes for t in jt]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "jobs": len(outputs), "measured_s": elapsed,
              "job_s_n": len(job_times), "job_s_tail": tail(job_times),
              "job_s_p90": percentile(job_times, 90), "setup_runs_s": setups,
              "failed_jobs": failed, "env": env}

    if args.trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(wl.layer_metrics(tracer.spans, outputs))
        metrics["trace.layer_coverage"] = wl.layer_coverage(tracer.spans)
        later = passes[1:] if len(passes) > 2 else passes
        per_work = {on: [d / w for t, d, w, _ in later if t == on and w] for on in (True, False)}
        if per_work[True] and per_work[False]:
            metrics["trace.overhead_frac"] = (statistics.median(per_work[True])
                                              / statistics.median(per_work[False]) - 1)
        units = {m: unit_of(m) for m in PER_LAYER}
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": wl.peak_rss_mb(),
                   "job_s": statistics.median(job_times),
                   "work_per_s": sum(w for _, _, w, _ in passes) / elapsed}
        units = END_TO_END
    detail["units"] = {m: units.get(m, "") for m in metrics}

    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (RESULTS / f"{name}.json").write_text(json.dumps(
        {"detail": detail, "metrics": metrics, "spans": tracer.spans}, indent=1))
    return {"detail": detail, "metrics": metrics, "units": units, "failed": failed,
            "attempted": len(outputs)}


def print_run(r: dict) -> None:
    d = r["detail"]
    print(f"workload={d['workload']} seed={d['seed']} trace={d['trace']}: "
          f"{d['passes']} passes, {d['jobs']} jobs in {d['measured_s']:.1f} s")
    if d["env"]["loaded"]:
        print(f"WARNING: load average {d['env']['loadavg_after'][0]} exceeds "
              f"nproc {d['env']['nproc']}; figures are suspect")
    for m, v in r["metrics"].items():
        print(f"  {m:52s} {v:14.6g} {r['units'].get(m, '')}")
    if not d["trace"]:
        t = d["job_s_tail"]
        print(f"  job_s: p50 over n={d['job_s_n']} jobs; "
              + (f"p{t['percentile']} {t['value']:.4g} s" if t else
                 "too few jobs for a tail percentile with 10 samples beyond it"))
    for f in r["failed"]:
        print(f"FAILED {f}")
    print("detail: " + json.dumps(d))


def run_all(args) -> int:
    """Every workload in its own process; prints the metrics by their
    workload-qualified names."""
    rows, failed, attempted = {}, 0, 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
        failed += result["failed"]
        attempted += result["attempted"]
        for m, v in result["metrics"].items():
            rows[ALL_NAMES.get(f"{w}.{m}", f"{w}.{m}")] = {"value": v["value"], "unit": v["unit"]}
        rows[f"{w}.failed_frac"] = {"value": result["failed"] / result["attempted"],
                                    "unit": "fraction"}
        if w == "cli" and not args.trace:
            rows["cli.cmd_s_p90"] = {"value": detail["job_s_p90"], "unit": "s",
                                     "n": detail["job_s_n"]}
    print("\nall workloads:")
    for m, v in rows.items():
        n = f"  (n={v['n']})" if "n" in v else ""
        print(f"  {m:60s} {v['value']:14.6g} {v['unit']}{n}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                                  for m, v in rows.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one pass; checks every output")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    if args.workload == "all":
        return run_all(args)
    r = run(args)
    if args.setup_probe:
        return 0
    print_run(r)
    print(json.dumps({"correct": not r["failed"], "attempted": r["attempted"],
                      "failed": len(r["failed"]),
                      "metrics": {m: {"value": v, "unit": r["units"][m]}
                                  for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
