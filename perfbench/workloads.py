"""The three workloads.  Each is a closed loop driven by one client in one
process: the next job starts only after the previous one has finished.

* audit: in-process time to a verdict.  The `verify` kernels do nearly all
  the work and `netsim` none, so a shift-space engine change shows here and
  is predicted flat on `field`.
* field: audited superframes on a 400-user wide-area deployment.  `netsim`
  and `hexalloc` do all the work and `verify` none.
* cli: cold `protoseq` subprocesses.  Import time, config dispatch and
  JSON/CSV emission exist only on this path.

A workload turns the workload seed into its inputs, runs one pass of jobs
per `run_pass` call and returns each job's output as a JSON-able value,
which the harness compares with the frozen oracle in `expected.json`.
Every call into a protoseq layer goes through `Tracer.call`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import layer_of, self_times

DEFAULT_SEED = 0

# per-layer metric names; their unit follows from the name (`unit_of`)
PER_LAYER = [
    "verify.is_ui.exhaustive.assign_per_s",
    "verify.is_ui.exhaustive_jobs2.assign_per_s",
    "verify.is_ui.random.assign_per_s",
    "verify.window_audit.exhaustive.assign_per_s",
    "verify.window_audit.random.assign_per_s",
    "verify.min_conflict_free_count.random.assign_per_s",
    "verify.max_conflict_free_gap.random.assign_per_s",
    "verify.xcorr_bound_audit.shift_pairs_per_s",
    "verify.is_ui.counterexample_s",
    "verify.window_audit.counterexample_s",
    "verify.busy_s",
    "sequences.cyclic_min_distance_s",
    "crt.expanded_set_s",
    "crt.build_s",
    "rscpc.rs_cpc_s",
    "hexalloc.plan_s",
    "netsim.scenario_s",
    "netsim.run_superframe_s",
    "netsim.check_block_free_s",
    "netsim.frame_offset_audit_s",
    "netsim.receptions",
    "netsim.neighbor_pairs",
    "netsim.cf_ratio",
    "cli.import_s",
    "cli.verify_ui.cmd_s",
    "cli.verify_window.cmd_s",
    "cli.verify_xcorr.cmd_s",
    "cli.sim.cmd_s",
    "cli.alloc.cmd_s",
    "cli.gen.cmd_s",
    "cli.params.cmd_s",
    "cli.compare.cmd_s",
    "cli.out_bytes",
    "trace.overhead_frac",
    "trace.layer_coverage",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric in ("netsim.receptions", "netsim.neighbor_pairs"):
        return "count"
    return "fraction"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def normalize(value):
    """JSON round trip, so tuples and lists compare equal to the oracle."""
    return json.loads(json.dumps(value))


@dataclass
class Job:
    """One checked unit of work.

    `run` returns the output compared with the oracle.  At the default
    workload seed the whole output must equal the frozen one; at another
    seed only `seed_free(output)`, the facts that do not depend on the
    seed (None: the whole output does not depend on it).
    """

    name: str
    run: object
    seed_free: object = None


@dataclass
class PassResult:
    job_times: list[float] = field(default_factory=list)
    # (pass index, job name, output, seed-free projection or None)
    outputs: list[tuple] = field(default_factory=list)
    work: float = 0.0


def _random_facts(report: dict) -> dict:
    # the verdicts of these random audits are theorem-backed, so they and
    # the sample count hold for every seed; the extreme values do not
    return {k: report[k] for k in ("property", "mode", "samples", "verdict",
                                   "counterexample")}


def _median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _spans_by_pass(spans: list[dict]) -> list[tuple[dict, list[dict]]]:
    """(pass span, its descendant spans) for each traced pass."""
    owner: dict[int, int] = {}
    out: dict[int, tuple[dict, list[dict]]] = {}
    for s in spans:
        if s["name"] == "bench.pass":
            out[s["id"]] = (s, [])
            owner[s["id"]] = s["id"]
        elif s["parent"] is not None and s["parent"] in owner:
            owner[s["id"]] = owner[s["parent"]]
            out[owner[s["id"]]][1].append(s)
    return list(out.values())


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


class Workload:
    name = ""
    layers: tuple[str, ...] = ()

    def __init__(self, P, tracer, seed: int, smoke: bool, workdir: Path):
        self.P = P
        self.tr = tracer
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(seed)

    def run_pass(self, k: int, i: int) -> PassResult:
        """Run pass `k` on input set `i`.  Only `field` has several input
        sets (its placements); a traced run gives each untraced pass and
        the traced pass after it the same `i`, so they do the same work."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS of the benchmark process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _run_job(self, job: Job, res: PassResult, k: int) -> None:
        self.tr.job = f"{k}:{job.name}"
        t0 = time.perf_counter()
        with self.tr.span("bench.job"):
            try:
                out = job.run()
            except Exception as e:  # a job that raises counts as failed
                out = {"raised": f"{type(e).__name__}: {e}"}
        res.job_times.append(time.perf_counter() - t0)
        res.outputs.append((k, job.name, normalize(out), job.seed_free))
        self.tr.job = None

    def layer_coverage(self, spans: list[dict]) -> float:
        """Median share of a traced pass spent in this workload's layers."""
        st = self_times(spans)
        shares = []
        for p, inner in _spans_by_pass(spans):
            busy = sum(st[s["id"]] for s in inner
                       if layer_of(s["name"]) in self.layers)
            shares.append(busy / _dur(p))
        return _median_or_zero(shares)

    def layer_metrics(self, spans: list[dict], outputs) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------

class Audit(Workload):
    name = "audit"
    layers = ("verify", "sequences", "crt", "rscpc")

    # (metric, job, kind): kind "rate" is the report's samples over the
    # audit call's duration, "time" the duration itself; violated is_ui
    # reports count the whole state space, so they report time only
    RATES = [
        ("verify.is_ui.exhaustive.assign_per_s", "is_ui.exhaustive", "rate"),
        ("verify.is_ui.exhaustive_jobs2.assign_per_s", "is_ui.exhaustive_jobs2", "rate"),
        ("verify.is_ui.random.assign_per_s", "is_ui.random", "rate"),
        ("verify.window_audit.exhaustive.assign_per_s", "window_audit.exhaustive", "rate"),
        ("verify.window_audit.random.assign_per_s", "window_audit.random", "rate"),
        ("verify.min_conflict_free_count.random.assign_per_s",
         "min_conflict_free_count.random", "rate"),
        ("verify.max_conflict_free_gap.random.assign_per_s",
         "max_conflict_free_gap.random", "rate"),
        ("verify.xcorr_bound_audit.shift_pairs_per_s", "xcorr_bound_audit", "rate"),
        ("verify.is_ui.counterexample_s", "is_ui.exhaustive_violated", "time"),
        ("verify.window_audit.counterexample_s", "window_audit.exhaustive", "time"),
    ]
    # metric -> span names summed per pass
    SUMS = {
        "sequences.cyclic_min_distance_s": ("sequences.cyclic_min_distance",),
        "crt.expanded_set_s": ("crt.expanded_set",),
        "crt.build_s": ("crt.crt0_set", "crt.crt_set"),
        "rscpc.rs_cpc_s": ("rscpc.rs_cpc",),
    }

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        if self.smoke:
            size = dict(ui=(3, 5), rand=(5, 9, 2_000), win=((4, 7), 7),
                        cf_samples=300, big=(5, 11, 3), big_bound=2,
                        expand_base=(8, 17, 3), expand_M=3)
        else:
            size = dict(ui=(5, 9), rand=(7, 13, 100_000), win=((5, 9), 6),
                        cf_samples=10_000, big=(16, 17, 4), big_bound=3,
                        expand_base=(16, 17, 4), expand_M=6)
        seeds = {name: self.rng.randrange(2 ** 31) for name in
                 ("is_ui", "window", "cf_count", "cf_gap")}
        self.jobs = self._jobs(size, seeds)

    def _jobs(self, z, seeds) -> list[Job]:
        P, c = self.P, self.tr.call
        V = P.verify

        def crt0(p, q):
            return c("crt.crt0_set", P.crt.crt0_set, p, q)

        def rs(n, p, k):
            return c("rscpc.rs_cpc", lambda: P.rscpc.rs_cpc(P.rscpc.RsCpcParams(n, p, k)))

        def first5_rs():
            fam = rs(5, 11, 3)
            return c("sequences.SequenceSet.select", fam.select, fam.labels[:5])

        def expanded(base, p, M):
            return c("crt.expanded_set",
                     lambda: P.crt.expanded_set(P.crt.ExpandedSetSpec(base_set=base, p=p, M=M)))

        def criterion5_selection():
            n, f, k = c("crt.select_expansion_base", P.crt.select_expansion_base, 3, 3)
            es = expanded(rs(n, f, k), 3, 3)
            labels = list(es.meta["guard_labels"]) + list(es.meta["open_labels"])[: es.meta["M"] - 1]
            return c("sequences.SequenceSet.select", es.select, labels)

        rp, rq, samples = z["rand"]
        (wp, wq), window = z["win"]
        big = z["big"]

        def expanded_job():
            s = expanded(rs(*z["expand_base"]), 3, z["expand_M"])
            return {"members": len(s), "period": s.period, "sha256": digest(s.to_json())}

        return [
            Job("is_ui.exhaustive",
                lambda: c("verify.is_ui", V.is_ui, crt0(*z["ui"]), jobs=1).to_json()),
            Job("is_ui.exhaustive_jobs2",
                lambda: c("verify.is_ui", V.is_ui, crt0(*z["ui"]), jobs=2).to_json()),
            Job("is_ui.exhaustive_violated",
                lambda: c("verify.is_ui", V.is_ui, first5_rs(), jobs=1).to_json()),
            Job("is_ui.random",
                lambda: c("verify.is_ui", V.is_ui, crt0(rp, rq), mode="random",
                          samples=samples, seed=seeds["is_ui"]).to_json(),
                _random_facts),
            Job("window_audit.exhaustive",
                lambda: c("verify.window_audit", V.window_audit, crt0(wp, wq),
                          window=window).to_json()),
            Job("window_audit.random",
                lambda: c("verify.window_audit", V.window_audit, crt0(rp, rq),
                          mode="random", samples=samples, seed=seeds["window"]).to_json(),
                _random_facts),
            Job("min_conflict_free_count.random",
                lambda: c("verify.min_conflict_free_count", V.min_conflict_free_count,
                          criterion5_selection(), samples=z["cf_samples"],
                          seed=seeds["cf_count"]).to_json(),
                _random_facts),
            Job("max_conflict_free_gap.random",
                lambda: c("verify.max_conflict_free_gap", V.max_conflict_free_gap,
                          criterion5_selection(), samples=z["cf_samples"],
                          seed=seeds["cf_gap"]).to_json(),
                _random_facts),
            Job("xcorr_bound_audit",
                lambda: c("verify.xcorr_bound_audit", V.xcorr_bound_audit, rs(*big),
                          z["big_bound"]).to_json()),
            Job("expanded_set", expanded_job),
            Job("cyclic_min_distance",
                lambda: c("sequences.cyclic_min_distance", P.sequences.cyclic_min_distance,
                          rs(*big).sequences)),
        ]

    def run_pass(self, k: int, i: int) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        for job in self.jobs:
            self._run_job(job, res, k)
        # one audit job is one pass over the whole job list
        res.job_times = [time.perf_counter() - t0]
        res.work = len(self.jobs)
        return res

    def layer_metrics(self, spans, outputs) -> dict[str, float]:
        st = self_times(spans)
        samples = {f"{k}:{name}": out.get("samples")
                   for k, name, out, _ in outputs if isinstance(out, dict)}
        per_metric: dict[str, list[float]] = {
            m: [] for m in [*(m for m, _, _ in self.RATES), *self.SUMS, "verify.busy_s"]}
        for p, inner in _spans_by_pass(spans):
            for m, job, kind in self.RATES:
                for s in inner:
                    if layer_of(s["name"]) == "verify" and s["job"].endswith(":" + job):
                        d = _dur(s)
                        n = samples.get(s["job"])
                        per_metric[m].append(d if kind == "time" else (n or 0) / d)
            for m, names in self.SUMS.items():
                per_metric[m].append(sum(_dur(s) for s in inner if s["name"] in names))
            per_metric["verify.busy_s"].append(
                sum(st[s["id"]] for s in inner if layer_of(s["name"]) == "verify"))
        return {m: _median_or_zero(v) for m, v in per_metric.items()}


# ---------------------------------------------------------------------------

class Field(Workload):
    name = "field"
    layers = ("netsim", "hexalloc")

    TAU_S, DELTA_C, R_M, H_M, M, F = 1e-6, 2, 500.0, 150.0, 17, 3
    PLACEMENTS = 32

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        if self.smoke:
            self.users, self.area, n = 30, [0, 0, 2000, 1800], 2
        else:
            self.users, self.area, n = 400, [0, 0, 8000, 7000], self.PLACEMENTS
        # the same list on every run with this workload seed; jobs cycle it
        self.placements = [(self.rng.randrange(2 ** 31),
                            [self.rng.randrange(2 ** 31) for _ in range(3)])
                           for _ in range(n)]

    def _job(self, placement_seed: int, superframe_seeds: list[int]) -> dict:
        P, c = self.P, self.tr.call
        N = P.netsim
        dp = c("netsim.delta_p", N.delta_p, self.R_M, self.TAU_S)
        labels = list(c("crt.crt0_set", P.crt.crt0_set, 17, 33).labels)
        plan = c("hexalloc.plan", P.hexalloc.ReusePlan.from_geometry,
                 self.H_M, self.R_M, labels=labels)
        cfg = {"sequences": {"construction": "crt0", "p": 17, "q": 33,
                             "pad_slots": self.DELTA_C + dp},
               "tau_s": self.TAU_S, "R_m": self.R_M, "h_m": self.H_M,
               "L": 17 * 33 * (self.DELTA_C + dp + 1), "F": self.F,
               "delta_c_slots": self.DELTA_C, "M": self.M, "plan": plan.to_json(),
               "users": {"random_users": self.users, "area": self.area,
                         "seed": placement_seed}}
        sc = c("netsim.scenario", N.Scenario.from_config, cfg)
        frames = []
        pairs = None
        for s in superframe_seeds:
            log = c("netsim.run_superframe", N.run_superframe, sc, seed=s)
            rep = c("netsim.check_block_free", N.check_block_free, log, sc)
            fo = c("netsim.frame_offset_audit", N.frame_offset_audit, log, sc)
            pairs = rep.stats["neighbor_pairs"]
            frames.append({"receptions": len(log),
                           "contention_free": rep.stats["contention_free"],
                           "min_count": rep.stats["min_count"],
                           "holds": rep.holds, "frame_offset_audit": fo})
        return {"max_disk_users": sc.max_disk_users, "neighbor_pairs": pairs,
                "superframes": frames}

    @staticmethod
    def _facts(out: dict) -> list:
        # block-free service and the frame-offset bound are theorems
        if "superframes" not in out:
            return out
        return [{"holds": f["holds"], "frame_offset_audit": f["frame_offset_audit"]}
                for f in out["superframes"]]

    def run_pass(self, k: int, i: int) -> PassResult:
        i %= len(self.placements)
        pseed, sfseeds = self.placements[i]
        res = PassResult()
        self._run_job(Job(f"scenario[{i}]", lambda: self._job(pseed, sfseeds),
                          self._facts), res, k)
        out = res.outputs[0][2]
        res.work = sum(f["receptions"] for f in out.get("superframes", []))
        return res

    def layer_metrics(self, spans, outputs) -> dict[str, float]:
        def per_call(name):
            return _median_or_zero([_dur(s) for s in spans if s["name"] == name])

        outs = [o for _, _, o, _ in outputs if "superframes" in o]
        rx = [sum(f["receptions"] for f in o["superframes"]) for o in outs]
        cf = [sum(f["contention_free"] for f in o["superframes"]) for o in outs]
        return {
            "hexalloc.plan_s": per_call("hexalloc.plan"),
            "netsim.scenario_s": per_call("netsim.scenario"),
            "netsim.run_superframe_s": per_call("netsim.run_superframe"),
            "netsim.check_block_free_s": per_call("netsim.check_block_free"),
            "netsim.frame_offset_audit_s": per_call("netsim.frame_offset_audit"),
            "netsim.receptions": _median_or_zero(rx),
            "netsim.neighbor_pairs": _median_or_zero([o["neighbor_pairs"] for o in outs]),
            "netsim.cf_ratio": sum(cf) / sum(rx) if rx and sum(rx) else 0.0,
        }


# ---------------------------------------------------------------------------

class Cli(Workload):
    name = "cli"
    layers = ("cli",)

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        if self.smoke:
            ui, sim_users, alloc, gen, mg = "3,5", 12, ("20", "1"), ("5", "11", "3"), ("3", "7")
        else:
            ui, sim_users, alloc, gen, mg = "5,9", 50, ("2000", "1"), ("16", "17", "4"), ("5", "37")
        p, q = ui.split(",")
        seeds = [str(self.rng.randrange(2 ** 31)) for _ in range(8)]

        def cmd(i, *argv):
            return ["-m", "protoseq.cli", *argv, "--seed", seeds[i], "--jobs", "1"]

        # (name, argv after the interpreter, data files it writes)
        self.commands = [
            ("import", ["-c", "import protoseq"], []),
            ("verify_ui", cmd(0, "verify", "ui", "--config",
                              f'{{"construction":"crt0","p":{p},"q":{q}}}',
                              "--out", "verify_ui.json"), ["verify_ui.json"]),
            ("verify_window", cmd(1, "verify", "window", "--p", "3",
                                  "--out", "verify_window.json"), ["verify_window.json"]),
            ("verify_xcorr", cmd(2, "verify", "xcorr", "--config",
                                 '{"construction":"crt0","p":4,"q":7}', "--bound", "1",
                                 "--out", "verify_xcorr.json"), ["verify_xcorr.json"]),
            ("sim", cmd(3, "sim", "--config", "sim_config.json", "--out", "sim"),
             ["sim.report.json", "sim.log.csv"]),
            ("alloc", cmd(4, "alloc", "--r", alloc[0], "--h", alloc[1],
                          "--out", "alloc.json"), ["alloc.json"]),
            ("gen", cmd(5, "gen", "rs_cpc", "--n", gen[0], "--p", gen[1], "--k", gen[2],
                        "--out", "gen.json"), ["gen.json"]),
            ("params", cmd(6, "params", "prop2", "--m", mg[0], "--g", mg[1],
                           "--out", "params.json"), ["params.json"]),
            ("compare", cmd(7, "compare", "--m", mg[0], "--g", mg[1], "--delta", "2",
                            "--out", "compare.json"), ["compare.json"]),
        ]
        # the criterion-9 scenario: crt0(17,33) padded by delta_c + delta_p
        self.workdir.mkdir(parents=True, exist_ok=True)
        pad = 2 + self.P.netsim.delta_p(500.0, 1e-6)
        sim_cfg = {"sequences": {"construction": "crt0", "p": 17, "q": 33,
                                 "pad_slots": pad},
                   "tau_s": 1e-6, "R_m": 500.0, "h_m": 150.0, "L": 561 * (pad + 1),
                   "F": 3, "delta_c_slots": 2, "M": 17, "plan": "auto",
                   "users": {"random_users": sim_users, "area": [0, 0, 3000, 2600],
                             "seed": 20240817}}
        (self.workdir / "sim_config.json").write_text(json.dumps(sim_cfg, indent=2))
        self.env = dict(os.environ, PYTHONPATH=str(Path(self.P.__file__).parent.parent))
        self.out_bytes: list[int] = []
        self.peak_rss_kb = 0

    def _invoke(self, argv, files) -> dict:
        for f in files:
            (self.workdir / f).unlink(missing_ok=True)
        with open(self.workdir / "stderr.txt", "w+", errors="replace") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(120, proc.kill)
            timer.start()
            try:
                # wait4 gives this command's own peak RSS, without the
                # harness's other children
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        out = {"exit": proc.returncode, "files": {}}
        for f in files:
            path = self.workdir / f
            if path.is_file():
                data = path.read_bytes()
                out["files"][f] = hashlib.sha256(data).hexdigest()
                self._bytes += len(data)
        if proc.returncode not in (0, 1):
            out["stderr"] = stderr[-500:]
        return out

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest protoseq command."""
        return self.peak_rss_kb / 1024

    def run_pass(self, k: int, i: int) -> PassResult:
        res = PassResult()
        self._bytes = 0
        for name, argv, files in self.commands:
            self._run_job(Job(f"cli.{name}",
                              lambda: self.tr.call(f"cli.{name}", self._invoke, argv, files),
                              lambda out: {"exit": out.get("exit")}), res, k)
        res.work = len(self.commands)
        self.out_bytes.append(self._bytes)
        return res

    def layer_metrics(self, spans, outputs) -> dict[str, float]:
        out = {}
        for name, _, _ in self.commands:
            key = "cli.import_s" if name == "import" else f"cli.{name}.cmd_s"
            out[key] = _median_or_zero([_dur(s) for s in spans if s["name"] == f"cli.{name}"])
        out["cli.out_bytes"] = _median_or_zero(self.out_bytes)
        return out


WORKLOADS = {w.name: w for w in (Audit, Field, Cli)}
