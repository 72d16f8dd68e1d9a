"""Benchmark of the covercalc CLI: seeded job lists run one at a time.

    python3 perfbench/run.py --workload qseries --seed 1 --seconds 30 --trace 0

Each job is a fresh `python -m covercalc.cli ...` process, started only after
the previous one ended (a closed loop with one client), so every job pays
interpreter start, the import and cold caches, as a real call does.  The
run prints one JSON line of details (every job with its time, memory and
stdout sha256, the failing jobs, the machine) and then, as its last line,
the result: end-to-end metrics with `--trace 0`, per-layer metrics from a
traced pass with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_LIMIT_S = 60.0          # a job running longer is killed and fails
RUN_CAP_S = 165.0           # no job starts or runs past this point of a run
SETUP_SAMPLES = 11
# strata and covers run their short jobs twice and time each by its faster
# pass, which filters out the seconds-long slow spells of a shared machine;
# the long jobs of qseries average over those spells and leave no time for
# a second pass.
PASSES = {"qseries": 1, "strata": 2, "covers": 2}
# A run of one round of any workload takes 30-50 s at the seed commit on
# the 2-core Xeon this was built on, depending on the machine's load;
# --seconds is turned into a whole number of rounds with this.
ROUND_S = 30.0

# The machine this runs on is shared: its speed swings by up to 70% over
# seconds and minutes.  A fixed pure-Python computation that does not touch
# covercalc runs before the first job and then after every REFERENCE_EVERY_S
# of job time.  Time metrics are divided by its time-weighted mean over
# REFERENCE_S, its time on an idle 2-core Xeon, so they read as seconds at
# that speed; the raw values are in the details.
REFERENCE = ("from fractions import Fraction as F\ns = F(0)\n"
             "for i in range(1, 40000): s += F(i % 97, i % 89 + 1)\n")
REFERENCE_S = 0.11
REFERENCE_EVERY_S = 1.0

UNITS = {
    "setup_s": "s", "wall_s": "s", "tail10_mean_s": "s",
    "peak_rss_mb": "MB", "ok_share": "share", "kind1_s": "s", "kind2_s": "s", "kind3_s": "s",
}


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.reference_times = []
        self.reference_gaps = []        # job time between consecutive references
        self._since_reference = None

    def spawn(self, argv, tag):
        """Run one child to completion; (wall s, exit code, max RSS MB, stdout path)."""
        out_path = self.workdir / f"{tag}.out"
        limit = min(JOB_LIMIT_S, self.deadline - perf_counter())
        if limit <= 0:
            out_path.write_bytes(b"")
            return 0.0, "run time cap", 0.0, out_path
        start = perf_counter()
        with open(out_path, "wb") as out, open(self.workdir / f"{tag}.err", "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            killed = not poller.poll(limit * 1000)
            if killed:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = f"killed after {limit:.0f} s" if killed else proc.returncode
        return wall, code, usage.ru_maxrss / 1024.0, out_path

    def import_time(self, tag):
        """Seconds to import covercalc.cli in a fresh interpreter, or None
        once the run is past its time cap."""
        wall, code, _, _ = self.spawn([sys.executable, "-c", "import covercalc.cli"], tag)
        if code == "run time cap":
            return None
        if code != 0:
            raise RuntimeError(f"importing covercalc.cli failed: {code}")
        return wall

    def reference(self, job_wall: float = 0.0, force: bool = False) -> None:
        if self._since_reference is not None:
            self._since_reference += job_wall
            if self._since_reference < REFERENCE_EVERY_S and not force:
                return
        tag = f"reference-{len(self.reference_times)}"
        wall, code, _, _ = self.spawn([sys.executable, "-S", "-c", REFERENCE], tag)
        if code == "run time cap":
            return
        if code != 0:
            raise RuntimeError(f"the reference computation failed: {code}")
        if self._since_reference is not None:
            self.reference_gaps.append(self._since_reference)
        self.reference_times.append(wall)
        self._since_reference = 0.0

    def speed(self) -> float:
        """How much slower than REFERENCE_S the machine ran while jobs ran:
        each stretch of job time between two references counts their mean."""
        times, gaps = self.reference_times, self.reference_gaps
        if not sum(gaps):
            return statistics.mean(times) / REFERENCE_S
        weighted = sum(g * (a + b) / 2 for g, a, b in zip(gaps, times, times[1:]))
        return weighted / sum(gaps) / REFERENCE_S

    def run_jobs(self, jobs, schemas, traced: bool, passes: int = 1, setup_times=None):
        """Run the job list `passes` times over; a job's time is its fastest
        pass.  With `setup_times`, also time SETUP_SAMPLES bare imports spread
        evenly through the run, so set-up is sampled across the machine's
        slow and fast spells alike."""
        records = [{"id": job.id, "kind": job.kind, "pass_s": [], "exit": None,
                    "rss_mb": 0.0, "outs": []} for job in jobs]
        every = -(-passes * len(jobs) // SETUP_SAMPLES)
        for p in range(passes):
            for i, (job, rec) in enumerate(zip(jobs, records)):
                if setup_times is not None and (p * len(jobs) + i) % every == 0:
                    sample = self.import_time(f"setup-{p}-{i}")
                    if sample is not None:
                        setup_times.append(sample)
                if traced:
                    trace_path = self.workdir / f"{job.id}.trace.json"
                    argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), job.id]
                else:
                    argv = [sys.executable, "-m", "covercalc.cli"]
                tag = f"{job.id}.{'traced' if traced else 'plain'}{p}"
                wall, code, rss, out_path = self.spawn(argv + job.argv, tag)
                if not traced:
                    self.reference(wall)
                if code != "run time cap":
                    rec["pass_s"].append(wall)
                rec["rss_mb"] = max(rec["rss_mb"], rss)
                if p == 0 or isinstance(rec["exit"], int) and not isinstance(code, int):
                    rec["exit"] = code
                elif code != rec["exit"]:
                    rec["exit"] = "differs between passes"
                rec["outs"].append(out_path)
        for job, rec in zip(jobs, records):
            rec["wall_s"] = min(rec["pass_s"], default=0.0)
            digests = set()
            for out_path in rec.pop("outs"):
                stdout = out_path.read_bytes()
                digests.add(hashlib.sha256(stdout).hexdigest())
            rec["stdout_bytes"] = len(stdout)
            rec["sha256"] = digests.pop() if len(digests) == 1 else "differs between passes"
            code = rec["exit"]
            rec["problem"] = (f"exit {code}" if not isinstance(code, int)
                              else "stdout differs between passes" if digests
                              else checks.check(job, code, stdout, schemas))
        return records


def tail(values):
    """The highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(workload, jobs, records, setup_s, wall_s):
    """The gated metrics, and the issue-named ones that are too fragile to gate.

    A median or percentile over jobs of unequal cost jumps when noise swaps
    the order of two jobs near it, so the gate uses totals per job kind and
    the mean of the ten slowest jobs; the medians go to the details, in raw
    seconds.
    """
    walls = [r["wall_s"] for r in records]
    failed = sum(1 for r in records if r["problem"])
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "tail10_mean_s": statistics.mean(sorted(walls)[-10:]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "ok_share": (len(records) - failed) / len(records),
    }
    for slot in ("kind1", "kind2", "kind3"):
        metrics[f"{slot}_s"] = sum(r["wall_s"] for job, r in zip(jobs, records)
                                   if workloads.slot_of(workload, job) == slot)
    info = {"job_p50_s": {"value": statistics.median(walls), "unit": "s",
                          "samples": len(walls)},
            "job_tail_s": {"value": tail_s, "unit": "s", "percentile": tail_pct,
                           "samples": len(walls)},
            "fail_share": {"value": failed / len(records), "unit": "share"}}
    return metrics, info


def kind_medians(jobs, records):
    groups = {}
    for job, rec in zip(jobs, records):
        if not job.malformed:
            groups.setdefault(job.kind, []).append(rec["wall_s"])
            if job.kind.startswith("intersect-boundary-"):
                groups.setdefault("intersect-boundary", []).append(rec["wall_s"])
    return {f"{k}.p50_s": {"value": statistics.median(v), "unit": "s", "samples": len(v)}
            for k, v in sorted(groups.items())}


def per_layer(workdir, jobs, traced, untraced_wall, traced_wall):
    self_s = Counter()
    calls, counters, hits, misses = Counter(), Counter(), Counter(), Counter()
    for job in jobs:
        path = workdir / f"{job.id}.trace.json"
        if not path.exists():
            continue
        record = tracer.read_trace(path)
        self_s.update(tracer.self_times(record["spans"]))
        calls.update(record["calls"])
        counters.update(record["counters"])
        for name, (h, m) in record["cache"].items():
            hits[name] += h
            misses[name] += m
    count = {
        "delliptic.ledger.calls": calls["delliptic.delta00_contributions"]
        + calls["delliptic.delta01_contributions"],
        "qmod.solve.calls": calls["qmod.solve_exact"],
        "exact.qseries_mul.calls": calls["exact.QSeries.__mul__"],
        "graphs.stable_graphs.calls": calls["graphs.enumerate_stable_graphs"],
        "graphs.stable_graphs.cache_hits": hits["graphs.enumerate_stable_graphs"],
        "graphs.morphisms.calls": calls["graphs.enumerate_morphisms"],
        "graphs.contract_edges.calls": calls["graphs.contract_edges"],
        "graphs.canonical_key.calls": calls["graphs.StableGraph.canonical_key"],
        "graphs.automorphisms.calls": calls["graphs.StableGraph.automorphism_group"],
        "graphs.compose_morphisms.calls": calls["graphs.compose_morphisms"],
        "mbar.correlator.hits": hits["mbar.correlator"],
        "mbar.correlator.misses": misses["mbar.correlator"],
        "gcover.validate.calls": calls["gcover.validate_admissible_g_graph"],
        "groups.compose.calls": calls["groups.compose"],
        "groups.contains.calls": calls["groups.FiniteGroup.__contains__"],
        "groups.coset_index.calls": calls["groups.coset_index"],
        "hurwitz.transitive.calls": calls["hurwitz.is_transitive"],
    }
    for name in ("delliptic.ledger.rows", "qmod.solve.cells", "qmod.basis.size",
                 "graphs.stable_graphs.returned", "graphs.morphisms.returned",
                 "graphs.generic_ab.triples", "mbar.pushforward.terms",
                 "gcover.validate.violations", "gcover.intersect.triples_in",
                 "gcover.intersect.terms_kept", "groups.elements_built",
                 "hurwitz.transitive.kept"):
        count[name] = counters[name]
    metrics = {f"{layer}.self_s": {"value": self_s[layer], "unit": "s"}
               for layer in tracer.LAYERS}
    for name, value in count.items():
        metrics[name] = {"value": value, "unit": "count"}
    ratios = {
        "graphs.morphism_yield": (count["graphs.morphisms.returned"],
                                  count["graphs.contract_edges.calls"]),
        "gcover.force_yield": (count["gcover.intersect.terms_kept"],
                               count["gcover.intersect.triples_in"]),
    }
    for name, (num, den) in ratios.items():
        metrics[name] = {"value": num / den if den else 0.0, "unit": "ratio"}
    metrics["cli.stdout_mb"] = {"value": sum(r["stdout_bytes"] for r in traced) / 1e6,
                                "unit": "MB"}
    metrics["trace.overhead_share"] = {
        "value": (traced_wall - untraced_wall) / untraced_wall, "unit": "share"}
    return metrics


def environment():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "job_limit_s": JOB_LIMIT_S, "loop": "closed, one client"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    if not (ROOT / "src" / "covercalc" / "cli.py").is_file() or not (ROOT / "schemas").is_dir():
        print(f"perfbench: no covercalc sources under {ROOT}", file=sys.stderr)
        return 2
    schemas = checks.load_schemas(ROOT / "schemas")
    rounds = max(1, round(args.seconds / ROUND_S))
    jobs = workloads.generate(args.workload, args.seed, rounds)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for job in jobs:
            for name, text in job.files.items():
                (workdir / name).write_text(text)
        runner = Runner(workdir, started + RUN_CAP_S)
        runner.import_time("setup-warm")        # compiles the bytecode caches
        setup_times = []
        runner.reference()
        records = runner.run_jobs(jobs, schemas, traced=False, passes=PASSES[args.workload],
                                  setup_times=setup_times)
        runner.reference(force=True)
        wall_s = sum(r["wall_s"] for r in records)
        raw, info = end_to_end(args.workload, jobs, records,
                               statistics.median(setup_times), wall_s)
        speed = runner.speed()
        metrics = {k: v / speed if UNITS[k] == "s" else v for k, v in raw.items()}
        correct = not any(r["problem"] for job, r in zip(jobs, records) if not job.malformed)
        detail = {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "env": environment(), **info,
            "speed": {"factor": speed, "reference_s": runner.reference_times},
            "end_to_end": {k: {"value": v, "unit": UNITS[k], "raw": raw[k]}
                           for k, v in metrics.items()},
            "slots": dict(zip(("kind1", "kind2", "kind3"), workloads.SLOTS[args.workload])),
            "kinds": kind_medians(jobs, records),
            "failing": [{"id": r["id"], "problem": r["problem"]} for r in records if r["problem"]],
            "jobs": records,
        }
        result_records = records
        if args.trace:
            traced = runner.run_jobs(jobs, schemas, traced=True)
            traced_wall = sum(r["wall_s"] for r in traced)
            mismatched = [a["id"] for a, b in zip(records, traced) if a["sha256"] != b["sha256"]]
            correct = correct and not mismatched
            detail["traced_digest_mismatch"] = mismatched
            detail["traced_jobs"] = traced
            first_pass = sum(r["pass_s"][0] for r in records)
            out_metrics = per_layer(workdir, jobs, traced, first_pass, traced_wall)
            result_records = traced
        else:
            out_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        failed = sum(1 for r in result_records if r["problem"])
        print(json.dumps(detail, default=str))
        for rec in detail["failing"]:
            print(f"perfbench: failed {rec['id']}: {rec['problem']}", file=sys.stderr)
        for name, m in out_metrics.items():
            print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": len(result_records),
                          "failed": failed, "metrics": out_metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
