#!/usr/bin/env python3
"""The gpsched benchmark: a seeded fuzz corpus through gpsched_cli.

Run from the repository root:

  python3 perfbench/run.py --workload cold-gp|fallback-all|all
                           [--seed N] [--seconds S] [--trace 0|1]

The first run builds gpsched_cli, ddg_fuzz and perf_trace from the
sources next to this directory (Release, into $CARGO_TARGET_DIR or
.bench_build). Every run then generates its corpus with
`ddg_fuzz gen --seed N`; only the generated .ddg file reaches the
program. Corpus generation is timed apart from the measured runs.

--trace 0 runs the workload's gpsched_cli command repeatedly for
--seconds as a subprocess, timed from outside (wall clock, rusage),
checks every row of every report and prints the end-to-end metrics.
--trace 1 runs the command once and then perf_trace, the benchmark's
traced in-process runner, and prints the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": rows, "failed": rows, "metrics": {...}}.
See README.md for the workloads, metrics and the baseline.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS = min(4, os.cpu_count() or 1)

# Per-loop compile cost is long-tailed, so percentiles and sums over
# a small corpus move with a few loops from one seed to the next; both
# corpora are sized so that a CLI run takes ~9 s and a 55 s run gets
# 3-5 of them. The traced run, which also compiles serially, works on
# the first `trace_loops` loops of the same seed's corpus (ddg_fuzz
# corpora of one seed share prefixes) to stay well inside its time
# limit. `cache` runs the CLI on a --cache-dir that is emptied before
# every run.
WORKLOADS = {
    "cold-gp": dict(machine="4c-r64-b1", scheme="gp", jobs=JOBS,
                    loops=16000, trace_loops=8000, cache=True),
    "fallback-all": dict(machine="4c-r32-b1", scheme="all", jobs=JOBS,
                         loops=6000, trace_loops=2000, cache=False),
}
SCHEME_NAMES = {"gp": ["GP"], "all": ["URACAM", "Fixed", "GP"]}

END_TO_END = [
    ("loops_per_s", "loops/s"),
    ("cpu_s", "s"),
    ("loop_ms_p50", "ms"),
    ("loop_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_over_mii", "ratio"),
    ("ipc_geomean", "ops/cycle"),
    ("ok_frac", "ratio"),
]

PER_LAYER = [
    ("graph.parse_ms", "ms"), ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("engine.open_ms", "ms"), ("engine.loop_key_ms", "ms"),
    ("engine.disk_lookup_ms", "ms"), ("engine.disk_hit_frac", "ratio"),
    ("engine.disk_store_ms", "ms"), ("engine.disk_bytes", "bytes"),
    ("engine.batch_ms", "ms"), ("engine.idle_frac", "ratio"),
    ("engine.longest_job_share", "ratio"),
    ("engine.speedup_j2", "x"), ("engine.speedup_j4", "x"),
    ("serialize.encode_ms", "ms"), ("serialize.decode_ms", "ms"),
    ("serialize.record_bytes_mean", "bytes"),
    ("sched.mii_ms", "ms"),
    ("partition.run_ms", "ms"), ("partition.run_us_p99", "us"),
    ("partition.runs", "count"),
    ("sched.modulo_ms", "ms"), ("sched.modulo_first_ok_frac", "ratio"),
    ("sched.attempts", "count"), ("sched.ii_above_mii_frac", "ratio"),
    ("sched.list_ms", "ms"),
    ("core.compile_ms", "ms"), ("core.compile_ms_p50", "ms"),
    ("core.compile_ms_p99", "ms"), ("core.compile_ms_max", "ms"),
    ("core.tail5_share", "ratio"), ("core.fallback_frac", "ratio"),
    ("core.fallback_ms_share", "ratio"),
] + [
    (f"phase.{phase}_{kind}", unit)
    for phase in ("mii", "coarsen", "initial_partition", "refine",
                  "modulo_schedule", "transfer_planning", "list_schedule")
    for kind, unit in (("ms", "ms"), ("count", "count"))
] + [
    ("sim.simulate_ms", "ms"), ("sim.simulate_us_p99", "us"),
    ("tools.report_bytes", "bytes"), ("tools.residual_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
]

# Fields of a report row that make up the schedule digest.
DIGEST_FIELDS = ("name", "scheme", "mii", "ii", "scheduleLength", "cycles",
                 "ops", "busTransfers", "memTransfers", "spills")

MIN_REPS = 2
# CLI runs of a traced run; tools.residual_ms uses their median wall.
TRACE_CLI_RUNS = 3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds (or brings up to date) the three binaries; returns their
    directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "gpsched_cli.cc").is_file():
        raise BenchError(f"no gpsched sources next to {HERE.name}/")
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "--build", str(out), "-j", str(JOBS), "--target",
              "gpsched_cli", "ddg_fuzz", "perf_trace"]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(out / "build.log", "ab") as logfile:
        for step in steps:
            if subprocess.run(step, stdout=logfile,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed; see {out / 'build.log'}")
    return out


def read_corpus(path):
    """(name, tripCount, nodes) of every block, in file order."""
    loops = []
    with open(path) as f:
        for line in f:
            words = line.split("#", 1)[0].split()
            if words and words[0] == "ddg":
                loops.append([words[1], int(words[2]), 0])
            elif words and words[0] == "node":
                loops[-1][2] += 1
    return [tuple(loop) for loop in loops]


def run_timed(runner, cmd):
    """Runs cmd to completion under `perf_trace run`; returns (exit
    code, wall s, user+sys s, peak RSS KiB) of that one process."""
    out = subprocess.run([str(runner), "run", *cmd], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    if out.returncode != 0:
        raise BenchError("perf_trace run failed: " +
                         out.stderr.decode(errors="replace")[-2000:])
    r = json.loads(out.stdout)
    if r["exit"] != 0:
        log(out.stderr.decode(errors="replace")[-2000:])
    return r["exit"], r["wall_s"], r["cpu_s"], r["maxrss_kb"]


def row_ok(row, scheme, loop):
    """The correctness gate of one report row: it is the expected loop,
    it compiled, and the replay simulator agrees with every claimed
    figure. List-scheduled rows carry no placements, so they are the
    rows that are not replayed (ii and achievedII are then both 0)."""
    name, trip, nodes = loop
    return ("error" not in row and row["name"] == name and
            row["scheme"] == scheme and row["nodes"] == nodes and
            row["tripCount"] == trip and row["ops"] == nodes * trip and
            row.get("simOk") is True and
            row.get("replayed") == row["moduloScheduled"] and
            row["achievedII"] == row["ii"] and
            row["simCycles"] == row["cycles"] and
            row["achievedIpc"] == row["ipc"])


def check_report(path, rc, expected):
    """Checks one report against the corpus; returns its facts. A
    missing or malformed report fails every row."""
    try:
        with open(path) as f:
            rows = json.load(f)["loops"]
        good = [row for row, want in zip(rows, expected)
                if row_ok(row, *want)]
        compile_ms = [row["compileMs"] for row in rows]
    except (OSError, ValueError, KeyError, TypeError):
        rows, good, compile_ms = [], [], []
    failed = len(expected) - len(good) if rc == 0 else len(expected)
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr([row.get(k) for k in DIGEST_FIELDS]).encode())
    return {
        "rows": len(expected),
        "failed": failed,
        "compile_ms": compile_ms,
        # Everything below must repeat exactly on every run of a build.
        "det": {
            "failed": failed,
            "digest": digest.hexdigest()[:16],
            "sim_cycles": sum(row["simCycles"] for row in good),
            "sim_cycles_over_mii": math.exp(statistics.fmean(
                math.log(row["simCycles"] / (row["tripCount"] * row["mii"]))
                for row in good)) if good else 0.0,
            "ipc_geomean": math.exp(statistics.fmean(
                math.log(row["achievedIpc"]) for row in good))
            if good else 0.0,
            "partition.runs": sum(row.get("partitionRuns", 0)
                                  for row in rows),
            "sched.attempts": sum(row.get("scheduleAttempts", 0)
                                  for row in rows),
            "core.fallback_frac": sum(1 for row in good
                                      if not row["moduloScheduled"])
            / max(len(rows), 1),
        },
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


class Workload:
    """One workload at one seed: its corpus, cache and command."""

    def __init__(self, name, seed, binaries, loops):
        self.spec = WORKLOADS[name]
        self.loops = loops
        self.bin = binaries
        self.work = build_dir() / "work" / f"{name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.corpus = self.work / "corpus.ddg"
        self.cache = self.work / "cache" if self.spec["cache"] else None
        self.report = self.work / "report.json"
        self.schemes = SCHEME_NAMES[self.spec["scheme"]]

        start = time.perf_counter()
        gen = subprocess.run(
            [str(self.bin / "gpsched/tools/ddg_fuzz"), "gen", "--seed",
             str(seed), "--count", str(loops), "--out",
             str(self.corpus)], stdout=subprocess.DEVNULL)
        if gen.returncode != 0:
            raise BenchError("ddg_fuzz gen failed")
        self.corpus_gen_s = time.perf_counter() - start
        loops = read_corpus(self.corpus)
        self.expected = [(s, loop) for s in self.schemes for loop in loops]

    def command(self):
        cmd = [str(self.bin / "gpsched/tools/gpsched_cli"),
               "--machine", self.spec["machine"],
               "--scheme", self.spec["scheme"],
               "--jobs", str(self.spec["jobs"]), "--simulate"]
        if self.cache:
            cmd += ["--cache-dir", str(self.cache)]
        return cmd + ["--json", str(self.report), str(self.corpus)]

    def run_cli(self):
        """One measured CLI run, from an empty cache directory."""
        if self.cache:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.report.unlink(missing_ok=True)
        rc, wall, cpu, rss = run_timed(self.bin / "perf_trace",
                                       self.command())
        rep = check_report(self.report, rc, self.expected)
        rep.update(wall=wall, cpu=cpu, rss_mb=rss / 1024.0,
                   report_bytes=self.report.stat().st_size
                   if self.report.exists() else 0)
        return rep

    def perf_trace(self, mode, *extra):
        cmd = [str(self.bin / "perf_trace"), mode, "--ddg",
               str(self.corpus), "--machine", self.spec["machine"],
               "--jobs", str(self.spec["jobs"]), *extra]
        out = subprocess.run(cmd, stdout=subprocess.PIPE)
        if out.returncode != 0:
            raise BenchError(f"perf_trace {mode} failed")
        return json.loads(out.stdout)

    def cache_args(self, name):
        return ["--cache-dir", str(self.work / name)] if self.cache else []

    def setup_seconds(self):
        """setup_s samples: parse, resolve machine, open the Engine."""
        return self.perf_trace("setup",
                               *self.cache_args("setup_cache"))["setup_s"]


def summarize_e2e(w, reps, setup):
    """End-to-end metrics from the measured reps; prints the table."""
    series = {
        "loops_per_s": [r["rows"] / r["wall"] for r in reps],
        "cpu_s": [r["cpu"] for r in reps],
        "loop_ms_p50": [percentile(r["compile_ms"], 50) for r in reps],
        "loop_ms_p99": [percentile(r["compile_ms"], 99) for r in reps],
        "setup_s": setup,
        "peak_rss_mb": [r["rss_mb"] for r in reps],
    }
    det = reps[0]["det"]
    attempted = sum(r["rows"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {name: statistics.median(v) for name, v in series.items()}
    metrics.update(sim_cycles_over_mii=det["sim_cycles_over_mii"],
                   ipc_geomean=det["ipc_geomean"],
                   ok_frac=1.0 - failed / attempted)

    print(f"{'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s}  n")
    for name, unit in END_TO_END:
        if name in series:
            q1, q3 = quartiles(series[name])
            n = len(series[name])
            print(f"{name:22s} {metrics[name]:14.6g} {q1:14.6g} "
                  f"{q3:14.6g}  {n:<3d} {unit}")
        else:
            print(f"{name:22s} {metrics[name]:14.6g} {'':14s} {'':14s}  "
                  f"-   {unit}")
    rows = reps[0]["rows"]
    print(f"loop_ms percentiles over {rows} rows per run; "
          f"{len(reps)} runs of: {' '.join(w.command())}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} rows)")
    return metrics, attempted, failed


def deterministic(reps):
    """True when every repeat of this build agrees exactly."""
    first = reps[0]["det"]
    ok = all(r["det"] == first for r in reps)
    print("determinism: " + ("ok" if ok else "BROKEN") + " over "
          f"{len(reps)} runs; " +
          " ".join(f"{k}={v}" for k, v in first.items()))
    return ok


def run_untraced(w, seconds):
    # Set-ups are timed before every CLI run rather than all at once,
    # so that their median, like the CLI's, spans the whole run.
    setup = []
    reps = []
    start = time.perf_counter()
    while True:
        setup += w.setup_seconds()
        reps.append(w.run_cli())
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and \
                elapsed + elapsed / len(reps) > seconds:
            break
    metrics, attempted, failed = summarize_e2e(w, reps, setup)
    correct = deterministic(reps) and failed == 0
    return correct, attempted, failed, metrics


def run_traced(w):
    clis = [w.run_cli() for _ in range(TRACE_CLI_RUNS)]
    cli = clis[0]
    traced = w.perf_trace("trace", "--scheme", w.spec["scheme"], "--work",
                          str(w.work), *w.cache_args("trace_cache"))
    traced["tools.report_bytes"] = cli["report_bytes"]
    # Both terms are untraced: the CLI's median wall and perf_trace's
    # untraced pass over the same set-up, batch and replay.
    traced["tools.residual_ms"] = (
        1e3 * statistics.median(r["wall"] for r in clis) -
        traced["main.untraced_ms"])

    print(f"{'metric':32s} {'value':>16s}  unit")
    for name, unit in PER_LAYER:
        print(f"{name:32s} {traced[name]:16.6g}  {unit}")
    print("compileBatch wall by jobs (no disk cache): " + ", ".join(
        f"{j} -> {traced[f'engine.batch_j{j}_ms']:.1f} ms" for j in (1, 2, 4)))
    # perf_trace must reproduce the CLI's counts exactly.
    counts_agree = all(traced[k] == cli["det"][k] for k in
                       ("partition.runs", "sched.attempts",
                        "core.fallback_frac"))
    print("traced counts match the CLI report: "
          + ("yes" if counts_agree else "NO"))
    correct = (deterministic(clis) and
               all(r["failed"] == 0 for r in clis) and
               traced["mismatches"] == 0 and counts_agree)
    attempted = sum(r["rows"] for r in clis) + int(traced["rows"])
    failed = sum(r["failed"] for r in clis) + int(traced["mismatches"])
    metrics = {name: traced[name] for name, _ in PER_LAYER}
    return correct, attempted, failed, metrics


def run_workload(name, seed, seconds, trace, binaries):
    spec = WORKLOADS[name]
    w = Workload(name, seed, binaries,
                 spec["trace_loops"] if trace else spec["loops"])
    print(f"== {name} seed {seed}: {w.loops} loops, "
          f"{len(w.expected)} rows; corpus generated in "
          f"{w.corpus_gen_s:.3f} s")
    result = run_traced(w) if trace else run_untraced(w, seconds)
    units = dict(PER_LAYER if trace else END_TO_END)
    correct, attempted, failed, metrics = result
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binaries = build()
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, args.trace,
                                   binaries) for n in names}
    except BenchError as error:
        log(f"run.py: {error}")
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
