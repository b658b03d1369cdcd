#!/usr/bin/env python3
"""Repository benchmark: host cost of the AstriFlash simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload tatp_256c --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator libraries plus perfbench_sim) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  repeats the workload, one fresh process per repeat, until
             --seconds have passed (at least MIN_REPEATS times) and
             prints the end-to-end metrics as medians over the repeats;
  --trace 1  runs the workload untraced and traced in one process,
             replays the traced job stream per layer, writes the spans
             under the build directory and prints the per-layer metrics.

Every repeat must reach its measured-job target, and every cell's
simulated-stats digest must match across repeats and between traced and
untraced runs; a miss counts as a failed cell and the command exits 1.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Cells each workload runs (fig9_grid: 7 workloads x 5 configs).
WORKLOADS = {"tatp_256c": 1, "tpcc_16c_open": 1, "fig9_grid": 35}
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150

# Printed with --trace 0, on every workload.
END_TO_END = {
    "host_jobs_per_s": "jobs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fig9_err_pp": "pp",
}

# Printed with --trace 1, on every workload.
PER_LAYER = {
    # Host cost from the traced run and its replay.
    "workload.ns_per_job": "ns",
    "workload.share": "fraction",
    "mem.hier.ns_per_access": "ns",
    "mem.hier.share": "fraction",
    "fc.ns_per_access": "ns",
    "fc.share": "fraction",
    "flash.ns_per_cmd": "ns",
    "flash.share": "fraction",
    "sim.hist.ns_per_sample": "ns",
    "sim.hist.share": "fraction",
    "sim.ns_per_event": "ns",
    "other.share": "fraction",
    "trace.overhead": "fraction",
    "sweep.cell_s_p50": "s",
    "sweep.cell_s_max": "s",
    "sweep.efficiency": "fraction",
    # Exact work counts.
    "sim.events_per_job": "1/job",
    "sim.hist.samples_per_job": "1/job",
    "mem.hier.accesses_per_job": "1/job",
    "fc.accesses_per_job": "1/job",
    "flash.cmds_per_job": "1/job",
    "workload.ops_per_job": "1/job",
    # Model outputs (simulated time; identical across host changes).
    "model.sim_jobs_per_s": "jobs/s",
    "model.p99_service_us": "us",
    "model.p99_response_us": "us",
    "mem.l1d.hit_ratio": "ratio",
    "mem.llc.miss_ratio": "ratio",
    "mem.tlb.miss_ratio": "ratio",
    "fc.hit_ratio": "ratio",
    "fc.merged_share": "fraction",
    "bc.msr.set_full_stalls_per_miss": "1/miss",
    "bc.msr.occupancy_mean": "entries",
    "bc.msr.peak_occupancy": "entries",
    "bc.miss_penalty_p99_us": "us",
    "bc.fc_to_bc_stall_us": "us",
    "bc.dirty_writebacks_per_job": "1/job",
    "bc.evictbuf.full_stalls": "count",
    "flash.reads_per_job": "1/job",
    "flash.writes_per_job": "1/job",
    "flash.read_p99_us": "us",
    "sched.switch_on_miss_per_job": "1/job",
    "sched.pending_overflows": "count",
    "sched.aging_promotions": "count",
    "core.busy_share": "fraction",
    "os.shootdowns_per_job": "1/job",
    "fig9.astriflash_norm": "ratio",
    "fig9.ideal_norm": "ratio",
    "fig9.osswap_norm": "ratio",
    "fig9.flashsync_norm": "ratio",
}
FIG9_KEYS = ("fig9.astriflash_norm", "fig9.ideal_norm", "fig9.osswap_norm",
             "fig9.flashsync_norm", "fig9_err_pp")


def log(msg):
    print(msg, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configure once, build incrementally; return the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "perfbench_sim",
                  "-j", jobs])
    with open(log_path, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as g:
                    sys.stderr.write(g.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)
    return os.path.join(out, "perfbench_sim")


def git_commit():
    """HEAD of the repository at ROOT, or "unknown" outside one."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"], capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def run_child(binary, workload, seed, toy, spans=None):
    """One perfbench_sim process; returns its JSON object or None."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed]
    if toy:
        cmd.append("--toy")
    if spans:
        cmd.append("--trace=" + spans)
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("# %s seed %d: timed out" % (workload, seed))
        return None
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if p.returncode != 0 or result is None:
        log("# %s seed %d: exit %d: %s" % (workload, seed, p.returncode,
                                          p.stderr.strip()[-500:]))
        # A non-zero exit with a result means cells failed their gate;
        # keep the result so those cells are counted individually.
        if result is None or not result.get("cell_ok"):
            return None
    return result


class Tally:
    """Cells attempted and failed across every process of this run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result, cells, reference=None):
        """Count @p result's cells; a cell fails its own gate, or its
        digest differs from @p reference's."""
        self.attempted += cells
        if result is None:
            self.failed += cells
            return
        for i, ok in enumerate(result["cell_ok"]):
            same = (reference is None or
                    result["cell_digests"][i] == reference["cell_digests"][i])
            self.failed += 0 if ok and same else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def digest_of(cell_digests):
    return hashlib.sha256("".join(cell_digests).encode()).hexdigest()[:16]


def fig9_from(result):
    return {k: result["model"][k] for k in FIG9_KEYS if k in result["model"]}


def timed(binary, args, tally):
    """--trace 0: repeat the workload for --seconds; medians."""
    cells = WORKLOADS[args.workload]
    good = []
    first = None
    attempts = 0
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds or
           attempts < MIN_REPEATS):
        attempts += 1
        r = run_child(binary, args.workload, args.seed, args.toy)
        tally.add(r, cells, first)
        if r is None:
            continue
        first = first or r
        good.append(r)
        # A grid's time is its batch's wall time: the slowest cell sets it.
        rate_s = r["run_s"] if cells == 1 else r["wall_s"]
        r["host_jobs_per_s"] = r["jobs"] / rate_s
        log("# repeat %d: setup %.4f s, run %.4f s, wall %.4f s, %d jobs, "
            "%.1f jobs/s, rss %.1f MB, digest ok %s" % (
                attempts, r["setup_s"], r["run_s"], r["wall_s"],
                r["jobs"], r["host_jobs_per_s"], r["peak_rss_mb"],
                r["cell_digests"] == first["cell_digests"]))
    if not good:
        return first, {}
    metrics = {}
    for name in ("host_jobs_per_s", "setup_s", "peak_rss_mb"):
        values = [r[name] for r in good]
        q1, q3 = quartiles(values)
        metrics[name] = statistics.median(values)
        log("# %s over %d repeats: median %.6g, q1 %.6g, q3 %.6g" % (
            name, len(values), metrics[name], q1, q3))
    return first, metrics


def fig9_probe(binary, args, tally):
    """The Fig. 9 grid at this seed, untimed, for workloads that are not
    the grid: fig9_err_pp is the model's error against the paper, and
    the grid is the only reference result the repository holds."""
    log("# %s: model unvalidated for this config (no reference result); "
        "fig9_err_pp and fig9.* come from an untimed run of the Fig. 9 "
        "grid at seed %d" % (args.workload, args.seed))
    r = run_child(binary, "fig9_grid", args.seed, args.toy)
    tally.add(r, WORKLOADS["fig9_grid"])
    return fig9_from(r) if r else {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="shrink every cell (perfbench/selfcheck.py)")
    args = ap.parse_args()

    binary = build()
    tally = Tally()
    log("# perfbench %s seed=%d seconds=%g trace=%d%s" % (
        args.workload, args.seed, args.seconds, args.trace,
        " toy" if args.toy else ""))

    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (
            args.workload, args.seed))
        first = run_child(binary, args.workload, args.seed, args.toy, spans)
        tally.add(first, WORKLOADS[args.workload])
        values = {}
        if first is not None:
            values.update(first["model"])
            values.update(first["host"])
            log("# spans: %s" % os.path.relpath(spans, ROOT))
            for i, (a, b) in enumerate(zip(first["cell_digests"],
                                           first["traced_cell_digests"])):
                if a != b:
                    log("# cell %d: traced digest %s != untraced %s" % (
                        i, b, a))
        wanted = PER_LAYER
    else:
        first, values = timed(binary, args, tally)
        if first is not None:
            values.update(fig9_from(first))
        wanted = END_TO_END
    if args.workload != "fig9_grid" and first is not None:
        values.update(fig9_probe(binary, args, tally))

    if first is not None:
        meta = {k: first[k] for k in ("host_cpus", "build_type", "compiler",
                                      "threads", "cells")}
        meta.update(seed=args.seed, workload=args.workload,
                    git_commit=git_commit(),
                    stats_digest=digest_of(first["cell_digests"]))
        if "traced_cell_digests" in first:
            meta["traced_stats_digest"] = digest_of(
                first["traced_cell_digests"])
        log("# meta " + json.dumps(meta, sort_keys=True))

    metrics = {}
    for name, unit in wanted.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            log("%s = %.9g %s" % (name, values[name], unit))
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        log("# missing metrics: " + ", ".join(missing))
        tally.failed = max(tally.failed, 1)
    log("failed_frac = %.6g (%d of %d cells)" % (
        tally.failed / max(1, tally.attempted), tally.failed,
        tally.attempted))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
