#!/usr/bin/env python3
"""Self-check of the benchmark at toy size.

    python3 perfbench/selfcheck.py

For every workload it runs perfbench/run.py with --toy (tiny cells) and
checks that:
  * run.py's metric tables match BENCHMARK.json (names and units);
  * every run passes its own gate (correct, no failed cells);
  * every end-to-end (--trace 0) and per-layer (--trace 1) metric
    prints, finite, with its unit;
  * the traced cells of a --trace 1 run have the stats digest of its
    untraced cells and of the --trace 0 run, and a different seed gives
    a different one;
  * every per-layer *.share, other.share included, lies in [0, 1].
Exits 1 on the first workload that fails any check.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--toy"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    meta = next(json.loads(l[len("# meta "):]) for l in lines
                if l.startswith("# meta "))
    return p.returncode, meta, json.loads(lines[-1])


def check_metrics(result, table, errors, label):
    got = result["metrics"]
    if set(got) != set(table):
        errors.append("%s: metrics %s != expected %s" % (
            label, sorted(got), sorted(table)))
    for name, unit in table.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: %s unit %r != %r" % (
                label, name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("%s: %s is not a finite number: %r" % (
                label, name, v))


def main():
    runmod = load_run_module()
    errors = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key, table in (("end_to_end", runmod.END_TO_END),
                       ("per_layer", runmod.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != table:
            errors.append("BENCHMARK.json %s differs from run.py" % key)
    if sorted(w["name"] for w in bench["workloads"]) != sorted(
            runmod.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")

    for workload in runmod.WORKLOADS:
        label = workload
        rc0, meta0, timed = run(workload, 1, 0)
        rc1, meta1, traced = run(workload, 1, 1)
        rc2, meta2, other_seed = run(workload, 2, 0)
        for rc, result, what in ((rc0, timed, "trace 0"),
                                 (rc1, traced, "trace 1"),
                                 (rc2, other_seed, "seed 2")):
            if rc != 0 or not result["correct"] or result["failed"]:
                errors.append("%s %s: exit %d, result %s" % (
                    label, what, rc, json.dumps(result)[:300]))
        check_metrics(timed, runmod.END_TO_END, errors, label + " trace 0")
        check_metrics(traced, runmod.PER_LAYER, errors, label + " trace 1")
        for digest in (meta1["stats_digest"],
                       meta1.get("traced_stats_digest")):
            if digest != meta0["stats_digest"]:
                errors.append("%s: trace 1 digest %s != trace 0 digest %s"
                              % (label, digest, meta0["stats_digest"]))
        if meta0["stats_digest"] == meta2["stats_digest"]:
            errors.append("%s: seed 2 did not change the digest" % label)
        for name, m in traced["metrics"].items():
            if name.endswith(".share") and not 0.0 <= m["value"] <= 1.0:
                errors.append("%s: %s = %r is outside [0, 1]" % (
                    label, name, m["value"]))
        print("%s: %s" % (label, "FAIL" if errors else "ok"), flush=True)
        if errors:
            break

    for e in errors:
        print("selfcheck: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
