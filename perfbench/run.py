#!/usr/bin/env python3
"""Host-time benchmark of the RAMCloud simulator.

    python3 perfbench/run.py --workload read_closed|update_open|crash_recovery|all
                             [--seed 42] [--seconds 20] [--trace 0|1]

Builds perfbench/driver together with the simulator sources into
.bench_build (or $CARGO_TARGET_DIR when set), then runs the driver, one
process per repetition, until --seconds have passed. It checks every
repetition (all preloaded keys present, recovery succeeded, warm-up steady)
and that all repetitions at the seed did identical simulated work, prints
every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs the three workloads in turn, each ending with its own
JSON line, and exits non-zero if any of them failed.

--trace 0 reports the end-to-end metrics: medians of host time and memory
over untraced repetitions. --trace 1 reports the per-layer metrics: exact
work counts, modelled guards, spans of a traced repetition and a per-module
gprof profile. The exit code is 0 only when every check passed. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import rollup  # noqa: E402

WORKLOADS = ("read_closed", "update_open", "crash_recovery")
DEFAULT_SEED = 42
# No repetition starts when it could end past this many seconds.
DEADLINE_S = 150.0
MIN_REPS = 3

SPANS = ("construct", "bulk_load", "configure", "warmup", "run", "verify",
         "export")
# Metric names, units and bounds live in BENCHMARK.json; run.py reports
# exactly the metrics listed there.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(root, env):
    """A Release tree for the timed runs and a Release -pg tree for gprof."""
    trees = {"release": [],
             "gprof": ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"]}
    binaries = {}
    for tree, flags in trees.items():
        out = os.path.join(root, tree)
        steps = [["cmake", "--build", out, "--target", "rcbench", "-j4"]]
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.join(HERE, "driver"), "-B",
                             out, "-DCMAKE_BUILD_TYPE=Release"] + flags)
        for cmd in steps:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                print(r.stdout[-4000:], file=sys.stderr)
                print("build failed: " + " ".join(cmd), file=sys.stderr)
                sys.exit(1)
        binaries[tree] = os.path.join(out, "rcbench")
    return binaries


def metrics_fingerprint(path):
    """sha256 of metrics.jsonl with host-side fields dropped."""
    h = hashlib.sha256()
    with open(path) as f:
        for line in f:
            rec = {k: v for k, v in json.loads(line).items()
                   if not k.startswith(("host", "wall"))}
            h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()


def run_driver(binary, workload, seed, traced, workdir, env):
    """One driver process. Returns its parsed result plus the host wall time
    and peak RSS of that one process (from wait4)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    export = os.path.join(workdir, "export")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--out", export] + (["--trace"] if traced else [])
    out_path = os.path.join(workdir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(workdir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    metrics = os.path.join(export, "metrics.jsonl")
    rep = {
        "rc": proc.returncode,
        "result": result,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "fingerprint": metrics_fingerprint(metrics) if os.path.exists(metrics) else None,
    }
    shutil.rmtree(export, ignore_errors=True)
    return rep


def identity(rep):
    """Everything that must repeat exactly at one seed."""
    r = rep["result"]
    return json.dumps([r["counts"], r["derived"], r["model"], rep["fingerprint"]],
                      sort_keys=True)


def check(reps, errors):
    for i, rep in enumerate(reps):
        r = rep["result"]
        if rep["rc"] != 0 or r is None or not r.get("ok"):
            why = r["errors"] if r else f"exit code {rep['rc']}, no result"
            errors.append(f"repetition {i}: {why}")
    if errors:
        return
    first = identity(reps[0])
    for i, rep in enumerate(reps[1:], 1):
        if identity(rep) != first:
            errors.append(f"determinism: repetition {i} did different simulated "
                          "work than repetition 0 at the same seed")


def repeat(run_once, start, min_reps, seconds):
    """Call run_once(i) until `seconds` have passed and `min_reps` are done."""
    reps = []
    while True:
        elapsed = time.perf_counter() - start
        longest = max((r["wall_s"] for r in reps), default=0.0)
        if reps and elapsed + longest > DEADLINE_S:
            break
        if len(reps) >= min_reps and elapsed >= seconds:
            break
        reps.append(run_once(len(reps)))
        if reps[-1]["rc"] != 0:
            break
    return reps


def end_to_end(reps):
    setup = [sum(r["result"]["timings"][k] for k in
                 ("construct_s", "bulk_load_s", "configure_s")) for r in reps]
    return {
        "setup_s": rollup.median(setup),
        "run_wall_s": rollup.median([r["result"]["timings"]["run_s"] for r in reps]),
        "total_wall_s": rollup.median([r["wall_s"] for r in reps]),
        "peak_rss_mb": rollup.median([r["rss_mb"] for r in reps]),
    }


def gprof_rollup(binary, gmon_files, runs, env):
    r = subprocess.run(["gprof", "-b", "-p", binary] + gmon_files, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError("gprof failed: " + r.stderr[-2000:])
    per_module = rollup.rollup(rollup.parse_flat(r.stdout))
    return {m: s / runs for m, s in per_module.items()}


def per_layer(untraced, traced, profiled, profile):
    """Per-layer values of a traced run; `profiled` counts gprof repetitions."""
    r = traced["result"]
    values = {**r["counts"], **r["derived"], **r["model"]}
    attempted = values["ops_attempted"]
    values["op_fail_ratio"] = values["ops_failed"] / attempted if attempted else 0.0
    for phase in SPANS:
        values[f"span.{phase}_s"] = r["timings"][f"{phase}_s"]
    events = values["sim.events"]
    values["sim.host_ns_per_event"] = r["timings"]["run_s"] / events * 1e9 if events else 0.0
    values["trace.overhead_s"] = r["timings"]["run_s"] - untraced["result"]["timings"]["run_s"]
    values["trace.spans"] = len(r["trace"]["spans"])
    for module, seconds in profile.items():
        values[f"host_self_s.{module}"] = seconds
    values["host_profile_s"] = sum(profile.values())
    values["profile.runs"] = profiled
    return values


def measure(workload, args, spec, binaries, root, env):
    """One workload at one seed: run, check, print, return the exit code."""
    work = os.path.join(root, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()

    def driver(tree, traced, label):
        return run_driver(binaries[tree], workload, args.seed, traced,
                          os.path.join(work, label), env)

    errors = []
    if args.trace == 0:
        reps = repeat(lambda i: driver("release", False, f"untraced-{i}"), start,
                      MIN_REPS, args.seconds)
        check(reps, errors)
        everything = reps
    else:
        untraced = driver("release", False, "untraced")
        traced = driver("release", True, "traced")
        profiled = repeat(lambda i: driver("gprof", True, f"gprof-{i}"), start, 1,
                          args.seconds)
        everything = [untraced, traced] + profiled
        check(everything, errors)

    metrics = {}
    if not errors:
        if args.trace == 0:
            values = end_to_end(reps)
        else:
            gmon = [os.path.join(work, f"gprof-{i}", "gmon.out")
                    for i in range(len(profiled))]
            profile = gprof_rollup(binaries["gprof"], gmon, len(profiled), env)
            values = per_layer(untraced, traced, len(profiled), profile)
            with open(os.path.join(work, "trace.json"), "w") as f:
                json.dump(traced["result"]["trace"], f)
        for m in spec:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            else:
                errors.append(f"no value for metric {m['name']}")

    ok = not errors
    for e in errors:
        print(f"CHECK FAILED: {e}")
    first = everything[0]
    if first["result"] is not None:
        r = first["result"]
        print(f"workload {workload} seed {args.seed}: {len(everything)} "
              f"driver runs, checks {'passed' if ok else 'FAILED'}")
        model = {k: r[g][k] for g in ("counts", "derived", "model") for k in r[g]}
        digest = hashlib.sha256(json.dumps(model, sort_keys=True).encode()).hexdigest()
        print(f"fingerprint model {digest[:16]} metrics.jsonl {str(first['fingerprint'])[:16]}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")

    attempted = sum(rep["result"]["counts"]["ops_attempted"]
                    for rep in everything if rep["result"])
    failed = sum(rep["result"]["counts"]["ops_failed"]
                 for rep in everything if rep["result"])
    print(json.dumps({
        "correct": ok,
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": metrics if ok else {},
    }))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    with open(SPEC_PATH) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    root = build_root()
    env = dict(os.environ, TMPDIR=os.path.join(root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binaries = build(root, env)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [measure(w, args, spec, binaries, root, env) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
