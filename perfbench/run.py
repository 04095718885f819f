#!/usr/bin/env python3
"""The repository benchmark: builds the driver, runs one workload, checks it.

Run from the repository root:

    python3 perfbench/run.py --workload paper_suite --seed 3 --seconds 40 \
        --trace 0

builds the tier-1 configuration plus the benchmark driver under .bench_build/
(CARGO_TARGET_DIR, when set, names that directory instead), runs the workload,
compares every virtual result with perfbench/reference.json and prints, as its
last line, {"correct", "attempted", "failed", "metrics"}.  The full record,
with provenance and sample counts, goes to .bench_build/results/.

Other modes (development tools, not used by a benchmark run):

    --steadiness [--runs N]  two sets of N runs per workload; prints each
                             end-to-end metric's median and quartiles per set
                             and whether the sets agree within BENCHMARK.json's
                             bounds
    --record-reference       rewrites perfbench/reference.json from this build
                             (only --workload's entry, when given)
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_suite", "long_stream", "serve_mix"]
NUM_VARIANTS = 16  # must match NumVariants in src/Common.h

END_TO_END = ["setup_s", "wall_s", "run_p50_ms", "run_p95_ms", "req_p50_ms",
              "req_p99_ms", "capacity_rps", "peak_rss_mb"]
PER_LAYER = [
    "vm.compiled.ns_per_vcycle", "vm.adaptive.ns_per_vcycle",
    "vm.interp.ns_per_vcycle", "vm.baseline_share", "vm.vcycles",
    "jit.us_per_compile.O0", "jit.us_per_compile.O1", "jit.us_per_compile.O2",
    "jit.compiles", "xicl.us_per_fvector", "ml.rebuild_ms_total",
    "ml.rebuild_ms_p95", "ml.rows", "ml.predict_us",
    "evolve.used_prediction_frac", "evolve.accuracy_mean",
    "store.checkpoint_ms", "store.merge_ms", "store.save_ms", "store.load_ms",
    "store.warmstart_ms", "store.bytes", "store.publish_ms",
    "server.frame_rtt_us", "server.parse_us", "server.render_us",
    "server.batch_size_mean", "server.deadline_flush_frac",
    "server.client_overhead_us", "loadgen.late_p99_ms", "trace.overhead_frac",
]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(shlex.quote(c) for c in cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: no CMakeLists.txt and src/ here", 2)
    base = build_dir()
    tree = os.path.join(base, "build")
    os.makedirs(tree, exist_ok=True)
    log = os.path.join(base, "build.log")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        # The repository's own tier-1 configuration (default build type,
        # -O2 -g with asserts), with the driver added by inject.cmake.
        rc = run_logged(["cmake", "-S", ".", "-B", tree,
                         "-DCMAKE_PROJECT_INCLUDE=" +
                         os.path.join(HERE, "inject.cmake"),
                         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"], log)
        if rc != 0:
            fail("configure failed; see " + log)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    rc = run_logged(["cmake", "--build", tree, "--target", "perfbench_driver",
                     "-j", jobs], log)
    if rc != 0:
        fail("build failed; see " + log)
    return os.path.join(tree, "perfbench_driver")


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """sha256 over the sources the driver is built from (works without git)."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            if "__pycache__" in p:
                continue
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance():
    tree = os.path.join(build_dir(), "build")
    cache = {}
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    flags = ""
    try:
        with open(os.path.join(tree, "compile_commands.json")) as f:
            for entry in json.load(f):
                engine = os.path.join("src", "vm", "Engine.cpp")
                if entry["file"].endswith(engine):
                    words = shlex.split(entry["command"])
                    flags = " ".join(w for w in words[1:] if w.startswith(
                        ("-O", "-g", "-D", "-f", "-m", "-std", "-W")))
    except (OSError, ValueError, KeyError):
        pass
    git_sha = command_output(["git", "rev-parse", "HEAD"]) \
        if os.path.isdir(".git") else ""
    dirty = bool(command_output(["git", "status", "--porcelain"])) \
        if git_sha else None
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha or None,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "compiler": compiler,
        "compiler_version": command_output([compiler, "--version"]).split(
            "\n")[0] if compiler else "",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "engine_cpp_flags": flags,
        "asserts": "-DNDEBUG" not in flags.split(),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def load_reference():
    try:
        with open(os.path.join(HERE, "reference.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def run_driver(driver, workload, seed, seconds, trace, record=False):
    base = build_dir()
    work = os.path.join(base, "work-%s-%d-%d" % (workload, seed, os.getpid()))
    trace_out = os.path.join(base, "traces",
                             "%s-seed%d.spans.jsonl" % (workload, seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--work-dir", work]
    if trace:
        cmd += ["--trace-out", trace_out]
    if record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    finally:
        subprocess.run(["rm", "-rf", work])
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if trace:
        result["trace_file"] = trace_out
    return result


def check(workload, seed, trace, result):
    """Counts reference mismatches and missing metrics into the result."""
    problems = list(result.get("problems", []))
    failed = result["failed"]
    ref = load_reference().get(workload, {}).get(str(seed % NUM_VARIANTS))
    digests = result.get("digests", {})
    if ref is None:
        problems.append("no reference digests for %s variant %d" %
                        (workload, seed % NUM_VARIANTS))
        failed += 1
    else:
        for app in sorted(set(ref) | set(digests)):
            if ref.get(app) != digests.get(app):
                problems.append(
                    "%s: virtual results differ from the reference "
                    "(%s != %s)" % (app, digests.get(app), ref.get(app)))
                failed += 1
    wanted = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    for name in wanted:
        if name not in metrics:
            problems.append("metric %s missing" % name)
            failed += 1
    return failed, problems, {n: metrics[n] for n in wanted if n in metrics}


def one_run(args):
    driver = build()
    result = run_driver(driver, args.workload, args.seed, args.seconds,
                        args.trace)
    failed, problems, metrics = check(args.workload, args.seed, args.trace,
                                      result)
    prov = provenance()
    record = {"workload": args.workload, "seed": args.seed,
              "variant": args.seed % NUM_VARIANTS, "seconds": args.seconds,
              "trace": bool(args.trace), "provenance": prov,
              "failed": failed, "problems": problems, "driver": result}
    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
    path = os.path.join(build_dir(), "results", "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time() * 1000)))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("detail: " + json.dumps(result.get("detail", {}), sort_keys=True))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_reference(only):
    driver = build()
    ref = load_reference()
    for workload in [only] if only else WORKLOADS:
        ref[workload] = {}
        for variant in range(NUM_VARIANTS):
            result = run_driver(driver, workload, variant, 1, False, True)
            if result["failed"]:
                fail("%s variant %d failed: %s" % (workload, variant,
                                                     result["problems"]))
            ref[workload][str(variant)] = result["digests"]
            print(workload, variant, result["digests"], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else [
        w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            values = {}
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                out = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(args.seconds), "--trace", "0"],
                    capture_output=True, text=True)
                lines = out.stdout.strip().splitlines()
                last = json.loads(lines[-1]) if lines else {"correct": False}
                if out.returncode != 0 or not last["correct"]:
                    print("%s seed %d: incorrect run\n%s" % (
                        workload, seed, out.stderr), flush=True)
                    ok = False
                    continue
                print("%s seed %d: %s" % (workload, seed, json.dumps(
                    {n: m["value"] for n, m in last["metrics"].items()})),
                    flush=True)
                for name, m in last["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print("\n%s (%d runs per set)" % (workload, args.runs))
        print("%-14s %5s %12s %12s %12s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread"))
        for name in bounds:
            bound = bounds[name]["bound"]
            rows = [sets[0].get(name, []), sets[1].get(name, []),
                    sets[0].get(name, []) + sets[1].get(name, [])]
            if not all(rows):
                print("%-14s no values" % name)
                ok = False
                continue
            stats = []
            for label, vals in zip(["1", "2", "all"], rows):
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                stats.append((q2, spread))
                print("%-14s %5s %12.6g %12.6g %12.6g %8.4f" % (
                    name, label, q1, q2, q3, spread))
            worse = stats[1][0] / stats[0][0] - 1
            if bounds[name]["better"] == "higher":
                worse = stats[0][0] / stats[1][0] - 1
            agree = worse <= bound and (
                name == "setup_s" or max(st[1] for st in stats) <= bound)
            ok = ok and agree
            print("%-14s agree: %s (set 2 worse by %.4f, bound %.2f)" % (
                name, "yes" if agree else "NO", worse, bound))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.record_reference:
        return record_reference(args.workload)
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        ap.error("--workload is required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
