#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the pmcd daemon and the pmbench load generator from this
checkout, runs one measurement, and prints as its last stdout line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

Other modes:
    --all [--seed N] [--seconds S]  one run of every workload; prints each
                                    end-to-end metric with its unit and the
                                    correctness verdict
    --selftest                      the load generator's self-checks
    --steadiness --runs N [--seconds S] [--trace 0|1]
                                    N seeded runs of every workload; prints
                                    the median and quartile spread per metric

--seconds defaults to run_seconds in BENCHMARK.json.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compile_cold", "serve_hot", "serve_churn"]
RUN_TIMEOUT_S = 170


def run_seconds():
    """run_seconds from BENCHMARK.json, the benchmark's run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds pmcd and pmbench; False on failure."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", bdir, "-j", "4",
                        "--target", "pmcd", "pmbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def cache_value(name):
    path = os.path.join(build_dir(), "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(name + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        compiler = out.splitlines()[0] if out else compiler
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "machine": platform.machine()}


def pmbench(mode, extra):
    """Runs pmbench in its work directory; returns (exit code, stdout)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    # Relative paths keep the Unix socket path short wherever the
    # checkout lives.
    cmd = [os.path.join(build_dir(), "pmbench"), mode,
           "--pmcd", os.path.join(build_dir(), "pmcd"),
           "--work", ".",
           "--expected", os.path.join(HERE, "expected.tsv")] + extra
    try:
        r = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: pmbench timed out")
        return 1, ""
    return r.returncode, r.stdout


def measure(workload, seed, seconds, trace):
    """One run; returns the parsed result object or None."""
    code, out = pmbench("trace" if trace else "run",
                        ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds)])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return None, lines
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, lines
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, lines
    return result, lines[:-1]


def steadiness(args):
    report = {"host": host_fingerprint(), "seconds": args.seconds,
              "trace": args.trace, "runs": args.runs, "workloads": {}}
    print("host:", json.dumps(report["host"]), flush=True)
    for w in WORKLOADS:
        values = {}
        failed = 0
        for seed in range(1, args.runs + 1):
            result, info = measure(w, seed, args.seconds, args.trace)
            for line in info:
                log(line)
            if result is None or not result["correct"]:
                failed += 1
                log("perfbench: %s seed %d failed" % (w, seed))
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("perfbench: %s seed %d %s" % (w, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})))
        summary = {}
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            print("%-12s %-28s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.2f%%" % (w, name, med, q1, q3, 100 * spread),
                  flush=True)
        report["workloads"][w] = {"failed_runs": failed, "metrics": summary}
    path = os.path.join(build_dir(), "steadiness-trace%d.json" % args.trace)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    log("perfbench: wrote", path)
    return 0


def run_all(args):
    print("host:", json.dumps(host_fingerprint()), flush=True)
    ok = True
    for w in WORKLOADS:
        result, _ = measure(w, args.seed, args.seconds, 0)
        if result is None:
            print("%-12s no result" % w, flush=True)
            ok = False
            continue
        print("%-12s correct=%s attempted=%d failed=%d" % (
            w, str(result["correct"]).lower(), result["attempted"],
            result["failed"]))
        for name, m in sorted(result["metrics"].items()):
            print("%-12s %-16s %14.6g %s" % (w, name, m["value"], m["unit"]),
                  flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.selftest:
        code, out = pmbench("selftest", [])
        print(out, end="")
        return code
    if args.all:
        return run_all(args)
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        ap.error("--workload is required")
    result, info = measure(args.workload, args.seed, args.seconds,
                           args.trace)
    if result is None:
        log("perfbench: no result")
        for line in info:
            log(line)
        return 1
    for line in info:
        print(line)
    print("host:", json.dumps(host_fingerprint()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
