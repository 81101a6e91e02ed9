#!/usr/bin/env python3
"""Live-nestd benchmark: builds nestd and the load generator from this
checkout, runs one workload, and prints the result as the last stdout line.

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 livebench/run.py --smoke      # every workload, briefly, against a real nestd
    python3 livebench/run.py --selftest   # unit tests of the benchmark's own code

Builds go to $CARGO_TARGET_DIR/livebench (default .bench_build/livebench);
nestd's root and journal live on a private tmpfs under .bench_run/.
See livebench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "livebench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ["small_read", "meta_session", "bulk_fig3", "conn_churn"]
RUN_TIMEOUT_S = 175  # the load generator's own watchdog fires at 170 s


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "livebench")


def build(targets):
    """Configures once, then builds `targets`; build output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def nestd_path():
    return os.path.join(build_dir(), "nest", "server", "nestd")


def revision():
    """git HEAD when this is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "livebench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def leftover_nestd():
    """Pids of processes still running this checkout's nestd binary."""
    target = os.path.realpath(nestd_path())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.path.realpath(os.readlink("/proc/%s/exe" % entry)) == target:
                pids.append(int(entry))
        except OSError:
            continue
    return pids


def reap_leftovers():
    pids = leftover_nestd()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + 5
    while leftover_nestd() and time.time() < deadline:
        time.sleep(0.05)
    return pids


def run_once(workload, seed, seconds, trace, rev, echo=True):
    """Runs the load generator; returns its result dict, or None."""
    cmd = [os.path.join(build_dir(), "nestbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--nestd", nestd_path(), "--run-dir", RUN_DIR, "--revision", rev]
    os.makedirs(RUN_DIR, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("load generator timed out")
        out = None
    left = reap_leftovers()
    if left:
        log("nestd processes left behind and killed: %s" % left)
    if out is None or proc.returncode != 0:
        if out and echo:
            sys.stdout.write(out)
        log("load generator failed (exit %s)" % proc.returncode)
        return None
    lines = out.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("no result line")
        return None
    if left:
        result["correct"] = False
        result["failed"] += 1
        result["attempted"] += 1
    return result


def smoke(rev):
    """Every workload briefly, both modes: each metric of BENCHMARK.json must
    come back with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(workload, 1, 3, trace, rev, echo=False)
            if result is None:
                log("smoke %s trace=%d: no result" % (workload, trace))
                ok = False
                continue
            missing = [m["name"] for m in spec[key]
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(result["metrics"]) - {m["name"] for m in spec[key]})
            good = not missing and not extra and result["correct"]
            ok = ok and good
            print("smoke %-12s trace=%d correct=%s attempted=%d missing=%s extra=%s"
                  % (workload, trace, result["correct"], result["attempted"],
                     missing, extra))
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no nestd sources next to livebench/: nothing to build")
        return 2
    if args.selftest:
        if not build(["nestbench_test"]):
            return 2
        return subprocess.run([os.path.join(build_dir(), "nestbench_test")]).returncode
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not build(["nestd", "nestbench"]):
        log("build failed")
        return 2
    rev = revision()
    if args.smoke:
        return smoke(rev)
    result = run_once(args.workload, args.seed, args.seconds, args.trace, rev)
    if result is None:
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
