#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload plan|execute|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (and through it the
program's own src/ and tools/spld) into $CARGO_TARGET_DIR, default
.bench_build, then runs the benchmark in a hermetic environment: every
SPL_* variable is cleared (and recorded in the stamp), HOME and TMPDIR point
at a private directory under .perfbench_tmp/, and that directory is removed
at exit. The last line of standard output is the result object; the line
before it is the stamp (host, compiler, vector ISA, nproc, seed, git SHA).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark binary's own wall-clock cap; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds perfbench and spld (a no-op when fresh)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "spld",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["plan", "execute", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench")
    spld = os.path.join(build_dir, "tools", "spld")

    # Hermetic environment: no inherited fault injection, forced ISA,
    # default caches, telemetry or compiler override.
    env = dict(os.environ)
    cleared = {k: v for k, v in env.items() if k.startswith("SPL_")}
    for k in cleared:
        del env[k]
    tmp_root = os.path.join(".perfbench_tmp", str(os.getpid()))
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(os.path.join(tmp_root, "home"))
    os.makedirs(os.path.join(tmp_root, "tmp"))
    env["HOME"] = os.path.abspath(os.path.join(tmp_root, "home"))
    env["TMPDIR"] = os.path.abspath(os.path.join(tmp_root, "tmp"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spld", spld, "--tmp", tmp_root]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_out]
        log("chrome trace: " + trace_out)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark exited with %d" % proc.returncode)
        return 1
    stamp = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-stamp "):
            stamp = json.loads(line[len("perfbench-stamp "):])
    stamp["git_sha"] = git_sha()
    stamp["cleared_env"] = cleared
    result = json.loads(lines[-1])
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
