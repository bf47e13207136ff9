#!/usr/bin/env python3
"""End-to-end benchmark of esl at default options.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-sparse --seed 1 --seconds 10 --trace 0

Builds the esl library, the `esl` binary and the benchmark driver from source
(Release, into $CARGO_TARGET_DIR or .bench_build), prints the run context, then
runs one workload (see perfbench/NOTES.md). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics, or with --trace 1 the per-layer metrics. Exit code 0 when
every output checked out, 1 on a correctness mismatch, 2 when the benchmark
could not run.
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

WORKLOADS = ("sim-sparse", "sim-spec", "serve-churn", "serve-hot")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def revision(root):
    """Git revision when available, else a digest of the program sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        top_and_head = out.stdout.split()
        if (out.returncode == 0 and len(top_and_head) == 2
                and os.path.realpath(top_and_head[0]) == os.path.realpath(root)):
            return top_and_head[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds the driver and the esl binary."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
           "esl_cli", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    with open(os.path.join(build_dir, "CMakeCache.txt")) as fh:
        for line in fh:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no esl sources here (missing %s); run from the root of a "
                 "checkout" % needed)

    load_at_start = open("/proc/loadavg").read().split()[0]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(root, target, "perfbench"), root)
    build_type = build(root, build_dir)
    if build_type != "Release":
        fail("refusing a %s build: timings need Release" % build_type)

    # Sockets live under the work dir; a relative path keeps them short.
    work = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    print("context: seed %d, nproc %d, load average at start %s, revision %s, "
          "build %s" % (args.seed, os.cpu_count() or 1, load_at_start,
                        revision(root), build_type))
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--esl", os.path.join(build_dir, "esl", "esl"), "--work-dir", work]
    started = time.monotonic()
    # Own process group, so a timeout also stops any daemon the driver runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # The driver reaps its daemons; this only sweeps after a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        lines.pop()
    except (ValueError, IndexError):
        result = None
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(work):
            if name.startswith("trace-"):
                shutil.move(os.path.join(work, name), os.path.join(traces, name))
                lines.append("trace kept at %s" % os.path.join(traces, name))
    shutil.rmtree(work, ignore_errors=True)
    if result is None or proc.returncode not in (0, 1):
        print("\n".join(lines), file=sys.stderr)
        fail("driver failed with exit code %d" % proc.returncode)

    for line in lines:
        print(line)
    names = expected_metrics(root, args.trace)
    if names is not None and set(result["metrics"]) != names:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)))
    print("wall time %.1f s" % (time.monotonic() - started))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
