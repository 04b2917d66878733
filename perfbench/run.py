#!/usr/bin/env python3
"""alp benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt: the alp libraries,
alpc, alpd, and the alp_perfbench driver) and runs one workload:

  python3 perfbench/run.py --workload <sim-paper|compile-corpus|service-mix>
                           --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test          # the helpers' self-tests
  python3 perfbench/run.py --record-reference   # rewrite reference/outputs.txt
  python3 perfbench/run.py --calibrate-service  # closed-loop alpd capacity

Run it from the root of an alp checkout. Build output goes to stderr; the
last line of stdout is the run's JSON result. The build lives under
$CARGO_TARGET_DIR (default .bench_build) in the checkout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "outputs.txt")
TARGETS = ["alp_perfbench", "alp_perfbench_selftest", "alpc", "alpd"]
# One run must end within 180 s; the longest measures about 35 s.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds the targets; False on failure."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target"] + TARGETS
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def tool(name):
    bdir = build_dir()
    sub = {"alpc": "alp/tools", "alpd": "alp/tools"}.get(name, "")
    return os.path.relpath(os.path.join(bdir, sub, name), ROOT)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--calibrate-service", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.record_reference
            or args.calibrate_service):
        ap.error("--workload is required")

    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    # The run directory is relative to the checkout root (alpd's socket path
    # must stay short) and is reused by later runs of the same settings.
    label = "selftest" if args.self_test else "%s-seed%d-trace%s" % (
        args.workload or "calibrate", args.seed, args.trace)
    work = os.path.relpath(os.path.join(build_dir(), "run", label), ROOT)
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)

    if args.self_test:
        cmd = [tool("alp_perfbench_selftest"), work]
    else:
        cmd = [tool("alp_perfbench"),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--alpc", tool("alpc"),
               "--alpd", tool("alpd"), "--work-dir", work,
               "--reference", os.path.relpath(REFERENCE, ROOT)]
        if args.record_reference:
            cmd.append("--record-reference")
        elif args.calibrate_service:
            cmd.append("--calibrate-service")
        else:
            cmd += ["--workload", args.workload]
    cmd[0] = os.path.join(".", cmd[0])
    # Its own process group, so that alpd is stopped even if the driver
    # binary dies without reaping it; SIGTERM still runs the cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
