#!/usr/bin/env python3
"""Perf gate: a change's base and head, timed by one perfbench on one machine.

  check_perf_gate.py --base DIR --head DIR
  check_perf_gate.py --self-test

DIR is an alp checkout. Both must carry the same perfbench/ and
BENCHMARK.json (copy the head's into the base), so that only the alp
sources differ. Each checkout builds perfbench into its own .bench_build/.

For sim-paper and then compile-corpus, the gate runs perfbench/run.py
--trace 0 --seconds 10 in three pairs, one run per checkout and seed,
alternating which checkout goes first. A run that exits 3 (the load
generator fell behind, so the run is invalid) is rerun once. It fails when
the head's median of a gated metric is worse than the base's by more than
that metric's bound in BENCHMARK.json. The gated metrics are the
speed-scaled ones, on the workload that leads on them:

  sim-paper       sim_geomean_ms, fig7_paper_s
  compile-corpus  compile_p50_ms, compile_p99_ms

The head's compile-corpus medians must also show one program through a
BatchSession taking no longer than one alpc process:
1000 / batch_programs_per_s <= alpc_process_ms.

Every other end-to-end metric is printed and not gated: the probe that
speed-scales in-process timings does not track multi-process ones.
Every head run must report "correct": true. A base run may not, when the
change re-records perfbench/reference/outputs.txt on purpose.

Exit status: 0 pass, 1 fail, 2 usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SECONDS = 10
GATED = {
    "sim-paper": ["sim_geomean_ms", "fig7_paper_s"],
    "compile-corpus": ["compile_p50_ms", "compile_p99_ms"],
}


def run(checkout, workload, seed):
    """One perfbench run's metrics {name: value} and its "correct" flag."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    for attempt in (1, 2):
        proc = subprocess.run(cmd, cwd=checkout, env=env,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 3:
            break
        print(f"  {checkout}: exit 3 (invalid run)"
              + ("; rerunning once" if attempt == 1 else ""))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode} without a result")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["correct"]


def judge(base, head, bounds):
    """Failures of the head's runs against the base's.

    base, head: {workload: [metrics per run]}; bounds: BENCHMARK.json's
    end_to_end list. Prints one row per metric; returns failure messages.
    """
    failures = []
    by_name = {m["name"]: m for m in bounds}
    for workload in GATED:
        print(f"{workload}: median of {len(head[workload])} runs each")
        for name, spec in by_name.items():
            b = statistics.median(r[name] for r in base[workload])
            h = statistics.median(r[name] for r in head[workload])
            lower = spec["better"] == "lower"
            worse = (h - b) / b if lower else (b - h) / b
            gated = name in GATED[workload]
            over = gated and worse > spec["bound"]
            print(f"  {name:22s} base {b:10.4g}  head {h:10.4g}  "
                  f"worse by {100 * worse:+6.1f}%  "
                  + (f"bound {100 * spec['bound']:.0f}%" if gated
                     else "not gated")
                  + ("  FAIL" if over else ""))
            if over:
                failures.append(f"{workload}: {name} is {100 * worse:.1f}% "
                                f"worse than the base (bound "
                                f"{100 * spec['bound']:.0f}%)")
    corpus = head["compile-corpus"]
    batch_ms = 1000 / statistics.median(r["batch_programs_per_s"]
                                        for r in corpus)
    process_ms = statistics.median(r["alpc_process_ms"] for r in corpus)
    print(f"compile-corpus head: {batch_ms:.3f} ms per batch program, "
          f"{process_ms:.3f} ms per alpc process")
    if batch_ms > process_ms:
        failures.append("compile-corpus: a BatchSession program takes "
                        f"{batch_ms:.3f} ms, longer than an alpc process "
                        f"({process_ms:.3f} ms)")
    return failures


def gate(base_dir, head_dir):
    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        bounds = json.load(f)["end_to_end"]
    runs = {"base": {}, "head": {}}
    failures = []
    for workload in GATED:
        for side in runs.values():
            side[workload] = []
        for pair in range(PAIRS):
            order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
            for side in order:
                checkout = base_dir if side == "base" else head_dir
                print(f"{workload} seed {pair + 1}: {side}", flush=True)
                metrics, correct = run(checkout, workload, pair + 1)
                runs[side][workload].append(metrics)
                if not correct and side == "head":
                    failures.append(f"{workload} seed {pair + 1}: an output "
                                    "differs from the recorded reference")
                elif not correct:
                    print("  base outputs differ from the head's reference")
    failures += judge(runs["base"], runs["head"], bounds)
    return failures


def self_test():
    """The comparison rules on synthetic medians; no benchmark runs."""
    bounds = [{"name": n, "better": b, "bound": 0.25} for n, b in
              [("sim_geomean_ms", "lower"), ("fig7_paper_s", "lower"),
               ("compile_p50_ms", "lower"), ("compile_p99_ms", "lower"),
               ("batch_programs_per_s", "higher"),
               ("alpc_process_ms", "lower"), ("service_p50_ms", "lower")]]
    same = {"sim_geomean_ms": 10.0, "fig7_paper_s": 0.07,
            "compile_p50_ms": 1.0, "compile_p99_ms": 20.0,
            "batch_programs_per_s": 2000.0, "alpc_process_ms": 5.0,
            "service_p50_ms": 1.0}

    def runs(**changes):
        return {w: [dict(same, **changes)] * 3 for w in GATED}

    cases = [
        ("equal", runs(), 0),
        ("20% slower, within the bound", runs(compile_p50_ms=1.2), 0),
        ("30% slower compile p50", runs(compile_p50_ms=1.3), 1),
        ("doubled simulator", runs(sim_geomean_ms=20.0), 1),
        ("unscaled metric is not gated", runs(service_p50_ms=9.0), 0),
        ("batch slower than a process", runs(batch_programs_per_s=100.0),
         1),
    ]
    ok = True
    for name, head, want in cases:
        got = len(judge(runs(), head, bounds))
        print(f"self-test {name}: {got} failure(s), want {want}")
        ok = ok and got == want
    print("check_perf_gate self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base")
    ap.add_argument("--head")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.head):
        ap.error("--base and --head are required")
    try:
        failures = gate(os.path.abspath(args.base), os.path.abspath(args.head))
    except RuntimeError as e:
        failures = [str(e)]
    for f in failures:
        print("FAIL: " + f)
    print("perf gate: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
