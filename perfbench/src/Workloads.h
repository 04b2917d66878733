//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
///
/// \file
/// The three workloads (README.md has the metric -> layer -> workload
/// map). Every workload runs the same six phases, so every run reports
/// every metric; a workload differs in which phases get most of the run's
/// time and in the simulated program set:
///
///   sim       CompileSession --simulate over (program, machine) pairs
///   fig7      Figure 7's four-strategy sweep at the paper's 1023 x 5
///   single    single-shot in-process compiles of the seeded corpus
///   batch     the corpus through a fresh, cache-less BatchSession
///   alpc      a fixed corpus sample as separate alpc processes
///   service   open-loop COMPILE / BATCH traffic against an alpd child
///
/// An untraced run spends the workload's time budget phase by phase and
/// reports the end-to-end metrics. A traced run does a fixed amount of
/// work (one pass per phase), replays every in-process request layer by
/// layer with spans, and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Support.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// Per-run scratch directory inside the checkout (alpc inputs, the alpd
  /// socket and log, the span file).
  std::string WorkDir;
  std::string Alpc, Alpd;
  std::string ReferencePath;
};

const std::vector<std::string> &workloadNames();

/// Runs \p O.Workload, filling \p R. Returns false, with the reason in
/// \p Invalid, when the run is invalid rather than slow (the open-loop
/// generator fell behind its schedule) or could not start.
bool runWorkload(const Options &O, RunReport &R, std::string &Invalid);

/// Computes every reference value in process (paper programs, Figure 7,
/// the corpus pool under each flags line) into \p Ref.
void recordReference(const Options &O, Reference &Ref, RunReport &R);

/// Closed-loop alpd capacity over the service mix, in requests per second
/// (used once to choose the open-loop rate; see README.md).
double measureServiceCapacity(const Options &O, RunReport &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
