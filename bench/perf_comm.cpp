//===- bench/perf_comm.cpp - Planned vs fine-grained messaging -------------===//
//
// Performance benchmark P3: what the communication planner buys on a
// message-passing multicomputer. For each kernel the same decomposition
// runs twice on the simulated Touchstone-like machine:
//
//   unplanned   every remote cache line is a fine-grained message paying
//               the full per-message software overhead, and
//   planned     the CommPlan schedule is installed (the schedule
//               --emit=spmd renders): boundary layers move as aggregated
//               bulk messages, broadcasts are hoisted, block-boundary
//               sends overlap the next block's compute.
//
// Invariants (exit nonzero on violation): the planned schedule sends at
// least 5x fewer messages AND strictly fewer total cycles on every
// kernel. Results go to BENCH_comm.json (stats schema v2, same shape as
// the other perf harnesses).
//
//   perf_comm [--smoke] [--out <file>]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "codegen/CommPlan.h"
#include "core/Driver.h"
#include "machine/NumaSimulator.h"
#include "machine/ScheduleDerivation.h"
#include "support/StatsReport.h"
#include "support/Trace.h"

#include <cstring>
#include <string>
#include <vector>

using namespace alp;
using namespace alp::bench;

namespace {

MachineParams touchstoneMachine() {
  MachineParams M;
  M.NumProcs = 32;
  M.ProcsPerCluster = 1; // Every node has private memory.
  M.MessagePassing = true;
  M.MessageOverheadCycles = 3000.0;
  M.BulkLinesPerMessage = 64.0;
  return M;
}

struct KernelResult {
  std::string Name;
  SimResult Unplanned;
  SimResult Planned;
  CommPlanStats Plan;
  double MessageRatio = 0.0;
  bool Ok = false;
};

KernelResult runKernel(const std::string &Name, const std::string &Src,
                       unsigned Procs, TraceContext Observe) {
  Program P = compileOrDie(Src);
  MachineParams M = touchstoneMachine();
  ProgramDecomposition PD = decomposeOrDie(P, M);

  KernelResult R;
  R.Name = Name;

  // Fine-grained baseline: same decomposition, no schedule installed.
  {
    NumaSimulator Sim(P, M);
    applyDecomposition(Sim, P, PD);
    R.Unplanned = Sim.run(Procs);
  }
  // Planned: install the CommPlan schedule the backend would execute.
  {
    CodegenOptions CG = CodegenOptions::forMachine(M);
    CG.Observe = Observe;
    CommPlan Plan = planCommunication(P, PD, CG);
    R.Plan = Plan.Stats;
    NumaSimulator Sim(P, M);
    Sim.setCommSchedule(Plan.schedule());
    applyDecomposition(Sim, P, PD);
    R.Planned = Sim.run(Procs);
  }
  R.MessageRatio = R.Planned.MessagesSent > 0
                       ? R.Unplanned.MessagesSent / R.Planned.MessagesSent
                       : 0.0;
  R.Ok = R.MessageRatio >= 5.0 && R.Planned.Cycles < R.Unplanned.Cycles;
  return R;
}

std::string simJson(const SimResult &R) {
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "\"cycles\": %.6g, \"messages\": %.6g, \"reorg_cycles\": "
                "%.6g, \"remote_lines\": %.6g",
                R.Cycles, R.MessagesSent, R.ReorgCycles, R.RemoteLineFetches);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *OutPath = "BENCH_comm.json";
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--out") && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>]\n", argv[0]);
      return 2;
    }
  }
  int64_t N = Smoke ? 127 : 255;
  unsigned Procs = 32;

  printHeader("P3: planned message schedule vs fine-grained messages");
  std::printf("Touchstone-like machine: %u nodes, %.0f-cycle message "
              "overhead, bulk messages of %.0f lines\n\n",
              Procs, touchstoneMachine().MessageOverheadCycles,
              touchstoneMachine().BulkLinesPerMessage);

  Tracer Trace;
  MetricsRegistry Metrics;
  TraceContext Observe{&Trace, &Metrics};

  std::vector<KernelResult> Results;
  Results.push_back(
      runKernel("jacobi", jacobiSource(N, 3), Procs, Observe));
  Results.push_back(runKernel("stencil", stencilSource(N), Procs, Observe));

  bool AllOk = true;
  std::printf("%-8s %14s %14s %8s %14s %14s  %s\n", "kernel", "msgs(fine)",
              "msgs(plan)", "ratio", "cycles(fine)", "cycles(plan)", "ok");
  for (const KernelResult &R : Results) {
    std::printf("%-8s %14.3g %14.3g %7.1fx %14.3g %14.3g  [%s]\n",
                R.Name.c_str(), R.Unplanned.MessagesSent,
                R.Planned.MessagesSent, R.MessageRatio, R.Unplanned.Cycles,
                R.Planned.Cycles, R.Ok ? "ok" : "MISMATCH");
    AllOk = AllOk && R.Ok;
  }
  std::printf("\n[%s] planned schedule sends >= 5x fewer messages and "
              "strictly fewer cycles on every kernel\n",
              AllOk ? "ok" : "MISMATCH");

  ArtifactWriter Out;
  Out.printf("%s", StatsReport::headerOpen("bench_comm").c_str());
  Out.printf("  \"benchmark\": \"comm\",\n");
  Out.printf("  \"smoke\": %s,\n", Smoke ? "true" : "false");
  Out.printf("  \"procs\": %u,\n", Procs);
  Out.printf("  \"kernels\": [\n");
  for (size_t I = 0; I != Results.size(); ++I) {
    const KernelResult &R = Results[I];
    Out.printf(
        "    {\"kernel\": \"%s\", \"unplanned\": {%s}, \"planned\": {%s},\n"
        "     \"message_ratio\": %.3f, \"cycles_lower\": %s,\n"
        "     \"plan\": {\"messages\": %llu, \"elements\": %llu, "
        "\"aggregated\": %llu, \"hoisted\": %llu, \"eliminated\": %llu, "
        "\"fine_grained_ops\": %llu}}%s\n",
        R.Name.c_str(), simJson(R.Unplanned).c_str(),
        simJson(R.Planned).c_str(), R.MessageRatio,
        R.Planned.Cycles < R.Unplanned.Cycles ? "true" : "false",
        static_cast<unsigned long long>(R.Plan.Messages),
        static_cast<unsigned long long>(R.Plan.Elements),
        static_cast<unsigned long long>(R.Plan.Aggregated),
        static_cast<unsigned long long>(R.Plan.Hoisted),
        static_cast<unsigned long long>(R.Plan.Eliminated),
        static_cast<unsigned long long>(R.Plan.FineGrainedOps),
        I + 1 == Results.size() ? "" : ",");
  }
  Out.printf("  ],\n");
  Out.printf("  \"invariants_hold\": %s,\n", AllOk ? "true" : "false");
  // The comm.* counters and planner spans in the versioned stats schema.
  {
    std::string Stats = renderStatsJson(&Metrics, &Trace);
    while (!Stats.empty() && Stats.back() == '\n')
      Stats.pop_back();
    Out.printf("  \"stats\": %s\n", Stats.c_str());
  }
  Out.printf("}\n");
  if (!Out.publish(OutPath))
    return 1;
  std::printf("wrote %s\n", OutPath);

  return AllOk ? 0 : 1;
}
