//===- bench/fig7_conduct_speedup.cpp - Figure 7 reproduction --------------===//
//
// Reproduces Figure 7 of the paper: speedup over the best sequential
// version of the SIMPLE heat-conduction routine `conduct` on a DASH-like
// NUMA machine (8 clusters x 4 processors), for the four decomposition
// strategies the paper compares:
//
//   no optimization     SGI Power Fortran style: each nest parallelized
//                       over its own outermost parallel loop, OS page
//                       placement misaligned (blocks of columns).
//   static              Best single data decomposition with only forall
//                       parallelism: blocks of rows; the column sweep runs
//                       parallel with remote accesses.
//   dynamic, no pipe    The compiler with blocking disabled: the layout is
//                       reorganized (transposed) around the column sweep.
//   dynamic + pipe      The compiler's full output: rows stay put, the
//                       column sweep runs software-pipelined over column
//                       blocks (block size 4).
//
// The absolute cycle counts come from a simulator, not the authors' DASH
// hardware, so the numbers differ from the paper; the *shape* (ordering
// and rough ratios of the four curves) is the reproduction target.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Driver.h"
#include "machine/NumaSimulator.h"
#include "machine/ScheduleDerivation.h"

#include <cstdlib>
#include <vector>

using namespace alp;
using namespace alp::bench;

namespace {

MachineParams dashMachine() {
  MachineParams M;
  M.NumProcs = 32;
  M.ProcsPerCluster = 4;
  M.CacheCycles = 1.0;
  M.LocalCycles = 29.0;
  M.RemoteCycles = 120.0;
  return M;
}

/// Strategy 1: "no optimization". Placement lands in blocks of columns
/// (the paper's Fortran column-major first-touch behaviour); every nest is
/// parallelized over its outermost parallel loop.
double runNoOpt(const Program &P, const MachineParams &M, unsigned Procs) {
  NumaSimulator Sim(P, M);
  for (unsigned A = 0; A != P.Arrays.size(); ++A)
    Sim.setStaticPlacement(A, ArrayPlacement::blockedDim(1));
  for (const LoopNest &Nest : P.Nests) {
    NestSchedule S;
    S.ExecMode = NestSchedule::Mode::Forall;
    S.DistLoop = Nest.firstParallelLoop();
    Sim.setSchedule(Nest.Id, S);
  }
  return Sim.run(Procs).Cycles;
}

/// Strategy 2: best static decomposition with forall parallelism only:
/// rows everywhere; the column sweep stays parallel (over columns) but its
/// accesses are remote.
double runStatic(const Program &P, const MachineParams &M, unsigned Procs) {
  NumaSimulator Sim(P, M);
  for (unsigned A = 0; A != P.Arrays.size(); ++A)
    Sim.setStaticPlacement(A, ArrayPlacement::blockedDim(0));
  for (const LoopNest &Nest : P.Nests) {
    NestSchedule S;
    S.ExecMode = NestSchedule::Mode::Forall;
    S.DistLoop = Nest.firstParallelLoop();
    Sim.setSchedule(Nest.Id, S);
  }
  return Sim.run(Procs).Cycles;
}

/// Strategies 3 and 4 come from the compiler itself.
double runCompiler(Program P, const MachineParams &M, unsigned Procs,
                   bool EnableBlocking) {
  DriverOptions Opts;
  Opts.EnableBlocking = EnableBlocking;
  ProgramDecomposition PD = decomposeOrDie(P, M, Opts);
  NumaSimulator Sim(P, M);
  applyDecomposition(Sim, P, PD);
  return Sim.run(Procs).Cycles;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = 511, T = 5;
  if (argc > 1)
    N = std::atoll(argv[1]);
  if (argc > 2)
    T = std::atoll(argv[2]);

  Program P = compileOrDie(conductSource(N, T));
  MachineParams M = dashMachine();

  printHeader("Figure 7: speedup over sequential for conduct "
              "(heat conduction, ADI)");
  std::printf("problem %lldx%lld double, %lld time steps, block size %lld, "
              "8 clusters x 4 procs\n",
              (long long)(N + 1), (long long)(N + 1), (long long)T,
              (long long)M.BlockSize);
  std::printf("(simulated DASH: cache 1cy, local 29cy, remote 120cy)\n\n");

  // Sequential baseline (same for all strategies).
  NumaSimulator SeqSim(P, M);
  for (unsigned A = 0; A != P.Arrays.size(); ++A)
    SeqSim.setStaticPlacement(A, ArrayPlacement::blockedDim(0));
  double Seq = SeqSim.sequentialCycles();

  std::vector<unsigned> ProcCounts = {1, 2, 4, 8, 16, 32};
  std::printf("%6s %12s %12s %16s %16s\n", "procs", "no-opt", "static",
              "dynamic no-pipe", "dynamic + pipe");
  double Last[4] = {0, 0, 0, 0};
  for (unsigned Procs : ProcCounts) {
    double S1 = Seq / runNoOpt(P, M, Procs);
    double S2 = Seq / runStatic(P, M, Procs);
    double S3 = Seq / runCompiler(P, M, Procs, /*EnableBlocking=*/false);
    double S4 = Seq / runCompiler(P, M, Procs, /*EnableBlocking=*/true);
    std::printf("%6u %12.2f %12.2f %16.2f %16.2f\n", Procs, S1, S2, S3, S4);
    Last[0] = S1;
    Last[1] = S2;
    Last[2] = S3;
    Last[3] = S4;
  }

  std::printf("\nshape checks (paper: no-opt < static < dynamic < "
              "dynamic+pipe at 32 procs):\n");
  auto Check = [](bool Ok, const char *What) {
    std::printf("  [%s] %s\n", Ok ? "ok" : "MISMATCH", What);
    return Ok;
  };
  bool AllOk = true;
  AllOk &= Check(Last[0] < Last[1], "static beats no optimization");
  AllOk &= Check(Last[1] < Last[2], "dynamic beats static");
  AllOk &= Check(Last[2] < Last[3], "pipelining beats reorganization");
  AllOk &= Check(Last[3] / Last[1] > 1.5,
                 "dynamic+pipe at least 1.5x the static speedup");
  AllOk &= Check(Last[0] < 8.0, "no-opt saturates well below linear");
  return AllOk ? 0 : 1;
}
