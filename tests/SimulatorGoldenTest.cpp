//===- tests/SimulatorGoldenTest.cpp - Bit-exact simulator results --------===//
//
// Pins the simulator's output bit for bit. Every checked-in program is set
// up the way `alpc --simulate` sets it up (decompose, install the planned
// schedule on touchstone, applyDecomposition) and simulated on dash and on
// touchstone, with and without the planned schedule; hand-built cases add
// configurations the compiler never produces (a Wavefront2D schedule, the
// default LinearFill placement, a Replicated array, per-nest placements
// that force reorganizations, non-integer latencies). Each result is
// recorded as the hex bit pattern of all nine SimResult fields plus the
// run's sim.reorganizations count, or as the status text of the exception
// the run threw.
//
// The expected lines live in testdata/sim/simresults.golden, one group per
// case keyed by the case name. After an intentional change to the model,
// regenerate them with tests/update_sim_golden.sh, which runs this binary
// with ALP_UPDATE_SIM_GOLDEN=<golden file>: each case then appends its
// lines to that file instead of comparing.
//
// SimulatorGoldenTest.SweepMatchesSerialRuns holds NumaSimulator::sweep to
// the serial calls on the same configurations: the same bits, errors,
// counters and gauges, on a thread pool and serially.
//
//===----------------------------------------------------------------------===//

#include "machine/NumaSimulator.h"
#include "machine/ScheduleDerivation.h"

#include "codegen/CommPlan.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

using namespace alp;

namespace {

namespace fs = std::filesystem;

const char *GoldenPath = ALP_SOURCE_DIR "/testdata/sim/simresults.golden";

std::string hexBits(double V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, std::bit_cast<uint64_t>(V));
  return Buf;
}

/// The lines one case produces, each prefixed with the case key.
class Recorder {
public:
  explicit Recorder(std::string Key) : Key(std::move(Key)) {}

  void add(const std::string &Config, const std::string &What) {
    Lines.push_back(Key + " " + Config + " " + What);
  }

  /// Records sequentialCycles() and run(P) for each P in \p Procs.
  void simulate(const std::string &Config, NumaSimulator &Sim,
                const std::vector<unsigned> &Procs) {
    try {
      add(Config, "seq " + hexBits(Sim.sequentialCycles()));
    } catch (...) {
      add(Config, "seq error: " + statusFromCurrentException().str());
    }
    for (unsigned P : Procs) {
      std::string Run = "p" + std::to_string(P);
      MetricsRegistry MR;
      Sim.setObserve({nullptr, &MR});
      try {
        SimResult R = Sim.run(P);
        std::string Bits;
        for (double F : {R.Cycles, R.ComputeCycles, R.MemoryCycles,
                         R.ReorgCycles, R.SyncCycles, R.CacheAccesses,
                         R.LocalLineFetches, R.RemoteLineFetches,
                         R.MessagesSent})
          Bits += " " + hexBits(F);
        add(Config, Run + Bits + " reorgs=" +
                        std::to_string(MR.counter("sim.reorganizations")));
      } catch (...) {
        add(Config, Run + " error: " + statusFromCurrentException().str());
      }
      Sim.setObserve({});
    }
  }

  /// Compares against the golden (or appends to it in update mode).
  void check() const {
    if (const char *Out = std::getenv("ALP_UPDATE_SIM_GOLDEN")) {
      std::ofstream OS(Out, std::ios::app);
      for (const std::string &L : Lines)
        OS << L << "\n";
      ASSERT_TRUE(OS.good()) << "cannot append to " << Out;
      return;
    }
    std::ifstream In(GoldenPath);
    ASSERT_TRUE(In.good()) << "cannot read " << GoldenPath;
    std::vector<std::string> Expected;
    std::string Prefix = Key + " ", L;
    while (std::getline(In, L))
      if (L.compare(0, Prefix.size(), Prefix) == 0)
        Expected.push_back(L);
    ASSERT_FALSE(Expected.empty())
        << "no golden lines for " << Key
        << "; regenerate with tests/update_sim_golden.sh";
    for (size_t I = 0; I != std::max(Expected.size(), Lines.size()); ++I) {
      std::string E = I < Expected.size() ? Expected[I] : "<none>";
      std::string A = I < Lines.size() ? Lines[I] : "<none>";
      ASSERT_EQ(E, A) << "line " << I << " of " << Key;
    }
  }

private:
  std::string Key;
  std::vector<std::string> Lines;
};

const std::vector<unsigned> AlpcProcs = {1, 2, 4, 8, 16, 32};
/// Hand-built cases also run processor counts that leave clusters and
/// strips partly filled.
const std::vector<unsigned> HandProcs = {1, 2, 3, 4, 5, 8, 12, 16, 32};

std::optional<Program> parse(const std::string &Src) {
  DiagnosticEngine Diags;
  return compileDsl(Src, Diags);
}

Program parseOrDie(const std::string &Src) {
  std::optional<Program> P = parse(Src);
  if (!P)
    reportFatalError("hand-built test program failed to compile");
  return std::move(*P);
}

MachineParams dash() { return MachineParams(); }

MachineParams touchstone() {
  MachineParams M;
  M.ProcsPerCluster = 1;
  M.MessagePassing = true;
  return M;
}

/// The machines of `alpc --simulate --machine=<dash|touchstone>`, plus
/// touchstone without the planned schedule.
struct AlpcMachine {
  const char *Name;
  MachineParams M;
  bool Planned;
};
const AlpcMachine AlpcMachines[] = {{"dash", dash(), false},
                                    {"touchstone", touchstone(), true},
                                    {"touchstone-unplanned", touchstone(),
                                     false}};

/// Decomposes a fresh parse of \p Src, sets up a simulator the way `alpc
/// --simulate` does (with the planned schedule installed when asked) and
/// hands it to \p Use. Returns the error line of a failed setup, or "".
std::string withAlpcSimulator(const std::string &Src, const AlpcMachine &AM,
                              const std::function<void(NumaSimulator &)> &Use) {
  Program P = *parse(Src);
  Expected<ProgramDecomposition> PD =
      decomposeOrError(P, AM.M, DriverOptions());
  if (!PD.hasValue())
    return "decompose error: " + PD.status().str();
  try {
    NumaSimulator Sim(P, AM.M);
    if (AM.Planned)
      Sim.setCommSchedule(
          planCommunication(P, *PD, CodegenOptions::forMachine(AM.M))
              .schedule());
    applyDecomposition(Sim, P, *PD);
    Use(Sim);
  } catch (...) {
    return "setup error: " + statusFromCurrentException().str();
  }
  return "";
}

void simulateLikeAlpc(Recorder &Rec, const std::string &Src,
                      const AlpcMachine &AM) {
  std::string Err = withAlpcSimulator(Src, AM, [&](NumaSimulator &Sim) {
    Rec.simulate(AM.Name, Sim, AlpcProcs);
  });
  if (!Err.empty())
    Rec.add(AM.Name, Err);
}

std::string readSource(const std::string &Rel) {
  std::ifstream In(fs::path(ALP_SOURCE_DIR) / Rel);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// testdata/*.alp, examples/*.alp, testdata/gen/*.alp and every
/// testdata/fuzz/*.alp that parses, as paths relative to the source root.
std::vector<std::string> programFiles() {
  std::vector<std::string> Files;
  for (const char *Dir : {"testdata", "examples", "testdata/gen",
                          "testdata/fuzz"}) {
    std::vector<std::string> Found;
    for (const fs::directory_entry &E :
         fs::directory_iterator(fs::path(ALP_SOURCE_DIR) / Dir)) {
      std::string Rel = std::string(Dir) + "/" + E.path().filename().string();
      if (E.path().extension() == ".alp" && parse(readSource(Rel)))
        Found.push_back(Rel);
    }
    std::sort(Found.begin(), Found.end());
    Files.insert(Files.end(), Found.begin(), Found.end());
  }
  return Files;
}

class ProgramGolden : public testing::TestWithParam<std::string> {};

} // namespace

TEST_P(ProgramGolden, MatchesGolden) {
  std::string Src = readSource(GetParam());
  Recorder Rec(GetParam());
  for (const AlpcMachine &AM : AlpcMachines)
    simulateLikeAlpc(Rec, Src, AM);
  Rec.check();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, ProgramGolden, testing::ValuesIn(programFiles()),
    [](const testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param.substr(0, Info.param.size() - 4);
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Hand-built configurations
//===----------------------------------------------------------------------===//

namespace {

const char *WavefrontSrc = R"(
program wave;
param N = 127;
array X[N + 1, N + 1];
for i = 1 to N {
  for j = 1 to N {
    X[i, j] = f(X[i - 1, j], X[i, j - 1]) @cost(12);
  }
}
)";

/// Rows and columns of 2-d and 3-d arrays whose extents do not divide
/// evenly among the clusters, including a transposed read whose inner
/// segments cross cluster boundaries.
const char *LinearFillSrc = R"(
program fill;
param N = 100, M = 9;
array A[N + 1, N + 1], B[N + 1, N + 1], C[M + 1, N + 1, N + 1];
forall i = 0 to N {
  forall j = 0 to N {
    A[i, j] = f(B[j, i], C[3, i, j]) @cost(5);
  }
}
forall i = 0 to N {
  for j = 1 to N {
    B[j, i] = g(B[j - 1, i], A[i, j]) @cost(7);
  }
}
)";

const char *ReplicatedSrc = R"(
program repl;
param N = 95;
array A[N + 1, N + 1], B[N + 1, N + 1], C[N + 1, N + 1];
forall i = 0 to N {
  forall j = 0 to N {
    for k = 0 to N {
      C[i, j] += A[i, k] * B[k, j] @cost(2);
    }
  }
}
)";

/// Two sweeps inside a time loop plus a branch: per-nest placements flip
/// X between rows and columns, so every step reorganizes it twice.
const char *ReorganizeSrc = R"(
program reorg;
param N = 127, T = 6;
array X[N + 1, N + 1], Y[N + 1, N + 1];
for t = 1 to T {
  forall i = 0 to N {
    for j = 1 to N {
      X[i, j] = f(X[i, j - 1], Y[i, j]) @cost(9);
    }
  }
  forall j = 0 to N {
    for i = 1 to N {
      X[i, j] = f(X[i - 1, j]) @cost(9);
    }
  }
}
if prob(0.3) {
  forall i = 0 to N {
    forall j = 0 to N {
      Y[i, j] = g(X[j, i]) @cost(4);
    }
  }
} else {
  forall i = 0 to N {
    forall j = 0 to N {
      Y[j, i] = g(X[i, j]) @cost(4);
    }
  }
}
)";

/// Triangular bounds, a reversed index, a stride of two, indices before the
/// array's start and past its end (clamped), and a loop with a step, all
/// along the blocked dimension, so crossing segments run in both
/// directions.
const char *IrregularSrc = R"(
program irregular;
param N = 200;
array X[N + 1, N + 1], Y[2 * N + 2, N + 1], Z[N + 1, N + 1];
forall i = 0 to N {
  for j = i to N {
    X[j, i] = f(X[N - j, i], Y[2 * j, i], Z[j + 40, i], Z[j - 30, i],
                X[N - j + 40, i]) @cost(3);
  }
}
for i = 1 to N {
  for j = 0 to N by 3 {
    Z[j, i] = g(Z[j, i - 1], X[i, j]) @cost(6);
  }
}
forall i = 0 to N {
  for j = 0 to N {
    Y[j + 250, i] = h(X[j - 60, i]) @cost(2);
  }
}
)";

/// conduct's row and column sweeps, the shape Figure 7 simulates.
const char *SweepsSrc = R"(
program sweeps;
param N = 255, T = 3;
array A[N + 1, N + 1], B[N + 1, N + 1];
for t = 1 to T {
  forall i = 0 to N {
    for j = 1 to N {
      A[i, j] = f(A[i, j - 1], B[i, j]) @cost(8);
    }
  }
  forall j = 0 to N {
    for i = 1 to N {
      B[i, j] = f(B[i - 1, j], A[i, j]) @cost(8);
    }
  }
}
)";

/// Symbolic values past 64 bits: a loop bound, a subscript offset and an
/// array extent each overflow when the run evaluates them.
const char *BoundOverflowSrc = R"(
program bound_overflow;
param N = 4611686018427387904;
array A[8];
for i = 0 to 3 * N {
  A[i] = f(A[i]) @cost(1);
}
)";
const char *SubscriptOverflowSrc = R"(
program subscript_overflow;
param N = 4611686018427387904;
array A[8];
for i = 0 to 7 {
  A[i] = f(A[i + 3 * N]) @cost(1);
}
)";
const char *ExtentOverflowSrc = R"(
program extent_overflow;
param N = 4611686018427387904;
array A[8], B[3 * N + 1];
for i = 0 to 7 {
  A[i] = f(B[i]) @cost(1);
}
)";

/// A subscript stride of 2^62 + 1: the row-major byte stride wraps to one
/// element's, and the indices of the segment's lines wrap past 2^63.
const char *WrappingSrc = R"(
program wrapping;
param N = 4;
array A[N + 1];
for j = 0 to N {
  A[4611686018427387905 * j] = f(A[j]) @cost(1);
}
)";

/// A triangular nest whose bound and subscript become fractional below.
const char *TriangleSrc = R"(
program triangle;
param N = 90;
array X[N + 1, N + 1], Y[N + 1, N + 1];
forall i = 0 to N {
  for j = 0 to i {
    X[i, j] = f(Y[j, i], X[i, j]) @cost(3);
  }
}
)";

NestSchedule schedule(NestSchedule::Mode Mode, unsigned Dist,
                      unsigned Pipe = 0, int64_t Block = 4) {
  NestSchedule S;
  S.ExecMode = Mode;
  S.DistLoop = Dist;
  S.PipeLoop = Pipe;
  S.BlockSize = Block;
  return S;
}

using Mode = NestSchedule::Mode;

} // namespace

TEST(SimulatorGoldenHand, Wavefront2D) {
  Program P = parseOrDie(WavefrontSrc);
  Recorder Rec("hand:wavefront2d");
  for (unsigned Dim : {0u, 1u}) {
    NumaSimulator Sim(P, dash());
    Sim.setStaticPlacement(P.arrayId("X"), ArrayPlacement::blockedDim(Dim));
    Sim.setSchedule(0, schedule(Mode::Wavefront2D, 0, 1));
    Rec.simulate("dash-dim" + std::to_string(Dim), Sim, HandProcs);
  }
  Rec.check();
}

TEST(SimulatorGoldenHand, DefaultLinearFill) {
  Program P = parseOrDie(LinearFillSrc);
  Recorder Rec("hand:linear-fill");
  for (const auto &[Name, M] :
       {std::pair<std::string, MachineParams>{"dash", dash()},
        {"touchstone", touchstone()}}) {
    NumaSimulator Sim(P, M);
    Sim.setSchedule(0, schedule(Mode::Forall, 0));
    Sim.setSchedule(1, schedule(Mode::Forall, 0));
    Rec.simulate(Name, Sim, HandProcs);
  }
  Rec.check();
}

TEST(SimulatorGoldenHand, ReplicatedArray) {
  Program P = parseOrDie(ReplicatedSrc);
  Recorder Rec("hand:replicated");
  NumaSimulator Sim(P, dash());
  Sim.setStaticPlacement(P.arrayId("A"), ArrayPlacement::blockedDim(0));
  Sim.setStaticPlacement(P.arrayId("B"), ArrayPlacement::replicated());
  Sim.setStaticPlacement(P.arrayId("C"), ArrayPlacement::blockedDim(0));
  Sim.setSchedule(0, schedule(Mode::Forall, 1));
  Rec.simulate("dash", Sim, HandProcs);
  Rec.check();
}

TEST(SimulatorGoldenHand, PerNestPlacementsReorganize) {
  Program P = parseOrDie(ReorganizeSrc);
  Recorder Rec("hand:reorganize");
  unsigned X = P.arrayId("X"), Y = P.arrayId("Y");
  // Three-line bulk messages make the reorganizations' message counts
  // fractional before the remote lines of later nests add to them.
  MachineParams Bulk3 = touchstone();
  Bulk3.BulkLinesPerMessage = 3.0;
  for (const auto &[Name, M] :
       {std::pair<std::string, MachineParams>{"dash", dash()},
        {"touchstone", touchstone()},
        {"touchstone-bulk3", Bulk3}}) {
    NumaSimulator Sim(P, M);
    Sim.setInitialPlacement(X, ArrayPlacement::blockedDim(0));
    Sim.setPlacement(X, 0, ArrayPlacement::blockedDim(0));
    Sim.setPlacement(X, 1, ArrayPlacement::blockedDim(1));
    Sim.setPlacement(X, 2, ArrayPlacement::linearFill());
    Sim.setPlacement(X, 3, ArrayPlacement::blockedDim(1));
    Sim.setStaticPlacement(Y, ArrayPlacement::blockedDim(0));
    for (unsigned N = 0; N != P.Nests.size(); ++N)
      Sim.setSchedule(N, schedule(Mode::Forall, 0));
    Rec.simulate(Name, Sim, HandProcs);
  }
  Rec.check();
}

TEST(SimulatorGoldenHand, IrregularAccesses) {
  Program P = parseOrDie(IrregularSrc);
  Recorder Rec("hand:irregular");
  for (unsigned Dim : {0u, 1u}) {
    NumaSimulator Sim(P, dash());
    for (unsigned A = 0; A != P.Arrays.size(); ++A)
      Sim.setStaticPlacement(A, ArrayPlacement::blockedDim(Dim));
    Sim.setSchedule(0, schedule(Mode::Forall, 0));
    Sim.setSchedule(1, schedule(Mode::Pipelined, 1, 0, 3));
    Sim.setSchedule(2, schedule(Mode::Forall, 0));
    Rec.simulate("dash-dim" + std::to_string(Dim), Sim, HandProcs);
  }
  Rec.check();
}

TEST(SimulatorGoldenHand, NonIntegerLatencies) {
  Program P = parseOrDie(SweepsSrc);
  Recorder Rec("hand:fractional-latency");
  // Not dyadic (unlike 29.5), so summing a segment's lines in another
  // order or by group would round differently.
  MachineParams Shared = dash();
  Shared.LocalCycles = 29.1;
  Shared.RemoteCycles = 120.3;
  MachineParams Messages = touchstone();
  Messages.MessageOverheadCycles = 2999.7;
  for (const auto &[Name, M] :
       {std::pair<std::string, MachineParams>{"dash-local29.1", Shared},
        {"touchstone-overhead2999.7", Messages}}) {
    for (bool Pipelined : {false, true}) {
      NumaSimulator Sim(P, M);
      for (unsigned A = 0; A != P.Arrays.size(); ++A)
        Sim.setStaticPlacement(A, ArrayPlacement::blockedDim(0));
      Sim.setSchedule(0, schedule(Mode::Forall, 0));
      Sim.setSchedule(1, Pipelined ? schedule(Mode::Pipelined, 1, 0)
                                   : schedule(Mode::Forall, 0));
      Rec.simulate(Name + (Pipelined ? "-pipe" : "-forall"), Sim, HandProcs);
    }
  }
  Rec.check();
}

TEST(SimulatorGoldenHand, OverflowAndFractions) {
  Recorder Rec("hand:overflow-and-fractions");
  for (const auto &[Name, Src] :
       {std::pair<std::string, const char *>{"bound", BoundOverflowSrc},
        {"subscript", SubscriptOverflowSrc},
        {"extent", ExtentOverflowSrc},
        {"wrapping", WrappingSrc}}) {
    Program P = parseOrDie(Src);
    NumaSimulator Sim(P, dash());
    Sim.setStaticPlacement(0, ArrayPlacement::blockedDim(0));
    Rec.simulate(Name, Sim, {1, 8, 32});
  }
  // j runs from i/3 to i/2 + 1/3, and Y's row subscript gains 5/2: all
  // three take the Rational path.
  Program P = parseOrDie(TriangleSrc);
  LoopNest &Nest = P.Nests[0];
  Nest.Loops[1].Lower[0].OuterCoeffs[0] = Rational(1, 3);
  Nest.Loops[1].Upper[0].OuterCoeffs[0] = Rational(1, 2);
  Nest.Loops[1].Upper[0].Const = SymAffine(Rational(1, 3));
  for (ArrayAccess &Acc : Nest.Body[0].Accesses)
    if (Acc.ArrayId == P.arrayId("Y")) {
      SymVector K = Acc.Map.constant();
      K[0] = K[0] + SymAffine(Rational(5, 2));
      Acc.Map = AffineAccessMap(Acc.Map.linear(), K);
    }
  NumaSimulator Sim(P, dash());
  Sim.setStaticPlacement(P.arrayId("X"), ArrayPlacement::blockedDim(0));
  Sim.setStaticPlacement(P.arrayId("Y"), ArrayPlacement::blockedDim(1));
  Sim.setSchedule(0, schedule(Mode::Forall, 0));
  Rec.simulate("fractional", Sim, HandProcs);
  Rec.check();
}

//===----------------------------------------------------------------------===//
// The parallel sweep
//===----------------------------------------------------------------------===//

namespace {

std::string errorText(const std::exception_ptr &E) {
  try {
    std::rethrow_exception(E);
  } catch (...) {
    return "error: " + statusFromCurrentException().str();
  }
}

std::string resultBits(const SimResult &R) {
  std::string Bits;
  for (double F : {R.Cycles, R.ComputeCycles, R.MemoryCycles, R.ReorgCycles,
                   R.SyncCycles, R.CacheAccesses, R.LocalLineFetches,
                   R.RemoteLineFetches, R.MessagesSent})
    Bits += " " + hexBits(F);
  return Bits;
}

/// Counters and the bit patterns of the gauges.
std::string published(const MetricsRegistry &MR) {
  std::string S = MR.renderCountersJson();
  for (const auto &[Name, V] : MR.gauges())
    S += "\n" + Name + " " + hexBits(V);
  return S;
}

/// What the serial calls give: sequentialCycles(), then run(P) for each P,
/// every call made (one line each), with observation up to the first
/// failure, where a serial loop stops.
std::vector<std::string> serialCalls(NumaSimulator &Sim,
                                     const std::vector<unsigned> &Procs,
                                     MetricsRegistry &MR) {
  std::vector<std::string> Lines;
  bool Failed = false;
  try {
    Lines.push_back("seq " + hexBits(Sim.sequentialCycles()));
  } catch (...) {
    Lines.push_back(errorText(std::current_exception()));
    Failed = true;
  }
  for (unsigned P : Procs) {
    Sim.setObserve({nullptr, Failed ? nullptr : &MR});
    try {
      Lines.push_back("p" + std::to_string(P) + resultBits(Sim.run(P)));
    } catch (...) {
      Lines.push_back(errorText(std::current_exception()));
      Failed = true;
    }
  }
  Sim.setObserve({});
  return Lines;
}

/// sweep()'s lines in the same form, and its first failure.
std::vector<std::string> sweepLines(const SimSweep &Sw,
                                    const std::vector<unsigned> &Procs,
                                    std::string &First) {
  std::vector<std::string> Lines;
  EXPECT_EQ(Sw.Errors.size(), Procs.size() + 1);
  EXPECT_EQ(Sw.Runs.size(), Procs.size());
  if (Sw.Errors.size() != Procs.size() + 1 || Sw.Runs.size() != Procs.size())
    return Lines;
  Lines.push_back(Sw.Errors[0] ? errorText(Sw.Errors[0])
                               : "seq " + hexBits(Sw.SequentialCycles));
  for (size_t I = 0; I != Procs.size(); ++I)
    Lines.push_back(Sw.Errors[I + 1] ? errorText(Sw.Errors[I + 1])
                                     : "p" + std::to_string(Procs[I]) +
                                           resultBits(Sw.Runs[I]));
  try {
    Sw.rethrowFirstFailure();
  } catch (...) {
    First = errorText(std::current_exception());
  }
  return Lines;
}

/// Sweeps \p Sim on \p Pool and on no pool; each must match the serial
/// calls line for line, rethrow the serial loop's first failure, and
/// publish the serial loop's counters and gauges.
void expectSweepMatchesSerial(NumaSimulator &Sim,
                              const std::vector<unsigned> &Procs,
                              ThreadPool &Pool) {
  MetricsRegistry SerialMR;
  std::vector<std::string> Serial = serialCalls(Sim, Procs, SerialMR);
  std::string SerialFirst;
  for (const std::string &L : Serial)
    if (L.compare(0, 6, "error:") == 0) {
      SerialFirst = L;
      break;
    }
  for (ThreadPool *On : {&Pool, static_cast<ThreadPool *>(nullptr)}) {
    SCOPED_TRACE(On ? "4-thread pool" : "no pool");
    MetricsRegistry MR;
    Sim.setObserve({nullptr, &MR});
    SimSweep Sw = Sim.sweep(Procs, On);
    Sim.setObserve({});
    std::string First;
    EXPECT_EQ(sweepLines(Sw, Procs, First), Serial);
    EXPECT_EQ(First, SerialFirst);
    EXPECT_EQ(published(MR), published(SerialMR));
  }
}

} // namespace

TEST(SimulatorGoldenTest, SweepMatchesSerialRuns) {
  ThreadPool Pool(4);
  for (const std::string &File : programFiles()) {
    std::string Src = readSource(File);
    for (const AlpcMachine &AM : AlpcMachines) {
      SCOPED_TRACE(File + " on " + AM.Name);
      std::string Err = withAlpcSimulator(Src, AM, [&](NumaSimulator &Sim) {
        expectSweepMatchesSerial(Sim, AlpcProcs, Pool);
      });
      EXPECT_EQ(Err.find("setup error"), std::string::npos) << Err;
    }
  }
  // Runs that throw, from the hand-built overflow cases.
  for (const char *Src :
       {BoundOverflowSrc, SubscriptOverflowSrc, ExtentOverflowSrc}) {
    SCOPED_TRACE(Src);
    Program P = parseOrDie(Src);
    NumaSimulator Sim(P, dash());
    Sim.setStaticPlacement(0, ArrayPlacement::blockedDim(0));
    expectSweepMatchesSerial(Sim, AlpcProcs, Pool);
    // With one armed trigger the first task, the 32-processor run, fails
    // differently from the rest; the serial loop's first failure, the
    // baseline's, is the one rethrown.
    ASSERT_TRUE(FailPointRegistry::instance()
                    .configure("machine.simulate.run:oom:1")
                    .isOk());
    SimSweep Sw = Sim.sweep(AlpcProcs, nullptr);
    FailPointRegistry::instance().reset();
    std::string First;
    std::vector<std::string> Lines = sweepLines(Sw, AlpcProcs, First);
    ASSERT_EQ(Lines.size(), AlpcProcs.size() + 1);
    EXPECT_NE(Lines.back(), Lines.front());
    EXPECT_EQ(First, Lines.front());
  }
}
