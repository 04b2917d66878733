//===- perfbench/tests/selftest.cpp - Tests of the benchmark's helpers ----===//
//
// alp_perfbench_selftest <scratch-dir>
//
// Pins the helpers every benchmark figure depends on: the percentile rule,
// the geometric mean, due-time latency accounting under a synthetic stall,
// that a corrupted recorded digest fails the run, and that the traced
// layer-by-layer replay reproduces CompileSession's bytes. Run by
// `python3 perfbench/run.py --self-test`; exits 1 on any failure.
//
//===----------------------------------------------------------------------===//

#include "OpenLoop.h"
#include "Pipeline.h"
#include "Support.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int Failures = 0;

void expectTrue(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", Line, What);
    ++Failures;
  }
}
#define EXPECT(Cond) expectTrue((Cond), #Cond, __LINE__)

bool near(double A, double B, double Tol = 1e-9) { return std::fabs(A - B) <= Tol; }

void percentileRule() {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT(percentile(V, 0.99) == 990);
  EXPECT(samplesBeyond(1000, 0.99) == 10);
  EXPECT(median(V) == 500.5);
  EXPECT(median({3, 1, 2}) == 2);
  // The highest ladder percentile with at least ten samples beyond it.
  EXPECT(highestTailPercentile(10000) == 0.999);
  EXPECT(highestTailPercentile(1000) == 0.99);
  EXPECT(highestTailPercentile(999) == 0.95);
  EXPECT(highestTailPercentile(100) == 0.90);
  EXPECT(highestTailPercentile(20) == 0.50);
  EXPECT(highestTailPercentile(19) == 0);
}

void geometricMean() {
  EXPECT(near(geomean({1, 100}), 10));
  EXPECT(near(geomean({2, 8}), 4));
  EXPECT(near(geomean({5}), 5));
  EXPECT(geomean({}) == 0);
}

void dueTimeAccounting() {
  // Pure accounting: a 50 ms stall on the only connection charges the
  // request queued behind it from its due time, as client wait.
  std::vector<OpenLoopTiming> T(2);
  T[0] = {0, 0, 0, 50, true};
  T[1] = {10, 50, 50, 51, true};
  OpenLoopSummary S = summarizeOpenLoop(T, 5);
  EXPECT(near(S.LatencyMs[0], 50) && near(S.LatencyMs[1], 41));
  EXPECT(near(S.ClientWaitMs, 40));
  EXPECT(near(S.GeneratorLateP99Ms, 0) && S.Valid);
  EXPECT(S.BacklogAtEnd == 1);
  // A failed request counts as beyond any limit.
  T[1].Ok = false;
  S = summarizeOpenLoop(T, 5);
  EXPECT(S.Failed == 1 && S.LatencyMs[1] >= 51);
  // The generator itself running late makes the run invalid.
  T[1] = {10, 0, 40, 41, true};
  EXPECT(!summarizeOpenLoop(T, 5).Valid);

  // Live: one connection, requests due every 2 ms, request 3 stalls 30 ms.
  std::vector<double> Due;
  for (int I = 0; I != 20; ++I)
    Due.push_back(2.0 * I);
  std::vector<OpenLoopTiming> Live = runOpenLoop(Due, 1, [](unsigned, size_t I) {
    if (I == 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  S = summarizeOpenLoop(Live, 10);
  EXPECT(S.LatencyMs[3] >= 30);
  // Request 4 was due at 8 ms but could only be sent after the stall: its
  // latency counts the stall, not just its own (zero) service time.
  EXPECT(S.LatencyMs[4] >= 20 && Live[4].clientWaitMs() >= 20);
  EXPECT(Live[4].DoneMs - Live[4].SendMs < 5);
  EXPECT(S.Valid && S.Failed == 0);
}

const char *Fig1 = R"(
program fig1;
param N = 8;
array X[N + 1, N + 1], Y[N + 1, N + 1];
array Z[N + 2, N + 2];
for i1 = 0 to N {
  for i2 = 0 to N {
    Y[i1, N - i2] += X[i1, i2];
  }
}
for i1 = 1 to N {
  for i2 = 1 to N {
    Z[i1, i2] = Z[i1, i2 - 1] + Y[i2, i1 - 1];
  }
}
)";

void corruptedDigestFailsRun(const std::string &Dir) {
  alp::CompileRequest Req;
  std::string Err;
  EXPECT(makeRequest("--spmd --emit=comm-plan", Fig1, Req, Err));
  std::string Digest = runSession(Req).A.digest();

  std::string Path = Dir + "/selftest-reference.txt";
  std::ofstream(Path) << "fig1.f0 " << Digest << "\n";
  Reference Good;
  EXPECT(Good.load(Path, Err));
  RunReport Pass;
  Pass.Expected = &Good;
  Pass.attempt();
  EXPECT(Pass.expect("fig1.f0", Digest) && Pass.correct() && Pass.exitCode() == 0);

  std::string Corrupt = Digest;
  Corrupt[0] = Corrupt[0] == '0' ? '1' : '0';
  std::ofstream(Path, std::ios::trunc) << "fig1.f0 " << Corrupt << "\n";
  Reference Bad;
  EXPECT(Bad.load(Path, Err));
  RunReport Fail;
  Fail.Expected = &Bad;
  Fail.attempt();
  EXPECT(!Fail.expect("fig1.f0", Digest));
  EXPECT(!Fail.correct() && Fail.failed() == 1 && Fail.exitCode() != 0);
  EXPECT(Fail.json().find("\"correct\": false") != std::string::npos);
  // A key missing from the reference fails too.
  EXPECT(!Fail.expect("never.recorded", Digest) && Fail.failed() == 2);
  // A malformed reference file is refused.
  std::ofstream(Path, std::ios::trunc) << "no-value-here\n";
  EXPECT(!Bad.load(Path, Err));
}

void replayMatchesSession() {
  for (const char *Flags :
       {"--spmd --emit=comm-plan", "--machine=touchstone --emit=spmd",
        "--comm --procs=16 --block=8", "--simulate --procs=8",
        "--simulate --procs=8 --machine=touchstone"}) {
    alp::CompileRequest Req;
    std::string Err;
    EXPECT(makeRequest(Flags, Fig1, Req, Err));
    SpanLog Log;
    SessionRun S = runSession(Req);
    Replay R = replayPipeline(Req, Log);
    std::string Diff = compareReplay(R, S);
    if (!Diff.empty())
      std::fprintf(stderr, "replay of '%s': %s\n", Flags, Diff.c_str());
    EXPECT(Diff.empty());
    EXPECT(Log.spanCount("frontend.parse") == 1 &&
           Log.spanCount("core.decompose") == 1);
    // Standalone replays are not part of the pipeline-order sum.
    EXPECT(Log.pipelineMs(Log.currentRequest()) <=
           R.PipelineWallMs + 1e-6);
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string Dir = argc > 1 ? argv[1] : ".";
  percentileRule();
  geometricMean();
  dueTimeAccounting();
  corruptedDigestFailsRun(Dir);
  replayMatchesSession();
  if (Failures) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", Failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench self-tests passed\n");
  return 0;
}
