//===- tests/TraceTest.cpp - Observability layer tests ---------------------===//
//
// Covers the tracer/metrics contract: span nesting under a multi-worker
// run, the zero-allocation disabled path, Chrome trace well-formedness,
// the stats golden counters, and --jobs counter determinism.
//
//===----------------------------------------------------------------------===//

#include "DecomposeForTest.h"
#include "core/CompileSession.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "support/FailPoint.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

// Global allocation counter: the disabled-tracer path must not allocate.
// Every replaceable new/delete form goes through malloc/free, so the
// counter sees each allocation and no library path (std::stable_sort's
// nothrow temporary buffer, array new) mixes allocators.
static std::atomic<uint64_t> GAllocations{0};

static void *countedMalloc(std::size_t Size) noexcept {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new(std::size_t Size) {
  if (void *P = countedMalloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return operator new(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedMalloc(Size);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace alp;

namespace {

Program compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    reportFatalError("test program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

// Three nests with cross-nest reuse: enough work that the local phase,
// dynamic decomposition, and orientation stages all run.
const char *PipelineSrc = R"(
program tracer;
param N = 63;
array X[N + 1, N + 1], Y[N + 1, N + 1];
forall i = 0 to N { for j = 1 to N {
  X[i, j] = f1(X[i, j], X[i, j - 1]) @cost(20); } }
forall j = 0 to N { for i = 1 to N {
  X[i, j] = f2(X[i, j], X[i - 1, j]) @cost(20); } }
forall i = 0 to N { forall j = 0 to N {
  Y[i, j] = g(X[i, j], Y[i, j]) @cost(8); } }
)";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry MR;
  EXPECT_EQ(MR.counter("a"), 0u);
  MR.add("a");
  MR.add("a", 2);
  MR.add("zero", 0); // Creates the key so key sets match across runs.
  MR.setGauge("g", 1.5);
  MR.setGauge("g", 2.5); // Last write wins.
  EXPECT_EQ(MR.counter("a"), 3u);
  EXPECT_EQ(MR.counter("zero"), 0u);
  EXPECT_DOUBLE_EQ(MR.gauge("g"), 2.5);
  EXPECT_EQ(MR.counters().size(), 2u);
  EXPECT_EQ(MR.gauges().size(), 1u);
  MR.clear();
  EXPECT_TRUE(MR.counters().empty());
}

TEST(MetricsTest, CountersJsonIsCanonical) {
  MetricsRegistry A, B;
  A.add("x.second", 2);
  A.add("x.first", 1);
  // Same totals reached in a different order / by different increments.
  B.add("x.first", 1);
  B.add("x.second");
  B.add("x.second");
  EXPECT_EQ(A.renderCountersJson(), B.renderCountersJson());
  EXPECT_NE(A.renderCountersJson().find("\"x.first\": 1"),
            std::string::npos);
}

TEST(TraceTest, DisabledSpanDoesNotAllocate) {
  TraceContext Null; // No tracer, no registry.
  uint64_t Before = GAllocations.load(std::memory_order_relaxed);
  for (int I = 0; I != 4096; ++I) {
    TraceSpan S(Null.Trace, "never.recorded", I);
    Null.count("never.counted");
    Null.gauge("never.gauged", 1.0);
    EXPECT_FALSE(S.active());
  }
  EXPECT_EQ(GAllocations.load(std::memory_order_relaxed), Before);
}

TEST(TraceTest, SpanMoveAndIdempotentFinish) {
  Tracer T;
  {
    TraceSpan A(&T, "alpha", 7);
    TraceSpan B = std::move(A);
    EXPECT_FALSE(A.active());
    EXPECT_TRUE(B.active());
    B.finish();
    B.finish(); // Second finish records nothing.
  }
  std::vector<Tracer::Event> Evs = T.events();
  ASSERT_EQ(Evs.size(), 1u);
  EXPECT_STREQ(Evs[0].Name, "alpha");
  EXPECT_EQ(Evs[0].Detail, 7);
}

TEST(TraceTest, WorkerSpansNestUnderPhasesWithJobs) {
  Program P = compile(PipelineSrc);
  MachineParams M;
  Tracer Trace;
  MetricsRegistry Metrics;
  DriverOptions Opts;
  Opts.Jobs = 4;
  Opts.Observe = {&Trace, &Metrics};
  decomposeForTest(P, M, Opts);

  std::vector<Tracer::Event> Evs = Trace.events();
  ASSERT_FALSE(Evs.empty());
  // events() orders parents before children: the pipeline root is first.
  EXPECT_STREQ(Evs[0].Name, "driver.decompose");
  uint64_t RootStart = Evs[0].StartNs;
  uint64_t RootEnd = Evs[0].StartNs + Evs[0].DurNs;

  uint64_t PhaseStart = 0, PhaseEnd = 0;
  unsigned Canon = 0;
  for (const Tracer::Event &E : Evs) {
    // Every span the run records falls inside the pipeline root span.
    EXPECT_GE(E.StartNs, RootStart) << E.Name;
    EXPECT_LE(E.StartNs + E.DurNs, RootEnd) << E.Name;
    if (std::string(E.Name) == "driver.local_phase") {
      PhaseStart = E.StartNs;
      PhaseEnd = E.StartNs + E.DurNs;
    }
  }
  ASSERT_GT(PhaseEnd, 0u) << "driver.local_phase span missing";
  for (const Tracer::Event &E : Evs)
    if (std::string(E.Name) == "local.canonicalize") {
      ++Canon;
      // Worker-task spans nest (in time) under their phase, and carry
      // the nest id in Detail.
      EXPECT_GE(E.StartNs, PhaseStart);
      EXPECT_LE(E.StartNs + E.DurNs, PhaseEnd);
      EXPECT_GE(E.Detail, 0);
    }
  EXPECT_EQ(Canon, 3u) << "one canonicalize span per nest";
}

TEST(TraceTest, ChromeTraceIsWellFormed) {
  Program P = compile(PipelineSrc);
  MachineParams M;
  Tracer Trace;
  DriverOptions Opts;
  Opts.Observe.Trace = &Trace;
  decomposeForTest(P, M, Opts);

  std::ostringstream OS;
  Trace.writeChromeTrace(OS);
  std::string Json = OS.str();

  // Structural checks: balanced braces/brackets (no span name contains
  // either), the trace-event envelope, and one record per event.
  long Brace = 0, Bracket = 0;
  for (char C : Json) {
    Brace += C == '{' ? 1 : C == '}' ? -1 : 0;
    Bracket += C == '[' ? 1 : C == ']' ? -1 : 0;
    EXPECT_GE(Brace, 0);
    EXPECT_GE(Bracket, 0);
  }
  EXPECT_EQ(Brace, 0);
  EXPECT_EQ(Bracket, 0);
  EXPECT_NE(Json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  size_t Records = 0;
  for (size_t Pos = 0; (Pos = Json.find("\"ph\": \"X\"", Pos)) !=
                       std::string::npos;
       Pos += 1)
    ++Records;
  EXPECT_EQ(Records, Trace.events().size());
}

TEST(TraceTest, StatsJsonCarriesSchemaVersionAndSections) {
  MetricsRegistry MR;
  MR.add("c.one", 1);
  MR.setGauge("g.one", 0.5);
  Tracer T;
  { TraceSpan S(&T, "stage.one"); }
  std::string Json = renderStatsJson(&MR, &T);
  EXPECT_NE(Json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(Json.find("\"c.one\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\": {"), std::string::npos);
  EXPECT_NE(Json.find("\"g.one\": 0.5"), std::string::npos);
  EXPECT_NE(Json.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"stage.one\""), std::string::npos);
  // Null sinks render an empty but valid document.
  std::string Empty = renderStatsJson(nullptr, nullptr);
  EXPECT_NE(Empty.find("\"schema_version\": 2"), std::string::npos);
}

TEST(TraceTest, CountersIdenticalAcrossJobs) {
  // The synthetic pipeline program, and the reduced SIMPLE conduct kernel
  // (four nests under a time loop) as a checked-in second input.
  const std::string Sources[] = {
      PipelineSrc, readFile(std::string(ALP_TESTDATA_DIR) + "/conduct.alp")};
  const unsigned JobCounts[2] = {1, 4};
  for (const std::string &Src : Sources) {
    std::string Renders[2];
    for (int Run = 0; Run != 2; ++Run) {
      Program P = compile(Src);
      MachineParams M;
      MetricsRegistry Metrics;
      DriverOptions Opts;
      Opts.Jobs = JobCounts[Run];
      Opts.Observe.Metrics = &Metrics;
      decomposeForTest(P, M, Opts);
      Renders[Run] = Metrics.renderCountersJson();
    }
    // The determinism contract: counter payloads are byte-identical for
    // every --jobs value (gauges are exempt).
    EXPECT_EQ(Renders[0], Renders[1]) << Src;
  }
  // --simulate requests (fig5's runs reorganize): the sweep publishes its
  // counters, and its sim.* gauges, after the join in processor order, so
  // those gauges must match too.
  for (const char *File : {"/conduct.alp", "/fig5.alp"}) {
    std::string Renders[2];
    for (int Run = 0; Run != 2; ++Run) {
      MetricsRegistry Metrics;
      CompileRequest Req;
      Req.Source = readFile(std::string(ALP_TESTDATA_DIR) + File);
      Req.DoSim = true;
      Req.Driver.Jobs = JobCounts[Run];
      Req.Driver.Observe.Metrics = &Metrics;
      EXPECT_EQ(CompileSession::compile(Req).ExitCode, 0) << File;
      Renders[Run] = Metrics.renderCountersJson();
      for (const auto &[Name, V] : Metrics.gauges())
        if (Name.compare(0, 4, "sim.") == 0) {
          char Buf[64];
          std::snprintf(Buf, sizeof(Buf), "%s=%a\n", Name.c_str(), V);
          Renders[Run] += Buf;
        }
    }
    EXPECT_NE(Renders[0].find("\"sim.runs\": 6"), std::string::npos);
    EXPECT_NE(Renders[0].find("sim.cycles="), std::string::npos);
    EXPECT_EQ(Renders[0], Renders[1]) << File;
  }
}

TEST(TraceTest, StatsGoldenCountersForFig1) {
  // Golden counters for the checked-in Figure 1 program: catches silent
  // changes to what the pipeline publishes (adding a counter, losing
  // one, or a stage charging different totals). Regenerate with
  // tests/update_observability_golden.sh after an intentional change.
  Program P = compile(readFile(std::string(ALP_TESTDATA_DIR) +
                               "/fig1.alp"));
  MachineParams M;
  MetricsRegistry Metrics;
  DriverOptions Opts;
  Opts.Jobs = 2;
  Opts.Observe.Metrics = &Metrics;
  decomposeForTest(P, M, Opts);
  // alpc publishes the process-wide fault-injection total alongside the
  // pipeline counters (and the golden is regenerated through alpc), so
  // mirror it here; it is 0 when nothing is armed.
  Metrics.add("failpoint.triggered",
              FailPointRegistry::instance().triggeredCount());
  std::string Golden = readFile(std::string(ALP_TESTDATA_DIR) +
                                "/observability/fig1_counters.golden.json");
  EXPECT_EQ(Metrics.renderCountersJson() + "\n", Golden);
}
