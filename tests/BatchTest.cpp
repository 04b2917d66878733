//===- tests/BatchTest.cpp - BatchSession contract ------------------------===//
//
// The service/Batch.h contract: per-item bytes match a fresh single-shot
// CompileSession run exactly; the set of compiled programs and the
// aggregate report are pure functions of the request list and the prior
// cache contents — byte-identical for every Jobs value; duplicate items
// dedup against their in-batch representative; a shared DecompositionCache
// turns a repeated run into pure cache hits; and neither parse failures
// (which compile individually, diagnostics intact) nor supervised
// failures poison the cache.
//
//===----------------------------------------------------------------------===//

#include "service/Batch.h"

#include "gen/Generator.h"
#include "service/DecompositionCache.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace alp;

namespace {

CompileRequest requestFor(const std::string &Name, const std::string &Source) {
  CompileRequest Req;
  Req.FileName = Name;
  Req.Source = Source;
  Req.DoSpmd = true;
  return Req;
}

/// A mixed batch: several generated shapes, one duplicate pair, and one
/// parse failure — every serve path in a single request list.
std::vector<CompileRequest> mixedBatch() {
  std::vector<CompileRequest> Items;
  for (uint64_t I = 0; I != 6; ++I) {
    gen::GeneratedProgram G = gen::generateProgram(11, I);
    Items.push_back(requestFor(G.FileName, G.Source));
  }
  // A duplicate of item 0 (same label, same source) later in the list:
  // must be served as a dedup hit of that representative.
  Items.push_back(requestFor(Items[0].FileName, Items[0].Source));
  // A parse failure: no canonical key, compiles individually.
  Items.push_back(requestFor("broken.alp", "program broken;\nthis is not"));
  return Items;
}

TEST(BatchTest, ItemsMatchSingleShotByteForByte) {
  std::vector<CompileRequest> Items = mixedBatch();
  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchSession Session(Opts);
  std::vector<BatchItemResult> Res = Session.run(Items);
  ASSERT_EQ(Res.size(), Items.size());
  for (size_t I = 0; I != Items.size(); ++I) {
    CompileResult Single = CompileSession::compile(Items[I]);
    EXPECT_EQ(Res[I].ExitCode, Single.ExitCode) << Items[I].FileName;
    EXPECT_EQ(Res[I].Output, Single.Out) << Items[I].FileName;
    EXPECT_EQ(Res[I].Error, Single.Err) << Items[I].FileName;
  }
}

TEST(BatchTest, ReportAndResultsIdenticalAcrossJobs) {
  std::vector<CompileRequest> Items = mixedBatch();
  BatchOptions A, B;
  A.Jobs = 1;
  B.Jobs = 8;
  DecompositionCache CacheA, CacheB;
  A.Cache = &CacheA;
  B.Cache = &CacheB;
  BatchSession SessionA(A), SessionB(B);
  std::vector<BatchItemResult> ResA = SessionA.run(Items);
  std::vector<BatchItemResult> ResB = SessionB.run(Items);
  ASSERT_EQ(ResA.size(), ResB.size());
  for (size_t I = 0; I != ResA.size(); ++I) {
    EXPECT_EQ(ResA[I].ExitCode, ResB[I].ExitCode) << Items[I].FileName;
    EXPECT_EQ(ResA[I].CacheHit, ResB[I].CacheHit) << Items[I].FileName;
    EXPECT_EQ(ResA[I].DedupHit, ResB[I].DedupHit) << Items[I].FileName;
    EXPECT_EQ(ResA[I].Output, ResB[I].Output) << Items[I].FileName;
    EXPECT_EQ(ResA[I].Error, ResB[I].Error) << Items[I].FileName;
  }
  // The whole aggregate document — counters included — is byte-identical.
  EXPECT_EQ(SessionA.reportJson(), SessionB.reportJson());
}

TEST(BatchTest, DuplicateItemsDedupAgainstRepresentative) {
  std::vector<CompileRequest> Items = mixedBatch();
  const size_t Dup = 6, Rep = 0; // mixedBatch: item 6 duplicates item 0.
  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchSession Session(Opts);
  std::vector<BatchItemResult> Res = Session.run(Items);
  EXPECT_FALSE(Res[Rep].DedupHit);
  EXPECT_TRUE(Res[Dup].DedupHit);
  EXPECT_FALSE(Res[Dup].CacheHit);
  EXPECT_EQ(Res[Dup].ExitCode, Res[Rep].ExitCode);
  EXPECT_EQ(Res[Dup].Output, Res[Rep].Output);
  EXPECT_EQ(Res[Dup].Error, Res[Rep].Error);
  // 8 requests, 7 compiles (the dup rides its representative; the parse
  // failure still compiles individually).
  EXPECT_EQ(Session.metrics().counter("batch.requests"), 8u);
  EXPECT_EQ(Session.metrics().counter("batch.compiles"), 7u);
  EXPECT_EQ(Session.metrics().counter("batch.dedup_hits"), 1u);
  EXPECT_EQ(Session.metrics().counter("batch.cache_hits"), 0u);
}

TEST(BatchTest, SharedCacheServesRepeatedRuns) {
  std::vector<CompileRequest> Items = mixedBatch();
  DecompositionCache Cache;
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Cache = &Cache;
  BatchSession Session(Opts);
  std::vector<BatchItemResult> First = Session.run(Items);
  std::vector<BatchItemResult> Second = Session.run(Items);
  ASSERT_EQ(Second.size(), Items.size());
  for (size_t I = 0; I != Items.size(); ++I) {
    // Everything keyed on the first run is a cache hit on the second —
    // with identical bytes. The parse failure has no key, so it (and
    // only it) recompiles.
    bool Keyed = Items[I].FileName != "broken.alp";
    EXPECT_EQ(Second[I].CacheHit, Keyed) << Items[I].FileName;
    EXPECT_EQ(Second[I].ExitCode, First[I].ExitCode) << Items[I].FileName;
    EXPECT_EQ(Second[I].Output, First[I].Output) << Items[I].FileName;
    EXPECT_EQ(Second[I].Error, First[I].Error) << Items[I].FileName;
  }
  EXPECT_EQ(Session.metrics().counter("batch.cache_hits"), 7u);
}

TEST(BatchTest, ParseFailureKeepsItsDiagnostics) {
  std::vector<CompileRequest> Items;
  Items.push_back(requestFor("broken.alp", "program broken;\nthis is not"));
  BatchSession Session(BatchOptions{});
  std::vector<BatchItemResult> Res = Session.run(Items);
  ASSERT_EQ(Res.size(), 1u);
  EXPECT_EQ(Res[0].ExitCode, 1);
  EXPECT_NE(Res[0].Error.find("broken.alp"), std::string::npos)
      << Res[0].Error;
  EXPECT_EQ(Session.metrics().counter("batch.failures"), 1u);
}

TEST(BatchTest, SupervisedFailureIsNotCached) {
  // A supervised failure is an accident of one run: it answers exit 3,
  // but the next run of the same item must compile fresh, not replay it.
  gen::GeneratedProgram G = gen::generateProgram(21, 1);
  std::vector<CompileRequest> Items = {requestFor(G.FileName, G.Source)};
  DecompositionCache Cache;
  BatchOptions Opts;
  Opts.Cache = &Cache;
  BatchSession Session(Opts);

  FailPointRegistry &Registry = FailPointRegistry::instance();
  ASSERT_TRUE(Registry.configure("driver.task:throw:1").isOk());
  std::vector<BatchItemResult> Faulted = Session.run(Items);
  Registry.reset();
  ASSERT_EQ(Faulted.size(), 1u);
  EXPECT_EQ(Faulted[0].ExitCode, 3);
  EXPECT_EQ(Faulted[0].Error.rfind("error: service: ", 0), 0u)
      << Faulted[0].Error;

  std::vector<BatchItemResult> Clean = Session.run(Items);
  ASSERT_EQ(Clean.size(), 1u);
  EXPECT_FALSE(Clean[0].CacheHit);
  EXPECT_EQ(Clean[0].ExitCode, 0) << Clean[0].Error;
}

TEST(BatchTest, ReportAccumulatesAcrossRuns) {
  std::vector<CompileRequest> Items;
  gen::GeneratedProgram G = gen::generateProgram(21, 1);
  Items.push_back(requestFor(G.FileName, G.Source));
  BatchSession Session(BatchOptions{});
  (void)Session.run(Items);
  (void)Session.run(Items);
  EXPECT_EQ(Session.metrics().counter("batch.requests"), 2u);
  std::string Report = Session.reportJson();
  EXPECT_NE(Report.find("\"schema_version\": 2"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("\"kind\": \"batch\""), std::string::npos) << Report;
  EXPECT_NE(Report.find("\"requests\": 2"), std::string::npos) << Report;
}

} // namespace
