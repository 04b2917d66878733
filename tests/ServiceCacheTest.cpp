//===- tests/ServiceCacheTest.cpp - DecompositionCache contract -----------===//
//
// The service cache's contract (service/DecompositionCache.h): exact-match
// lookups (hash collisions can never alias), generation-aged eviction,
// binary-safe persistence via AtomicFile, and fail-soft loads — a broken
// cache file (or the "service.cache.load" failpoint) degrades to an empty
// cache, never a dead service. The concurrency tests run under the TSan CI
// job; keep every cross-thread access here data-race-free by construction.
//
//===----------------------------------------------------------------------===//

#include "service/DecompositionCache.h"

#include "core/CompileSession.h"
#include "frontend/Lowering.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace alp;

namespace {

using Entry = DecompositionCache::Entry;

/// A key with a controlled shard (Hash % 16) and distinct bytes. Only for
/// in-memory shard/aging tests: persistence validates Hash == fnv1a(Repr),
/// so the round-trip tests use honestKey() instead.
RequestKey keyAt(uint64_t Hash, const std::string &Repr) {
  RequestKey K;
  K.Hash = Hash;
  K.Repr = Repr;
  return K;
}

/// A key as the service actually builds them: hash derived from the bytes.
RequestKey honestKey(const std::string &Repr) {
  RequestKey K;
  K.Repr = Repr;
  K.Hash = fnv1aHash(Repr);
  return K;
}

Entry entryFor(const std::string &Tag) {
  Entry E;
  E.ExitCode = static_cast<int>(Tag.size() % 5);
  E.Output = "out:" + Tag + "\nwith\nnewlines";
  E.Error = std::string("err\0binary", 10) + Tag;
  return E;
}

TEST(ServiceCacheTest, MissThenHitRoundTripsTheAnswer) {
  DecompositionCache Cache;
  RequestKey K = keyAt(7, "program-7");
  Entry Out;
  EXPECT_FALSE(Cache.lookup(K, Out));
  Cache.insert(K, entryFor("seven"));
  ASSERT_TRUE(Cache.lookup(K, Out));
  EXPECT_EQ(Out.ExitCode, entryFor("seven").ExitCode);
  EXPECT_EQ(Out.Output, entryFor("seven").Output);
  EXPECT_EQ(Out.Error, entryFor("seven").Error);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(ServiceCacheTest, EqualHashDifferentBytesNeverAliases) {
  DecompositionCache Cache;
  RequestKey A = keyAt(42, "program-a");
  RequestKey B = keyAt(42, "program-b"); // same hash, same shard
  Cache.insert(A, entryFor("a"));
  Entry Out;
  EXPECT_FALSE(Cache.lookup(B, Out));
  ASSERT_TRUE(Cache.lookup(A, Out));
  EXPECT_EQ(Out.Output, entryFor("a").Output);
}

TEST(ServiceCacheTest, EvictionPrefersOldestGeneration) {
  // 32 entries over 16 shards = 2 per shard; hashes 0/16/32 share shard 0.
  DecompositionCache Cache(32);
  RequestKey K1 = keyAt(0, "one"), K2 = keyAt(16, "two"),
             K3 = keyAt(32, "three");
  Cache.insert(K1, entryFor("one"));
  Cache.insert(K2, entryFor("two"));
  Cache.bumpGeneration();
  Entry Out;
  ASSERT_TRUE(Cache.lookup(K1, Out)); // re-stamps K1 with the new epoch
  Cache.insert(K3, entryFor("three")); // shard full: K2 is oldest
  EXPECT_TRUE(Cache.lookup(K1, Out));
  EXPECT_FALSE(Cache.lookup(K2, Out));
  EXPECT_TRUE(Cache.lookup(K3, Out));
}

TEST(ServiceCacheTest, CountersFlowThroughTraceContext) {
  DecompositionCache Cache;
  MetricsRegistry Metrics;
  Cache.setObserve(TraceContext{nullptr, &Metrics});
  RequestKey K = keyAt(3, "counted");
  Entry Out;
  Cache.lookup(K, Out);
  Cache.insert(K, entryFor("counted"));
  Cache.lookup(K, Out);
  EXPECT_EQ(Metrics.counter("service.cache_misses"), 1u);
  EXPECT_EQ(Metrics.counter("service.cache_inserts"), 1u);
  EXPECT_EQ(Metrics.counter("service.cache_hits"), 1u);
}

TEST(ServiceCacheTest, SerializeRoundTripsBinaryPayloads) {
  DecompositionCache Cache;
  std::vector<RequestKey> Keys;
  for (uint64_t I = 0; I != 20; ++I) {
    Keys.push_back(honestKey("prog-" + std::to_string(I)));
    Cache.insert(Keys.back(), entryFor(std::to_string(I)));
  }
  std::string Image = Cache.serialize();

  DecompositionCache Restored;
  ASSERT_TRUE(Restored.deserialize(Image).isOk());
  EXPECT_EQ(Restored.size(), Cache.size());
  for (uint64_t I = 0; I != 20; ++I) {
    Entry Out;
    ASSERT_TRUE(Restored.lookup(Keys[I], Out)) << "key " << I;
    EXPECT_EQ(Out.ExitCode, entryFor(std::to_string(I)).ExitCode);
    EXPECT_EQ(Out.Output, entryFor(std::to_string(I)).Output);
    EXPECT_EQ(Out.Error, entryFor(std::to_string(I)).Error);
  }
}

TEST(ServiceCacheTest, SaveAndLoadFileRoundTrip) {
  const std::string Path =
      std::string(::testing::TempDir()) + "/service_cache_test.bin";
  {
    DecompositionCache Cache;
    Cache.insert(honestKey("persisted"), entryFor("persisted"));
    ASSERT_TRUE(Cache.saveToFile(Path).isOk());
  }
  DecompositionCache Restored;
  ASSERT_TRUE(Restored.loadFromFile(Path).isOk());
  Entry Out;
  EXPECT_TRUE(Restored.lookup(honestKey("persisted"), Out));
  EXPECT_EQ(Out.Output, entryFor("persisted").Output);
  std::remove(Path.c_str());
}

TEST(ServiceCacheTest, MalformedFileIsAnErrorAndLeavesCacheEmpty) {
  const std::string Path =
      std::string(::testing::TempDir()) + "/service_cache_bad.bin";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "not a cache image";
  }
  DecompositionCache Cache;
  Cache.insert(keyAt(1, "stale"), entryFor("stale"));
  EXPECT_FALSE(Cache.loadFromFile(Path).isOk());
  EXPECT_EQ(Cache.size(), 0u);
  std::remove(Path.c_str());
}

TEST(ServiceCacheTest, MissingFileIsAnError) {
  DecompositionCache Cache;
  EXPECT_FALSE(
      Cache.loadFromFile("/nonexistent/service_cache_test.bin").isOk());
}

TEST(ServiceCacheTest, LoadFailpointDegradesToRecompute) {
  const std::string Path =
      std::string(::testing::TempDir()) + "/service_cache_fp.bin";
  DecompositionCache Cache;
  Cache.insert(honestKey("warm"), entryFor("warm"));
  ASSERT_TRUE(Cache.saveToFile(Path).isOk());

  FailPointRegistry &Registry = FailPointRegistry::instance();
  ASSERT_TRUE(Registry.configure("service.cache.load:status-error").isOk());
  DecompositionCache Faulted;
  Status S = Faulted.loadFromFile(Path);
  Registry.reset();

  // The armed load fails soft: an error Status, an empty cache, and the
  // service's recompute path (a plain insert) still works afterwards.
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(Faulted.size(), 0u);
  Faulted.insert(honestKey("warm"), entryFor("warm"));
  Entry Out;
  EXPECT_TRUE(Faulted.lookup(honestKey("warm"), Out));

  // Disarmed, the same file loads fine.
  DecompositionCache Clean;
  EXPECT_TRUE(Clean.loadFromFile(Path).isOk());
  std::remove(Path.c_str());
}

TEST(ServiceCacheTest, CanonicalKeyIsStableAcrossWhitespace) {
  // Layout that moves no token (trailing blanks, a comment after a line's
  // last token, blank lines at the end) leaves every printed position, so
  // the key, unchanged.
  const char *SourceA = "program p;\n"
                        "param N = 7;\n"
                        "array X[N + 1];\n"
                        "for i = 0 to N { X[i] += 1; }\n";
  const char *SourceB = "program p;   \n"
                        "param N = 7; // problem size\n"
                        "array X[N + 1];\n"
                        "for i = 0 to N { X[i] += 1; }\n\n\n";
  DiagnosticEngine DiagsA, DiagsB;
  auto PA = compileDsl(SourceA, DiagsA);
  auto PB = compileDsl(SourceB, DiagsB);
  ASSERT_TRUE(PA && PB);

  CompileRequest Req;
  Req.Source = SourceA; // keyed through its parse only
  RequestKey KA = canonicalRequestKey(Req, *PA);
  Req.Source = SourceB;
  RequestKey KB = canonicalRequestKey(Req, *PB);
  EXPECT_EQ(KA, KB);

  // Any semantic option flips the key, and so does another label.
  Req.Procs += 1;
  EXPECT_NE(canonicalRequestKey(Req, *PB), KA);
  Req.Procs -= 1;
  Req.FileName = "other.alp";
  EXPECT_NE(canonicalRequestKey(Req, *PB), KA);
}

/// The program of testdata/lint/race.alp: --lint reports the race at the
/// forall ("4:1: error: forall loop 'i' ...").
const char *const RaceSource = "program race;\n"
                               "param N = 63;\n"
                               "array A[N + 1];\n"
                               "forall i = 1 to N { A[i] = f(A[i - 1]); }\n";

/// The key the service forms for \p Req, whose source must parse.
RequestKey serviceKey(CompileRequest Req) {
  RequestKey K;
  EXPECT_TRUE(keyRequest(Req, K)) << Req.Source;
  return K;
}

/// Everything a compile of \p Req answers.
std::string answerOf(const CompileRequest &Req) {
  CompileResult R = CompileSession::compile(Req);
  return std::to_string(R.ExitCode) + "\n" + R.Out + R.Err;
}

TEST(ServiceCacheTest, KeyCoversSourcePositions) {
  // One blank line moves every position --lint prints.
  CompileRequest A;
  A.DoLint = true;
  A.Source = RaceSource;
  CompileRequest B = A;
  B.Source = std::string("\n") + RaceSource;
  ASSERT_NE(answerOf(A), answerOf(B));
  EXPECT_NE(serviceKey(A), serviceKey(B));
}

TEST(ServiceCacheTest, KeyCoversTheRequestLabel) {
  // JSON diagnostics name the label as the "file".
  CompileRequest A;
  A.DoLint = true;
  A.Format = DiagFormat::Json;
  A.Source = RaceSource;
  A.FileName = "<request>";
  CompileRequest B = A;
  B.FileName = "<batch:0>";
  ASSERT_NE(answerOf(A), answerOf(B));
  EXPECT_NE(serviceKey(A), serviceKey(B));
}

TEST(ServiceCacheTest, KeyCoversWhatTheIrTextLeavesOut) {
  // printProgram shows neither a statement's @cost nor whether a
  // structure loop was written forall (the frontend warns about it), yet
  // the simulation and the warning print them.
  const std::string Costly = "program c;\n"
                             "param N = 31;\n"
                             "array X[N + 1];\n"
                             "forall i = 0 to N { X[i] = f(X[i]) @cost(2); }\n";
  CompileRequest A;
  A.DoSim = true;
  A.Procs = 4;
  A.Source = Costly;
  CompileRequest B = A;
  B.Source = Costly.substr(0, Costly.find("@cost(2)")) + "@cost(9); }\n";
  ASSERT_NE(answerOf(A), answerOf(B));
  EXPECT_NE(serviceKey(A), serviceKey(B));

  const std::string Nests = " t = 1 to 2 {\n"
                            "  forall i = 0 to N { X[i] = f(X[i]); }\n"
                            "  forall i = 0 to N { X[i] = f(X[i]); }\n"
                            "}\n";
  CompileRequest C;
  C.Source = "program s;\nparam N = 31;\narray X[N + 1];\nfor" + Nests;
  CompileRequest D = C;
  D.Source = "program s;\nparam N = 31;\narray X[N + 1];\nforall" + Nests;
  ASSERT_NE(answerOf(C), answerOf(D));
  EXPECT_NE(serviceKey(C), serviceKey(D));
}

TEST(ServiceCacheTest, ConcurrentHitMissInsertAge) {
  DecompositionCache Cache(64);
  constexpr unsigned Threads = 8;
  constexpr unsigned OpsPerThread = 400;

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Cache, T] {
      for (unsigned I = 0; I != OpsPerThread; ++I) {
        // Overlapping key space: every thread touches the same 32 keys,
        // so hits, misses, overwrites, and evictions all race.
        uint64_t Id = (T * 13 + I) % 32;
        RequestKey K = keyAt(Id * 3, "shared-" + std::to_string(Id));
        Entry Out;
        if (!Cache.lookup(K, Out))
          Cache.insert(K, entryFor(std::to_string(Id)));
        else
          EXPECT_EQ(Out.Output, entryFor(std::to_string(Id)).Output);
        if (I % 64 == 0)
          Cache.bumpGeneration();
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  // Whatever survived the churn still round-trips exactly.
  unsigned Resident = 0;
  for (uint64_t Id = 0; Id != 32; ++Id) {
    Entry Out;
    if (Cache.lookup(keyAt(Id * 3, "shared-" + std::to_string(Id)), Out)) {
      ++Resident;
      EXPECT_EQ(Out.Output, entryFor(std::to_string(Id)).Output);
    }
  }
  EXPECT_GT(Resident, 0u);
  EXPECT_LE(Cache.size(), 64u);
}

TEST(ServiceCacheTest, ConcurrentPersistenceSnapshotIsConsistent) {
  DecompositionCache Cache;
  std::thread Mutator([&Cache] {
    for (uint64_t I = 0; I != 200; ++I)
      Cache.insert(honestKey("mut-" + std::to_string(I)),
                   entryFor(std::to_string(I)));
  });
  // serialize() under concurrent inserts must produce a loadable image.
  std::string Image;
  for (int I = 0; I != 8; ++I)
    Image = Cache.serialize();
  Mutator.join();

  DecompositionCache Restored;
  EXPECT_TRUE(Restored.deserialize(Image).isOk());
  Entry Out;
  for (uint64_t I = 0; I != 200; ++I)
    if (Restored.lookup(honestKey("mut-" + std::to_string(I)), Out))
      EXPECT_EQ(Out.Output, entryFor(std::to_string(I)).Output);
}

} // namespace
