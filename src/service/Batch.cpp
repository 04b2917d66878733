//===- service/Batch.cpp - Batch compilation API --------------------------===//

#include "service/Batch.h"

#include "service/DecompositionCache.h"
#include "support/Diagnostics.h"
#include "support/StatsReport.h"
#include "support/Supervisor.h"

#include <cstdio>
#include <unordered_map>

using namespace alp;

BatchSession::BatchSession(const BatchOptions &O)
    : Opts(O), Pool(Opts.Jobs ? Opts.Jobs : ThreadPool::hardwareConcurrency()) {}

std::vector<BatchItemResult>
BatchSession::run(const std::vector<CompileRequest> &Items) {
  const size_t N = Items.size();
  std::vector<BatchItemResult> Res(N);

  // Pass 1 — pre-key every item in parallel. Pure per item: parse the
  // source and form the canonical key; the parse rides along so the
  // compile pass skips re-parsing. Parse failures keep no key and compile
  // individually (the session re-renders the diagnostics
  // deterministically).
  struct Prepared {
    CompileRequest Req;
    bool HaveKey = false;
    RequestKey Key;
  };
  std::vector<Prepared> Prep(N);
  Pool.parallelFor(N, [&](size_t I) {
    Prep[I].Req = Items[I];
    Prep[I].HaveKey = keyRequest(Prep[I].Req, Prep[I].Key);
  });

  // Pass 2 — resolve serially in request order, so which item is the
  // compiling representative of a duplicate group, and what counts as a
  // cache hit, are pure functions of the request list and the cache's
  // prior contents (no lookup/insert race with concurrent compiles).
  enum class Serve { Compile, Cache, Dedup };
  std::vector<Serve> How(N, Serve::Compile);
  std::vector<size_t> RepIndex(N, 0); // Dedup: index of the representative.
  std::unordered_map<std::string, size_t> RepOf;
  std::vector<size_t> ToCompile;
  for (size_t I = 0; I != N; ++I) {
    if (!Prep[I].HaveKey) {
      ToCompile.push_back(I);
      continue;
    }
    auto It = RepOf.find(Prep[I].Key.Repr);
    if (It != RepOf.end()) {
      How[I] = Serve::Dedup;
      RepIndex[I] = It->second;
      continue;
    }
    if (Opts.Cache) {
      DecompositionCache::Entry Cached;
      if (Opts.Cache->lookup(Prep[I].Key, Cached)) {
        How[I] = Serve::Cache;
        Res[I].CacheHit = true;
        Res[I].ExitCode = Cached.ExitCode;
        Res[I].Output = std::move(Cached.Output);
        Res[I].Error = std::move(Cached.Error);
        continue;
      }
    }
    RepOf.emplace(Prep[I].Key.Repr, I);
    ToCompile.push_back(I);
  }

  // Pass 3 — compile the representatives under the Supervisor on the
  // persistent pool. Each request's own driver reuses the same pool
  // (nested sections degrade to serial on the warm worker) and publishes
  // its counters into the shared aggregate registry; both are
  // deterministic merges. A worker keeps only its item's bytes and report
  // facts, so the rest of each result is freed on the worker.
  std::vector<ItemRow> NewRows(N);
  SupervisorOptions SOpts;
  SOpts.MaxAttempts = Opts.MaxAttempts;
  SOpts.Observe = TraceContext{nullptr, &Agg};
  Supervisor Sup(&Pool, nullptr, SOpts);
  std::vector<SupervisedOutcome> Outcomes =
      Sup.run(ToCompile.size(), [&](size_t K, ResourceBudget *) -> Status {
        size_t I = ToCompile[K];
        CompileRequest &Req = Prep[I].Req;
        Req.Driver.Pool = &Pool;
        Req.Driver.Observe = TraceContext{nullptr, &Agg};
        CompileResult R = CompileSession::compile(Req);
        Res[I].ExitCode = R.ExitCode;
        Res[I].Output = std::move(R.Out);
        Res[I].Error = std::move(R.Err);
        NewRows[I].LintErrors = R.Lints.count(Diagnostic::Kind::Error);
        NewRows[I].LintWarnings = R.Lints.count(Diagnostic::Kind::Warning);
        if (R.Decomposition)
          NewRows[I].Degradations =
              static_cast<unsigned>(R.Decomposition->Degradations.size());
        return Status::ok();
      });

  // Pass 4 — merge serially in request order: land supervised failures,
  // insert compiled results into the shared cache, then copy dedup hits
  // from their representative, and tally.
  for (size_t K = 0; K != ToCompile.size(); ++K) {
    size_t I = ToCompile[K];
    if (K < Outcomes.size() && Outcomes[K].degraded()) {
      // Answered like the service's supervised-compile failure, but an
      // accident of this run, not a function of the request: not cached.
      Res[I] = BatchItemResult{};
      Res[I].ExitCode = 3;
      Res[I].Error = "error: service: " + Outcomes[K].Result.str() + "\n";
      NewRows[I] = ItemRow{};
    } else if (Opts.Cache && Prep[I].HaveKey) {
      DecompositionCache::Entry E;
      E.ExitCode = Res[I].ExitCode;
      E.Output = Res[I].Output;
      E.Error = Res[I].Error;
      Opts.Cache->insert(Prep[I].Key, std::move(E));
    }
  }

  uint64_t RunCacheHits = 0, RunDedupHits = 0;
  for (size_t I = 0; I != N; ++I) {
    ItemRow &Row = NewRows[I];
    Row.File = Items[I].FileName;
    switch (How[I]) {
    case Serve::Compile:
      Row.Family = "compile";
      ++Compiles;
      break;
    case Serve::Cache:
      Row.Family = "cache";
      ++CacheHits;
      ++RunCacheHits;
      break;
    case Serve::Dedup: {
      Row.Family = "dedup";
      size_t Rep = RepIndex[I];
      Res[I].DedupHit = true;
      Res[I].ExitCode = Res[Rep].ExitCode;
      Res[I].Output = Res[Rep].Output;
      Res[I].Error = Res[Rep].Error;
      ++DedupHits;
      ++RunDedupHits;
      break;
    }
    }
    Row.ExitCode = Res[I].ExitCode;
    Rows.push_back(std::move(Row));
    ++Requests;
  }

  // The deterministic batch.* tallies (docs/OBSERVABILITY.md). Published
  // once per run from the serial merge, never from racing workers.
  Agg.add("batch.requests", N);
  uint64_t Ok = 0, Failed = 0, Degraded = 0;
  for (size_t I = 0; I != N; ++I) {
    if (Res[I].ExitCode == 0)
      ++Ok;
    else if (Res[I].ExitCode == 4)
      ++Degraded;
    else
      ++Failed;
  }
  Agg.add("batch.ok", Ok);
  Agg.add("batch.failures", Failed);
  Agg.add("batch.degraded", Degraded);
  Agg.add("batch.compiles", ToCompile.size());
  Agg.add("batch.cache_hits", RunCacheHits);
  Agg.add("batch.dedup_hits", RunDedupHits);
  return Res;
}

std::string BatchSession::reportJson() const {
  StatsReport R("batch");
  R.fieldUInt("requests", Requests);
  R.fieldUInt("compiles", Compiles);
  R.fieldUInt("cache_hits", CacheHits);
  R.fieldUInt("dedup_hits", DedupHits);
  R.fieldDouble("cache_hit_rate",
                Requests ? static_cast<double>(CacheHits + DedupHits) /
                               static_cast<double>(Requests)
                         : 0.0);
  std::string Items = "[";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const ItemRow &Row = Rows[I];
    Items += I ? ",\n    " : "\n    ";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"exit\": %d, \"served\": \"%s\", \"lint_errors\": %u, "
                  "\"lint_warnings\": %u, \"degradations\": %u}",
                  Row.ExitCode, Row.Family.c_str(), Row.LintErrors,
                  Row.LintWarnings, Row.Degradations);
    Items += "{\"file\": \"" + StatsReport::escapeJson(Row.File) + "\", " + Buf;
  }
  Items += Rows.empty() ? "]" : "\n  ]";
  R.field("items", Items);
  R.setCounters(&Agg);
  // No gauges, no spans: the report stays byte-identical across --jobs.
  return R.render();
}
