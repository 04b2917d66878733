//===- tools/alpc.cpp - The alp compiler driver -----------------*- C++ -*-===//
//
// alpc: compile an affine DSL program and report the decomposition.
//
//   alpc <file.alp> [options]
//
// The request flags come from the one option table that alpd's request
// lines and the cache key share (core/CompileOptions.h); this file adds
// only the CLI-only flags. support/CliFlags.h drives parsing, --help
// generation, and unknown-flag errors. Every value-taking flag accepts
// both "--flag=value" and "--flag value".
//
// The pipeline itself lives in core/CompileSession.h; this file is flag
// parsing, source ingestion, one CompileSession::run call, and the
// --trace/--stats artifact writes.
//
// Batch mode: --batch=<dir> compiles every *.alp file under <dir>
// (sorted, non-recursive) through the service-layer BatchSession
// (service/Batch.h) — shared-cache dedup, one persistent worker pool
// with warm per-worker arena reuse, and a jobs-deterministic aggregate
// report (--batch-report=<file>, '-' for stdout). The request flags
// apply to every item. Batch exit code: 1 if any item failed
// (exit 1/2/3), else 4 if any degraded, else 0.
//
// Observability: --trace=<file> writes a Chrome trace-event JSON of the
// pipeline's spans (load in chrome://tracing or Perfetto); --stats=<file>
// writes the versioned stats JSON (counters, gauges, span aggregates);
// "--stats=-" writes it to stdout.
//
// Fault injection: --failpoints=site:mode[:count[:delay_ms]],... (or the
// ALP_FAILPOINTS environment variable) arms deterministic injection sites
// throughout the pipeline; see docs/ROBUSTNESS.md for the catalog.
//
// Exit codes: 0 success; 1 cannot open / parse / verify failure; 2 usage;
// 3 a pipeline stage failed outright (decomposition, codegen, simulation,
// or an injected fault with no degraded form); 4 success but degraded
// (some stage fell back to a conservative answer — report on stderr).
//
//===----------------------------------------------------------------------===//

#include "alp.h"

#include "analysis/Lint.h"
#include "core/CompileOptions.h"
#include "core/CompileSession.h"
#include "service/Batch.h"
#include "service/DecompositionCache.h"
#include "support/AtomicFile.h"
#include "support/CliFlags.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace alp;

namespace {

/// Source ingestion: fired after the input file is opened but before its
/// contents are consumed.
FailPoint FpIoRead("io.read");

/// --batch driver: reads every *.alp file directly under \p Dir (sorted
/// by path, so the batch is independent of directory enumeration order),
/// runs them through one BatchSession with the parsed flags as the
/// per-item template, prints a one-line verdict per item, and writes the
/// aggregate report.
int runBatch(const CompileRequest &Template, const std::string &Dir,
             const std::string &ReportPath) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Files;
  fs::directory_iterator It(Dir, EC);
  if (EC) {
    std::fprintf(stderr, "error: cannot read batch directory '%s': %s\n",
                 Dir.c_str(), EC.message().c_str());
    return 1;
  }
  for (const fs::directory_entry &E : It)
    if (E.is_regular_file() && E.path().extension() == ".alp")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "error: no .alp files under '%s'\n", Dir.c_str());
    return 1;
  }

  std::vector<CompileRequest> Items;
  Items.reserve(Files.size());
  for (const std::string &F : Files) {
    std::ifstream In(F);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", F.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    CompileRequest Req = Template;
    Req.FileName = F;
    Req.Source = Buf.str();
    Items.push_back(std::move(Req));
  }

  DecompositionCache Cache;
  BatchOptions BOpts;
  BOpts.Jobs = Template.Driver.Jobs;
  BOpts.Cache = &Cache;
  BatchSession Session(BOpts);
  std::vector<BatchItemResult> Results = Session.run(Items);

  bool AnyFail = false, AnyDegraded = false;
  for (size_t I = 0; I != Results.size(); ++I) {
    const BatchItemResult &R = Results[I];
    const char *Served =
        R.CacheHit ? "cache" : R.DedupHit ? "dedup" : "compile";
    const char *Verdict = R.ExitCode == 0   ? "ok"
                          : R.ExitCode == 4 ? "degraded"
                                            : "failed";
    std::printf("%s: %s (exit %d, %s)\n", Files[I].c_str(), Verdict,
                R.ExitCode, Served);
    if (R.ExitCode == 4)
      AnyDegraded = true;
    else if (R.ExitCode != 0) {
      AnyFail = true;
      std::fprintf(stderr, "%s", R.Error.c_str());
    }
  }

  if (!ReportPath.empty()) {
    std::string Report = Session.reportJson();
    if (ReportPath == "-") {
      std::printf("%s", Report.c_str());
    } else if (Status S = writeFileAtomic(ReportPath, Report); !S.isOk()) {
      std::fprintf(stderr, "error: cannot write batch report: %s\n",
                   S.str().c_str());
      return 1;
    }
  }
  return AnyFail ? 1 : AnyDegraded ? 4 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // Arm failpoints from the environment first; --failpoints specs layer
  // on top (both go through the same registry).
  if (Status S = FailPointRegistry::instance().configureFromEnv();
      !S.isOk()) {
    std::fprintf(stderr, "error: ALP_FAILPOINTS: %s\n", S.str().c_str());
    return 2;
  }
  CompileRequest Req;
  std::string TracePath, StatsPath;
  std::string BatchDir, BatchReportPath;

  std::vector<FlagSpec> Table = requestFlags(Req);
  // "--lint-passes=help" is alpc's alone: it lists the registered pass
  // families and exits.
  bool ListLintPasses = false;
  for (FlagSpec &F : Table)
    if (std::strcmp(F.Name, "--lint-passes") == 0)
      F.Apply = [&ListLintPasses, Select = F.Apply](const std::string &V) {
        ListLintPasses = V == "help";
        return ListLintPasses || Select(V);
      };
  auto PathFlag = [](std::string &Target) {
    return [&Target](const std::string &V) {
      Target = V;
      return true;
    };
  };
  Table.insert(
      Table.end(),
      {{"--failpoints", "site:mode[:count[:delay_ms]],...",
        "arm deterministic fault-injection sites (modes: throw, oom, "
        "status-error, budget-exhaust, delay; see docs/ROBUSTNESS.md)",
        [](const std::string &V) {
          Status S = FailPointRegistry::instance().configureList(V);
          if (!S.isOk()) {
            std::fprintf(stderr, "error: --failpoints: %s\n",
                         S.str().c_str());
            return false;
          }
          return true;
        }},
       {"--trace", "file",
        "write a Chrome trace-event JSON of the pipeline's spans",
        PathFlag(TracePath)},
       {"--stats", "file",
        "write the versioned stats JSON (counters / gauges / span "
        "aggregates); '-' writes to stdout",
        PathFlag(StatsPath)},
       {"--batch", "dir",
        "compile every *.alp file under <dir> (sorted) as one batch: "
        "shared-cache dedup, warm per-worker arena reuse, and a "
        "jobs-deterministic aggregate report",
        PathFlag(BatchDir)},
       {"--batch-report", "file",
        "write the batch aggregate stats JSON (schema v2, kind 'batch'); "
        "'-' writes to stdout",
        PathFlag(BatchReportPath)}});

  const CliParser Cli{argv[0],
                      "<file.alp> [options]",
                      "Compiles an affine DSL program, decomposes it for a "
                      "scalable\nparallel machine, and reports the result.",
                      Table};
  if (argc < 2) {
    printUsage(Cli);
    return 2;
  }
  std::vector<std::string> Positionals;
  switch (parseCommandLine(Cli, argc, argv, Positionals)) {
  case CliAction::Proceed:
    break;
  case CliAction::ExitSuccess:
    return 0;
  case CliAction::ExitUsage:
    return 2;
  }
  if (ListLintPasses) {
    std::printf("registered lint pass families:\n");
    for (const std::unique_ptr<LintPass> &Pass :
         createLintPasses(LintOptions()))
      std::printf("  %-10s %s\n", Pass->id(), Pass->description());
    return 0;
  }

  if (!BatchDir.empty()) {
    if (!Positionals.empty()) {
      std::fprintf(stderr, "error: --batch takes no input file operand\n");
      return 2;
    }
    if (!TracePath.empty() || !StatsPath.empty()) {
      std::fprintf(stderr,
                   "error: --trace/--stats do not apply in batch mode; "
                   "use --batch-report\n");
      return 2;
    }
    return runBatch(Req, BatchDir, BatchReportPath);
  }

  if (Positionals.empty()) {
    printUsage(Cli);
    return 2;
  }
  Req.FileName = Positionals.back();
  const char *FileName = Req.FileName.c_str();

  std::ifstream In(FileName);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", FileName);
    return 1;
  }
  try {
    FpIoRead.evaluateOrThrow();
  } catch (...) {
    Status S = statusFromCurrentException();
    std::fprintf(stderr, "error: cannot read '%s': %s\n", FileName,
                 S.str().c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Req.Source = Buf.str();

  Req.WantTrace = !TracePath.empty();
  Req.WantStats = !StatsPath.empty();
  // Artifacts land via temp-file + atomic rename (support/AtomicFile.h),
  // so a reader never observes a truncated file. Returning false maps to
  // exit 1 on otherwise-successful runs. The writer runs inside the
  // pipeline, before run() writes the compile's bytes, so what it prints
  // ("--stats=-", a write error) waits until those are out.
  std::string StatsOut, WriteError;
  Req.WriteArtifacts = [&](const CompileArtifacts &A) -> bool {
    if (A.HasTrace) {
      if (Status S = writeFileAtomic(TracePath, A.TraceJson); !S.isOk()) {
        WriteError = "error: cannot write trace file: " + S.str() + "\n";
        return false;
      }
    }
    if (A.HasStats) {
      if (StatsPath == "-") {
        StatsOut = A.StatsJson;
      } else if (Status S = writeFileAtomic(StatsPath, A.StatsJson);
                 !S.isOk()) {
        WriteError = "error: cannot write stats file: " + S.str() + "\n";
        return false;
      }
    }
    return true;
  };

  int Exit = CompileSession::run(Req, stdout, stderr).ExitCode;
  std::fputs(StatsOut.c_str(), stdout);
  std::fputs(WriteError.c_str(), stderr);
  return Exit;
}
