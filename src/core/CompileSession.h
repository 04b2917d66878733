//===- core/CompileSession.h - Reusable compile pipeline --------*- C++ -*-===//
///
/// \file
/// The library entry point for the whole alpc pipeline: parse -> lint ->
/// decompose -> plan -> emit -> simulate, as one reusable call. Before
/// this header existed the orchestration lived only in tools/alpc.cpp's
/// main(), so a server, a batch driver, or a test had no way to run "what
/// alpc does" in process. Now alpc is flag parsing plus one
/// CompileSession::run plus artifact writes, and the alpd compilation
/// service (src/service/) runs the identical pipeline per request.
///
/// Contract: CompileSession::compile(Req) returns the CLI exit code (0
/// success; 1 parse / verify / lint-gate failure; 3 a stage failed
/// outright; 4 success but degraded) and, in CompileResult::Out / Err,
/// exactly the bytes the alpc CLI writes to stdout and stderr for the
/// same selections. Structured results (the decomposition, lint
/// diagnostics, emitted SPMD text, comm-plan report, stats snapshot,
/// degradation ledger) ride alongside. CompileSession::run is the same
/// call writing the two byte strings to stdio streams, which is what alpc
/// does.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_CORE_COMPILESESSION_H
#define ALP_CORE_COMPILESESSION_H

#include "analysis/Lint.h"
#include "codegen/CodegenOptions.h"
#include "core/Driver.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace alp {

/// How --lint / --verify diagnostics are rendered. The enumerators follow
/// the order of --diagnostics-format's words (core/CompileOptions.cpp).
enum class DiagFormat { Text, Json, Sarif };

/// Rendered observability artifacts (the --trace / --stats payloads),
/// handed to CompileRequest::WriteArtifacts and kept in the result.
struct CompileArtifacts {
  bool HasTrace = false;
  std::string TraceJson; ///< Chrome trace-event JSON.
  bool HasStats = false;
  std::string StatsJson; ///< Versioned stats JSON (schema v2).
};

/// Everything one compile needs: the source text, the driver and machine
/// configuration, and the lint / emit selections the alpc flags map onto.
struct CompileRequest {
  /// Diagnostics label ("<stdin>", a path, a request id); never opened.
  std::string FileName = "<memory>";
  /// The DSL source text (already read; I/O stays with the caller).
  std::string Source;

  /// Front-end fast path: a program already parsed from Source plus that
  /// parse's frontend diagnostics. When set, the session skips its own
  /// compileDsl call, replays these diagnostics, and pipelines a copy of
  /// the program — byte-identical to re-parsing. Set by keyRequest
  /// (service/DecompositionCache.h), which parses for canonical keying
  /// anyway; the key reads both as the parse of Source.
  std::shared_ptr<const Program> PreParsed;
  std::shared_ptr<const DiagnosticEngine> PreParsedDiags;

  /// Decomposition pipeline knobs (budget, jobs, policy, observability is
  /// overwritten by the session when WantTrace/WantStats is set).
  DriverOptions Driver;

  /// Machine selection: preset name plus the two per-run parameters.
  std::string MachineName = "dash"; ///< "dash" or "touchstone".
  unsigned Procs = 32;
  int64_t Block = 4;

  /// Output/stage selections (each mirrors one alpc flag).
  bool DoSpmd = false;   ///< --spmd
  bool DoIr = false;     ///< --print-ir
  bool DoDeps = false;   ///< --deps
  bool DoSim = false;    ///< --simulate
  bool DoComm = false;   ///< --comm
  bool DoFuse = false;   ///< --fuse
  bool DoVerify = false; ///< --verify
  bool DoLint = false;   ///< --lint
  bool WError = false;   ///< --Werror
  std::string EmitMode;  ///< --emit: "", "spmd", or "comm-plan".
  MiscompileMode Miscompile = MiscompileMode::None;
  DiagFormat Format = DiagFormat::Text;

  /// Lint pass-family selection (--lint-passes). LintPassesExplicit marks
  /// that the user restricted the families, which also opts the
  /// decomposition validator into --lint.
  bool LintPassesExplicit = false;
  bool SelRace = true, SelModel = true, SelDecomp = true, SelSchedule = true;

  /// Observability: when either is set the session owns a Tracer and a
  /// MetricsRegistry for the run and renders the artifacts.
  bool WantTrace = false;
  bool WantStats = false;
  /// Called at the pipeline's historical --trace/--stats write point (once
  /// per run, on every exit path past the front end). Returns false on I/O
  /// failure, which maps to exit code 1 on otherwise-successful runs. May
  /// be null: artifacts are then only kept in the result. It runs inside
  /// compile(), before run() writes any byte, and every stdout byte
  /// precedes it: a writer that prints defers that until run() returns.
  std::function<bool(const CompileArtifacts &)> WriteArtifacts;
};

/// What one compile produced.
struct CompileResult {
  /// The alpc exit code: 0 ok, 1 parse/lint/verify/artifact-write failure,
  /// 3 stage failure, 4 sound but degraded.
  int ExitCode = 0;
  /// The bytes alpc writes to stdout and to stderr for the request.
  std::string Out, Err;
  /// The decomposition, when one was computed (also set in lint mode when
  /// the schedule passes decomposed a private copy). Its Degradations
  /// member is the degradation ledger.
  std::optional<ProgramDecomposition> Decomposition;
  /// The printDecomposition report (non-lint runs).
  std::string DecompositionReport;
  /// Lint / verify diagnostics, when those passes ran.
  LintResult Lints;
  /// Emitted SPMD text (--spmd, or --emit=spmd's message-passing form —
  /// when both ran, the message-passing form).
  std::string SpmdText;
  /// --emit=comm-plan schedule report.
  std::string CommPlanReport;
  /// --comm communication-analysis report.
  std::string CommReport;
  /// Rendered --trace/--stats payloads (when requested).
  CompileArtifacts Artifacts;

  bool degraded() const {
    return Decomposition && Decomposition->degraded();
  }
};

/// The reusable pipeline. Stateless: every run owns its tracer, metrics
/// registry, thread pool, and caches, so concurrent runs (the alpd
/// service) do not share mutable state beyond the process-wide failpoint
/// registry.
class CompileSession {
public:
  /// Runs the full pipeline for \p Req.
  static CompileResult compile(const CompileRequest &Req);

  /// compile(), then the result's Out / Err bytes written to \p Out /
  /// \p Err (never null).
  static CompileResult run(const CompileRequest &Req, std::FILE *Out,
                           std::FILE *Err);
};

} // namespace alp

#endif // ALP_CORE_COMPILESESSION_H
