//===- perfbench/src/Pipeline.h - Compile requests, in process --*- C++ -*-===//
///
/// \file
/// One compile request as the benchmark issues it (an alpc flags line plus
/// DSL source), run two ways:
///
///   - runSession: the library call alpc and alpd make,
///     CompileSession::run, with both CLI streams captured. This is what
///     the end-to-end metrics time.
///   - replayPipeline: the same work as the benchmark's own calls into
///     each layer's public function, in pipeline order, each inside a
///     span. The traced run checks that the replay reproduces the
///     session's bytes and CompileResult fields, so the per-layer split
///     measures the work the end-to-end run does.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Support.h"

#include "core/CompileSession.h"

#include <string>
#include <vector>

namespace perfbench {

/// One compile answer: the alpc exit code and both byte streams.
struct Answer {
  int Exit = 0;
  std::string Out, Err;
  std::string digest() const { return replyDigest(Exit, Out, Err); }
  /// The alpc exit-code contract's success codes: ok, or sound but
  /// degraded.
  bool succeeded() const { return Exit == 0 || Exit == 4; }
};

/// Builds the request for \p Flags (one alpc flags line) and \p Source the
/// way the alpd COMPILE verb does. False with a reason on a bad flag.
bool makeRequest(const std::string &Flags, const std::string &Source,
                 alp::CompileRequest &Req, std::string &Err);

/// CompileSession::run with stdout/stderr captured.
struct SessionRun {
  Answer A;
  alp::CompileResult Result;
};
SessionRun runSession(const alp::CompileRequest &Req);

/// What the layer-by-layer replay produced.
struct Replay {
  Answer A;
  std::string Report, SpmdText, CommPlanReport, CommReport;
  std::vector<double> SimCycles; ///< SimResult::Cycles per processor count.
  /// Replay wall time minus its standalone (non-pipeline) spans.
  double PipelineWallMs = 0;
};

/// Replays \p Req through the layers' public functions with spans in
/// \p Log (under a fresh request id). Supports the stages the benchmark's
/// flags select: decomposition report, --spmd, --emit, --comm, --simulate.
Replay replayPipeline(const alp::CompileRequest &Req, SpanLog &Log);

/// Checks a replay against the session run of the same request: bytes,
/// exit code, and the DecompositionReport / SpmdText / CommPlanReport /
/// CommReport fields. Returns a description of the first mismatch, or ""
/// when they agree.
std::string compareReplay(const Replay &R, const SessionRun &S);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
