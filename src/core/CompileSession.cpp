//===- core/CompileSession.cpp - Reusable compile pipeline -------------------===//
//
// The pipeline body moved verbatim out of tools/alpc.cpp's main(); the
// byte-for-byte output contract in CompileSession.h is load-bearing (the
// golden and CompareJobs ctests pin it), so edits here must preserve every
// format string and the exact order of prints, stage checks, and early
// returns.
//
//===----------------------------------------------------------------------===//

#include "core/CompileSession.h"

#include "alp.h"

#include "analysis/Dependence.h"
#include "core/Fusion.h"
#include "core/Verify.h"
#include "ir/Printer.h"
#include "support/FailPoint.h"
#include "support/Trace.h"

#include <cstdarg>
#include <sstream>

using namespace alp;

namespace {

std::string renderLint(const LintResult &R, DiagFormat Format,
                       const std::string &FileName) {
  switch (Format) {
  case DiagFormat::Text:
    return renderLintText(R);
  case DiagFormat::Json:
    return renderLintJson(R, FileName);
  case DiagFormat::Sarif:
    return renderLintSarif(R, FileName);
  }
  return "";
}

/// std::printf onto the end of \p S.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string &S, const char *Fmt, ...) {
  va_list Args, Again;
  va_start(Args, Fmt);
  va_copy(Again, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (N > 0) {
    size_t Old = S.size();
    S.resize(Old + static_cast<size_t>(N) + 1);
    std::vsnprintf(S.data() + Old, static_cast<size_t>(N) + 1, Fmt, Again);
    S.resize(Old + static_cast<size_t>(N));
  }
  va_end(Again);
}

} // namespace

CompileResult CompileSession::compile(const CompileRequest &Req) {
  CompileResult Res;
  const char *FileName = Req.FileName.c_str();
  DriverOptions Opts = Req.Driver;

  // Observability sinks. Both stay empty-cost when the flags are absent:
  // Opts.Observe carries null pointers, so every span and counter in the
  // pipeline reduces to a pointer test. When --trace/--stats are off, a
  // caller-provided Req.Driver.Observe is left in place — the batch
  // session aggregates every request's counters into one shared registry
  // that way.
  Tracer Trace;
  MetricsRegistry Metrics;
  const bool Observing = Req.WantTrace || Req.WantStats;
  TraceContext Observe = Req.Driver.Observe;
  if (Observing) {
    Observe.Trace = &Trace;
    Observe.Metrics = &Metrics;
  }
  Opts.Observe = Observe;

  // Renders --trace / --stats output and hands it to the caller's artifact
  // writer; called on every exit path that runs after the front end.
  // Returns false when the writer reports an I/O failure.
  auto WriteObservability = [&]() -> bool {
    if (!Observing)
      return true;
    // With an unbounded trigger count every task faults, so this total is
    // jobs-deterministic like the other counters (docs/ROBUSTNESS.md).
    Metrics.add("failpoint.triggered",
                FailPointRegistry::instance().triggeredCount());
    if (Req.WantTrace) {
      std::ostringstream TraceOut;
      Trace.writeChromeTrace(TraceOut);
      Res.Artifacts.TraceJson = TraceOut.str();
      Res.Artifacts.HasTrace = true;
    }
    if (Req.WantStats) {
      Res.Artifacts.StatsJson = renderStatsJson(&Metrics, &Trace);
      Res.Artifacts.HasStats = true;
    }
    if (Req.WriteArtifacts)
      return Req.WriteArtifacts(Res.Artifacts);
    return true;
  };

  // Stages past the decomposition driver have no degraded form: an
  // injected fault or internal error in one of them ends the run with a
  // clean error line and exit 3, never an uncaught exception.
  auto RunStage = [&](const char *StageName,
                      const std::function<void()> &Fn) -> bool {
    try {
      Fn();
      return true;
    } catch (...) {
      Status S = statusFromCurrentException();
      appendf(Res.Err, "error: %s failed: %s\n", StageName, S.str().c_str());
      return false;
    }
  };

  auto Done = [&](int Code) -> CompileResult & {
    Res.ExitCode = Code;
    return Res;
  };

  DiagnosticEngine OwnDiags;
  const DiagnosticEngine *Diags =
      Req.PreParsedDiags ? Req.PreParsedDiags.get() : &OwnDiags;
  std::optional<Program> Prog;
  if (Req.PreParsed) {
    // The caller parsed this source already (canonical keying); replay
    // its diagnostics and pipeline a copy — the driver canonicalizes the
    // program in place, so the caller's copy must stay pristine.
    Prog = *Req.PreParsed;
  } else {
    TraceSpan FrontendSpan(Observe.Trace, "frontend.compile");
    Prog = compileDsl(Req.Source, OwnDiags);
  }
  for (const Diagnostic &D : Diags->diagnostics())
    appendf(Res.Err, "%s:%s\n", FileName, D.str().c_str());
  if (!Prog)
    return Done(1);
  Program P = std::move(*Prog);

  // Lint-only mode: run the race + model passes over the compiled
  // program, then — when the program decomposes — the schedule verifier
  // over its planned communication. A program that does not decompose
  // still lints (the decomposition-dependent passes are skipped).
  if (Req.DoLint) {
    ResourceBudget Budget = Opts.Budget;
    if (Opts.DeadlineMs)
      Budget.setDeadlineIn(std::chrono::milliseconds(Opts.DeadlineMs));
    LintOptions LO;
    LO.CheckRaces = Req.SelRace;
    LO.CheckModel = Req.SelModel;
    // The decomposition validator stays opt-in under --lint (--verify is
    // its home); an explicit --lint-passes=decomp enables it here.
    LO.CheckDecomposition = Req.LintPassesExplicit && Req.SelDecomp;
    LO.CheckSchedule = Req.SelSchedule;
    LO.BlockSize = Req.Block;
    LO.Budget = &Budget;
    LO.Miscompile = Req.Miscompile;
    LO.Observe = Observe;
    // The decomposition driver canonicalizes the program in place
    // (Wolf-Lam local phase), which can legalize exactly the defects the
    // race/model passes exist to report — so those passes lint the
    // pristine program, and the decomposition-dependent passes run on a
    // private copy.
    MachineParams LintM;
    LintM.NumProcs = Req.Procs;
    LintM.BlockSize = Req.Block;
    Program DecompP = P;
    ProgramDecomposition LintPD;
    bool HavePD = false;
    if (LO.CheckSchedule || LO.CheckDecomposition)
      if (Expected<ProgramDecomposition> R =
              decomposeOrError(DecompP, LintM, Opts);
          R.hasValue()) {
        LintPD = R.takeValue();
        HavePD = true;
      }
    LintResult R;
    if (!RunStage("lint", [&] {
          TraceSpan LintSpan(Observe.Trace, "lint.run");
          LintOptions FrontLO = LO;
          FrontLO.CheckDecomposition = false;
          FrontLO.CheckSchedule = false;
          R = runLintPasses(P, nullptr, FrontLO);
          if (HavePD) {
            LintOptions PdLO = LO;
            PdLO.CheckRaces = false;
            PdLO.CheckModel = false;
            LintResult R2 = runLintPasses(DecompP, &LintPD, PdLO);
            R.Diags.insert(R.Diags.end(), R2.Diags.begin(), R2.Diags.end());
            R.Unchecked.insert(R.Unchecked.end(), R2.Unchecked.begin(),
                               R2.Unchecked.end());
            normalizeLintDiagnostics(R.Diags);
          }
        })) {
      WriteObservability();
      return Done(3);
    }
    if (HavePD)
      Res.Decomposition = LintPD;
    Res.Lints = R;
    Res.Out += renderLint(R, Req.Format, Req.FileName);
    if (!WriteObservability())
      return Done(1);
    return Done(R.hasErrors() || (Req.WError && R.hasWarnings()) ? 1 : 0);
  }

  MachineParams M;
  M.NumProcs = Req.Procs;
  M.BlockSize = Req.Block;
  if (Req.MachineName == "touchstone") {
    // Touchstone-like multicomputer: one processor per node, remote data
    // moves in messages with a software overhead per message.
    M.ProcsPerCluster = 1;
    M.MessagePassing = true;
  }

  // The shared codegen configuration: every consumer (emitter, comm
  // analysis, planner, simulator schedules) takes its block size from the
  // machine description, so schedule and emission cannot diverge.
  CodegenOptions CG = CodegenOptions::forMachine(M);
  CG.Observe = Observe;
  CG.Miscompile = Req.Miscompile;

  auto RunDecompose = [&](ProgramDecomposition &DOut) -> bool {
    Expected<ProgramDecomposition> R = decomposeOrError(P, M, Opts);
    if (!R.hasValue()) {
      appendf(Res.Err, "error: decomposition failed: %s\n",
              R.status().str().c_str());
      return false;
    }
    DOut = R.takeValue();
    return true;
  };

  ProgramDecomposition PD;
  if (!RunDecompose(PD)) {
    WriteObservability();
    return Done(3);
  }
  if (Req.DoFuse) {
    unsigned N = 0;
    if (!RunStage("fusion", [&] { N = fuseCompatibleNests(P, &PD); })) {
      WriteObservability();
      return Done(3);
    }
    appendf(Res.Out, "fused %u nest pair(s)\n", N);
    // Decompose again on the fused program (decompositions per nest id
    // may have been merged).
    if (!RunDecompose(PD)) {
      WriteObservability();
      return Done(3);
    }
  }
  Res.Decomposition = PD;

  if (Req.DoIr)
    appendf(Res.Out, "=== IR ===\n%s\n", printProgram(P).c_str());
  if (Req.DoDeps && !RunStage("dependence printing", [&] {
        DependenceAnalysis DA(P);
        Res.Out += "=== dependences ===\n";
        for (unsigned Id : P.nestsInOrder()) {
          appendf(Res.Out, "nest %u:\n", Id);
          for (const Dependence &D : DA.analyze(P.nest(Id)))
            appendf(Res.Out, "  %s\n", D.str().c_str());
        }
        Res.Out += "\n";
      })) {
    WriteObservability();
    return Done(3);
  }

  Res.DecompositionReport = printDecomposition(P, PD);
  Res.Out += Res.DecompositionReport;

  if (Req.DoSpmd && !RunStage("SPMD emission", [&] {
        Res.SpmdText = emitSpmd(P, PD, CG);
        Res.Out += "\n=== SPMD ===\n" + Res.SpmdText;
      })) {
    WriteObservability();
    return Done(3);
  }

  // Schedule verification gates emission: --emit renders nothing when the
  // planned schedule fails the static verifier (deadlock, coverage gap,
  // unmatched messages, buffer overlap, barrier divergence).
  if (!Req.EmitMode.empty() && Req.SelSchedule) {
    ResourceBudget Budget = Opts.Budget;
    if (Opts.DeadlineMs)
      Budget.setDeadlineIn(std::chrono::milliseconds(Opts.DeadlineMs));
    LintOptions LO;
    LO.CheckRaces = false;
    LO.CheckModel = false;
    LO.CheckDecomposition = false;
    LO.CheckSchedule = true;
    LO.BlockSize = CG.BlockSize;
    LO.Budget = &Budget;
    LO.Miscompile = Req.Miscompile;
    LO.Observe = Observe;
    LintResult R;
    if (!RunStage("schedule verification", [&] {
          TraceSpan VerifySpan(Observe.Trace, "lint.schedule");
          R = runLintPasses(P, &PD, LO);
        })) {
      WriteObservability();
      return Done(3);
    }
    Res.Lints = R;
    if (R.hasErrors() || (Req.WError && R.hasWarnings())) {
      for (const Diagnostic &D : R.Diags)
        Res.Err += "schedule: " + D.strWithNotes() + "\n";
      WriteObservability();
      return Done(1);
    }
  }

  if (!Req.EmitMode.empty() && !RunStage("codegen", [&] {
        if (Req.EmitMode == "spmd") {
          CodegenOptions MsgCG = CG;
          MsgCG.EmitMessages = true;
          Res.SpmdText = emitSpmd(P, PD, MsgCG);
          Res.Out += "\n=== SPMD (message passing) ===\n" + Res.SpmdText;
        } else if (Req.EmitMode == "comm-plan") {
          Res.CommPlanReport = planCommunication(P, PD, CG).report(P);
          Res.Out += "\n" + Res.CommPlanReport;
        }
      })) {
    WriteObservability();
    return Done(3);
  }

  if (Req.DoComm && !RunStage("communication analysis", [&] {
        CommSummary CS = analyzeCommunication(P, PD, CG);
        Res.CommReport = CS.report(P);
        Res.Out += "\n" + Res.CommReport;
      })) {
    WriteObservability();
    return Done(3);
  }

  if (Req.DoVerify) {
    // The decomposition validator: Theorem 4.1 matrix invariants
    // (core/Verify.h) plus the SPMD communication-coverage check.
    ResourceBudget Budget = Opts.Budget;
    if (Opts.DeadlineMs)
      Budget.setDeadlineIn(std::chrono::milliseconds(Opts.DeadlineMs));
    LintOptions LO;
    LO.CheckRaces = false;
    LO.CheckModel = false;
    LO.CheckDecomposition = Req.SelDecomp;
    LO.CheckSchedule = Req.SelSchedule;
    LO.BlockSize = CG.BlockSize;
    // Both sides read MachineParams.BlockSize, so the block-size
    // divergence lint stays silent here by construction.
    LO.ScheduleBlockSize = M.BlockSize;
    LO.Budget = &Budget;
    LO.Miscompile = Req.Miscompile;
    LO.Observe = Observe;
    LintResult R;
    if (!RunStage("verification", [&] {
          TraceSpan VerifySpan(Observe.Trace, "lint.verify");
          R = runLintPasses(P, &PD, LO);
        })) {
      WriteObservability();
      return Done(3);
    }
    Res.Lints = R;
    bool Bad = R.hasErrors() || (Req.WError && R.hasWarnings());
    if (Req.Format != DiagFormat::Text) {
      Res.Out += renderLint(R, Req.Format, Req.FileName);
      if (Bad) {
        WriteObservability();
        return Done(1);
      }
    } else if (!Bad) {
      Res.Out += "\nverify: all decomposition invariants hold\n";
    } else {
      for (const Diagnostic &D : R.Diags)
        Res.Err += "verify: " + D.strWithNotes() + "\n";
      WriteObservability();
      return Done(1);
    }
  }

  if (Req.DoSim && !RunStage("simulation", [&] {
        NumaSimulator Sim(P, M);
        Sim.setObserve(Observe);
        if (M.MessagePassing) {
          // Message-passing machine: cost the planned bulk schedule, the
          // same one --emit=spmd renders, instead of fine-grained
          // per-line messages.
          CodegenOptions PlanCG = CG;
          if (!Req.EmitMode.empty())
            PlanCG.Observe = {}; // comm.* counters already published once.
          Sim.setCommSchedule(planCommunication(P, PD, PlanCG).schedule());
        }
        applyDecomposition(Sim, P, PD);
        double Seq = Sim.sequentialCycles();
        appendf(Res.Out, "\n=== simulation (machine: %s, %u procs) ===\n",
                Req.MachineName.c_str(), Req.Procs);
        appendf(Res.Out, "sequential: %.3g cycles\n", Seq);
        for (unsigned Pr = 1; Pr <= Req.Procs; Pr *= 2) {
          SimResult R = Sim.run(Pr);
          appendf(Res.Out,
                  "%3u procs: %12.3g cycles  speedup %6.2f  "
                  "(reorg %.2g, sync %.2g, remote lines %.3g",
                  Pr, R.Cycles, Seq / R.Cycles, R.ReorgCycles, R.SyncCycles,
                  R.RemoteLineFetches);
          if (M.MessagePassing)
            appendf(Res.Out, ", msgs %.3g", R.MessagesSent);
          Res.Out += ")\n";
        }
      })) {
    WriteObservability();
    return Done(3);
  }
  if (!WriteObservability())
    return Done(1);
  if (PD.degraded()) {
    Res.Decomposition = PD;
    Res.Err += PD.degradationReport();
    appendf(Res.Err,
            "note: decomposition is sound but degraded (%zu stage "
            "fallback(s))\n",
            PD.Degradations.size());
    return Done(4);
  }
  return Done(0);
}

CompileResult CompileSession::run(const CompileRequest &Req, std::FILE *Out,
                                  std::FILE *Err) {
  CompileResult R = compile(Req);
  std::fwrite(R.Out.data(), 1, R.Out.size(), Out);
  std::fwrite(R.Err.data(), 1, R.Err.size(), Err);
  return R;
}
