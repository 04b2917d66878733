//===- perfbench/src/Pipeline.cpp - Compile requests, in process ----------===//
//
// replayPipeline mirrors the stage order and output format of
// CompileSession::run (core/CompileSession.cpp) for the stages the
// benchmark selects; compareReplay is what keeps the two in step.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "alp.h"
#include "analysis/Dependence.h"
#include "analysis/Lint.h"
#include "service/Server.h"
#include "transform/Unimodular.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace alp;

namespace perfbench {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string &S, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    S.append(Buf, std::min<size_t>(static_cast<size_t>(N), sizeof(Buf) - 1));
}

} // namespace

bool makeRequest(const std::string &Flags, const std::string &Source,
                 CompileRequest &Req, std::string &Err) {
  Req = CompileRequest();
  Req.FileName = "<request>";
  Req.Source = Source;
  return parseServiceRequestFlags(Flags, Req, Err);
}

SessionRun runSession(const CompileRequest &Req) {
  char *OutBuf = nullptr, *ErrBuf = nullptr;
  size_t OutLen = 0, ErrLen = 0;
  std::FILE *Out = open_memstream(&OutBuf, &OutLen);
  std::FILE *Err = open_memstream(&ErrBuf, &ErrLen);
  SessionRun R;
  if (!Out || !Err) {
    R.A.Exit = -1;
  } else {
    R.Result = CompileSession::run(Req, Out, Err);
    R.A.Exit = R.Result.ExitCode;
  }
  if (Out)
    std::fclose(Out);
  if (Err)
    std::fclose(Err);
  R.A.Out.assign(OutBuf ? OutBuf : "", OutLen);
  R.A.Err.assign(ErrBuf ? ErrBuf : "", ErrLen);
  std::free(OutBuf);
  std::free(ErrBuf);
  return R;
}

Replay replayPipeline(const CompileRequest &Req, SpanLog &Log) {
  Replay R;
  Log.beginRequest();
  const Clock::time_point Start = Clock::now();
  double StandaloneMs = 0;
  auto Finish = [&](int Exit, std::string Out, std::string Err) -> Replay & {
    R.A = {Exit, std::move(Out), std::move(Err)};
    R.PipelineWallMs = msSince(Start) - StandaloneMs;
    return R;
  };

  DiagnosticEngine Diags;
  std::optional<Program> Parsed = spanned(
      &Log, "frontend.parse", [&] { return compileDsl(Req.Source, Diags); });
  Log.count("frontend.parses");
  std::string Err;
  for (const Diagnostic &D : Diags.diagnostics())
    Err += Req.FileName + ":" + D.str() + "\n";
  if (!Parsed)
    return Finish(1, "", Err);

  // Standalone replays: the local phase and dependence analysis also run
  // inside decomposeOrError, so they are timed on a copy and reported as
  // shares, not added to the pipeline-order sum.
  {
    Clock::time_point T0 = Clock::now();
    Program Copy = *Parsed;
    spanned(&Log, "transform.local_phase", [&] { runLocalPhase(Copy); },
            /*InPipeline=*/false);
    spanned(
        &Log, "analysis.dependence",
        [&] {
          DependenceAnalysis DA(Copy);
          for (unsigned Id : Copy.nestsInOrder())
            Log.count("analysis.dependences",
                      static_cast<double>(DA.analyze(Copy.nest(Id)).size()));
        },
        /*InPipeline=*/false);
    StandaloneMs += msSince(T0);
  }

  Program P = std::move(*Parsed);
  MachineParams M;
  M.NumProcs = Req.Procs;
  M.BlockSize = Req.Block;
  if (Req.MachineName == "touchstone") {
    M.ProcsPerCluster = 1;
    M.MessagePassing = true;
  }
  CodegenOptions CG = CodegenOptions::forMachine(M);
  CG.Miscompile = Req.Miscompile;
  DriverOptions Opts = Req.Driver;

  Expected<ProgramDecomposition> E = spanned(
      &Log, "core.decompose", [&] { return decomposeOrError(P, M, Opts); });
  if (!E.hasValue())
    return Finish(3, "",
                  Err + "error: decomposition failed: " + E.status().str() + "\n");
  ProgramDecomposition PD = E.takeValue();
  if (PD.degraded())
    Log.count("core.degraded");

  R.Report = spanned(&Log, "core.report", [&] { return printDecomposition(P, PD); });
  std::string Out = R.Report;

  if (Req.DoSpmd) {
    R.SpmdText =
        spanned(&Log, "codegen.emit_spmd", [&] { return emitSpmd(P, PD, CG); });
    Out += "\n=== SPMD ===\n" + R.SpmdText;
  }

  if (!Req.EmitMode.empty() && Req.SelSchedule) {
    ResourceBudget Budget = Opts.Budget;
    LintOptions LO;
    LO.CheckRaces = false;
    LO.CheckModel = false;
    LO.CheckDecomposition = false;
    LO.CheckSchedule = true;
    LO.BlockSize = CG.BlockSize;
    LO.Budget = &Budget;
    LO.Miscompile = Req.Miscompile;
    LintResult LR = spanned(&Log, "analysis.schedule_verify",
                            [&] { return runLintPasses(P, &PD, LO); });
    if (LR.hasErrors() || (Req.WError && LR.hasWarnings())) {
      for (const Diagnostic &D : LR.Diags)
        Err += "schedule: " + D.strWithNotes() + "\n";
      return Finish(1, Out, Err);
    }
  }

  if (Req.EmitMode == "spmd") {
    CodegenOptions MsgCG = CG;
    MsgCG.EmitMessages = true;
    R.SpmdText = spanned(&Log, "codegen.emit_spmd",
                         [&] { return emitSpmd(P, PD, MsgCG); });
    Out += "\n=== SPMD (message passing) ===\n" + R.SpmdText;
  } else if (Req.EmitMode == "comm-plan") {
    R.CommPlanReport = spanned(&Log, "codegen.plan_comm", [&] {
      CommPlan Plan = planCommunication(P, PD, CG);
      Log.count("codegen.planned_messages",
                static_cast<double>(Plan.Stats.Messages));
      return Plan.report(P);
    });
    Out += "\n" + R.CommPlanReport;
  }

  if (Req.DoComm) {
    R.CommReport = spanned(&Log, "codegen.comm_analysis", [&] {
      return analyzeCommunication(P, PD, CG).report(P);
    });
    Out += "\n" + R.CommReport;
  }

  if (Req.DoSim) {
    NumaSimulator Sim(P, M);
    if (M.MessagePassing)
      spanned(&Log, "codegen.plan_comm", [&] {
        CommPlan Plan = planCommunication(P, PD, CG);
        Log.count("codegen.planned_messages",
                  static_cast<double>(Plan.Stats.Messages));
        Sim.setCommSchedule(Plan.schedule());
      });
    spanned(&Log, "machine.apply", [&] { applyDecomposition(Sim, P, PD); });
    double Seq =
        spanned(&Log, "machine.sequential", [&] { return Sim.sequentialCycles(); });
    appendf(Out, "\n=== simulation (machine: %s, %u procs) ===\n",
            Req.MachineName.c_str(), Req.Procs);
    appendf(Out, "sequential: %.3g cycles\n", Seq);
    for (unsigned Pr = 1; Pr <= Req.Procs; Pr *= 2) {
      SimResult SR = spanned(&Log, "machine.sim_run", [&] { return Sim.run(Pr); });
      Log.count("machine.sim_runs");
      R.SimCycles.push_back(SR.Cycles);
      appendf(Out,
              "%3u procs: %12.3g cycles  speedup %6.2f  "
              "(reorg %.2g, sync %.2g, remote lines %.3g",
              Pr, SR.Cycles, Seq / SR.Cycles, SR.ReorgCycles,
              SR.SyncCycles, SR.RemoteLineFetches);
      if (M.MessagePassing)
        appendf(Out, ", msgs %.3g", SR.MessagesSent);
      Out += ")\n";
    }
  }

  if (PD.degraded()) {
    Err += PD.degradationReport();
    appendf(Err,
            "note: decomposition is sound but degraded (%zu stage "
            "fallback(s))\n",
            PD.Degradations.size());
    return Finish(4, Out, Err);
  }
  return Finish(0, Out, Err);
}

std::string compareReplay(const Replay &R, const SessionRun &S) {
  if (R.A.Exit != S.A.Exit)
    return "exit " + std::to_string(R.A.Exit) + " vs session " +
           std::to_string(S.A.Exit);
  if (R.A.Out != S.A.Out)
    return "stdout bytes differ";
  if (R.A.Err != S.A.Err)
    return "stderr bytes differ";
  if (R.Report != S.Result.DecompositionReport)
    return "DecompositionReport differs";
  if (R.SpmdText != S.Result.SpmdText)
    return "SpmdText differs";
  if (R.CommPlanReport != S.Result.CommPlanReport)
    return "CommPlanReport differs";
  if (R.CommReport != S.Result.CommReport)
    return "CommReport differs";
  return "";
}

} // namespace perfbench
