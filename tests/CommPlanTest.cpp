//===- tests/CommPlanTest.cpp - Message schedule planning tests ------------===//
//
// Truth table for the communication planner over the shipped example
// programs plus targeted tests for each aggregation rule (shift folding,
// broadcast hoisting, redundant-transfer elision, pipelined overlap),
// the lowering to the simulator's CommSchedule, the published comm.*
// counters, and the planned-vs-fine-grained end-to-end win the paper's
// multicomputer argument rests on.
//
//===----------------------------------------------------------------------===//

#include "codegen/CommPlan.h"

#include "DecomposeForTest.h"
#include "core/Driver.h"
#include "frontend/Lowering.h"
#include "machine/NumaSimulator.h"
#include "machine/ScheduleDerivation.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace alp;

#ifndef ALP_EXAMPLES_DIR
#error "ALP_EXAMPLES_DIR must be defined by the build"
#endif

namespace {

Program compile(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = compileDsl(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    reportFatalError("test program failed to compile:\n" + Diags.str());
  return std::move(*P);
}

Program compileFile(const std::string &Name) {
  std::string Path = std::string(ALP_EXAMPLES_DIR) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return compile(Buf.str());
}

MachineParams touchstone() {
  MachineParams M;
  M.ProcsPerCluster = 1;
  M.MessagePassing = true;
  return M;
}

/// Gauss-Seidel style stencil: a doacross nest the driver pipelines, so
/// every non-local access classifies as Pipelined.
const char *pipelinedStencil() {
  return R"(
program stencil;
param N = 127;
array X[N + 1, N + 1];
for i1 = 1 to N - 1 {
  for i2 = 1 to N - 1 {
    X[i1, i2] = f(X[i1, i2], X[i1 - 1, i2] + X[i1 + 1, i2]
                 + X[i1, i2 - 1] + X[i1, i2 + 1]) @cost(10);
  }
}
)";
}

std::vector<const PlannedMessage *> allOps(const CommPlan &Plan) {
  std::vector<const PlannedMessage *> Ops;
  for (const PlannedMessage &M : Plan.Prologue)
    Ops.push_back(&M);
  for (const auto &[NestId, Msgs] : Plan.PerNest)
    for (const PlannedMessage &M : Msgs)
      Ops.push_back(&M);
  return Ops;
}

} // namespace

//===----------------------------------------------------------------------===//
// Truth table: shipped examples and the kernel gallery shapes.
//===----------------------------------------------------------------------===//

TEST(CommPlanTest, JacobiPlansOneShiftPerBoundaryLayer) {
  // examples/jacobi.alp: both sweeps distribute by rows; the relaxation
  // reads three boundary layers of A (offsets that cross the processor
  // boundary) and the copy-back reads one layer of B. Nothing broadcasts,
  // nothing reorganizes.
  Program P = compileFile("jacobi.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CommPlan Plan = planCommunication(P, PD,
                                    CodegenOptions::forMachine(touchstone()));

  EXPECT_EQ(Plan.Prologue.size(), 0u);
  EXPECT_EQ(Plan.size(), 4u);
  for (const PlannedMessage *M : allOps(Plan))
    EXPECT_EQ(M->Kind, PlannedMsgKind::Shift) << M->str(P);
  EXPECT_EQ(Plan.Stats.FineGrainedOps, 4u);
  EXPECT_EQ(Plan.Stats.Hoisted, 0u);
  EXPECT_EQ(Plan.Stats.Eliminated, 0u);
  // Every shift repeats once per time step: total messages are a multiple
  // of the op count and nonzero.
  EXPECT_GT(Plan.Stats.Messages, Plan.size());
  EXPECT_GT(Plan.Stats.Elements, 0u);
}

TEST(CommPlanTest, TrisolvePlanHoistsTheMatrixBroadcast) {
  // examples/trisolve.alp: L is replicated read-only, so its two reads
  // become ONE prologue broadcast; X and B align with the distribution.
  Program P = compileFile("trisolve.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CommPlan Plan = planCommunication(P, PD,
                                    CodegenOptions::forMachine(touchstone()));

  ASSERT_EQ(Plan.Prologue.size(), 1u);
  const PlannedMessage &B = Plan.Prologue.front();
  EXPECT_EQ(B.Kind, PlannedMsgKind::Broadcast);
  EXPECT_TRUE(B.Hoisted);
  EXPECT_EQ(B.FoldedOps, 2u);
  EXPECT_EQ(P.array(B.ArrayId).Name, "L");
  EXPECT_EQ(Plan.Stats.Hoisted, 2u);
  EXPECT_EQ(Plan.Stats.Messages, 1u);
  // The whole matrix moves once.
  EXPECT_EQ(Plan.Stats.Elements, 128u * 128u);
}

TEST(CommPlanTest, PipelinedStencilAggregatesIntoBlockBoundaries) {
  // All four neighbor reads of the doacross stencil share one
  // block-boundary message stream per array: the frontier of a block
  // moves once per block, not once per access.
  Program P = compile(pipelinedStencil());
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CodegenOptions Opts = CodegenOptions::forMachine(touchstone());
  CommPlan Plan = planCommunication(P, PD, Opts);

  std::vector<const PlannedMessage *> Ops = allOps(Plan);
  ASSERT_FALSE(Ops.empty());
  unsigned Boundaries = 0;
  for (const PlannedMessage *M : Ops)
    if (M->Kind == PlannedMsgKind::BlockBoundary) {
      ++Boundaries;
      EXPECT_TRUE(M->Overlapped);
      // One message per block of the pipelined loop.
      EXPECT_GT(M->MessagesPerExecution, 1.0);
      EXPECT_GT(M->FoldedOps, 1u);
    }
  EXPECT_EQ(Boundaries, 1u);
  EXPECT_GT(Plan.Stats.Aggregated, 0u);
}

//===----------------------------------------------------------------------===//
// Option toggles: each aggregation rule can be turned off independently.
//===----------------------------------------------------------------------===//

TEST(CommPlanTest, AggregateShiftsToggle) {
  Program P = compile(pipelinedStencil());
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CodegenOptions On = CodegenOptions::forMachine(touchstone());
  CodegenOptions Off = On;
  Off.AggregateShifts = false;

  CommPlan Agg = planCommunication(P, PD, On);
  CommPlan Fine = planCommunication(P, PD, Off);
  EXPECT_GT(Agg.Stats.Aggregated, 0u);
  EXPECT_EQ(Fine.Stats.Aggregated, 0u);
  // Unaggregated: one op per fine-grained access, so strictly more ops
  // and at least as many messages.
  EXPECT_GT(Fine.size(), Agg.size());
  EXPECT_GE(Fine.Stats.Messages, Agg.Stats.Messages);
}

TEST(CommPlanTest, HoistBroadcastsToggle) {
  Program P = compileFile("trisolve.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CodegenOptions On = CodegenOptions::forMachine(touchstone());
  CodegenOptions Off = On;
  Off.HoistBroadcasts = false;

  CommPlan Hoisted = planCommunication(P, PD, On);
  CommPlan PerNest = planCommunication(P, PD, Off);
  EXPECT_EQ(Hoisted.Prologue.size(), 1u);
  EXPECT_EQ(PerNest.Prologue.size(), 0u);
  EXPECT_EQ(PerNest.Stats.Hoisted, 0u);
  // The un-hoisted broadcast stays attached to its nest.
  bool SawNestBroadcast = false;
  for (const PlannedMessage *M : allOps(PerNest))
    if (M->Kind == PlannedMsgKind::Broadcast) {
      SawNestBroadcast = true;
      EXPECT_NE(M->NestId, ~0u);
      EXPECT_FALSE(M->Hoisted);
    }
  EXPECT_TRUE(SawNestBroadcast);
}

TEST(CommPlanTest, ElideRedundantTransfersToggle) {
  // Hand a decomposition a reorganization whose target layout equals the
  // layout the array already has: elision drops it; with the rule off it
  // is planned (and the simulator would pay for it).
  Program P = compileFile("jacobi.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  ASSERT_TRUE(PD.Reorganizations.empty());
  ReorganizationPoint RP;
  RP.ArrayId = 0;
  RP.FromNest = 0;
  RP.ToNest = 0; // Same nest => same layout => redundant.
  RP.Frequency = 1.0;
  PD.Reorganizations.push_back(RP);

  CodegenOptions On = CodegenOptions::forMachine(touchstone());
  CodegenOptions Off = On;
  Off.ElideRedundantTransfers = false;

  CommPlan Elided = planCommunication(P, PD, On);
  CommPlan Kept = planCommunication(P, PD, Off);
  EXPECT_EQ(Elided.Stats.Eliminated, 1u);
  EXPECT_EQ(Kept.Stats.Eliminated, 0u);
  unsigned Redists = 0;
  for (const PlannedMessage *M : allOps(Kept))
    if (M->Kind == PlannedMsgKind::Redistribute) {
      ++Redists;
      EXPECT_TRUE(M->CrossNest);
    }
  EXPECT_EQ(Redists, 1u);
  for (const PlannedMessage *M : allOps(Elided))
    EXPECT_NE(M->Kind, PlannedMsgKind::Redistribute) << M->str(P);
}

TEST(CommPlanTest, OverlapPipelinedToggle) {
  Program P = compile(pipelinedStencil());
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CodegenOptions On = CodegenOptions::forMachine(touchstone());
  CodegenOptions Off = On;
  Off.OverlapPipelined = false;

  // allOps points into the plan, so the plan must outlive the loop.
  CommPlan Plan = planCommunication(P, PD, Off);
  for (const PlannedMessage *M : allOps(Plan))
    EXPECT_FALSE(M->Overlapped);
  // Overlap only changes how the sends are scheduled, not how many.
  EXPECT_EQ(planCommunication(P, PD, On).Stats.Messages, Plan.Stats.Messages);
}

//===----------------------------------------------------------------------===//
// Lowering, counters, determinism.
//===----------------------------------------------------------------------===//

TEST(CommPlanTest, ScheduleLoweringPreservesEveryOp) {
  Program P = compileFile("trisolve.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CommPlan Plan = planCommunication(P, PD,
                                    CodegenOptions::forMachine(touchstone()));
  CommSchedule Sched = Plan.schedule();

  ASSERT_EQ(Sched.Prologue.size(), Plan.Prologue.size());
  EXPECT_EQ(Sched.Prologue.front().OpKind, CommScheduleOp::Kind::Broadcast);
  EXPECT_EQ(Sched.PerNest.size(), Plan.PerNest.size());
  for (const auto &[NestId, Msgs] : Plan.PerNest) {
    ASSERT_TRUE(Sched.PerNest.count(NestId));
    ASSERT_EQ(Sched.PerNest.at(NestId).size(), Msgs.size());
    for (size_t I = 0; I != Msgs.size(); ++I) {
      const CommScheduleOp &Op = Sched.PerNest.at(NestId)[I];
      EXPECT_EQ(Op.ArrayId, Msgs[I].ArrayId);
      EXPECT_DOUBLE_EQ(Op.MessagesPerExecution, Msgs[I].MessagesPerExecution);
      EXPECT_EQ(Op.Overlapped, Msgs[I].Overlapped);
      EXPECT_EQ(Op.CrossNest, Msgs[I].CrossNest);
    }
  }
}

TEST(CommPlanTest, PublishesCommCounters) {
  Program P = compileFile("jacobi.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  MetricsRegistry Metrics;
  CodegenOptions Opts = CodegenOptions::forMachine(touchstone());
  Opts.Observe.Metrics = &Metrics;
  CommPlan Plan = planCommunication(P, PD, Opts);

  EXPECT_EQ(Metrics.counter("comm.messages"), Plan.Stats.Messages);
  EXPECT_EQ(Metrics.counter("comm.elements"), Plan.Stats.Elements);
  EXPECT_EQ(Metrics.counter("comm.aggregated"), Plan.Stats.Aggregated);
  EXPECT_EQ(Metrics.counter("comm.hoisted"), Plan.Stats.Hoisted);
  EXPECT_EQ(Metrics.counter("comm.eliminated"), Plan.Stats.Eliminated);
  EXPECT_EQ(Metrics.counter("comm.fine_grained_ops"),
            Plan.Stats.FineGrainedOps);
  EXPECT_EQ(Metrics.counter("codegen.plans"), 1u);
}

TEST(CommPlanTest, ReportIsDeterministic) {
  Program P = compileFile("jacobi.alp");
  ProgramDecomposition PD = decomposeForTest(P, touchstone());
  CodegenOptions Opts = CodegenOptions::forMachine(touchstone());
  EXPECT_EQ(planCommunication(P, PD, Opts).report(P),
            planCommunication(P, PD, Opts).report(P));
}

//===----------------------------------------------------------------------===//
// End to end: the planned schedule beats fine-grained messaging.
//===----------------------------------------------------------------------===//

TEST(CommPlanTest, PlannedScheduleBeatsFineGrainedOnTouchstone) {
  // The acceptance bar for the planner: on the message-passing machine,
  // at least 5x fewer simulated messages AND strictly fewer cycles than
  // the demand-driven fine-grained baseline, on Jacobi (boundary shifts)
  // and on the pipelined stencil (block-boundary sends).
  for (Program P : {compileFile("jacobi.alp"), compile(pipelinedStencil())}) {
    SCOPED_TRACE(P.Name);
    MachineParams M = touchstone();
    ProgramDecomposition PD = decomposeForTest(P, M);

    NumaSimulator Fine(P, M);
    applyDecomposition(Fine, P, PD);
    SimResult Unplanned = Fine.run(32);

    NumaSimulator Planned(P, M);
    Planned.setCommSchedule(
        planCommunication(P, PD, CodegenOptions::forMachine(M)).schedule());
    applyDecomposition(Planned, P, PD);
    SimResult Plan = Planned.run(32);

    ASSERT_GT(Plan.MessagesSent, 0.0);
    EXPECT_GE(Unplanned.MessagesSent / Plan.MessagesSent, 5.0);
    EXPECT_LT(Plan.Cycles, Unplanned.Cycles);
  }
}

TEST(CommPlanTest, UniprocessorIgnoresTheSchedule) {
  // One processor sends nothing: the planned schedule must not charge
  // message overhead when there is no one to talk to.
  Program P = compileFile("jacobi.alp");
  MachineParams M = touchstone();
  ProgramDecomposition PD = decomposeForTest(P, M);
  NumaSimulator Sim(P, M);
  Sim.setCommSchedule(
      planCommunication(P, PD, CodegenOptions::forMachine(M)).schedule());
  applyDecomposition(Sim, P, PD);
  EXPECT_DOUBLE_EQ(Sim.run(1).MessagesSent, 0.0);
}

TEST(CommPlanTest, DashMachineIgnoresTheSchedule) {
  // On the shared-address-space machine a schedule is free metadata:
  // cycle counts are unchanged whether or not one is installed.
  Program P = compileFile("jacobi.alp");
  MachineParams M; // DASH-like defaults.
  ProgramDecomposition PD = decomposeForTest(P, M);

  NumaSimulator Plain(P, M);
  applyDecomposition(Plain, P, PD);
  NumaSimulator WithSched(P, M);
  WithSched.setCommSchedule(
      planCommunication(P, PD, CodegenOptions::forMachine(M)).schedule());
  applyDecomposition(WithSched, P, PD);
  EXPECT_DOUBLE_EQ(Plain.run(32).Cycles, WithSched.run(32).Cycles);
}
