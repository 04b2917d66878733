//===- core/Driver.h - End-to-end decomposition pipeline --------*- C++ -*-===//
///
/// \file
/// The top-level entry point a user of the library calls: given an affine
/// Program (from the DSL front end or the builder), run the full pipeline
/// of the paper —
///
///   local phase (Wolf-Lam canonicalization)
///     -> dynamic decomposition (greedy component joining, Sec. 6)
///        with blocked partitions (Sec. 5) as the per-component solver
///     -> per-component orientations (Sec. 4.4, with cross-component
///        orientation matching) and displacements (Sec. 4.5)
///     -> idle-processor projection and read-only replication (Sec. 7)
///
/// — and return the complete ProgramDecomposition. Option knobs disable
/// individual stages; the Figure 7 benchmark uses them to reproduce the
/// paper's four strategies.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_CORE_DRIVER_H
#define ALP_CORE_DRIVER_H

#include "core/CostModel.h"
#include "core/Decomposition.h"
#include "core/DynamicDecomposer.h"
#include "core/Optimizations.h"
#include "core/OrientationSolver.h"

namespace alp {

/// Pipeline configuration. Sub-stage option structs are embedded members:
/// the driver copies each template per stage invocation and fills the
/// run-managed slots (Budget, Pool/SharedCache, seeds, preferences,
/// Observe) itself, so callers configure exactly one struct.
struct DriverOptions {
  /// Run the Wolf-Lam local phase first (canonicalize loop order/kinds).
  bool RunLocalPhase = true;
  /// Allow blocked (tiled / doacross) partitions (Sec. 5).
  bool EnableBlocking = true;
  /// Component joining policy (Sec. 6.3).
  JoinPolicy Policy = JoinPolicy::Greedy;
  /// Use the Sec. 6.4 bottom-up multi-level driver instead of the single
  /// flattened pass (they coincide on flat structure trees).
  bool MultiLevel = false;
  /// Read-only replication (Sec. 7.2).
  bool EnableReplication = true;
  /// Idle-processor projection (Sec. 7.1).
  bool EnableIdleProjection = true;
  /// Resource limits for the exact algorithms. Copied per run (counters
  /// start fresh); stages that exhaust it fall back to conservative
  /// answers recorded in ProgramDecomposition::Degradations.
  ResourceBudget Budget = ResourceBudget::defaults();
  /// Wall-clock deadline for the whole pipeline in milliseconds; 0 means
  /// none. Armed on the run's budget copy at entry.
  uint64_t DeadlineMs = 0;
  /// Worker threads for the analysis phases (dependence pairs, per-nest
  /// canonicalization, initial partition solves); 0 means one per
  /// hardware thread. The pipeline always runs the same task
  /// decomposition — each task on its own budget copy — so the output is
  /// byte-identical for every value of Jobs.
  unsigned Jobs = 1;
  /// Supervised-driver policy (support/Supervisor.h), threaded into every
  /// parallel fan-out: total attempts per task (first run + retries on a
  /// shrunken budget) and a per-attempt wall-clock deadline in
  /// milliseconds (0 = none; like DeadlineMs, an armed task deadline
  /// trades jobs-determinism for boundedness). A task whose every attempt
  /// fails degrades to its stage's conservative fallback, recorded in
  /// ProgramDecomposition::Degradations.
  unsigned TaskAttempts = 2;
  uint64_t TaskDeadlineMs = 0;
  /// Template for every partition solve of the run (pre-seeded kernels;
  /// Budget and Observe are overwritten by the driver).
  PartitionOptions Partition;
  /// Template for orientation solving (initial PreferredD; the driver
  /// accumulates cross-component preferences on top, and overwrites
  /// Budget and Observe).
  OrientationOptions Orientation;
  /// Observability sinks (span tracer + metrics registry, either or both
  /// null) threaded into every stage. Counters published here are
  /// byte-identical for every value of Jobs; gauges and span timings are
  /// not (docs/OBSERVABILITY.md).
  TraceContext Observe;
  /// Caller-provided worker pool. Null (the default) makes the driver own
  /// a fresh pool of `Jobs` workers per run; non-null reuses the given
  /// pool — Jobs is then ignored. CompileSession passes one pool per
  /// request, which its --simulate sweep shares, and the batch session's
  /// persistent workers keep their warm thread-local arena blocks across
  /// requests.
  /// Nested sections on a busy pool degrade to serial in the caller
  /// (ThreadPool.h), so a batch fanning requests over the same pool runs
  /// each request's analysis serially on one warm worker. The output is
  /// byte-identical either way (the Jobs determinism contract).
  ThreadPool *Pool = nullptr;
};

/// Runs the whole pipeline fail-soft: never aborts on user-reachable
/// input. Arithmetic overflow or budget exhaustion inside a stage degrades
/// that stage to a conservative sound answer (recorded in the result's
/// Degradations); only a failure no stage can absorb returns an error
/// Status. \p P may be rewritten by the local phase.
Expected<ProgramDecomposition>
decomposeOrError(Program &P, const MachineParams &Machine,
                 const DriverOptions &Opts = {});

/// Renders a human-readable report of \p PD for \p P.
std::string printDecomposition(const Program &P,
                               const ProgramDecomposition &PD);

} // namespace alp

#endif // ALP_CORE_DRIVER_H
