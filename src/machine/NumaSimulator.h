//===- machine/NumaSimulator.h - DASH-like NUMA simulator -------*- C++ -*-===//
///
/// \file
/// A performance simulator for a DASH-style cache-coherent NUMA machine
/// (Lenoski et al. [26]): clusters of processors share a local memory;
/// an access costs 1 cycle in cache, ~29 cycles in local cluster memory,
/// and 100-130 cycles in a remote cluster. Array pages live on the cluster
/// chosen by the placement policy (decomposition-driven blocks or
/// first-touch-style linear fill).
///
/// This is the substitution for the paper's Stanford DASH hardware: the
/// experiments of Figure 7 depend only on these published latency ratios,
/// the page placement policy, and the synchronization structure, all of
/// which are modeled. Execution is simulated at inner-loop *segment*
/// granularity: contiguous innermost runs are costed analytically (lines
/// touched x home latency + cache hits), nests run either sequentially,
/// as forall (max over processors plus a barrier), or software-pipelined
/// over blocks with point-to-point synchronization (Sec. 5's doacross).
///
//===----------------------------------------------------------------------===//

#ifndef ALP_MACHINE_NUMASIMULATOR_H
#define ALP_MACHINE_NUMASIMULATOR_H

#include "core/CostModel.h"
#include "core/Decomposition.h"
#include "ir/Program.h"
#include "machine/CommSchedule.h"
#include "support/Trace.h"

#include <map>
#include <string>
#include <vector>

namespace alp {

/// Where an array's pages live.
struct ArrayPlacement {
  enum class Kind {
    BlockedDim,   ///< Blocks along one array dimension across clusters.
    LinearFill,   ///< First-touch-like: pages fill clusters in address
                  ///< order, spilling to the next cluster when one fills.
    Replicated    ///< Every cluster holds a copy (read-only data).
  };
  Kind PKind = Kind::BlockedDim;
  unsigned Dim = 0; ///< For BlockedDim.

  static ArrayPlacement blockedDim(unsigned Dim) {
    return {Kind::BlockedDim, Dim};
  }
  static ArrayPlacement linearFill() { return {Kind::LinearFill, 0}; }
  static ArrayPlacement replicated() { return {Kind::Replicated, 0}; }

  bool operator==(const ArrayPlacement &RHS) const {
    return PKind == RHS.PKind && Dim == RHS.Dim;
  }
  bool operator!=(const ArrayPlacement &RHS) const { return !(*this == RHS); }
};

/// How one nest executes.
struct NestSchedule {
  enum class Mode { Sequential, Forall, Pipelined, Wavefront2D };

  Mode ExecMode = Mode::Sequential;
  /// Loop whose iterations are block-distributed across processors.
  unsigned DistLoop = 0;
  /// Pipelined: loop split into blocks with cross-processor
  /// synchronization at block boundaries. Wavefront2D: the second
  /// distributed loop (processors form a 2-d grid over DistLoop x
  /// PipeLoop and execute the blocks along anti-diagonal wavefronts,
  /// Figure 3(b) -- the layout with pipeline-fill idle processors).
  unsigned PipeLoop = 0;
  int64_t BlockSize = 4;
};

/// Aggregate counters from one simulation.
struct SimResult {
  double Cycles = 0.0;
  double ComputeCycles = 0.0;
  double MemoryCycles = 0.0;
  double ReorgCycles = 0.0;
  double SyncCycles = 0.0;
  double CacheAccesses = 0.0;
  double LocalLineFetches = 0.0;
  double RemoteLineFetches = 0.0;
  /// Messages sent in message-passing mode: one per remote line under
  /// fine-grained access, amortized for bulk transfers, or the planned
  /// schedule's bulk messages when a CommSchedule is installed. Zero on
  /// shared-address-space machines.
  double MessagesSent = 0.0;

  std::string str() const;

  /// Publishes this result into \p MR as "sim.*" gauges (cycle totals are
  /// model outputs, not cross-jobs-deterministic counters).
  void publishTo(MetricsRegistry &MR) const;
};

/// The simulator. Configure placements and schedules, then run.
class NumaSimulator {
public:
  NumaSimulator(const Program &P, const MachineParams &M);

  /// Sets the placement an array should have while executing nest
  /// \p NestId; the simulator reorganizes (with cost) when consecutive
  /// nests disagree. A missing entry means "whatever it currently is".
  void setPlacement(unsigned ArrayId, unsigned NestId,
                    ArrayPlacement Placement);
  /// Sets the placement for an array in every nest (static layout).
  void setStaticPlacement(unsigned ArrayId, ArrayPlacement Placement);
  /// Sets the initial layout (before the first nest runs) without
  /// scheduling a reorganization.
  void setInitialPlacement(unsigned ArrayId, ArrayPlacement Placement);

  void setSchedule(unsigned NestId, NestSchedule Schedule);

  /// Installs a planned communication schedule (CommPlan::schedule()).
  /// In message-passing mode the simulator then costs the planned bulk
  /// messages — remote lines move at the hardware rate and the software
  /// overhead is paid per planned message — instead of charging the
  /// per-message overhead on every fine-grained remote line.
  void setCommSchedule(CommSchedule Schedule);

  /// The machine this simulator was built for (single source of truth
  /// for the block size threaded through schedule derivation).
  const MachineParams &machine() const { return M; }

  /// Observability sink: a "sim.run" span per run() (Detail = processor
  /// count), "sim.runs" / "sim.reorganizations" counters, and the last
  /// run's SimResult as "sim.*" gauges.
  void setObserve(TraceContext Observe) { this->Observe = Observe; }

  /// Runs the whole program once with \p NumProcs active processors
  /// (capped at the machine's processor count).
  SimResult run(unsigned NumProcs);

  /// Sequential baseline: every nest on one processor with all data local
  /// (the "best sequential version" the paper's speedups are relative to).
  double sequentialCycles();

private:
  const Program &P;
  MachineParams M;
  TraceContext Observe;
  std::map<std::pair<unsigned, unsigned>, ArrayPlacement> PlacementAt;
  std::map<unsigned, ArrayPlacement> InitialPlacement;
  std::map<unsigned, NestSchedule> Schedules;
  CommSchedule CommSched;

  /// One run's state: bindings, placements and counters, plus the integer
  /// tables the costing reads (defined in NumaSimulator.cpp).
  struct RunState;
  struct AccessTable;

  RunState startRun(unsigned Procs, bool AllLocal) const;
  unsigned clusterOfProc(unsigned Proc) const;

  /// Lowers \p Nest's loop bounds and access maps under the current
  /// bindings into S's integer tables.
  void lowerNest(const LoopNest &Nest, RunState &S) const;

  /// Integer bounds of loop \p Level of the lowered nest given the loop
  /// indices in \p Outer.
  std::pair<int64_t, int64_t> loopBounds(unsigned Level, const int64_t *Outer,
                                         const RunState &S) const;

  /// Cost of executing the lowered nest's iterations assigned to \p Proc:
  /// each loop's range is its bounds clamped to S's per-level range.
  double chunkCost(unsigned Proc, RunState &S) const;

  /// Cost of the contiguous innermost segment of \p Length accesses of
  /// \p A starting at the current loop indices, issued by \p Proc.
  /// Updates line/cache counters.
  double segmentCost(unsigned Proc, AccessTable &A, int64_t Length,
                     RunState &S) const;

  void runNodes(const std::vector<ProgramNode> &Nodes, RunState &S);
  void runNest(unsigned NestId, RunState &S);
  void reorganizeIfNeeded(unsigned NestId, RunState &S);
  /// Planned-mode software cost of the nest's scheduled messages.
  void plannedNestComm(unsigned NestId, RunState &S) const;
};

} // namespace alp

#endif // ALP_MACHINE_NUMASIMULATOR_H
