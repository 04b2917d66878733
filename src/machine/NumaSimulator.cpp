//===- machine/NumaSimulator.cpp - DASH-like NUMA simulator ------------------===//
//
// The costing runs on integer tables. Each array's extents, row-major
// multipliers and per-dimension block sizes are evaluated once per run, on
// first use. At each nest entry, with the structure-loop indices bound, the
// nest's loop bounds and access maps are lowered into int64_t coefficients
// indexed by loop level and evaluated with checked arithmetic; a fractional
// coefficient or an overflow falls back to the Rational evaluation, so the
// results are bit-identical either way.
//
//===----------------------------------------------------------------------===//

#include "machine/NumaSimulator.h"

#include "support/CheckedInt.h"
#include "support/Diagnostics.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace alp;

std::string SimResult::str() const {
  std::ostringstream OS;
  OS << "cycles=" << Cycles << " compute=" << ComputeCycles
     << " memory=" << MemoryCycles << " reorg=" << ReorgCycles
     << " sync=" << SyncCycles << " cache=" << CacheAccesses
     << " localLines=" << LocalLineFetches
     << " remoteLines=" << RemoteLineFetches
     << " messages=" << MessagesSent;
  return OS.str();
}

void SimResult::publishTo(MetricsRegistry &MR) const {
  MR.setGauge("sim.cycles", Cycles);
  MR.setGauge("sim.compute_cycles", ComputeCycles);
  MR.setGauge("sim.memory_cycles", MemoryCycles);
  MR.setGauge("sim.reorg_cycles", ReorgCycles);
  MR.setGauge("sim.sync_cycles", SyncCycles);
  MR.setGauge("sim.cache_accesses", CacheAccesses);
  MR.setGauge("sim.local_line_fetches", LocalLineFetches);
  MR.setGauge("sim.remote_line_fetches", RemoteLineFetches);
  MR.setGauge("sim.messages", MessagesSent);
}

NumaSimulator::NumaSimulator(const Program &P, const MachineParams &M)
    : P(P), M(M) {}

void NumaSimulator::setPlacement(unsigned ArrayId, unsigned NestId,
                                 ArrayPlacement Placement) {
  PlacementAt[{ArrayId, NestId}] = Placement;
}

void NumaSimulator::setStaticPlacement(unsigned ArrayId,
                                       ArrayPlacement Placement) {
  InitialPlacement[ArrayId] = Placement;
  for (const LoopNest &Nest : P.Nests)
    PlacementAt[{ArrayId, Nest.Id}] = Placement;
}

void NumaSimulator::setInitialPlacement(unsigned ArrayId,
                                        ArrayPlacement Placement) {
  InitialPlacement[ArrayId] = Placement;
}

void NumaSimulator::setSchedule(unsigned NestId, NestSchedule Schedule) {
  Schedules[NestId] = Schedule;
}

void NumaSimulator::setCommSchedule(CommSchedule Schedule) {
  CommSched = std::move(Schedule);
}

unsigned NumaSimulator::clusterOfProc(unsigned Proc) const {
  return Proc / std::max(1u, M.ProcsPerCluster);
}

//===----------------------------------------------------------------------===//
// Integer tables
//===----------------------------------------------------------------------===//

namespace {

int64_t ceilDiv(int64_t A, int64_t B) {
  return A >= 0 ? (A + B - 1) / B : -((-A) / B);
}

int64_t rationalFloor(const Rational &R) {
  int64_t Q = R.num() / R.den();
  if (R.num() % R.den() != 0 && R.num() < 0)
    --Q;
  return Q;
}

int64_t rationalCeil(const Rational &R) {
  int64_t Q = R.num() / R.den();
  if (R.num() % R.den() != 0 && R.num() > 0)
    ++Q;
  return Q;
}

/// Two's-complement arithmetic for the row-major strides and offsets of
/// huge arrays, which the model lets wrap.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// Floor and ceiling of A / B for B > 0.
__int128 floorDiv128(__int128 A, __int128 B) {
  return A >= 0 ? A / B : -((-A + B - 1) / B);
}
__int128 ceilDiv128(__int128 A, __int128 B) {
  return A >= 0 ? (A + B - 1) / B : -((-A) / B);
}

/// Const + sum of Coeff * i_Level over the loop indices. Exact is false
/// when a coefficient or the constant is not an integer, or the constant
/// overflows; the Rational form is evaluated then, where the model always
/// evaluated it.
struct IntForm {
  bool Exact = true;
  int64_t Const = 0;
  std::vector<std::pair<unsigned, int64_t>> Coeffs; ///< Nonzero only.

  void setConst(const SymAffine &A,
                const std::map<std::string, Rational> &B) {
    try {
      Rational V = A.evaluate(B);
      Exact = V.isInteger();
      Const = V.num();
    } catch (const AlpException &) {
      Exact = false;
    }
  }

  void addCoeff(unsigned Level, const Rational &C) {
    if (!C.isInteger())
      Exact = false;
    else if (!C.isZero())
      Coeffs.push_back({Level, C.num()});
  }

  /// The value at loop indices \p I, in the Rational form's order of
  /// operations (the dot product, then the constant); false when the form
  /// is not Exact or a step overflows.
  bool eval(const int64_t *I, int64_t &V) const {
    if (!Exact)
      return false;
    try {
      int64_t Sum = 0;
      for (const auto &[Level, C] : Coeffs)
        Sum = checkedAdd64(Sum, checkedMul64(C, I[Level]));
      V = checkedAdd64(Sum, Const);
      return true;
    } catch (const AlpException &) {
      return false;
    }
  }
};

/// The Rational iteration vector of loop indices \p I.
Vector iterVector(const int64_t *I, unsigned Depth) {
  Vector Iter(Depth);
  for (unsigned L = 0; L != Depth; ++L)
    Iter[L] = Rational(I[L]);
  return Iter;
}

/// Adds 1.0 to \p Acc \p N times: in one addition when every partial sum
/// is an integer below 2^53 (and so exact), one by one otherwise.
void addOnes(double &Acc, int64_t N) {
  if (Acc == std::floor(Acc) &&
      std::fabs(Acc) <= 0x1p53 - static_cast<double>(N)) {
    Acc += static_cast<double>(N);
    return;
  }
  for (int64_t I = 0; I != N; ++I)
    Acc += 1.0;
}

bool isInteger(double V) { return std::isfinite(V) && std::trunc(V) == V; }

/// Lines l in [0, Lines) whose BlockedDim home is \p Cluster when line l's
/// index along the blocked dimension is Start + l * Step, Step != 0: the
/// index is monotone in l, so the lines homed on one cluster form an
/// interval. Returns -1 when an index would leave int64_t.
int64_t linesHomedOn(unsigned Cluster, int64_t Start, __int128 Step,
                     int64_t Lines, int64_t Extent, int64_t Block) {
  __int128 Last = Start + (Lines - 1) * Step;
  if (Step < INT64_MIN || Step > INT64_MAX || Last < INT64_MIN ||
      Last > INT64_MAX)
    return -1;
  // The cluster holds clamped indices [Lo, Hi]; indices below 0 clamp onto
  // cluster 0 and indices past the end onto the last cluster.
  __int128 Lo = static_cast<__int128>(Cluster) * Block;
  if (Lo > Extent - 1)
    return 0;
  __int128 Hi = Lo + Block - 1;
  bool BoundBelow = Lo > 0, BoundAbove = Hi < Extent - 1;
  __int128 First = 0, End = Lines - 1;
  if (Step > 0) {
    if (BoundBelow)
      First = std::max(First, ceilDiv128(Lo - Start, Step));
    if (BoundAbove)
      End = std::min(End, floorDiv128(Hi - Start, Step));
  } else {
    if (BoundBelow)
      End = std::min(End, floorDiv128(Start - Lo, -Step));
    if (BoundAbove)
      First = std::max(First, ceilDiv128(Start - Hi, -Step));
  }
  return End >= First ? static_cast<int64_t>(End - First + 1) : 0;
}

/// An array's shape under the run's bindings.
struct ArrayShape {
  bool Ready = false;
  std::vector<int64_t> Extents; ///< floor of each extent, at least 1.
  std::vector<int64_t> Mults;   ///< Row-major multipliers (wrapping).
  std::vector<int64_t> Blocks;  ///< BlockedDim block size per dimension.
  double FillShare = 1.0;       ///< LinearFill elements per cluster (>= 1).
};

} // namespace

/// One access of the current nest: its subscripts as integer forms, and —
/// from its first segment on, once the array's shape is known — the line
/// geometry and home function under the array's current placement.
struct NumaSimulator::AccessTable {
  const ArrayAccess *Acc = nullptr;
  std::vector<IntForm> Rows;   ///< Start index per array dimension.
  std::vector<int64_t> Stride; ///< Index step per innermost iteration.

  bool Ready = false;
  ArrayPlacement Placement;
  bool ZeroStride = false;  ///< The whole segment touches one line.
  int64_t ElemsPerLine = 1; ///< Iterations per cache line otherwise.
  unsigned Dim = 0;         ///< BlockedDim: the blocked dimension ...
  int64_t Extent = 1;       ///< ... its extent ...
  int64_t Block = 1;        ///< ... and the elements per cluster.
};

struct NumaSimulator::RunState {
  unsigned Procs = 1;
  unsigned ActiveClusters = 1;
  bool AllLocal = false; ///< Sequential-baseline mode.
  /// True when a planned CommSchedule drives message-passing costs:
  /// remote lines move at the hardware rate (the plan's bulk messages
  /// carry the software overhead) and per-line message counting is off.
  bool PlannedComm = false;
  /// Line latencies: home cluster (or all data local) vs remote. When both
  /// are integers, summing a segment's lines by group is exact.
  double LocalLat = 0.0, RemoteLat = 0.0;
  bool IntegerLatencies = false;
  std::map<unsigned, ArrayPlacement> Current;
  std::map<std::string, Rational> Bindings;
  SimResult Res;

  /// By array id. Evaluated at the array's first segment, where the
  /// Rational model first evaluated extents, so an extent that overflows
  /// throws at the same point.
  std::vector<ArrayShape> Shapes;

  /// The current nest, lowered at its entry.
  const LoopNest *Nest = nullptr;
  std::vector<std::vector<IntForm>> Lower, Upper; ///< Bound terms by level.
  std::vector<AccessTable> Accesses;              ///< In body order.

  /// Scratch shared by every chunk and segment of the run.
  std::vector<int64_t> Outer;            ///< Loop indices by level.
  std::vector<int64_t> RangeLo, RangeHi; ///< Per-level range of the chunk.
  std::vector<int64_t> LevelHi;          ///< Upper bound being iterated.
  std::vector<int64_t> Start, End, Idx;  ///< Array indices of a segment.

  const ArrayShape &shape(const Program &P, unsigned ArrayId);
  unsigned home(const AccessTable &A, const int64_t *Index) const;
};

const ArrayShape &NumaSimulator::RunState::shape(const Program &P,
                                                 unsigned ArrayId) {
  ArrayShape &Sh = Shapes[ArrayId];
  if (Sh.Ready)
    return Sh;
  const ArraySymbol &A = P.array(ArrayId);
  unsigned Rank = A.rank();
  Sh.Extents.assign(Rank, 1);
  Sh.Mults.assign(Rank, 1);
  Sh.Blocks.assign(Rank, 1);
  std::vector<double> Exact(Rank);
  int64_t Mult = 1;
  for (unsigned D = Rank; D != 0; --D) {
    Rational Ext = A.DimSizes[D - 1].evaluate(Bindings);
    Exact[D - 1] =
        static_cast<double>(Ext.num()) / static_cast<double>(Ext.den());
    int64_t Extent = std::max<int64_t>(rationalFloor(Ext), 1);
    Sh.Extents[D - 1] = Extent;
    Sh.Mults[D - 1] = Mult;
    Mult = wrapMul(Mult, Extent);
    Sh.Blocks[D - 1] = std::max<int64_t>(ceilDiv(Extent, ActiveClusters), 1);
  }
  double TotalElems = 1.0;
  for (unsigned D = 0; D != Rank; ++D)
    TotalElems *= std::max<double>(Exact[D], 1.0);
  // Pages fill the active clusters evenly in address order.
  Sh.FillShare = std::max(TotalElems / ActiveClusters, 1.0);
  Sh.Ready = true;
  return Sh;
}

unsigned NumaSimulator::RunState::home(const AccessTable &A,
                                       const int64_t *Index) const {
  switch (A.Placement.PKind) {
  case ArrayPlacement::Kind::Replicated:
    return UINT32_MAX; // Sentinel: every cluster has a copy.
  case ArrayPlacement::Kind::BlockedDim: {
    int64_t I = std::clamp<int64_t>(Index[A.Dim], 0, A.Extent - 1);
    return static_cast<unsigned>(I / A.Block);
  }
  case ArrayPlacement::Kind::LinearFill: {
    // Row-major linear offset -> page -> cluster in fill order.
    const ArrayShape &Sh = Shapes[A.Acc->ArrayId];
    int64_t Offset = 0;
    for (size_t D = 0; D != Sh.Extents.size(); ++D)
      Offset = wrapAdd(wrapMul(Offset, Sh.Extents[D]),
                       std::clamp<int64_t>(Index[D], 0, Sh.Extents[D] - 1));
    unsigned C = static_cast<unsigned>(Offset / Sh.FillShare);
    return std::min(C, ActiveClusters - 1);
  }
  }
  return 0;
}

NumaSimulator::RunState NumaSimulator::startRun(unsigned Procs,
                                                bool AllLocal) const {
  RunState S;
  S.Procs = Procs;
  S.ActiveClusters = std::max(
      1u, (Procs + M.ProcsPerCluster - 1) / std::max(1u, M.ProcsPerCluster));
  S.AllLocal = AllLocal;
  // One processor exchanges nothing: the planned schedule only applies
  // to actual multi-processor message-passing runs.
  S.PlannedComm = M.MessagePassing && !CommSched.empty() && Procs > 1;
  S.LocalLat = M.LocalCycles;
  // Under a planned schedule the data arrived in a pre-posted bulk
  // message: the line moves at the hardware rate, and the software
  // overhead is charged once per planned message in plannedNestComm().
  // Without a plan every remote line is a demand-driven fetch paying the
  // full per-message software overhead; amortizing it over bulk transfers
  // is exactly what the planned schedule buys.
  S.RemoteLat = S.PlannedComm ? M.RemoteCycles : M.remoteLineCost();
  S.IntegerLatencies = isInteger(S.LocalLat) && isInteger(S.RemoteLat);
  S.Bindings = P.SymbolBindings;
  for (const auto &[A, Pl] : InitialPlacement)
    S.Current[A] = Pl;
  S.Shapes.resize(P.Arrays.size());
  return S;
}

void NumaSimulator::lowerNest(const LoopNest &Nest, RunState &S) const {
  unsigned Depth = Nest.depth();
  S.Nest = &Nest;
  auto LowerTerms = [&](const std::vector<BoundTerm> &Terms,
                        std::vector<IntForm> &Out) {
    Out.assign(Terms.size(), IntForm());
    for (size_t K = 0; K != Terms.size(); ++K) {
      const Vector &C = Terms[K].OuterCoeffs;
      Out[K].Exact = C.size() == Depth;
      for (unsigned L = 0; L != C.size(); ++L)
        Out[K].addCoeff(L, C[L]);
      if (Out[K].Exact)
        Out[K].setConst(Terms[K].Const, S.Bindings);
    }
  };
  S.Lower.resize(Depth);
  S.Upper.resize(Depth);
  for (unsigned L = 0; L != Depth; ++L) {
    LowerTerms(Nest.Loops[L].Lower, S.Lower[L]);
    LowerTerms(Nest.Loops[L].Upper, S.Upper[L]);
  }

  size_t MaxRank = 0;
  S.Accesses.clear();
  for (const Statement &Stmt : Nest.Body)
    for (const ArrayAccess &Acc : Stmt.Accesses) {
      AccessTable A;
      A.Acc = &Acc;
      const Matrix &F = Acc.Map.linear();
      unsigned Rank = Acc.Map.arrayDim();
      MaxRank = std::max<size_t>(MaxRank, Rank);
      A.Rows.resize(Rank);
      A.Stride.resize(Rank);
      for (unsigned D = 0; D != Rank; ++D) {
        IntForm &Row = A.Rows[D];
        Row.Exact = F.cols() == Depth;
        for (unsigned L = 0; L != F.cols(); ++L)
          Row.addCoeff(L, F.at(D, L));
        if (Row.Exact)
          Row.setConst(Acc.Map.constant()[D], S.Bindings);
        A.Stride[D] = rationalFloor(F.at(D, Depth - 1));
      }
      S.Accesses.push_back(std::move(A));
    }

  S.Outer.resize(Depth);
  S.RangeLo.resize(Depth);
  S.RangeHi.resize(Depth);
  S.LevelHi.resize(Depth);
  S.Start.resize(MaxRank);
  S.End.resize(MaxRank);
  S.Idx.resize(MaxRank);
}

std::pair<int64_t, int64_t>
NumaSimulator::loopBounds(unsigned Level, const int64_t *Outer,
                          const RunState &S) const {
  const Loop &L = S.Nest->Loops[Level];
  unsigned Depth = S.Nest->depth();
  int64_t Lo = INT64_MIN, Hi = INT64_MAX;
  for (size_t K = 0; K != L.Lower.size(); ++K) {
    int64_t V;
    if (!S.Lower[Level][K].eval(Outer, V))
      V = rationalCeil(
          L.Lower[K].evaluate(iterVector(Outer, Depth), S.Bindings));
    Lo = std::max(Lo, V);
  }
  for (size_t K = 0; K != L.Upper.size(); ++K) {
    int64_t V;
    if (!S.Upper[Level][K].eval(Outer, V))
      V = rationalFloor(
          L.Upper[K].evaluate(iterVector(Outer, Depth), S.Bindings));
    Hi = std::min(Hi, V);
  }
  return {Lo, Hi};
}

//===----------------------------------------------------------------------===//
// Segment and chunk costing
//===----------------------------------------------------------------------===//

double NumaSimulator::segmentCost(unsigned Proc, AccessTable &A,
                                  int64_t Length, RunState &S) const {
  unsigned Rank = A.Rows.size();
  int64_t *Start = S.Start.data();
  bool HaveStart = true;
  for (unsigned D = 0; D != Rank && HaveStart; ++D)
    HaveStart = A.Rows[D].eval(S.Outer.data(), Start[D]);
  if (!HaveStart) {
    Vector StartQ = A.Acc->Map.evaluate(
        iterVector(S.Outer.data(), S.Nest->depth()), S.Bindings);
    for (unsigned D = 0; D != Rank; ++D)
      Start[D] = rationalFloor(StartQ[D]);
  }

  if (!A.Ready) {
    const ArraySymbol &Arr = P.array(A.Acc->ArrayId);
    const ArrayShape &Sh = S.shape(P, A.Acc->ArrayId);
    auto PlIt = S.Current.find(A.Acc->ArrayId);
    A.Placement = PlIt != S.Current.end() ? PlIt->second
                                          : ArrayPlacement::linearFill();
    // Row-major linear stride of one iteration step.
    int64_t LinStride = 0;
    for (unsigned D = 0; D != Rank; ++D)
      LinStride = wrapAdd(LinStride, wrapMul(A.Stride[D], Sh.Mults[D]));
    int64_t ByteStride =
        wrapMul(LinStride < 0 ? wrapMul(LinStride, -1) : LinStride,
                Arr.ElemBytes);
    A.ZeroStride = ByteStride == 0;
    A.ElemsPerLine = std::max<int64_t>(
        1, M.CacheLineBytes / std::max<int64_t>(ByteStride, 1));
    if (A.Placement.PKind == ArrayPlacement::Kind::BlockedDim) {
      A.Dim = std::min<unsigned>(A.Placement.Dim, Arr.rank() - 1);
      A.Extent = Sh.Extents[A.Dim];
      A.Block = Sh.Blocks[A.Dim];
    }
    A.Ready = true;
  }
  int64_t ElemsPerLine = A.ZeroStride ? Length : A.ElemsPerLine;
  int64_t Lines = A.ZeroStride ? 1 : ceilDiv(Length, ElemsPerLine);

  unsigned MyCluster = clusterOfProc(Proc);
  auto IsLocal = [&](unsigned Home) {
    return S.AllLocal || Home == UINT32_MAX || Home == MyCluster;
  };
  auto CountLines = [&](bool Local, double N) {
    if (Local) {
      S.Res.LocalLineFetches += N;
      return;
    }
    S.Res.RemoteLineFetches += N;
    // Unplanned message-passing: every remote line is a message. Planned
    // messages are counted when the schedule's ops are charged.
    if (M.MessagePassing && !S.PlannedComm)
      S.Res.MessagesSent += N;
  };

  int64_t *End = S.End.data();
  for (unsigned D = 0; D != Rank; ++D)
    End[D] = wrapAdd(Start[D], wrapMul(A.Stride[D], Length - 1));
  unsigned HomeStart = S.home(A, Start);
  unsigned HomeEnd = S.home(A, End);

  double Cost = 0.0;
  if (HomeStart == HomeEnd) {
    // Homogeneous segment: closed form.
    double Lat = IsLocal(HomeStart) ? S.LocalLat : S.RemoteLat;
    Cost = Lines * Lat + (Length - Lines) * M.CacheCycles;
    S.Res.CacheAccesses += Length - Lines;
    CountLines(IsLocal(HomeStart), static_cast<double>(Lines));
    return Cost;
  }
  // Crosses clusters (so several are active, and the blocked index moves).
  // Under BlockedDim the lines homed on this processor's cluster form one
  // interval, and with integer latencies the grouped sums equal the
  // line-by-line ones exactly.
  int64_t Local = -1;
  if (A.Placement.PKind == ArrayPlacement::Kind::BlockedDim &&
      S.IntegerLatencies &&
      static_cast<double>(Lines) *
              std::max(std::fabs(S.LocalLat), std::fabs(S.RemoteLat)) <
          0x1p53)
    Local = linesHomedOn(
        MyCluster, Start[A.Dim],
        static_cast<__int128>(A.Stride[A.Dim]) * ElemsPerLine, Lines,
        A.Extent, A.Block);
  if (Local >= 0) {
    int64_t Remote = Lines - Local;
    Cost = 0.0 + Local * S.LocalLat + Remote * S.RemoteLat;
    addOnes(S.Res.LocalLineFetches, Local);
    addOnes(S.Res.RemoteLineFetches, Remote);
    if (M.MessagePassing && !S.PlannedComm)
      addOnes(S.Res.MessagesSent, Remote);
  } else {
    // Walk line by line.
    int64_t *Idx = S.Idx.data();
    std::copy(Start, Start + Rank, Idx);
    for (int64_t L = 0; L != Lines; ++L) {
      bool Loc = IsLocal(S.home(A, Idx));
      Cost += Loc ? S.LocalLat : S.RemoteLat;
      CountLines(Loc, 1.0);
      for (unsigned D = 0; D != Rank; ++D)
        Idx[D] = wrapAdd(Idx[D], wrapMul(A.Stride[D], ElemsPerLine));
    }
  }
  Cost += (Length - Lines) * M.CacheCycles;
  S.Res.CacheAccesses += Length - Lines;
  return Cost;
}

double NumaSimulator::chunkCost(unsigned Proc, RunState &S) const {
  const LoopNest &Nest = *S.Nest;
  unsigned Depth = Nest.depth();
  int64_t *Outer = S.Outer.data();
  std::fill(Outer, Outer + Depth, 0);
  double Total = 0.0;

  // Iterative enumeration of all loops but the innermost; the innermost is
  // costed as a segment per statement access.
  unsigned Level = 0;
  while (true) {
    auto [Lo, Hi] = loopBounds(Level, Outer, S);
    Lo = std::max(Lo, S.RangeLo[Level]);
    Hi = std::min(Hi, S.RangeHi[Level]);
    if (Level + 1 != Depth && Lo <= Hi) {
      Outer[Level] = Lo;
      S.LevelHi[Level] = Hi;
      ++Level;
      continue;
    }
    if (Level + 1 == Depth && Hi - Lo + 1 > 0) {
      int64_t Len = Hi - Lo + 1;
      Outer[Level] = Lo;
      AccessTable *A = S.Accesses.data();
      for (const Statement &Stmt : Nest.Body) {
        Total += static_cast<double>(Stmt.WorkCycles) * Len;
        S.Res.ComputeCycles += static_cast<double>(Stmt.WorkCycles) * Len;
        for (size_t K = 0; K != Stmt.Accesses.size(); ++K) {
          double C = segmentCost(Proc, *A++, Len, S);
          Total += C;
          S.Res.MemoryCycles += C;
        }
      }
    }
    // Advance the innermost enclosing loop that has iterations left.
    do {
      if (Level == 0)
        return Total;
      --Level;
    } while (Outer[Level] >= S.LevelHi[Level]);
    ++Outer[Level];
    ++Level;
  }
}

//===----------------------------------------------------------------------===//
// Nest execution
//===----------------------------------------------------------------------===//

void NumaSimulator::reorganizeIfNeeded(unsigned NestId, RunState &S) {
  const LoopNest &Nest = P.nest(NestId);
  for (unsigned A : Nest.referencedArrays()) {
    auto Want = PlacementAt.find({A, NestId});
    if (Want == PlacementAt.end())
      continue;
    auto Cur = S.Current.find(A);
    if (Cur != S.Current.end() && Cur->second == Want->second)
      continue;
    if (Cur == S.Current.end() || S.ActiveClusters == 1) {
      // First touch (or a single cluster, where every layout coincides):
      // adopt without cost.
      S.Current[A] = Want->second;
      continue;
    }
    // Move the whole array: each active processor copies its share, one
    // remote read and one remote write per cache line.
    double Elems = 1.0;
    for (const SymAffine &Dim : P.array(A).DimSizes) {
      Rational V = Dim.evaluate(S.Bindings);
      Elems *= std::max<double>(
          static_cast<double>(V.num()) / static_cast<double>(V.den()), 1.0);
    }
    double Lines = Elems * P.array(A).ElemBytes / M.CacheLineBytes;
    double PerLine = S.PlannedComm ? M.RemoteCycles : M.bulkRemoteLineCost();
    double Cycles = std::max(
        Lines * 2.0 * PerLine / std::max(1u, S.Procs),
        Lines / std::max(M.RemoteLinesPerCycle, 1e-9));
    if (M.MessagePassing) {
      if (S.PlannedComm) {
        // The planned redistribute: one pre-arranged bulk exchange per
        // processor; the software overhead is paid once on the critical
        // path instead of per message.
        Cycles += M.MessageOverheadCycles;
        S.Res.MessagesSent += S.Procs;
      } else {
        S.Res.MessagesSent +=
            Lines * 2.0 / std::max(M.BulkLinesPerMessage, 1.0);
      }
    }
    S.Res.ReorgCycles += Cycles;
    S.Res.Cycles += Cycles;
    S.Current[A] = Want->second;
    Observe.count("sim.reorganizations");
  }
}

void NumaSimulator::plannedNestComm(unsigned NestId, RunState &S) const {
  auto It = CommSched.PerNest.find(NestId);
  if (It == CommSched.PerNest.end())
    return;
  double Cycles = 0.0;
  for (const CommScheduleOp &Op : It->second) {
    switch (Op.OpKind) {
    case CommScheduleOp::Kind::Shift:
      // One aggregated boundary exchange; every processor sends
      // concurrently, so the critical path pays the software overhead
      // once per planned message.
      Cycles += M.MessageOverheadCycles * Op.MessagesPerExecution;
      S.Res.MessagesSent += Op.MessagesPerExecution * S.Procs;
      break;
    case CommScheduleOp::Kind::BlockBoundary:
      // The per-block boundary train: overlapped isends hide everything
      // but the pipeline fill; otherwise each boundary pays the
      // overhead.
      Cycles += M.MessageOverheadCycles *
                (Op.Overlapped ? 1.0 : Op.MessagesPerExecution);
      S.Res.MessagesSent += Op.MessagesPerExecution * S.Procs;
      break;
    case CommScheduleOp::Kind::Broadcast: {
      double Hops = std::ceil(std::log2(std::max<double>(S.Procs, 2.0)));
      double Lines = Op.ElementsPerMessage * P.array(Op.ArrayId).ElemBytes /
                     std::max(1u, M.CacheLineBytes);
      Cycles += Op.MessagesPerExecution *
                (Hops * M.MessageOverheadCycles + Lines * M.RemoteCycles);
      S.Res.MessagesSent +=
          Op.MessagesPerExecution * std::max<double>(S.Procs - 1.0, 1.0);
      break;
    }
    case CommScheduleOp::Kind::Redistribute:
      // Cross-nest layout changes are charged by reorganizeIfNeeded's
      // placement walk; only access-level redistributes add their
      // per-execution exchange here.
      if (Op.CrossNest)
        break;
      Cycles += M.MessageOverheadCycles * Op.MessagesPerExecution;
      S.Res.MessagesSent += Op.MessagesPerExecution * S.Procs;
      break;
    }
  }
  S.Res.Cycles += Cycles;
  S.Res.MemoryCycles += Cycles;
}

void NumaSimulator::runNest(unsigned NestId, RunState &S) {
  const LoopNest &Nest = P.nest(NestId);
  reorganizeIfNeeded(NestId, S);
  if (S.PlannedComm)
    plannedNestComm(NestId, S);
  lowerNest(Nest, S);
  double RemoteBefore = S.Res.RemoteLineFetches;
  // Remote traffic of the whole nest is capped by the interconnect: the
  // nest cannot finish faster than the remote lines can move.
  auto BandwidthBound = [&](double ComputedTime) {
    double RemoteLines = S.Res.RemoteLineFetches - RemoteBefore;
    double MinTime = RemoteLines / std::max(M.RemoteLinesPerCycle, 1e-9);
    return std::max(ComputedTime, MinTime);
  };
  // Cost of Proc's chunk: loop DLevel restricted to [DLo, DHi] and loop
  // BLevel to [BLo, BHi] (pass the same range twice for one loop).
  auto Chunk = [&](unsigned Proc, unsigned DLevel, int64_t DLo, int64_t DHi,
                   unsigned BLevel, int64_t BLo, int64_t BHi) {
    std::fill(S.RangeLo.begin(), S.RangeLo.end(), INT64_MIN);
    std::fill(S.RangeHi.begin(), S.RangeHi.end(), INT64_MAX);
    S.RangeLo[DLevel] = std::max(S.RangeLo[DLevel], DLo);
    S.RangeHi[DLevel] = std::min(S.RangeHi[DLevel], DHi);
    S.RangeLo[BLevel] = std::max(S.RangeLo[BLevel], BLo);
    S.RangeHi[BLevel] = std::min(S.RangeHi[BLevel], BHi);
    return chunkCost(Proc, S);
  };
  // Forall and Pipelined strips are sized from the distributed loop's
  // range at outer index 0.
  std::vector<int64_t> Zero(Nest.depth(), 0);
  auto RangeAtZero = [&](unsigned Level) {
    return loopBounds(Level, Zero.data(), S);
  };

  NestSchedule Sched;
  auto SIt = Schedules.find(NestId);
  if (SIt != Schedules.end())
    Sched = SIt->second;
  if (S.Procs == 1)
    Sched.ExecMode = NestSchedule::Mode::Sequential;

  switch (Sched.ExecMode) {
  case NestSchedule::Mode::Sequential: {
    double T = Chunk(0, 0, INT64_MIN, INT64_MAX, 0, INT64_MIN, INT64_MAX);
    S.Res.Cycles += BandwidthBound(T);
    return;
  }
  case NestSchedule::Mode::Forall: {
    unsigned Level = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    auto [Lo, Hi] = RangeAtZero(Level);
    int64_t Extent = std::max<int64_t>(Hi - Lo + 1, 1);
    int64_t Strip = ceilDiv(Extent, S.Procs);
    double MaxT = 0.0;
    for (unsigned Pr = 0; Pr != S.Procs; ++Pr) {
      int64_t SLo = Lo + Pr * Strip;
      int64_t SHi = std::min<int64_t>(SLo + Strip - 1, Hi);
      if (SLo > SHi)
        continue;
      double T = Chunk(Pr, Level, SLo, SHi, Level, SLo, SHi);
      MaxT = std::max(MaxT, T);
    }
    S.Res.Cycles += BandwidthBound(MaxT) + M.BarrierCycles;
    S.Res.SyncCycles += M.BarrierCycles;
    return;
  }
  case NestSchedule::Mode::Wavefront2D: {
    // Figure 3(b): a near-square processor grid owns one 2-d block each;
    // block (r, c) waits for (r-1, c) and (r, c-1). Only the blocks on
    // one anti-diagonal run concurrently, so processors idle during the
    // pipeline fill and drain.
    unsigned DLevel = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    unsigned BLevel = std::min<unsigned>(Sched.PipeLoop, Nest.depth() - 1);
    unsigned PR = 1;
    while ((PR + 1) * (PR + 1) <= S.Procs)
      ++PR;
    unsigned PC = S.Procs / PR;
    auto [DLo, DHi] = RangeAtZero(DLevel);
    auto [BLo, BHi] = RangeAtZero(BLevel);
    int64_t RStrip = ceilDiv(std::max<int64_t>(DHi - DLo + 1, 1), PR);
    int64_t CStrip = ceilDiv(std::max<int64_t>(BHi - BLo + 1, 1), PC);
    std::vector<std::vector<double>> Finish(PR,
                                            std::vector<double>(PC, 0.0));
    double Total = 0.0, SyncTotal = 0.0;
    for (unsigned R = 0; R != PR; ++R)
      for (unsigned C = 0; C != PC; ++C) {
        int64_t RLo = DLo + R * RStrip;
        int64_t RHi2 = std::min<int64_t>(RLo + RStrip - 1, DHi);
        int64_t CLo = BLo + C * CStrip;
        int64_t CHi = std::min<int64_t>(CLo + CStrip - 1, BHi);
        double Cost = 0.0;
        if (RLo <= RHi2 && CLo <= CHi)
          Cost = Chunk(R * PC + C, DLevel, RLo, RHi2, BLevel, CLo, CHi);
        double Ready = 0.0;
        if (R > 0) {
          Ready = std::max(Ready, Finish[R - 1][C] + M.SyncCycles);
          SyncTotal += M.SyncCycles;
        }
        if (C > 0) {
          Ready = std::max(Ready, Finish[R][C - 1] + M.SyncCycles);
          SyncTotal += M.SyncCycles;
        }
        Finish[R][C] = Ready + Cost;
        Total = std::max(Total, Finish[R][C]);
      }
    S.Res.Cycles += BandwidthBound(Total) + M.BarrierCycles;
    S.Res.SyncCycles += SyncTotal + M.BarrierCycles;
    return;
  }
  case NestSchedule::Mode::Pipelined: {
    unsigned DLevel = std::min<unsigned>(Sched.DistLoop, Nest.depth() - 1);
    unsigned BLevel = std::min<unsigned>(Sched.PipeLoop, Nest.depth() - 1);
    auto [DLo, DHi] = RangeAtZero(DLevel);
    auto [BLo, BHi] = RangeAtZero(BLevel);
    int64_t DExtent = std::max<int64_t>(DHi - DLo + 1, 1);
    int64_t BExtent = std::max<int64_t>(BHi - BLo + 1, 1);
    int64_t Strip = ceilDiv(DExtent, S.Procs);
    int64_t BS = std::max<int64_t>(Sched.BlockSize, 1);
    int64_t NumBlocks = ceilDiv(BExtent, BS);
    // Wavefront DP over (proc, block).
    std::vector<double> PrevRow(NumBlocks, 0.0);
    double Finish = 0.0;
    double SyncTotal = 0.0;
    for (unsigned Pr = 0; Pr != S.Procs; ++Pr) {
      int64_t SLo = DLo + Pr * Strip;
      int64_t SHi = std::min<int64_t>(SLo + Strip - 1, DHi);
      std::vector<double> Row(NumBlocks, 0.0);
      double PrevInRow = 0.0;
      for (int64_t B = 0; B != NumBlocks; ++B) {
        double Ready = PrevInRow;
        if (Pr > 0)
          Ready = std::max(Ready, PrevRow[B] + M.SyncCycles);
        double Cost = 0.0;
        if (SLo <= SHi) {
          int64_t CLo = BLo + B * BS;
          int64_t CHi = std::min<int64_t>(CLo + BS - 1, BHi);
          Cost = Chunk(Pr, DLevel, SLo, SHi, BLevel, CLo, CHi);
          // Synchronization is not free for the processor either: the
          // wait/signal pair occupies it once per block.
          Cost += M.SyncCycles;
        }
        Row[B] = Ready + Cost;
        if (Pr > 0)
          SyncTotal += M.SyncCycles;
        PrevInRow = Row[B];
        Finish = std::max(Finish, Row[B]);
      }
      PrevRow = std::move(Row);
    }
    S.Res.Cycles += BandwidthBound(Finish) + M.BarrierCycles;
    S.Res.SyncCycles += SyncTotal + M.BarrierCycles;
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Structure-tree walk
//===----------------------------------------------------------------------===//

void NumaSimulator::runNodes(const std::vector<ProgramNode> &Nodes,
                             RunState &S) {
  for (const ProgramNode &N : Nodes) {
    switch (N.NodeKind) {
    case ProgramNode::Kind::Nest:
      runNest(N.NestId, S);
      break;
    case ProgramNode::Kind::SequentialLoop: {
      Rational TripQ = N.TripCount.evaluate(S.Bindings);
      int64_t Trip = std::max<int64_t>(rationalFloor(TripQ), 0);
      if (Trip == 0)
        break;
      // Simulate the first iteration (placements settle), then one steady
      // iteration, and extrapolate the remaining Trip - 2.
      Rational SavedBinding;
      bool HadBinding = S.Bindings.count(N.IndexName);
      if (HadBinding)
        SavedBinding = S.Bindings[N.IndexName];
      S.Bindings[N.IndexName] = SavedBinding; // Lower bound value.
      runNodes(N.Children, S);
      if (Trip > 1) {
        SimResult AfterFirst = S.Res;
        S.Bindings[N.IndexName] = SavedBinding + Rational(1);
        runNodes(N.Children, S);
        if (Trip > 2) {
          double K = static_cast<double>(Trip - 2);
          auto Extrapolate = [&](double SimResult::*F) {
            S.Res.*F += (S.Res.*F - AfterFirst.*F) * K;
          };
          Extrapolate(&SimResult::Cycles);
          Extrapolate(&SimResult::ComputeCycles);
          Extrapolate(&SimResult::MemoryCycles);
          Extrapolate(&SimResult::ReorgCycles);
          Extrapolate(&SimResult::SyncCycles);
          Extrapolate(&SimResult::CacheAccesses);
          Extrapolate(&SimResult::LocalLineFetches);
          Extrapolate(&SimResult::RemoteLineFetches);
          Extrapolate(&SimResult::MessagesSent);
        }
      }
      if (HadBinding)
        S.Bindings[N.IndexName] = SavedBinding;
      break;
    }
    case ProgramNode::Kind::Branch: {
      // Expected cost: weight each arm; keep the likelier arm's state.
      RunState ThenS = S;
      runNodes(N.Children, ThenS);
      RunState ElseS = S;
      runNodes(N.ElseChildren, ElseS);
      double P1 = N.TakenProbability;
      RunState &Keep = P1 >= 0.5 ? ThenS : ElseS;
      double Blend = P1 * ThenS.Res.Cycles + (1 - P1) * ElseS.Res.Cycles;
      Keep.Res.Cycles = Blend;
      S = std::move(Keep);
      break;
    }
    }
  }
}

namespace {

/// Injection site at the head of every simulation run; a fault surfaces
/// as AlpException for the tool-level stage guard.
FailPoint FpSimulateRun("machine.simulate.run");

} // namespace

SimResult NumaSimulator::run(unsigned NumProcs) {
  TraceSpan Span(Observe.Trace, "sim.run", NumProcs);
  FpSimulateRun.evaluateOrThrow();
  Observe.count("sim.runs");
  RunState S = startRun(std::max(1u, std::min(NumProcs, M.NumProcs)),
                        /*AllLocal=*/false);
  if (S.PlannedComm) {
    // One-time prologue operations (hoisted broadcasts): a log-depth
    // forwarding tree, each stage one bulk message.
    for (const CommScheduleOp &Op : CommSched.Prologue) {
      double Hops = std::ceil(std::log2(std::max<double>(S.Procs, 2.0)));
      double Lines = Op.ElementsPerMessage * P.array(Op.ArrayId).ElemBytes /
                     std::max(1u, M.CacheLineBytes);
      double C = Op.MessagesPerExecution *
                 (Hops * M.MessageOverheadCycles + Lines * M.RemoteCycles);
      S.Res.Cycles += C;
      S.Res.MemoryCycles += C;
      S.Res.MessagesSent +=
          Op.MessagesPerExecution * std::max<double>(S.Procs - 1.0, 1.0);
    }
  }
  runNodes(P.TopLevel, S);
  if (Observe.Metrics)
    S.Res.publishTo(*Observe.Metrics);
  return S.Res;
}

double NumaSimulator::sequentialCycles() {
  RunState S = startRun(1, /*AllLocal=*/true);
  runNodes(P.TopLevel, S);
  return S.Res.Cycles;
}
