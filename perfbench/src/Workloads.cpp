//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//

#include "Workloads.h"
#include "OpenLoop.h"
#include "Pipeline.h"
#include "Process.h"

#include "alp.h"
#include "gen/Generator.h"
#include "service/Batch.h"
#include "service/DecompositionCache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace alp;

namespace perfbench {

namespace {

//===--- Inputs --------------------------------------------------------------===//

/// The corpus pool: programs 0..PoolSize-1 of the alp_gen corpus for
/// PoolSeed. A run's corpus and service traffic are seeded draws from it,
/// so every request has its output recorded in the reference.
constexpr uint64_t PoolSeed = 93;
constexpr size_t PoolSize = 1000;
constexpr size_t CorpusSize = 700;
constexpr size_t AlpcSampleSize = 40;

/// The service mix's flags lines; the first is also the compile-corpus
/// flags line (without --jobs, which never changes output).
const std::vector<std::string> ServiceFlags = {
    "--spmd --emit=comm-plan", "--machine=touchstone --emit=spmd",
    "--comm --procs=16 --block=8"};

/// The paper and example programs of the sim phase.
struct PaperProgram {
  const char *Name;
  const char *Path;
};
const std::vector<PaperProgram> PaperPrograms = {
    {"adi", "testdata/adi.alp"},         {"conduct", "testdata/conduct.alp"},
    {"exchange", "testdata/exchange.alp"}, {"fig1", "testdata/fig1.alp"},
    {"fig5", "testdata/fig5.alp"},       {"matmul", "testdata/matmul.alp"},
    {"stencil", "testdata/stencil.alp"}, {"jacobi", "examples/jacobi.alp"},
    {"trisolve", "examples/trisolve.alp"}};
const std::vector<std::string> Machines = {"dash", "touchstone"};
/// Programs whose simulation takes milliseconds: the sim phase's set when
/// another phase leads the workload.
const std::set<std::string> ProbeSimPrograms = {"exchange", "fig5", "jacobi"};

/// Service traffic shape. The open-loop rate is about 40% of the
/// closed-loop capacity (--calibrate-service, ~3300/s) measured on a
/// 4-core x86-64 box: a little under half, so that a slower spell of a
/// shared machine does not saturate alpd and turn the run into a
/// queueing test.
constexpr double ServiceRate = 1300;
constexpr unsigned ServiceConnections = 4;
/// COMPILEs repeating a recent request: enough that the median operation
/// is a hit (parse, key, lookup) and misses make the tail.
constexpr unsigned HitPercent = 80;
constexpr size_t BatchEvery = 200;    ///< Slots between BATCH pairs.
constexpr size_t BatchItems = 8;
constexpr size_t MinServiceOps = 1000;
/// Below the distinct requests of every run, so the cache evicts.
constexpr size_t ServiceCacheEntries = 256;
/// A run whose generator wakes this late (p99) measured the client.
constexpr double GeneratorLateLimitMs = 20;

/// Minimum samples for a p99 with ten samples beyond it.
constexpr size_t MinTailSamples = 1000;

/// A phase's share of the run. Work comes in units (a round of requests,
/// a sweep, a process); another unit starts only while, judging by the
/// longest unit so far, it would end within the budget.
class TimeBudget {
public:
  explicit TimeBudget(double Seconds)
      : Start(Clock::now()), Last(Start), Seconds(Seconds) {}

  /// Marks the end of a unit; true when another one fits.
  bool another() {
    Clock::time_point Now = Clock::now();
    Longest = std::max(Longest, msBetween(Last, Now) / 1000);
    Last = Now;
    return msBetween(Start, Now) / 1000 + Longest <= Seconds;
  }

private:
  Clock::time_point Start, Last;
  double Seconds;
  double Longest = 0;
};

unsigned jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string jobsFlag() { return "--jobs=" + std::to_string(jobs()); }
std::string compileFlags() { return ServiceFlags[0] + " " + jobsFlag(); }
std::string simFlags(const std::string &Machine) {
  return "--simulate --procs=32 " + jobsFlag() + " --machine=" + Machine;
}

std::string poolKey(size_t PoolIndex, size_t Flags) {
  return "pool." + std::to_string(PoolIndex) + ".f" + std::to_string(Flags);
}

std::vector<std::string> splitWords(const std::string &S) {
  std::istringstream In(S);
  std::vector<std::string> Words;
  for (std::string W; In >> W;)
    Words.push_back(W);
  return Words;
}

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  return true;
}

/// Figure 7's conduct kernel (the same source bench/fig7_conduct_speedup
/// compiles), at problem size N x N over T time steps.
std::string conductSource(int64_t N, int64_t T) {
  return R"(
program conduct;
param N = )" + std::to_string(N) +
         R"(, T = )" + std::to_string(T) + R"(;
array X[N + 1, N + 1], Y[N + 1, N + 1], Z[N + 1, N + 1];
array W[N + 1, N + 1], V[N + 1, N + 1];
for t = 1 to T {
  forall i = 0 to N {
    forall j = 0 to N {
      Y[i, j] = f1(X[i, j], Z[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      Z[i, j] = f2(Y[i, j], X[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      W[i, j] = f3(Y[i, j], Z[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      V[i, j] = f4(W[i, j], X[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    for j = 1 to N {
      X[i, j] = f5(X[i, j], X[i, j - 1], Y[i, j]) @cost(20);
    }
  }
  forall j = 0 to N {
    for i = 1 to N {
      X[i, j] = f6(X[i, j], X[i - 1, j], Z[i, j]) @cost(20);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      Y[i, j] = f7(Y[i, j], X[i, j], V[i, j]) @cost(12);
    }
  }
  forall i = 0 to N {
    forall j = 0 to N {
      Z[i, j] = f8(Z[i, j], W[i, j], Y[i, j]) @cost(12);
    }
  }
}
)";
}

struct SimPair {
  std::string Key; ///< Reference key prefix: paper.<program>.sim-<machine>.
  CompileRequest Req;
};

/// One service operation: a COMPILE of one request, or a BATCH of several.
/// Requests are ids into the universe pool x ServiceFlags.
struct ServiceOp {
  bool Batch = false;
  std::vector<size_t> Items;
};

size_t universeSize() { return PoolSize * ServiceFlags.size(); }
size_t poolOf(size_t U) { return U / ServiceFlags.size(); }
size_t flagsOf(size_t U) { return U % ServiceFlags.size(); }

/// The seeded service schedule: \p Count COMPILE slots at \p Rate per
/// second; every BatchEvery-th slot instead sends two BATCHes at once.
/// A COMPILE repeats a recent fresh request with HitPercent probability
/// (a read), else sends the next fresh request (a compile plus a cache
/// insert). \p Seed picks the hits and the BATCH items. Fresh requests
/// walk one fixed permutation of the universe: a short run sends only a
/// few hundred of them, and a seed-dependent choice would move the p99,
/// which the slowest misses set, from run to run.
void makeServiceSchedule(uint64_t Seed, double Rate, size_t Count,
                         std::vector<double> &Due,
                         std::vector<ServiceOp> &Ops) {
  std::vector<size_t> Perm(universeSize());
  for (size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  std::mt19937_64 Fixed(PoolSeed);
  for (size_t I = Perm.size(); I > 1; --I)
    std::swap(Perm[I - 1], Perm[Fixed() % I]);
  std::mt19937_64 G(Seed * 0x9E3779B97F4A7C15ull + 0x5e41ce);
  size_t NextFresh = 0;
  std::vector<size_t> History;
  auto Fresh = [&] {
    size_t U = Perm[NextFresh++ % Perm.size()];
    History.push_back(U);
    return U;
  };
  // Repeats come from fresh requests sent 16..256 fresh requests ago:
  // old enough to have been answered, recent enough to be resident.
  auto Repeat = [&] {
    if (History.size() < 32)
      return Fresh();
    size_t Hi = History.size() - 16, Lo = Hi > 240 ? Hi - 240 : 0;
    return History[Lo + G() % (Hi - Lo)];
  };
  Due.clear();
  Ops.clear();
  for (size_t I = 0; I != Count; ++I) {
    double At = 1000.0 * static_cast<double>(I) / Rate;
    if (I % BatchEvery == BatchEvery - 1) {
      for (int B = 0; B != 2; ++B) {
        ServiceOp Op;
        Op.Batch = true;
        for (size_t K = 0; K != BatchItems; ++K)
          Op.Items.push_back(K % 2 ? Fresh() : Repeat());
        Due.push_back(At);
        Ops.push_back(std::move(Op));
      }
      continue;
    }
    ServiceOp Op;
    Op.Items.push_back(G() % 100 < HitPercent ? Repeat() : Fresh());
    Due.push_back(At);
    Ops.push_back(std::move(Op));
  }
}

//===--- The workload plans --------------------------------------------------===//

/// Share of the run's time each phase gets in an untraced run. Every
/// phase also has a floor of work (one round, two sweeps, MinTailSamples
/// samples, two batch runs, one alpc pass, MinServiceOps operations), so
/// a phase with a small share still yields a steady figure.
struct Plan {
  bool AllSimPairs = false;
  double Sim = 0, Fig7 = 0, Single = 0, Batch = 0, Alpc = 0, Service = 0;
};

Plan planFor(const std::string &Workload) {
  if (Workload == "sim-paper")
    return {true, 0.40, 0.25, 0.08, 0.06, 0.07, 0.10};
  if (Workload == "compile-corpus")
    return {false, 0.03, 0.0, 0.28, 0.12, 0.12, 0.10};
  return {false, 0.03, 0.0, 0.08, 0.05, 0.06, 0.45}; // service-mix
}

//===--- Run state -------------------------------------------------------------===//

/// Totals for the whole-run trace metrics.
struct TraceTotals {
  double UntracedMs = 0;   ///< Session calls of replayed requests.
  double PipelineMs = 0;   ///< Pipeline-order spans of their replays.
  double ReplayWallMs = 0; ///< Replay wall time minus standalone spans.
};

struct Run {
  const Options &O;
  Plan P;
  RunReport &R;
  SpanLog *Log = nullptr; ///< Non-null in the traced run.
  TraceTotals Totals;

  // Inputs, built by setUp().
  std::vector<std::string> Pool;
  std::vector<SimPair> Sims;
  std::vector<size_t> Corpus; ///< Pool indices.
  std::vector<CompileRequest> CorpusReqs;
  std::vector<std::string> AlpcFiles; ///< Corpus[0..AlpcSampleSize).
  std::vector<double> ServiceDue;
  std::vector<ServiceOp> ServiceOps;

  ChildProcess Alpd;
  std::string Socket;

  Run(const Options &O, RunReport &R) : O(O), P(planFor(O.Workload)), R(R) {}

  double budgetSeconds(double Share) const { return Share * O.Seconds; }

  bool setUp(std::string &Err);
  bool startAlpd(std::string &Err);
  bool stopAlpd();

  /// Session call of \p Req, timed, checked against \p Key; in the traced
  /// run also replayed layer by layer and compared.
  double compileChecked(const CompileRequest &Req, const std::string &Key,
                        SessionRun *Out = nullptr);

  void phaseSim();
  void phaseFig7();
  void phaseSingle();
  void phaseBatch();
  void phaseAlpc();
  bool phaseService(std::string &Invalid);
  void traceSummary();
};

bool Run::setUp(std::string &Err) {
  Pool.clear();
  for (size_t I = 0; I != PoolSize; ++I)
    Pool.push_back(gen::generateProgram(PoolSeed, I).Source);

  Sims.clear();
  for (const PaperProgram &PP : PaperPrograms) {
    if (!P.AllSimPairs && !ProbeSimPrograms.count(PP.Name))
      continue;
    std::string Source;
    if (!readFile(PP.Path, Source)) {
      Err = std::string("cannot read ") + PP.Path;
      return false;
    }
    for (const std::string &M : Machines) {
      SimPair SP;
      SP.Key = std::string("paper.") + PP.Name + ".sim-" + M;
      if (!makeRequest(simFlags(M), Source, SP.Req, Err))
        return false;
      Sims.push_back(std::move(SP));
    }
  }

  // The run's corpus: a seeded draw without replacement from the pool.
  std::mt19937_64 G(O.Seed);
  std::vector<size_t> Idx(PoolSize);
  for (size_t I = 0; I != PoolSize; ++I)
    Idx[I] = I;
  for (size_t I = 0; I != CorpusSize; ++I)
    std::swap(Idx[I], Idx[I + G() % (PoolSize - I)]);
  Corpus.assign(Idx.begin(), Idx.begin() + CorpusSize);
  CorpusReqs.clear();
  for (size_t PI : Corpus) {
    CompileRequest Req;
    if (!makeRequest(compileFlags(), Pool[PI], Req, Err))
      return false;
    CorpusReqs.push_back(std::move(Req));
  }

  // Parse every input once: a program that no longer parses is a broken
  // benchmark input, not a measurement.
  for (const CompileRequest &Req : CorpusReqs) {
    DiagnosticEngine Diags;
    if (!compileDsl(Req.Source, Diags)) {
      Err = "corpus program does not parse: " + Diags.str();
      return false;
    }
  }
  for (const SimPair &SP : Sims) {
    DiagnosticEngine Diags;
    if (!compileDsl(SP.Req.Source, Diags)) {
      Err = SP.Key + " does not parse: " + Diags.str();
      return false;
    }
  }

  AlpcFiles.clear();
  for (size_t I = 0; I != AlpcSampleSize; ++I) {
    std::string Path =
        O.WorkDir + "/" + gen::generateProgram(PoolSeed, Corpus[I]).FileName;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Pool[Corpus[I]];
    if (!Out.flush()) {
      Err = "cannot write " + Path;
      return false;
    }
    AlpcFiles.push_back(Path);
  }

  size_t Count = std::max<size_t>(
      MinServiceOps,
      static_cast<size_t>(ServiceRate * budgetSeconds(P.Service)));
  makeServiceSchedule(O.Seed, ServiceRate, Count, ServiceDue, ServiceOps);

  if (!startAlpd(Err))
    return false;

  // Warm-up: fault in the code and the allocator's arenas.
  for (size_t I = 0; I != 8; ++I)
    runSession(CorpusReqs[I]);
  return true;
}

bool Run::startAlpd(std::string &Err) {
  Socket = O.WorkDir + "/alpd.sock";
  ::unlink(Socket.c_str());
  if (!Alpd.start({O.Alpd, "--socket=" + Socket,
                   "--threads=" + std::to_string(jobs()),
                   "--cache-entries=" + std::to_string(ServiceCacheEntries)},
                  O.WorkDir + "/alpd.log")) {
    Err = "cannot start " + O.Alpd;
    return false;
  }
  const Clock::time_point Deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < Deadline) {
    AlpdConnection C;
    if (C.open(Socket) && C.ping())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Err = "alpd did not answer PING (see " + O.WorkDir + "/alpd.log)";
  Alpd.wait(0);
  return false;
}

bool Run::stopAlpd() {
  AlpdConnection C;
  bool Sent = C.open(Socket) && C.shutdown();
  return Alpd.wait(Sent ? 20000 : 0) == 0 && Sent;
}

double Run::compileChecked(const CompileRequest &Req, const std::string &Key,
                           SessionRun *Out) {
  Clock::time_point T0 = Clock::now();
  SessionRun S = runSession(Req);
  double Ms = msSince(T0);
  R.attempt();
  if (R.check(S.A.succeeded(),
              Key + " exited " + std::to_string(S.A.Exit) + ": " + S.A.Err))
    R.expect(Key, S.A.digest());
  if (Log) {
    Replay Rp = replayPipeline(Req, *Log);
    std::string Diff = compareReplay(Rp, S);
    R.check(Diff.empty(), Key + ": traced replay differs: " + Diff);
    Totals.UntracedMs += Ms;
    Totals.PipelineMs += Log->pipelineMs(Log->currentRequest());
    Totals.ReplayWallMs += Rp.PipelineWallMs;
    for (size_t I = 0; I != Rp.SimCycles.size(); ++I)
      R.expect(Key + ".p" + std::to_string(1u << I), doubleBits(Rp.SimCycles[I]));
  }
  if (Out)
    *Out = std::move(S);
  return Ms;
}

//===--- Phases -------------------------------------------------------------===//

void Run::phaseSim() {
  std::vector<std::vector<double>> Ms(Sims.size());
  TimeBudget Budget(budgetSeconds(P.Sim));
  SpeedProbe Speed;
  do {
    for (size_t I = 0; I != Sims.size(); ++I) {
      Speed.probe();
      double Raw = compileChecked(Sims[I].Req, Sims[I].Key);
      Speed.probe();
      Ms[I].push_back(Speed.scale(Raw));
    }
  } while (!Log && Budget.another());
  std::vector<double> PerPair;
  for (const std::vector<double> &V : Ms)
    PerPair.push_back(median(V));
  R.metric("sim_geomean_ms", geomean(PerPair), "ms");
}

/// Figure 7 at the paper's size: sequential baseline, then the four
/// strategies at 1..32 processors (bench/fig7_conduct_speedup's calls).
void Run::phaseFig7() {
  MachineParams M;
  M.NumProcs = 32;
  M.ProcsPerCluster = 4;
  M.CacheCycles = 1.0;
  M.LocalCycles = 29.0;
  M.RemoteCycles = 120.0;
  const std::vector<unsigned> Procs = {1, 2, 4, 8, 16, 32};
  const char *Names[4] = {"noopt", "static", "dynamic", "pipe"};
  // Each step of the sweep (parse plus sequential baseline, then one
  // strategy at one processor count) is timed between two speed probes;
  // the metric is the sum over steps of each step's median over sweeps.
  std::vector<std::vector<double>> StepMs;
  TimeBudget Budget(budgetSeconds(P.Fig7));
  SpeedProbe Speed;
  for (unsigned Sweep = 0;; ++Sweep) {
    if (Log)
      Log->beginRequest();
    size_t StepIndex = 0;
    // The probe after one step is also the probe before the next.
    Speed.probe();
    Clock::time_point StepStart = Clock::now();
    auto EndStep = [&] {
      double Raw = msSince(StepStart);
      Speed.probe();
      if (StepIndex == StepMs.size())
        StepMs.emplace_back();
      StepMs[StepIndex++].push_back(Speed.scale(Raw));
      StepStart = Clock::now();
    };
    DiagnosticEngine Diags;
    std::optional<Program> Parsed = spanned(
        Log, "frontend.parse", [&] { return compileDsl(conductSource(1023, 5), Diags); },
        false);
    R.attempt();
    if (!R.check(Parsed.has_value(), "fig7: conduct does not parse"))
      return;
    const Program &Prog = *Parsed;
    auto Simulate = [&](NumaSimulator &Sim, unsigned Pr) {
      SimResult SR =
          spanned(Log, "machine.sim_run", [&] { return Sim.run(Pr); }, false);
      if (Log)
        Log->count("machine.sim_runs");
      return SR.Cycles;
    };
    auto Hand = [&](unsigned Dim, unsigned Pr) {
      NumaSimulator Sim(Prog, M);
      for (unsigned A = 0; A != Prog.Arrays.size(); ++A)
        Sim.setStaticPlacement(A, ArrayPlacement::blockedDim(Dim));
      for (const LoopNest &Nest : Prog.Nests) {
        NestSchedule S;
        S.ExecMode = NestSchedule::Mode::Forall;
        S.DistLoop = Nest.firstParallelLoop();
        Sim.setSchedule(Nest.Id, S);
      }
      return Simulate(Sim, Pr);
    };
    auto Compiler = [&](bool Blocking, unsigned Pr) {
      Program Copy = Prog;
      DriverOptions DO;
      DO.EnableBlocking = Blocking;
      Expected<ProgramDecomposition> PD = spanned(
          Log, "core.decompose", [&] { return decomposeOrError(Copy, M, DO); },
          false);
      if (!PD.hasValue())
        return -1.0;
      NumaSimulator Sim(Copy, M);
      spanned(Log, "machine.apply", [&] { applyDecomposition(Sim, Copy, *PD); },
              false);
      return Simulate(Sim, Pr);
    };
    NumaSimulator SeqSim(Prog, M);
    for (unsigned A = 0; A != Prog.Arrays.size(); ++A)
      SeqSim.setStaticPlacement(A, ArrayPlacement::blockedDim(0));
    double Seq = spanned(Log, "machine.sequential",
                         [&] { return SeqSim.sequentialCycles(); }, false);
    EndStep();
    double Cycles[4][6];
    for (size_t K = 0; K != Procs.size(); ++K) {
      Cycles[0][K] = Hand(1, Procs[K]);
      EndStep();
      Cycles[1][K] = Hand(0, Procs[K]);
      EndStep();
      Cycles[2][K] = Compiler(false, Procs[K]);
      EndStep();
      Cycles[3][K] = Compiler(true, Procs[K]);
      EndStep();
    }

    R.expect("fig7.seq", doubleBits(Seq));
    for (int S = 0; S != 4; ++S)
      for (size_t K = 0; K != Procs.size(); ++K)
        R.expect(std::string("fig7.") + Names[S] + ".p" + std::to_string(Procs[K]),
                 doubleBits(Cycles[S][K]));
    // The five shape checks of bench/fig7_conduct_speedup at 32 procs.
    double Sp[4];
    for (int S = 0; S != 4; ++S)
      Sp[S] = Seq / Cycles[S][5];
    R.check(Sp[0] < Sp[1], "fig7: static must beat no optimization");
    R.check(Sp[1] < Sp[2], "fig7: dynamic must beat static");
    R.check(Sp[2] < Sp[3], "fig7: pipelining must beat reorganization");
    R.check(Sp[3] / Sp[1] > 1.5, "fig7: dynamic+pipe must be >= 1.5x static");
    R.check(Sp[0] < 8.0, "fig7: no-opt must saturate below linear");
    bool More = Budget.another();
    if (Log || (!More && Sweep >= 1))
      break;
  }
  double TotalMs = 0;
  for (const std::vector<double> &Ms : StepMs)
    TotalMs += median(Ms);
  R.metric("fig7_paper_s", TotalMs / 1000, "s");
}

void Run::phaseSingle() {
  std::vector<double> Ms;
  TimeBudget Budget(budgetSeconds(P.Single));
  SpeedProbe Speed;
  for (size_t K = 0;; ++K) {
    size_t I = K % CorpusReqs.size();
    // A compile takes about a millisecond; probing every 16 keeps the
    // probe's cost under a third of the phase. A compile is scaled by the
    // probes at the start of its group of 16 and of the group before.
    if (K % 16 == 0)
      Speed.probe();
    Ms.push_back(
        Speed.scale(compileChecked(CorpusReqs[I], poolKey(Corpus[I], 0))));
    bool More = Budget.another();
    if (Log ? K + 1 == CorpusReqs.size() : !More && Ms.size() >= MinTailSamples)
      break;
  }
  R.check(Log || highestTailPercentile(Ms.size()) >= 0.99,
          "too few compiles for a p99 with ten samples beyond it");
  R.metric("compile_p50_ms", median(Ms), "ms");
  R.metric("compile_p99_ms", percentile(Ms, 0.99), "ms");
}

void Run::phaseBatch() {
  std::vector<double> Rates;
  TimeBudget Budget(budgetSeconds(P.Batch));
  do {
    BatchOptions BO;
    BO.Jobs = jobs();
    BatchSession Session(BO);
    Clock::time_point T0 = Clock::now();
    std::vector<BatchItemResult> Items = spanned(
        Log, "batch.run", [&] { return Session.run(CorpusReqs); }, false);
    double Secs = msSince(T0) / 1000;
    Rates.push_back(static_cast<double>(CorpusReqs.size()) / Secs);
    R.attempt(CorpusReqs.size());
    R.check(Items.size() == CorpusReqs.size(), "batch: result count differs");
    for (size_t I = 0; I != std::min(Items.size(), Corpus.size()); ++I) {
      const BatchItemResult &It = Items[I];
      std::string Key = "batch:" + poolKey(Corpus[I], 0);
      if (R.check(It.ExitCode == 0 || It.ExitCode == 4,
                  Key + " exited " + std::to_string(It.ExitCode)))
        R.expect(poolKey(Corpus[I], 0),
                 replyDigest(It.ExitCode, It.Output, It.Error));
    }
    if (Log)
      for (const char *C : {"batch.compiles", "batch.dedup_hits", "batch.cache_hits"})
        Log->count(C, static_cast<double>(Session.metrics().counter(C)));
  } while (!Log && (Budget.another() || Rates.size() < 2));
  R.metric("batch_programs_per_s", median(Rates), "1/s");
}

void Run::phaseAlpc() {
  std::vector<double> Floor;
  for (int I = 0; I != 20; ++I) {
    ProcessResult PR = runProcess({"true"});
    if (PR.Started && PR.ExitCode == 0)
      Floor.push_back(PR.WallMs);
  }
  std::vector<std::string> Flags = splitWords(compileFlags());
  std::vector<double> Ms;
  TimeBudget Budget(budgetSeconds(P.Alpc));
  do {
    for (size_t I = 0; I != AlpcFiles.size(); ++I) {
      std::vector<std::string> Argv = {O.Alpc, AlpcFiles[I]};
      Argv.insert(Argv.end(), Flags.begin(), Flags.end());
      ProcessResult PR = runProcess(Argv);
      R.attempt();
      std::string Key = poolKey(Corpus[I], 0);
      if (R.check(PR.Started && (PR.ExitCode == 0 || PR.ExitCode == 4),
                  "alpc " + AlpcFiles[I] + " exited " +
                      std::to_string(PR.ExitCode) + ": " + PR.Err)) {
        R.expect(Key, replyDigest(PR.ExitCode, PR.Out, PR.Err));
        Ms.push_back(PR.WallMs);
      }
    }
  } while (!Log && Budget.another());
  double ProcMs = median(Ms);
  R.metric("alpc_process_ms", ProcMs, "ms");
  if (Log) {
    // The in-process cost of the same programs, for process.startup_ms.
    std::vector<double> InProc;
    for (size_t I = 0; I != AlpcFiles.size(); ++I) {
      Clock::time_point T0 = Clock::now();
      runSession(CorpusReqs[I]);
      InProc.push_back(msSince(T0));
    }
    R.metric("process.exec_floor_ms", median(Floor), "ms");
    R.metric("process.startup_ms", ProcMs - median(Floor) - median(InProc), "ms");
  }
}

bool Run::phaseService(std::string &Invalid) {
  struct ItemReply {
    int Exit = -1;
    bool Hit = false;
    std::string Digest;
  };
  std::vector<std::vector<ItemReply>> Replies(ServiceOps.size());
  AlpdConnection Conns[ServiceConnections];
  for (AlpdConnection &C : Conns)
    if (!C.open(Socket)) {
      Invalid = "cannot connect to alpd";
      return false;
    }
  auto Payload = [&](size_t U) {
    return ServiceFlags[flagsOf(U)] + "\n" + Pool[poolOf(U)];
  };
  auto Send = [&](unsigned Conn, size_t I) {
    AlpdConnection &C = Conns[Conn];
    const ServiceOp &Op = ServiceOps[I];
    std::vector<AlpdConnection::Reply> Got;
    bool Ok;
    if (Op.Batch) {
      std::vector<std::string> Payloads;
      for (size_t U : Op.Items)
        Payloads.push_back(Payload(U));
      Ok = C.batch(Payloads, Got);
    } else {
      Got.resize(1);
      Ok = C.compile(Payload(Op.Items[0]), Got[0]);
    }
    if (!Ok) {
      C.open(Socket); // A broken connection fails this request only.
      return false;
    }
    for (const AlpdConnection::Reply &G : Got)
      Replies[I].push_back({G.Exit, G.Hit, replyDigest(G.Exit, G.Out, G.Err)});
    return true;
  };
  std::vector<OpenLoopTiming> T =
      runOpenLoop(ServiceDue, ServiceConnections, Send);
  // alpd holds one worker per open connection: free them before STATS.
  for (AlpdConnection &C : Conns)
    C.close();

  std::string Stats;
  AlpdConnection StatsConn;
  bool HaveStats = StatsConn.open(Socket) && StatsConn.stats(Stats);

  // Checks: every reply succeeded, matches the recorded output, and is
  // byte-identical (by digest) to the in-process session bytes.
  std::map<size_t, std::string> Live; // Universe id -> in-process digest.
  for (size_t I = 0; I != ServiceOps.size(); ++I)
    for (size_t U : ServiceOps[I].Items)
      Live[U];
  std::vector<size_t> Distinct;
  for (const auto &KV : Live)
    Distinct.push_back(KV.first);
  auto RequestFor = [&](size_t U, CompileRequest &Req) {
    std::string Err;
    return makeRequest(ServiceFlags[flagsOf(U)], Pool[poolOf(U)], Req, Err);
  };
  if (Log) {
    for (size_t U : Distinct) {
      CompileRequest Req;
      if (!RequestFor(U, Req))
        continue;
      SessionRun SR;
      compileChecked(Req, poolKey(poolOf(U), flagsOf(U)), &SR);
      Live[U] = SR.A.digest();
    }
  } else {
    std::atomic<size_t> Next{0};
    std::vector<std::string> Digest(Distinct.size());
    auto Work = [&] {
      for (size_t K; (K = Next.fetch_add(1)) < Distinct.size();) {
        CompileRequest Req;
        if (RequestFor(Distinct[K], Req))
          Digest[K] = runSession(Req).A.digest();
      }
    };
    std::vector<std::thread> Th;
    for (unsigned I = 1; I < jobs(); ++I)
      Th.emplace_back(Work);
    Work();
    for (std::thread &X : Th)
      X.join();
    for (size_t K = 0; K != Distinct.size(); ++K)
      Live[Distinct[K]] = Digest[K];
  }

  std::vector<double> HitRtt, MissRtt, BatchRtt;
  for (size_t I = 0; I != ServiceOps.size(); ++I) {
    const ServiceOp &Op = ServiceOps[I];
    R.attempt();
    if (!T[I].Ok || Replies[I].size() != Op.Items.size()) {
      R.fail("service op " + std::to_string(I) + ": no reply");
      continue;
    }
    bool Good = true;
    for (size_t K = 0; K != Op.Items.size(); ++K) {
      size_t U = Op.Items[K];
      const ItemReply &Rep = Replies[I][K];
      std::string Key = poolKey(poolOf(U), flagsOf(U));
      Good &= R.check(Rep.Exit == 0 || Rep.Exit == 4,
                      "alpd " + Key + " exited " + std::to_string(Rep.Exit)) &&
              R.check(Rep.Digest == Live[U],
                      "alpd reply for " + Key + " differs from in-process bytes") &&
              R.expect(Key, Rep.Digest);
    }
    if (!Good)
      T[I].Ok = false;
    double Rtt = T[I].DoneMs - T[I].SendMs;
    (Op.Batch ? BatchRtt : Replies[I][0].Hit ? HitRtt : MissRtt).push_back(Rtt);
  }
  OpenLoopSummary S = summarizeOpenLoop(T, GeneratorLateLimitMs);
  if (!S.Valid) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "the load generator fell behind its schedule (p99 %.1f ms "
                  "late, limit %.0f ms)",
                  S.GeneratorLateP99Ms, GeneratorLateLimitMs);
    Invalid = Buf;
    return false;
  }
  R.check(highestTailPercentile(S.LatencyMs.size()) >= 0.99,
          "too few service operations for a p99 with ten samples beyond it");
  R.metric("service_p50_ms", median(S.LatencyMs), "ms");
  R.metric("service_p99_ms", percentile(S.LatencyMs, 0.99), "ms");

  if (Log) {
    // What alpd does per request before its cache lookup: parse the
    // flags, parse the source, build the canonical key.
    for (const ServiceOp &Op : ServiceOps)
      for (size_t U : Op.Items) {
        Log->beginRequest();
        CompileRequest Req;
        if (!RequestFor(U, Req))
          continue;
        DiagnosticEngine Diags;
        std::optional<Program> Prog = spanned(
            Log, "frontend.parse", [&] { return compileDsl(Req.Source, Diags); },
            false);
        Log->count("frontend.parses");
        if (Prog)
          spanned(Log, "service.key",
                  [&] { return canonicalRequestKey(Req, *Prog); }, false);
      }
    R.check(HaveStats, "alpd STATS failed");
    double Requests = static_cast<double>(statsCounter(Stats, "service.requests"));
    R.metric("service.hit_ratio",
             Requests ? statsCounter(Stats, "service.cache_hits") / Requests : 0,
             "ratio");
    R.metric("service.evictions",
             static_cast<double>(statsCounter(Stats, "service.cache_evictions")),
             "count");
    R.metric("service.compile_failures",
             static_cast<double>(statsCounter(Stats, "service.compile_failures")),
             "count");
    R.metric("service.hit_rtt_p50_ms", median(HitRtt), "ms");
    R.metric("service.miss_rtt_p50_ms", median(MissRtt), "ms");
    R.metric("service.batch_rtt_p50_ms", median(BatchRtt), "ms");
    R.metric("service.client_wait_ms",
             S.ClientWaitMs / static_cast<double>(std::max<size_t>(1, S.Requests)),
             "ms");
    R.metric("service.generator_late_ms", S.GeneratorLateP99Ms, "ms");
    R.metric("service.backlog_end", static_cast<double>(S.BacklogAtEnd), "count");
  }
  return true;
}

void Run::traceSummary() {
  const SpanLog &L = *Log;
  auto Ms = [&](const char *Metric, const char *Span) {
    R.metric(Metric, L.totalMs(Span), "ms");
  };
  auto Count = [&](const char *Metric, const char *Counter) {
    R.metric(Metric, L.counter(Counter), "count");
  };
  Ms("frontend.parse_ms", "frontend.parse");
  Count("frontend.parses", "frontend.parses");
  Ms("transform.local_phase_ms", "transform.local_phase");
  Ms("analysis.dependence_ms", "analysis.dependence");
  Count("analysis.dependences", "analysis.dependences");
  Ms("analysis.schedule_verify_ms", "analysis.schedule_verify");
  Ms("core.decompose_ms", "core.decompose");
  Ms("core.report_ms", "core.report");
  Count("core.degraded", "core.degraded");
  Ms("codegen.emit_spmd_ms", "codegen.emit_spmd");
  Ms("codegen.plan_comm_ms", "codegen.plan_comm");
  Ms("codegen.comm_analysis_ms", "codegen.comm_analysis");
  Count("codegen.planned_messages", "codegen.planned_messages");
  Ms("machine.apply_ms", "machine.apply");
  Ms("machine.sequential_ms", "machine.sequential");
  Ms("machine.sim_run_ms", "machine.sim_run");
  Count("machine.sim_runs", "machine.sim_runs");
  R.metric("machine.sim_run_max_ms", L.maxMs("machine.sim_run"), "ms");
  Ms("service.key_ms", "service.key");
  Ms("batch.run_ms", "batch.run");
  Count("batch.compiles", "batch.compiles");
  Count("batch.dedup_hits", "batch.dedup_hits");
  Count("batch.cache_hits", "batch.cache_hits");
  R.metric("unattributed_ms", Totals.UntracedMs - Totals.PipelineMs, "ms");
  R.metric("trace.overhead_ratio",
           Totals.UntracedMs ? Totals.ReplayWallMs / Totals.UntracedMs : 0,
           "ratio");
}

const std::set<std::string> EndToEnd = {
    "setup_s",         "sim_geomean_ms", "fig7_paper_s",
    "compile_p50_ms",  "compile_p99_ms", "batch_programs_per_s",
    "alpc_process_ms", "service_p50_ms", "service_p99_ms"};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"sim-paper", "compile-corpus",
                                                 "service-mix"};
  return Names;
}

bool runWorkload(const Options &O, RunReport &Report, std::string &Invalid) {
  Run W(O, Report);
  SpanLog Log;
  if (O.Trace)
    W.Log = &Log;

  // Set-up runs seven times (the last one is kept) and reports the median.
  std::vector<double> SetupSeconds;
  for (int I = 0; I != 7; ++I) {
    if (I)
      W.stopAlpd();
    Clock::time_point T0 = Clock::now();
    if (!W.setUp(Invalid))
      return false;
    SetupSeconds.push_back(msSince(T0) / 1000);
  }
  Report.metric("setup_s", median(SetupSeconds), "s");

  // Phase wall times go to stderr, to show where a run spent its time.
  auto Timed = [&](const char *Name, auto &&Phase) {
    Clock::time_point T0 = Clock::now();
    std::fprintf(stderr, "phase %s ...", Name);
    auto Result = Phase();
    std::fprintf(stderr, " %.2f s\n", msSince(T0) / 1000);
    return Result;
  };
  Timed("sim", [&] { W.phaseSim(); return true; });
  Timed("fig7", [&] { W.phaseFig7(); return true; });
  Timed("single", [&] { W.phaseSingle(); return true; });
  Timed("batch", [&] { W.phaseBatch(); return true; });
  Timed("alpc", [&] { W.phaseAlpc(); return true; });
  bool Valid = Timed("service", [&] { return W.phaseService(Invalid); });
  Report.check(W.stopAlpd(), "alpd did not shut down cleanly");
  if (!Valid)
    return false;
  if (O.Trace) {
    W.traceSummary();
    std::ofstream(O.WorkDir + "/spans.json") << Log.json();
  }
  // A traced run reports the per-layer metrics only, an untraced run the
  // end-to-end ones only.
  Report.eraseMetrics(
      [&](const std::string &Name) { return EndToEnd.count(Name) == O.Trace; });
  return true;
}

void recordReference(const Options &O, Reference &Ref, RunReport &R) {
  R.RecordInto = &Ref;
  Options Full = O;
  Full.Workload = "sim-paper";
  Run W(Full, R);
  SpanLog Log;
  W.Log = &Log;
  std::string Err;
  if (!W.setUp(Err)) {
    R.fail(Err);
    return;
  }
  W.stopAlpd();
  W.phaseSim();
  W.phaseFig7();
  for (size_t PI = 0; PI != PoolSize; ++PI)
    for (size_t F = 0; F != ServiceFlags.size(); ++F) {
      CompileRequest Req;
      if (!makeRequest(ServiceFlags[F], W.Pool[PI], Req, Err)) {
        R.fail(Err);
        continue;
      }
      SessionRun S = runSession(Req);
      R.attempt();
      if (R.check(S.A.succeeded(), poolKey(PI, F) + " exited " +
                                       std::to_string(S.A.Exit)))
        Ref.set(poolKey(PI, F), S.A.digest());
    }
}

double measureServiceCapacity(const Options &O, RunReport &R) {
  Run W(O, R);
  std::string Err;
  if (!W.setUp(Err)) {
    R.fail(Err);
    return 0;
  }
  // Closed loop: each connection sends its next operation as soon as the
  // previous reply arrives, over the same seeded mix as the open loop.
  std::vector<double> Due;
  makeServiceSchedule(O.Seed, 1, 4000, Due, W.ServiceOps);
  Due.assign(W.ServiceOps.size(), 0.0);
  std::vector<std::unique_ptr<AlpdConnection>> Conns;
  for (unsigned C = 0; C != ServiceConnections; ++C) {
    Conns.push_back(std::make_unique<AlpdConnection>());
    Conns.back()->open(W.Socket);
  }
  Clock::time_point T0 = Clock::now();
  runOpenLoop(Due, ServiceConnections, [&](unsigned C, size_t I) {
    const ServiceOp &Op = W.ServiceOps[I];
    std::vector<std::string> Payloads;
    for (size_t U : Op.Items)
      Payloads.push_back(ServiceFlags[flagsOf(U)] + "\n" + W.Pool[poolOf(U)]);
    std::vector<AlpdConnection::Reply> Got(1);
    return Op.Batch ? Conns[C]->batch(Payloads, Got)
                    : Conns[C]->compile(Payloads[0], Got[0]);
  });
  double Secs = msSince(T0) / 1000;
  Conns.clear();
  W.stopAlpd();
  return static_cast<double>(W.ServiceOps.size()) / Secs;
}

} // namespace perfbench
