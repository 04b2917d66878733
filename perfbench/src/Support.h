//===- perfbench/src/Support.h - Benchmark statistics, digests, spans -----===//
///
/// \file
/// The benchmark's own helpers, kept apart from the workloads so the
/// self-tests (tests/selftest.cpp) can pin them:
///
///   - order statistics: median, nearest-rank percentiles, the "highest
///     percentile with at least ten samples beyond it" rule, and the
///     geometric mean used for per-program averages;
///   - output digests (64-bit FNV-1a) and the reference table recorded in
///     perfbench/reference/ that every run's outputs must match;
///   - RunReport, which counts attempted and failed operations and renders
///     the one-line JSON result;
///   - SpanLog, the in-memory span recorder of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

//===--- Order statistics ---------------------------------------------------===//

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);

/// Nearest-rank percentile: the sample at rank ceil(Q * N), 1-based, with
/// Q in (0, 1]. 0 when empty.
double percentile(std::vector<double> V, double Q);

/// Number of samples strictly beyond the nearest-rank percentile \p Q of
/// \p N samples: N - ceil(Q * N).
size_t samplesBeyond(size_t N, double Q);

/// The highest percentile of the ladder 99.9, 99.5, 99, 95, 90, 75, 50
/// that has at least \p MinBeyond of \p N samples beyond it, as a fraction
/// (0.99 for p99); 0 when even the median has fewer.
double highestTailPercentile(size_t N, size_t MinBeyond = 10);

/// Geometric mean of strictly positive values; 0 when empty.
double geomean(const std::vector<double> &V);

//===--- Machine-speed calibration ------------------------------------------===//

/// Scales in-process timings to a reference machine speed. On a shared
/// machine one core's speed drifts by up to 2x for seconds at a time, and
/// the simulator and single-shot compiles slow down with it. probe()
/// times a fixed kernel of the benchmark's own (map inserts over a
/// pseudo-random key stream; no alp code, so no change to alp moves it)
/// on the calling thread. scale() multiplies a time by RefMs over the mean
/// of the last two probes, so a timing bracketed by probes is scaled to a
/// machine on which the kernel takes RefMs, about its time on a quiet
/// 4-core x86-64 virtual machine.
class SpeedProbe {
public:
  static constexpr double RefMs = 4.0;
  void probe();
  double scale(double Ms) const { return Ms * RefMs * 2 / (Prev + Last); }

private:
  double Prev = RefMs, Last = RefMs;
};

//===--- Digests and the recorded reference --------------------------------===//

/// FNV-1a, 64-bit, continuing from \p H.
uint64_t fnv1a(std::string_view Bytes, uint64_t H = 14695981039346656037ull);

/// 16 lower-case hex digits.
std::string hex64(uint64_t V);

/// Digest of one compile answer: exit code, stdout bytes, stderr bytes.
std::string replyDigest(int Exit, const std::string &Out, const std::string &Err);

/// Bit pattern of a double as 16 hex digits (bit-identical comparison).
std::string doubleBits(double V);

/// Key -> value table recorded at a known-good commit
/// (perfbench/reference/outputs.txt): one "key value" pair per line.
class Reference {
public:
  /// Reads \p Path; false with a reason in \p Err when unreadable or
  /// malformed.
  bool load(const std::string &Path, std::string &Err);
  bool save(const std::string &Path, std::string &Err) const;

  /// The recorded value, or nullptr when \p Key was never recorded.
  const std::string *find(const std::string &Key) const;
  void set(const std::string &Key, const std::string &Value) {
    Values[Key] = Value;
  }
  size_t size() const { return Values.size(); }

private:
  std::map<std::string, std::string> Values;
};

//===--- The run's result ---------------------------------------------------===//

/// Operation tallies, output checks, and metrics of one benchmark run.
class RunReport {
public:
  /// Counts \p N attempted operations.
  void attempt(size_t N = 1) { Attempted += N; }

  /// Counts one failed operation; \p Why is kept for stderr.
  void fail(const std::string &Why);

  /// Counts one failed operation when \p Ok is false. Returns \p Ok.
  bool check(bool Ok, const std::string &What);

  /// Checks \p Actual against the reference value of \p Key. In record
  /// mode (a non-null RecordInto) stores it instead.
  bool expect(const std::string &Key, const std::string &Actual);

  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Drops every metric whose name satisfies \p Drop.
  template <typename Pred> void eraseMetrics(Pred Drop) {
    std::erase_if(Metrics, [&](const auto &KV) { return Drop(KV.first); });
  }

  const Reference *Expected = nullptr;
  Reference *RecordInto = nullptr;

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  bool correct() const { return Failed == 0; }
  const std::vector<std::string> &problems() const { return Problems; }

  /// The one-line result: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

  /// Process exit status for this result: 0 when every check passed.
  int exitCode() const { return correct() ? 0 : 1; }

private:
  struct Metric {
    double Value;
    std::string Unit;
  };
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  std::map<std::string, Metric> Metrics;
};

//===--- Spans of the traced run -------------------------------------------===//

/// In-memory span recorder. A span has a name, start and end (ms since the
/// log's origin), the index of its parent span (-1 at top level), and the
/// id of the request it belongs to. Spans are written out once, at the
/// end of the run.
class SpanLog {
public:
  struct Span {
    std::string Name;
    double StartMs = 0, EndMs = 0;
    int Parent = -1;
    uint64_t Request = 0;
    /// False for standalone replays that are not a step of the pipeline
    /// (they are excluded from the pipeline-order layer sum).
    bool InPipeline = true;
    double ms() const { return EndMs - StartMs; }
  };

  SpanLog() : Origin(Clock::now()) {}

  /// Starts a new request; later spans carry its id.
  uint64_t beginRequest() { return ++CurrentRequest; }
  uint64_t currentRequest() const { return CurrentRequest; }

  /// Opens a span nested under the innermost open one; returns its index.
  int open(const std::string &Name, bool InPipeline = true);
  void close(int Index);

  /// Adds \p Delta to the named per-layer counter.
  void count(const std::string &Name, double Delta = 1) { Counts[Name] += Delta; }
  double counter(const std::string &Name) const;

  /// Sum, number, and maximum of the durations of spans named \p Name.
  double totalMs(const std::string &Name) const;
  size_t spanCount(const std::string &Name) const;
  double maxMs(const std::string &Name) const;

  /// Sum of pipeline-order top-level spans of request \p Request.
  double pipelineMs(uint64_t Request) const;

  /// Chrome trace-event JSON of every span.
  std::string json() const;

private:
  Clock::time_point Origin;
  uint64_t CurrentRequest = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::map<std::string, double> Counts;
};

/// Runs \p F inside a span named \p Name when \p Log is non-null; with a
/// null log it only calls \p F, so untraced runs pay nothing.
template <typename Fn>
decltype(auto) spanned(SpanLog *Log, const char *Name, Fn &&F,
                       bool InPipeline = true) {
  if (!Log)
    return F();
  struct Closer {
    SpanLog *L;
    int I;
    ~Closer() { L->close(I); }
  } C{Log, Log->open(Name, InPipeline)};
  return F();
}

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_H
