//===- perfbench/src/Support.cpp - Benchmark statistics, digests, spans ---===//

#include "Support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

static size_t nearestRank(size_t N, double Q) {
  // Rank ceil(Q * N), computed with a small tolerance so that e.g.
  // 0.99 * 1000 lands on 990 and not on 991 through rounding.
  double R = std::ceil(Q * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(R), 1, N);
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[nearestRank(V.size(), Q) - 1];
}

size_t samplesBeyond(size_t N, double Q) {
  return N == 0 ? 0 : N - nearestRank(N, Q);
}

double highestTailPercentile(size_t N, size_t MinBeyond) {
  for (double Q : {0.999, 0.995, 0.99, 0.95, 0.90, 0.75, 0.50})
    if (samplesBeyond(N, Q) >= MinBeyond)
      return Q;
  return 0;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

void SpeedProbe::probe() {
  Clock::time_point T0 = Clock::now();
  std::map<uint64_t, double> M;
  uint64_t X = 88172645463325252ull;
  for (int I = 0; I != 20000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    M[X % 50021] += I * 0.5;
  }
  double Sum = 0;
  for (const auto &KV : M)
    Sum += KV.second;
  static volatile double Sink;
  Sink = Sum;
  Prev = Last;
  Last = msSince(T0);
}

uint64_t fnv1a(std::string_view Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

std::string replyDigest(int Exit, const std::string &Out,
                        const std::string &Err) {
  uint64_t H = fnv1a(std::to_string(Exit));
  H = fnv1a(std::string_view("\0", 1), H);
  H = fnv1a(Out, H);
  H = fnv1a(std::string_view("\0", 1), H);
  return hex64(fnv1a(Err, H));
}

std::string doubleBits(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return hex64(Bits);
}

bool Reference::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read reference '" + Path + "'";
    return false;
  }
  Values.clear();
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos || Sp == 0 || Sp + 1 == Line.size()) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed reference line";
      return false;
    }
    Values[Line.substr(0, Sp)] = Line.substr(Sp + 1);
  }
  return true;
}

bool Reference::save(const std::string &Path, std::string &Err) const {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "# perfbench reference outputs: key, then a 64-bit FNV-1a digest of\n"
         "# (exit, stdout, stderr) or the bits of a simulated cycle total.\n"
         "# Regenerate only when outputs change on purpose (README.md).\n";
  for (const auto &[K, V] : Values)
    Out << K << ' ' << V << '\n';
  if (!Out.flush()) {
    Err = "cannot write reference '" + Path + "'";
    return false;
  }
  return true;
}

const std::string *Reference::find(const std::string &Key) const {
  auto It = Values.find(Key);
  return It == Values.end() ? nullptr : &It->second;
}

void RunReport::fail(const std::string &Why) {
  ++Failed;
  // Keep stderr readable when one defect fails thousands of requests.
  if (Problems.size() < 20)
    Problems.push_back(Why);
}

bool RunReport::check(bool Ok, const std::string &What) {
  if (!Ok)
    fail(What);
  return Ok;
}

bool RunReport::expect(const std::string &Key, const std::string &Actual) {
  if (RecordInto) {
    RecordInto->set(Key, Actual);
    return true;
  }
  const std::string *Want = Expected ? Expected->find(Key) : nullptr;
  if (!Want)
    return check(false, "no recorded reference for " + Key);
  return check(*Want == Actual, "output of " + Key + " is " + Actual +
                                    ", recorded " + *Want);
}

void RunReport::metric(const std::string &Name, double Value,
                       const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

std::string RunReport::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(M.Value) ? M.Value : 0.0);
    OS << (First ? "" : ", ") << '"' << Name << "\": {\"value\": " << Buf
       << ", \"unit\": \"" << M.Unit << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

int SpanLog::open(const std::string &Name, bool InPipeline) {
  Span S;
  S.Name = Name;
  S.StartMs = msSince(Origin);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = CurrentRequest;
  S.InPipeline = InPipeline;
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanLog::close(int Index) {
  Spans[Index].EndMs = msSince(Origin);
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

double SpanLog::counter(const std::string &Name) const {
  auto It = Counts.find(Name);
  return It == Counts.end() ? 0 : It->second;
}

double SpanLog::totalMs(const std::string &Name) const {
  double T = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      T += S.ms();
  return T;
}

size_t SpanLog::spanCount(const std::string &Name) const {
  size_t N = 0;
  for (const Span &S : Spans)
    N += S.Name == Name;
  return N;
}

double SpanLog::maxMs(const std::string &Name) const {
  double M = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      M = std::max(M, S.ms());
  return M;
}

double SpanLog::pipelineMs(uint64_t Request) const {
  double T = 0;
  for (const Span &S : Spans)
    if (S.Request == Request && S.Parent == -1 && S.InPipeline)
      T += S.ms();
  return T;
}

std::string SpanLog::json() const {
  std::ostringstream OS;
  OS << "{\"traceEvents\": [";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f", S.StartMs * 1e3,
                  S.ms() * 1e3);
    OS << (I ? ",\n" : "\n") << "{\"name\": \"" << S.Name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << Buf
       << ", \"args\": {\"id\": " << I << ", \"parent\": " << S.Parent
       << ", \"request\": " << S.Request
       << ", \"pipeline\": " << (S.InPipeline ? "true" : "false") << "}}";
  }
  OS << "\n]}\n";
  return OS.str();
}

} // namespace perfbench
