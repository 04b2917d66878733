//===- perfbench/src/OpenLoop.cpp - Open-loop load generation -------------===//

#include "OpenLoop.h"
#include "Support.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {

std::vector<OpenLoopTiming>
runOpenLoop(const std::vector<double> &DueMs, unsigned Connections,
            const std::function<bool(unsigned, size_t)> &Send) {
  std::vector<OpenLoopTiming> T(DueMs.size());
  std::atomic<size_t> Next{0};
  const Clock::time_point Start = Clock::now();

  auto Serve = [&](unsigned Conn) {
    for (;;) {
      double FreeMs = msSince(Start);
      size_t I = Next.fetch_add(1);
      if (I >= DueMs.size())
        return;
      std::this_thread::sleep_until(
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(DueMs[I])));
      OpenLoopTiming &R = T[I];
      R.DueMs = DueMs[I];
      R.FreeMs = FreeMs;
      R.SendMs = msSince(Start);
      try {
        R.Ok = Send(Conn, I);
      } catch (...) {
        R.Ok = false;
      }
      R.DoneMs = msSince(Start);
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned C = 1; C < Connections; ++C)
    Threads.emplace_back(Serve, C);
  Serve(0);
  for (std::thread &Th : Threads)
    Th.join();
  return T;
}

OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopTiming> &T,
                                  double LateLimitMs) {
  OpenLoopSummary S;
  S.Requests = T.size();
  if (T.empty())
    return S;
  double EndDue = T.back().DueMs;
  double Span = 0;
  for (const OpenLoopTiming &R : T)
    Span = std::max(Span, R.DoneMs);
  std::vector<double> Late;
  for (const OpenLoopTiming &R : T) {
    S.Failed += !R.Ok;
    S.LatencyMs.push_back(R.Ok ? R.DoneMs - R.DueMs : Span);
    S.ClientWaitMs += R.clientWaitMs();
    Late.push_back(R.generatorLateMs());
    S.BacklogAtEnd += R.SendMs > EndDue + 1.0;
  }
  S.GeneratorLateP99Ms = percentile(Late, 0.99);
  S.Valid = S.GeneratorLateP99Ms <= LateLimitMs;
  return S;
}

} // namespace perfbench
