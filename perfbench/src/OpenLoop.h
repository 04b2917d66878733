//===- perfbench/src/OpenLoop.h - Open-loop load generation -----*- C++ -*-===//
///
/// \file
/// An open-loop client: requests are due on a fixed schedule whatever the
/// server does, and each is timed from its due time, so a stall also
/// charges the requests queued behind it. A fixed set of connections
/// (one thread each) claims requests in due order; a request that finds
/// every connection busy waits for one, and that wait is reported apart
/// from the generator's own lateness (how far a free connection woke up
/// past the due time). A run whose generator fell behind is invalid: it
/// measured the client, not the server.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OPENLOOP_H
#define PERFBENCH_OPENLOOP_H

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// Timestamps of one request, in ms from the schedule's start.
struct OpenLoopTiming {
  double DueMs = 0;  ///< When the schedule wanted it sent.
  double FreeMs = 0; ///< When its connection became free to take it.
  double SendMs = 0; ///< When it was handed to the connection.
  double DoneMs = 0; ///< When its reply was complete.
  bool Ok = false;   ///< Reply received and accepted.

  double clientWaitMs() const { return FreeMs > DueMs ? FreeMs - DueMs : 0; }
  double generatorLateMs() const {
    return SendMs - (FreeMs > DueMs ? FreeMs : DueMs);
  }
};

/// Sends request I at DueMs[I] (ascending) over \p Connections
/// connections; \p Send(Conn, I) performs one request and returns whether
/// it succeeded. The calling thread serves connection 0.
std::vector<OpenLoopTiming>
runOpenLoop(const std::vector<double> &DueMs, unsigned Connections,
            const std::function<bool(unsigned, size_t)> &Send);

struct OpenLoopSummary {
  size_t Requests = 0, Failed = 0;
  /// Latency from due time to reply. A failed request counts as the whole
  /// schedule's length, i.e. beyond any latency limit.
  std::vector<double> LatencyMs;
  double ClientWaitMs = 0;     ///< Sum over requests.
  double GeneratorLateP99Ms = 0;
  /// Requests still waiting to be sent a millisecond after the last due
  /// time (all requests are due by then).
  size_t BacklogAtEnd = 0;
  /// False when the generator itself fell behind (GeneratorLateP99Ms over
  /// the limit); such a run is not reported as slow.
  bool Valid = true;
};

OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopTiming> &T,
                                  double LateLimitMs);

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_H
