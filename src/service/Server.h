//===- service/Server.h - The alpd compilation service ----------*- C++ -*-===//
///
/// \file
/// The long-lived compilation daemon behind tools/alpd.cpp: a Unix-domain
/// stream socket server that answers compile requests with the exact
/// bytes the alpc CLI would produce, served from the process-wide
/// DecompositionCache when the canonical request key repeats.
///
/// Line protocol (all replies end the header line with '\n'; payloads
/// are length-prefixed and binary-safe):
///
///   PING                     -> PONG
///   STATS                    -> STATS <len>\n<counters JSON>
///   COMPILE <len>\n<payload> -> RESULT <exit> <hit|miss> <outlen>
///                               <errlen>\n<stdout bytes><stderr bytes>
///   BATCH <n>                -> n RESULT replies (request order), then
///     then n blocks, each        BATCHSTATS <len>\n<report JSON>
///     <len>\n<payload>
///   QUIT                     -> BYE (connection closes)
///   SHUTDOWN                 -> BYE (server drains and exits)
///   anything else            -> ERR <message> (connection closes)
///
/// A COMPILE payload is one flags line (the request options of
/// core/CompileOptions.h, e.g. "--spmd --machine=touchstone --procs=64")
/// followed by '\n' and the DSL source text, labelled "<request>" in
/// diagnostics. Requests whose source parses are keyed canonically
/// (DecompositionCache.h) and answered from cache on repeats; parse
/// failures bypass the cache. Connections may issue any number of
/// commands.
///
/// BATCH payloads have the same shape and label as COMPILE payloads, so
/// an item answers byte for byte like a COMPILE of the same payload and
/// shares its cache entry. The batch runs through the same BatchSession
/// API as `alpc --batch` (service/Batch.h):
/// items are pre-keyed, deduplicated, served from the shared cache where
/// possible, and compiled on the server's persistent batch pool with warm
/// per-worker arena reuse. A dedup or cache serve replies "hit". The
/// BATCHSTATS trailer is the batch session's accumulated aggregate report
/// (schema v2, kind "batch") covering every BATCH served so far.
///
/// Concurrency: one accept thread feeds a connection queue drained by the
/// existing support/ThreadPool (each worker owns a connection at a time);
/// every compile runs under a support/Supervisor for structured capture /
/// retry and publishes the usual driver.* counters next to the service.*
/// ones. Shutdown is cooperative and async-signal-safe (atomic flag +
/// listen-fd close), so SIGTERM cannot hang the daemon mid-storm.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SERVICE_SERVER_H
#define ALP_SERVICE_SERVER_H

#include "service/DecompositionCache.h"
#include "support/Metrics.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace alp {

class BatchSession;
struct CompileRequest;

/// Parses a service request's flags line into \p Req: the space-separated
/// request options of core/CompileOptions.h, the table alpc's request
/// flags come from, with the same names and value grammar. alpc's
/// CLI-only flags (--trace, --stats, --failpoints, --batch,
/// --batch-report, --help) and operands are errors. On failure returns
/// false with the reason in \p Err: the one-line message alpc prints for
/// the same flag.
bool parseServiceRequestFlags(const std::string &Line, CompileRequest &Req,
                              std::string &Err);

/// Daemon configuration.
struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket.
  std::string SocketPath;
  /// Worker threads draining connections; 0 = one per hardware thread.
  unsigned Threads = 0;
  /// Whole-cache entry bound (DecompositionCache).
  size_t MaxCacheEntries = 4096;
  /// When non-empty: load the cache image at start (fail-soft) and save
  /// it at shutdown, both via atomic file replacement.
  std::string CachePersistPath;
  /// Pipeline wall-clock deadline imposed on every request in
  /// milliseconds (0 = none); never loosens a tighter per-request value.
  uint64_t RequestDeadlineMs = 0;
  /// Supervisor attempts per compile (first run + retries).
  unsigned CompileAttempts = 1;
  /// Bump the cache generation every N compile requests, aging idle
  /// entries toward eviction.
  uint64_t GenerationEvery = 64;
};

/// The alpd server: start() binds and spawns the accept + worker threads,
/// wait() blocks until shutdown (SHUTDOWN command or requestShutdown()).
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts serving. InvalidInput on socket errors.
  Status start();

  /// Blocks until the server shuts down, then joins every thread and
  /// (when configured) persists the cache.
  void wait();

  /// Initiates shutdown: stops accepting, drains queued connections, lets
  /// in-flight requests finish. Async-signal-safe (atomic flag + close).
  void requestShutdown();

  MetricsRegistry &metrics() { return Metrics; }
  DecompositionCache &cache() { return Cache; }
  const ServerOptions &options() const { return Opts; }

private:
  void acceptLoop();
  void drainConnections();
  void handleConnection(int Fd);
  /// Runs one COMPILE payload; fills the reply header fields and bytes.
  void handleCompile(const std::string &Payload, int &Exit, bool &Hit,
                     std::string &OutBytes, std::string &ErrBytes);
  /// Runs \p Payloads through the shared batch session and writes the
  /// RESULT replies plus the BATCHSTATS trailer to \p Fd. False on a
  /// socket write failure (caller closes the connection).
  bool handleBatch(int Fd, const std::vector<std::string> &Payloads);

  ServerOptions Opts;
  MetricsRegistry Metrics;
  DecompositionCache Cache;
  std::unique_ptr<ThreadPool> Pool;
  /// Lazily created on the first BATCH verb; serialized by BatchMutex so
  /// its warm worker arenas persist across batches from any connection.
  std::unique_ptr<BatchSession> Batch;
  std::mutex BatchMutex;

  std::atomic<bool> Stop{false};
  std::atomic<int> ListenFd{-1};
  std::atomic<uint64_t> CompileCount{0};

  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<int> ConnQueue;
  bool Draining = false; ///< Set once the accept loop exits.

  std::thread AcceptThread;
  std::thread WorkerThread;
};

} // namespace alp

#endif // ALP_SERVICE_SERVER_H
