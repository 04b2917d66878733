//===- service/Server.cpp - The alpd compilation service ---------------------===//

#include "service/Server.h"

#include "core/CompileOptions.h"
#include "core/CompileSession.h"
#include "service/Batch.h"
#include "support/CliFlags.h"
#include "support/Supervisor.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace alp;

//===----------------------------------------------------------------------===//
// Request flags
//===----------------------------------------------------------------------===//

bool alp::parseServiceRequestFlags(const std::string &Line,
                                   CompileRequest &Req, std::string &Err) {
  std::vector<std::string> Tokens;
  std::istringstream TS(Line);
  for (std::string T; TS >> T;)
    Tokens.push_back(T);
  Err = parseFlags(requestFlags(Req), Tokens);
  return Err.empty();
}

namespace {

/// The request of one COMPILE or BATCH payload: the first line is the
/// flags, the rest the source, labelled "<request>" either way (so a
/// BATCH item answers, and is keyed, like a COMPILE of the same payload).
/// \p MaxDeadlineMs tightens, never loosens, the pipeline deadline. False
/// with the reason on a bad flags line.
bool requestFromPayload(const std::string &Payload, uint64_t MaxDeadlineMs,
                        CompileRequest &Req, std::string &Err) {
  size_t Eol = Payload.find('\n');
  Req.FileName = "<request>";
  if (Eol != std::string::npos)
    Req.Source = Payload.substr(Eol + 1);
  if (!parseServiceRequestFlags(Payload.substr(0, Eol), Req, Err))
    return false;
  uint64_t &Deadline = Req.Driver.DeadlineMs;
  if (MaxDeadlineMs && (Deadline == 0 || Deadline > MaxDeadlineMs))
    Deadline = MaxDeadlineMs;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Socket I/O helpers
//===----------------------------------------------------------------------===//

namespace {

/// The most payload bytes one request may declare: one COMPILE payload,
/// or the sum of one BATCH's payloads. Checked before any buffer is sized.
constexpr uint64_t MaxRequestBytes = 64u << 20;

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool writeAll(int Fd, const std::string &S) {
  return writeAll(Fd, S.data(), S.size());
}

/// Reads one '\n'-terminated line (terminator consumed, not returned).
/// False on EOF/error/oversized line.
bool readLine(int Fd, std::string &Line, size_t MaxLen = 4096) {
  Line.clear();
  char C;
  for (;;) {
    ssize_t N = ::recv(Fd, &C, 1, 0);
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (C == '\n')
      return true;
    Line.push_back(C);
    if (Line.size() > MaxLen)
      return false;
  }
}

bool readExact(int Fd, std::string &Out, size_t Len) {
  Out.resize(Len);
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::recv(Fd, Out.data() + Got, Len - Got, 0);
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Got += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.MaxCacheEntries) {
  Cache.setObserve(TraceContext{nullptr, &Metrics});
}

Server::~Server() {
  requestShutdown();
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (WorkerThread.joinable())
    WorkerThread.join();
}

Status Server::start() {
  if (Opts.SocketPath.empty())
    return Status::error(StatusCode::InvalidInput, "empty socket path");
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::error(StatusCode::InvalidInput,
                         "socket path too long: " + Opts.SocketPath);
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::error(StatusCode::InvalidInput,
                         std::string("socket: ") + std::strerror(errno));
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Status S = Status::error(StatusCode::InvalidInput,
                             "bind '" + Opts.SocketPath +
                                 "': " + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  if (::listen(Fd, 128) < 0) {
    Status S = Status::error(StatusCode::InvalidInput,
                             std::string("listen: ") + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  ListenFd.store(Fd, std::memory_order_release);

  // Warm start: a stale, corrupt, or fault-injected cache image degrades
  // to an empty cache, never a dead daemon.
  if (!Opts.CachePersistPath.empty()) {
    if (Status S = Cache.loadFromFile(Opts.CachePersistPath); !S.isOk())
      Metrics.add("service.cache_load_failures");
    else
      Metrics.add("service.cache_loads");
  }

  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  AcceptThread = std::thread([this] { acceptLoop(); });
  WorkerThread = std::thread([this] {
    Pool->parallelFor(Pool->threadCount(),
                      [this](size_t) { drainConnections(); });
  });
  return Status::ok();
}

void Server::requestShutdown() {
  Stop.store(true, std::memory_order_release);
  int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd >= 0) {
    // shutdown() before close(): a close alone does not wake a thread
    // already blocked in accept() on this fd (the in-flight syscall pins
    // the open file), so the accept loop would never observe the stop.
    // Both calls are async-signal-safe, which the SIGTERM handler needs.
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
}

void Server::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (WorkerThread.joinable())
    WorkerThread.join();
  if (!Opts.CachePersistPath.empty()) {
    if (Status S = Cache.saveToFile(Opts.CachePersistPath); !S.isOk())
      Metrics.add("service.cache_save_failures");
    else
      Metrics.add("service.cache_saves");
  }
}

void Server::acceptLoop() {
  for (;;) {
    int LFd = ListenFd.load(std::memory_order_acquire);
    if (LFd < 0)
      break;
    int C = ::accept(LFd, nullptr, nullptr);
    if (C < 0) {
      if (Stop.load(std::memory_order_acquire))
        break;
      if (errno == EINTR)
        continue;
      break;
    }
    if (Stop.load(std::memory_order_acquire)) {
      ::close(C);
      break;
    }
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      ConnQueue.push_back(C);
    }
    QueueCV.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Draining = true;
  }
  QueueCV.notify_all();
}

void Server::drainConnections() {
  for (;;) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [this] { return Draining || !ConnQueue.empty(); });
      if (ConnQueue.empty())
        return; // draining and nothing queued: exit
      Fd = ConnQueue.front();
      ConnQueue.pop_front();
    }
    handleConnection(Fd);
  }
}

void Server::handleConnection(int Fd) {
  std::string Line;
  while (readLine(Fd, Line)) {
    if (Line == "PING") {
      Metrics.add("service.pings");
      if (!writeAll(Fd, "PONG\n"))
        break;
      continue;
    }
    if (Line == "STATS") {
      std::string Json = Metrics.renderCountersJson();
      std::ostringstream Reply;
      Reply << "STATS " << Json.size() << "\n" << Json;
      if (!writeAll(Fd, Reply.str()))
        break;
      continue;
    }
    if (Line == "QUIT") {
      writeAll(Fd, "BYE\n");
      break;
    }
    if (Line == "SHUTDOWN") {
      Metrics.add("service.shutdowns");
      writeAll(Fd, "BYE\n");
      requestShutdown();
      break;
    }
    if (Line.rfind("COMPILE ", 0) == 0) {
      uint64_t Len = 0;
      if (!parseU64(Line.substr(8), Len) || Len > MaxRequestBytes) {
        Metrics.add("service.protocol_errors");
        writeAll(Fd, "ERR malformed COMPILE length\n");
        break;
      }
      std::string Payload;
      if (!readExact(Fd, Payload, Len)) {
        Metrics.add("service.protocol_errors");
        break;
      }
      int Exit = 0;
      bool Hit = false;
      std::string OutBytes, ErrBytes;
      handleCompile(Payload, Exit, Hit, OutBytes, ErrBytes);
      std::ostringstream Reply;
      Reply << "RESULT " << Exit << ' ' << (Hit ? "hit" : "miss") << ' '
            << OutBytes.size() << ' ' << ErrBytes.size() << '\n';
      if (!writeAll(Fd, Reply.str()) || !writeAll(Fd, OutBytes) ||
          !writeAll(Fd, ErrBytes))
        break;
      continue;
    }
    if (Line.rfind("BATCH ", 0) == 0) {
      uint64_t Count = 0;
      if (!parseU64(Line.substr(6), Count) || Count == 0 || Count > 4096) {
        Metrics.add("service.protocol_errors");
        writeAll(Fd, "ERR malformed BATCH count\n");
        break;
      }
      std::vector<std::string> Payloads(Count);
      bool ReadOk = true;
      uint64_t Declared = 0; // Never exceeds MaxRequestBytes.
      for (uint64_t I = 0; I != Count && ReadOk; ++I) {
        std::string LenLine;
        uint64_t Len = 0;
        ReadOk = readLine(Fd, LenLine) && parseU64(LenLine, Len) &&
                 Len <= MaxRequestBytes - Declared &&
                 readExact(Fd, Payloads[I], Len);
        Declared += Len;
      }
      if (!ReadOk) {
        Metrics.add("service.protocol_errors");
        writeAll(Fd, "ERR malformed BATCH payload\n");
        break;
      }
      if (!handleBatch(Fd, Payloads))
        break;
      continue;
    }
    Metrics.add("service.protocol_errors");
    writeAll(Fd, "ERR unknown command\n");
    break;
  }
  ::close(Fd);
}

bool Server::handleBatch(int Fd, const std::vector<std::string> &Payloads) {
  Metrics.add("service.batches");
  Metrics.add("service.requests", Payloads.size());

  // Flag-line errors answer per item without compiling, exactly like the
  // single-COMPILE path; well-formed items go to the batch session.
  const size_t N = Payloads.size();
  std::vector<BatchItemResult> Results(N);
  std::vector<CompileRequest> Items;
  std::vector<size_t> ItemIndex; // Batch position -> payload position.
  for (size_t I = 0; I != N; ++I) {
    CompileRequest Req;
    std::string FlagErr;
    if (!requestFromPayload(Payloads[I], Opts.RequestDeadlineMs, Req,
                            FlagErr)) {
      Metrics.add("service.request_flag_errors");
      Results[I].ExitCode = 2;
      Results[I].Error = "error: " + FlagErr + "\n";
      continue;
    }
    Items.push_back(std::move(Req));
    ItemIndex.push_back(I);
  }

  {
    std::lock_guard<std::mutex> Lock(BatchMutex);
    if (!Batch) {
      BatchOptions BOpts;
      BOpts.Jobs = Opts.Threads;
      BOpts.Cache = &Cache;
      BOpts.MaxAttempts = Opts.CompileAttempts;
      Batch = std::make_unique<BatchSession>(BOpts);
    }
    // Age the cache at the same per-request cadence as single COMPILEs.
    for (size_t I = 0; I != Items.size(); ++I) {
      uint64_t Seq = CompileCount.fetch_add(1, std::memory_order_relaxed) + 1;
      if (Opts.GenerationEvery && Seq % Opts.GenerationEvery == 0)
        Cache.bumpGeneration();
    }
    std::vector<BatchItemResult> BatchResults = Batch->run(Items);
    for (size_t K = 0; K != BatchResults.size(); ++K)
      Results[ItemIndex[K]] = std::move(BatchResults[K]);
    Metrics.setGauge("service.cache_size", static_cast<double>(Cache.size()));
  }

  for (size_t I = 0; I != N; ++I) {
    bool Hit = Results[I].CacheHit || Results[I].DedupHit;
    std::ostringstream Reply;
    Reply << "RESULT " << Results[I].ExitCode << ' '
          << (Hit ? "hit" : "miss") << ' ' << Results[I].Output.size() << ' '
          << Results[I].Error.size() << '\n';
    if (!writeAll(Fd, Reply.str()) || !writeAll(Fd, Results[I].Output) ||
        !writeAll(Fd, Results[I].Error))
      return false;
  }
  std::string Report;
  {
    std::lock_guard<std::mutex> Lock(BatchMutex);
    Report = Batch->reportJson();
  }
  std::ostringstream Trailer;
  Trailer << "BATCHSTATS " << Report.size() << '\n' << Report;
  return writeAll(Fd, Trailer.str());
}

void Server::handleCompile(const std::string &Payload, int &Exit, bool &Hit,
                           std::string &OutBytes, std::string &ErrBytes) {
  Metrics.add("service.requests");
  uint64_t Seq = CompileCount.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Opts.GenerationEvery && Seq % Opts.GenerationEvery == 0)
    Cache.bumpGeneration();

  CompileRequest Req;
  std::string FlagErr;
  if (!requestFromPayload(Payload, Opts.RequestDeadlineMs, Req, FlagErr)) {
    Metrics.add("service.request_flag_errors");
    Exit = 2;
    Hit = false;
    OutBytes.clear();
    ErrBytes = "error: " + FlagErr + "\n";
    return;
  }

  RequestKey Key;
  const bool HaveKey = keyRequest(Req, Key);
  if (HaveKey) {
    DecompositionCache::Entry Cached;
    if (Cache.lookup(Key, Cached)) {
      Exit = Cached.ExitCode;
      Hit = true;
      OutBytes = std::move(Cached.Output);
      ErrBytes = std::move(Cached.Error);
      Metrics.setGauge("service.cache_size",
                       static_cast<double>(Cache.size()));
      return;
    }
  }
  Hit = false;

  // The compile runs under the Supervisor: structured exception capture,
  // optional retries, and the driver.tasks_* ledger counters — one
  // misbehaving request cannot unwind a worker thread.
  SupervisorOptions SOpts;
  SOpts.MaxAttempts = Opts.CompileAttempts;
  SOpts.Observe = TraceContext{nullptr, &Metrics};
  Supervisor Sup(nullptr, nullptr, SOpts);
  CompileResult R;
  std::vector<SupervisedOutcome> Outcomes =
      Sup.run(1, [&](size_t, ResourceBudget *) -> Status {
        R = CompileSession::compile(Req);
        return Status::ok();
      });
  if (!Outcomes.empty() && Outcomes[0].degraded()) {
    Metrics.add("service.compile_failures");
    Exit = 3;
    OutBytes.clear();
    ErrBytes =
        "error: service: " + Outcomes[0].Result.str() + "\n";
    return;
  }
  Exit = R.ExitCode;
  OutBytes = std::move(R.Out);
  ErrBytes = std::move(R.Err);
  if (Exit == 4)
    Metrics.add("service.compile_degraded");

  if (HaveKey) {
    DecompositionCache::Entry E;
    E.ExitCode = Exit;
    E.Output = OutBytes;
    E.Error = ErrBytes;
    Cache.insert(Key, std::move(E));
    Metrics.setGauge("service.cache_size",
                     static_cast<double>(Cache.size()));
  }
}
