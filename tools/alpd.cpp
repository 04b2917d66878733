//===- tools/alpd.cpp - The alp compilation daemon --------------*- C++ -*-===//
//
// alpd: a long-lived compilation service answering concurrent compile
// requests over a Unix-domain socket, from a process-wide generation-aged
// decomposition cache (see docs/SERVICE.md for the protocol).
//
//   alpd --socket=/tmp/alpd.sock [options]
//
// Runs until a client sends SHUTDOWN or the process receives SIGINT /
// SIGTERM; both drain in-flight requests before exiting. --cache-file
// persists the answer cache across restarts (fail-soft: a corrupt image
// is discarded, never fatal). --stats writes the service counters JSON
// at shutdown.
//
// Exit codes: 0 clean shutdown; 1 stats-write failure; 2 usage / socket
// setup failure.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/AtomicFile.h"
#include "support/CliFlags.h"
#include "support/FailPoint.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <pthread.h>
#include <string>
#include <vector>

using namespace alp;

namespace {

/// The signal handler's shutdown hook: requestShutdown is async-signal-
/// safe (atomic flag + close of the listen fd).
std::atomic<Server *> GServer{nullptr};

void handleSignal(int) {
  if (Server *S = GServer.load(std::memory_order_acquire))
    S->requestShutdown();
}

} // namespace

int main(int argc, char **argv) {
  // SIGINT and SIGTERM stay blocked until their handler can reach the
  // server; the server's threads inherit the mask, so the main thread
  // takes a signal sent in between once it unblocks them.
  sigset_t StopSignals;
  sigemptyset(&StopSignals);
  sigaddset(&StopSignals, SIGINT);
  sigaddset(&StopSignals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &StopSignals, nullptr);

  if (Status S = FailPointRegistry::instance().configureFromEnv();
      !S.isOk()) {
    std::fprintf(stderr, "error: ALP_FAILPOINTS: %s\n", S.str().c_str());
    return 2;
  }
  ServerOptions Opts;
  Opts.SocketPath = "alpd.sock";
  std::string StatsPath;

  auto U64Flag = [](uint64_t &Target) {
    return [&Target](const std::string &V) { return parseU64(V, Target); };
  };

  const std::vector<FlagSpec> Table = {
      {"--socket", "path",
       "Unix-domain socket path to listen on (default alpd.sock)",
       [&](const std::string &V) {
         Opts.SocketPath = V;
         return true;
       }},
      {"--threads", "N",
       "worker threads draining connections (0 = all hardware threads)",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Opts.Threads = static_cast<unsigned>(U);
         return true;
       }},
      {"--cache-entries", "N",
       "decomposition cache capacity in entries (default 4096)",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U))
           return false;
         Opts.MaxCacheEntries = static_cast<size_t>(U);
         return true;
       }},
      {"--cache-file", "path",
       "load the cache image at start and save it at shutdown "
       "(fail-soft: a missing or corrupt image recomputes)",
       [&](const std::string &V) {
         Opts.CachePersistPath = V;
         return true;
       }},
      {"--request-deadline-ms", "N",
       "wall-clock deadline imposed on every compile request (0 = off)",
       U64Flag(Opts.RequestDeadlineMs)},
      {"--compile-attempts", "N",
       "supervisor attempts per compile request (default 1)",
       [&](const std::string &V) {
         uint64_t U;
         if (!parseU64(V, U) || U == 0)
           return false;
         Opts.CompileAttempts = static_cast<unsigned>(U);
         return true;
       }},
      {"--generation-every", "N",
       "age the cache one generation every N requests (default 64)",
       U64Flag(Opts.GenerationEvery)},
      {"--failpoints", "site:mode[:count[:delay_ms]],...",
       "arm deterministic fault-injection sites (docs/ROBUSTNESS.md)",
       [&](const std::string &V) {
         Status S = FailPointRegistry::instance().configureList(V);
         if (!S.isOk()) {
           std::fprintf(stderr, "error: --failpoints: %s\n",
                        S.str().c_str());
           return false;
         }
         return true;
       }},
      {"--stats", "file",
       "write the service counters JSON at shutdown; '-' writes to stdout",
       [&](const std::string &V) {
         StatsPath = V;
         return true;
       }},
  };

  const CliParser Cli{argv[0], "[options]",
                      "Serves compile requests over a Unix-domain socket "
                      "from a\nprocess-wide decomposition cache.",
                      Table};
  std::vector<std::string> Positionals;
  switch (parseCommandLine(Cli, argc, argv, Positionals)) {
  case CliAction::Proceed:
    break;
  case CliAction::ExitSuccess:
    return 0;
  case CliAction::ExitUsage:
    return 2;
  }
  if (!Positionals.empty()) {
    std::fprintf(stderr, "unexpected operand '%s'\n",
                 Positionals.front().c_str());
    printUsage(Cli);
    return 2;
  }

  Server Srv(Opts);
  if (Status S = Srv.start(); !S.isOk()) {
    std::fprintf(stderr, "error: cannot start server: %s\n",
                 S.str().c_str());
    return 2;
  }
  GServer.store(&Srv, std::memory_order_release);
  std::signal(SIGINT, handleSignal);
  std::signal(SIGTERM, handleSignal);
  pthread_sigmask(SIG_UNBLOCK, &StopSignals, nullptr);

  std::printf("alpd: listening on %s (%u worker thread(s), cache %zu "
              "entries)\n",
              Opts.SocketPath.c_str(),
              Opts.Threads ? Opts.Threads
                           : ThreadPool::hardwareConcurrency(),
              Opts.MaxCacheEntries);
  std::fflush(stdout);

  Srv.wait();
  GServer.store(nullptr, std::memory_order_release);

  if (!StatsPath.empty()) {
    std::string Json = Srv.metrics().renderCountersJson();
    if (StatsPath == "-") {
      std::printf("%s\n", Json.c_str());
    } else if (Status S = writeFileAtomic(StatsPath, Json); !S.isOk()) {
      std::fprintf(stderr, "error: cannot write stats file: %s\n",
                   S.str().c_str());
      return 1;
    }
  }
  return 0;
}
