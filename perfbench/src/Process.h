//===- perfbench/src/Process.h - Child processes and the alpd client -*- C++ -*-===//
///
/// \file
/// What the benchmark needs outside its own process: running a program to
/// completion with both output streams captured (alpc, the exec-floor
/// calibration), owning a long-running child (alpd) that is always stopped
/// and reaped, and a client for alpd's Unix-socket line protocol
/// (docs/SERVICE.md).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROCESS_H
#define PERFBENCH_PROCESS_H

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

struct ProcessResult {
  bool Started = false;
  int ExitCode = -1; ///< -1 when the process was killed by a signal.
  std::string Out, Err;
  double WallMs = 0; ///< Spawn to reaped, output fully read.
};

/// Runs \p Argv (argv[0] looked up in PATH when it has no '/') with stdin
/// from /dev/null and waits for it.
ProcessResult runProcess(const std::vector<std::string> &Argv);

/// A long-running child process. The destructor terminates (SIGTERM, then
/// SIGKILL after a grace period) and reaps a child still running.
class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  /// Starts \p Argv with stdout and stderr appended to \p LogPath.
  bool start(const std::vector<std::string> &Argv, const std::string &LogPath);
  /// Waits up to \p TimeoutMs for the child to exit on its own, then
  /// terminates it; returns its exit code (-1 when signalled or absent).
  int wait(int TimeoutMs);

private:
  pid_t Pid = -1;
};

/// One client connection to alpd, with a read buffer.
class AlpdConnection {
public:
  AlpdConnection() = default;
  ~AlpdConnection();
  AlpdConnection(const AlpdConnection &) = delete;
  AlpdConnection &operator=(const AlpdConnection &) = delete;

  bool open(const std::string &SocketPath);
  void close();

  struct Reply {
    int Exit = -1;
    bool Hit = false;
    std::string Out, Err;
  };

  bool ping();
  /// COMPILE one payload (flags line, '\n', source).
  bool compile(const std::string &Payload, Reply &R);
  /// BATCH the payloads; fills one reply per payload, in order.
  bool batch(const std::vector<std::string> &Payloads, std::vector<Reply> &R);
  /// STATS: the counters JSON.
  bool stats(std::string &Json);
  /// SHUTDOWN: the server drains and exits.
  bool shutdown();

private:
  bool sendAll(const std::string &Bytes);
  bool readLine(std::string &Line);
  bool readExact(size_t N, std::string &Bytes);
  bool readResult(Reply &R);

  int Fd = -1;
  std::string Buf;
  size_t Pos = 0;
};

/// The value of counter \p Name in a STATS counters JSON; 0 when absent.
uint64_t statsCounter(const std::string &Json, const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_PROCESS_H
