//===- perfbench/src/Process.cpp - Child processes and the alpd client ----===//

#include "Process.h"
#include "Support.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace perfbench {

namespace {

std::vector<char *> argvOf(const std::vector<std::string> &Argv) {
  std::vector<char *> V;
  for (const std::string &A : Argv)
    V.push_back(const_cast<char *>(A.c_str()));
  V.push_back(nullptr);
  return V;
}

int exitCodeOf(int Status) {
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

ProcessResult runProcess(const std::vector<std::string> &Argv) {
  ProcessResult R;
  int OutPipe[2], ErrPipe[2];
  if (::pipe2(OutPipe, O_CLOEXEC) != 0)
    return R;
  if (::pipe2(ErrPipe, O_CLOEXEC) != 0) {
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    return R;
  }
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&FA, OutPipe[1], 1);
  posix_spawn_file_actions_adddup2(&FA, ErrPipe[1], 2);
  std::vector<char *> Args = argvOf(Argv);
  const Clock::time_point T0 = Clock::now();
  pid_t Pid = -1;
  int Rc = posix_spawnp(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  ::close(OutPipe[1]);
  ::close(ErrPipe[1]);
  if (Rc == 0) {
    R.Started = true;
    pollfd Fds[2] = {{OutPipe[0], POLLIN, 0}, {ErrPipe[0], POLLIN, 0}};
    std::string *Sinks[2] = {&R.Out, &R.Err};
    int OpenCount = 2;
    char Chunk[65536];
    while (OpenCount > 0) {
      if (::poll(Fds, 2, -1) < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      for (int I = 0; I != 2; ++I) {
        if (Fds[I].fd < 0 || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        ssize_t N = ::read(Fds[I].fd, Chunk, sizeof(Chunk));
        if (N > 0) {
          Sinks[I]->append(Chunk, static_cast<size_t>(N));
        } else if (N == 0 || errno != EINTR) {
          Fds[I].fd = -1;
          --OpenCount;
        }
      }
    }
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    R.ExitCode = exitCodeOf(Status);
  }
  R.WallMs = msSince(T0);
  ::close(OutPipe[0]);
  ::close(ErrPipe[0]);
  return R;
}

ChildProcess::~ChildProcess() {
  if (Pid > 0)
    wait(0);
}

bool ChildProcess::start(const std::vector<std::string> &Argv,
                         const std::string &LogPath) {
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 1, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  std::vector<char *> Args = argvOf(Argv);
  int Rc = posix_spawnp(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0)
    Pid = -1;
  return Rc == 0;
}

int ChildProcess::wait(int TimeoutMs) {
  if (Pid <= 0)
    return -1;
  int Status = 0;
  auto Reaped = [&] { return ::waitpid(Pid, &Status, WNOHANG) == Pid; };
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  bool Done = Reaped();
  while (!Done && Clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Done = Reaped();
  }
  if (!Done) {
    ::kill(Pid, SIGTERM);
    const Clock::time_point Grace = Clock::now() + std::chrono::seconds(5);
    while (!(Done = Reaped()) && Clock::now() < Grace)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!Done) {
      ::kill(Pid, SIGKILL);
      while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
      }
    }
    Status = -1;
  }
  Pid = -1;
  return Status < 0 ? -1 : exitCodeOf(Status);
}

AlpdConnection::~AlpdConnection() { close(); }

bool AlpdConnection::open(const std::string &SocketPath) {
  close();
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    close();
    return false;
  }
  return true;
}

void AlpdConnection::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Buf.clear();
  Pos = 0;
}

bool AlpdConnection::sendAll(const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool AlpdConnection::readExact(size_t N, std::string &Bytes) {
  Bytes.clear();
  while (Bytes.size() < N) {
    if (Pos == Buf.size()) {
      Buf.resize(65536);
      ssize_t Got = ::recv(Fd, Buf.data(), Buf.size(), 0);
      if (Got < 0 && errno == EINTR) {
        Buf.clear();
        Pos = 0;
        continue;
      }
      if (Got <= 0) {
        Buf.clear();
        Pos = 0;
        return false;
      }
      Buf.resize(static_cast<size_t>(Got));
      Pos = 0;
    }
    size_t Take = std::min(N - Bytes.size(), Buf.size() - Pos);
    Bytes.append(Buf, Pos, Take);
    Pos += Take;
  }
  return true;
}

bool AlpdConnection::readLine(std::string &Line) {
  Line.clear();
  std::string C;
  for (;;) {
    if (!readExact(1, C))
      return false;
    if (C[0] == '\n')
      return true;
    Line += C[0];
    if (Line.size() > 4096)
      return false;
  }
}

bool AlpdConnection::readResult(Reply &R) {
  std::string Line;
  if (!readLine(Line))
    return false;
  char Tag[8] = {0};
  unsigned long long OutLen = 0, ErrLen = 0;
  if (std::sscanf(Line.c_str(), "RESULT %d %7s %llu %llu", &R.Exit, Tag, &OutLen,
                  &ErrLen) != 4)
    return false;
  R.Hit = std::strcmp(Tag, "hit") == 0;
  return readExact(OutLen, R.Out) && readExact(ErrLen, R.Err);
}

bool AlpdConnection::ping() {
  std::string Line;
  return sendAll("PING\n") && readLine(Line) && Line == "PONG";
}

bool AlpdConnection::compile(const std::string &Payload, Reply &R) {
  return sendAll("COMPILE " + std::to_string(Payload.size()) + "\n" + Payload) &&
         readResult(R);
}

bool AlpdConnection::batch(const std::vector<std::string> &Payloads,
                           std::vector<Reply> &R) {
  std::string Msg = "BATCH " + std::to_string(Payloads.size()) + "\n";
  for (const std::string &P : Payloads)
    Msg += std::to_string(P.size()) + "\n" + P;
  if (!sendAll(Msg))
    return false;
  R.assign(Payloads.size(), Reply());
  for (Reply &One : R)
    if (!readResult(One))
      return false;
  std::string Line, Report;
  unsigned long long Len = 0;
  return readLine(Line) &&
         std::sscanf(Line.c_str(), "BATCHSTATS %llu", &Len) == 1 &&
         readExact(Len, Report);
}

bool AlpdConnection::stats(std::string &Json) {
  std::string Line;
  unsigned long long Len = 0;
  return sendAll("STATS\n") && readLine(Line) &&
         std::sscanf(Line.c_str(), "STATS %llu", &Len) == 1 &&
         readExact(Len, Json);
}

bool AlpdConnection::shutdown() {
  std::string Line;
  return sendAll("SHUTDOWN\n") && readLine(Line) && Line == "BYE";
}

uint64_t statsCounter(const std::string &Json, const std::string &Name) {
  std::string Needle = "\"" + Name + "\": ";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Needle.size(), nullptr, 10);
}

} // namespace perfbench
