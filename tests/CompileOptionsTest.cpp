//===- tests/CompileOptionsTest.cpp - The one request-option table --------===//
//
// The core/CompileOptions.h contract: alpc, alpd and the cache key are all
// generated from one table of request options. So every keyed entry moves
// the canonical key (no option can skip it), --jobs never does, alpd's
// request parser knows none of alpc's CLI-only flags, and a bad value
// gets the same one-line message from alpc and from alpd.
//
//===----------------------------------------------------------------------===//

#include "core/CompileOptions.h"

#include "core/CompileSession.h"
#include "frontend/Lowering.h"
#include "service/DecompositionCache.h"
#include "service/Server.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace alp;

namespace {

const char *const Source = "program p;\n"
                           "param N = 7;\n"
                           "array X[N + 1];\n"
                           "forall i = 0 to N { X[i] = f(X[i]); }\n";

/// A setting unlike the default for every keyed entry, as alpd receives
/// it. A keyed entry missing here fails EveryKeyedEntryMovesTheKey: a new
/// option must show that it reaches the key.
const std::map<std::string, std::string> Examples = {
    {"--no-local-phase", ""},
    {"--no-blocking", ""},
    {"--no-replication", ""},
    {"--no-projection", ""},
    {"--force-single", ""},
    {"--never-join", ""},
    {"--multi-level", ""},
    {"--fuse", ""},
    {"--spmd", ""},
    {"--emit", "comm-plan"},
    {"--machine", "touchstone"},
    {"--comm", ""},
    {"--print-ir", ""},
    {"--deps", ""},
    {"--lint", ""},
    {"--lint-passes", "race"},
    {"--miscompile", "drop-recv"},
    {"--verify", ""},
    {"--Werror", ""},
    {"--diagnostics-format", "json"},
    {"--simulate", ""},
    {"--procs", "64"},
    {"--block", "8"},
    {"--max-fm", "17"},
    {"--max-steps", "5"},
    {"--max-iters", "6"},
    {"--deadline-ms", "1000"},
    {"--task-retries", "3"},
    {"--task-deadline-ms", "50"},
};

RequestKey defaultKey(const Program &P) {
  return canonicalRequestKey(CompileRequest(), P);
}

TEST(CompileOptionsTest, EveryKeyedEntryMovesTheKey) {
  DiagnosticEngine Diags;
  std::optional<Program> P = compileDsl(Source, Diags);
  ASSERT_TRUE(P);
  for (const RequestOption &O : requestOptions()) {
    if (!O.Key)
      continue;
    SCOPED_TRACE(O.Name);
    auto It = Examples.find(O.Name);
    ASSERT_NE(It, Examples.end()) << "no example setting for " << O.Name;
    std::string Line = O.Name;
    if (O.Arg)
      Line += "=" + It->second;
    CompileRequest Req;
    std::string Err;
    ASSERT_TRUE(parseServiceRequestFlags(Line, Req, Err)) << Err;
    EXPECT_NE(canonicalRequestKey(Req, *P), defaultKey(*P));
  }
}

TEST(CompileOptionsTest, JobsNeverMovesTheKey) {
  for (const RequestOption &O : requestOptions())
    EXPECT_EQ(!O.Key, std::strcmp(O.Name, "--jobs") == 0) << O.Name;
  DiagnosticEngine Diags;
  std::optional<Program> P = compileDsl(Source, Diags);
  ASSERT_TRUE(P);
  for (const char *Line : {"--jobs=0", "--jobs 1", "--jobs=8"}) {
    CompileRequest Req;
    std::string Err;
    ASSERT_TRUE(parseServiceRequestFlags(Line, Req, Err)) << Err;
    EXPECT_EQ(canonicalRequestKey(Req, *P), defaultKey(*P)) << Line;
  }
}

TEST(CompileOptionsTest, ServiceRejectsCliOnlyFlags) {
  for (std::string Flag : {"--trace", "--stats", "--failpoints", "--batch",
                           "--batch-report", "--help"}) {
    CompileRequest Req;
    std::string Err;
    EXPECT_FALSE(parseServiceRequestFlags(Flag + "=x", Req, Err)) << Flag;
    EXPECT_EQ(Err, "unknown option '" + Flag + "'");
  }
}

struct Answer {
  int Exit = -1;
  std::string Out, Err;
};

/// alpc on a shipped example with one more argument.
Answer runAlpc(const std::string &Arg) {
  const std::string ErrPath =
      std::string(::testing::TempDir()) + "/compile_options_test.stderr";
  std::string Cmd = std::string("'") + ALP_ALPC_PATH + "' '" +
                    ALP_EXAMPLES_DIR + "/jacobi.alp' '" + Arg + "' 2>'" +
                    ErrPath + "'";
  Answer A;
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Cmd;
    return A;
  }
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0;)
    A.Out.append(Buf, N);
  int RC = pclose(Pipe);
  A.Exit = WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
  std::ifstream In(ErrPath, std::ios::binary);
  std::ostringstream Err;
  Err << In.rdbuf();
  A.Err = Err.str();
  std::remove(ErrPath.c_str());
  return A;
}

/// One COMPILE round trip to the server listening on \p Socket.
Answer compileOver(const std::string &Socket, const std::string &Payload) {
  Answer A;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Socket.c_str(), sizeof(Addr.sun_path) - 1);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ADD_FAILURE() << "cannot connect to " << Socket;
    if (Fd >= 0)
      ::close(Fd);
    return A;
  }
  // QUIT makes the server close the connection after the reply.
  std::string Request = "COMPILE " + std::to_string(Payload.size()) + "\n" +
                        Payload + "QUIT\n";
  for (size_t Sent = 0; Sent < Request.size();) {
    ssize_t N = ::send(Fd, Request.data() + Sent, Request.size() - Sent,
                       MSG_NOSIGNAL);
    if (N <= 0)
      break;
    Sent += static_cast<size_t>(N);
  }
  std::string Reply;
  char Buf[4096];
  for (ssize_t N; (N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0;)
    Reply.append(Buf, static_cast<size_t>(N));
  ::close(Fd);

  char Hit[8] = {};
  size_t OutLen = 0, ErrLen = 0;
  int Header = 0;
  if (std::sscanf(Reply.c_str(), "RESULT %d %7s %zu %zu%n", &A.Exit, Hit,
                  &OutLen, &ErrLen, &Header) != 4 ||
      Reply.size() < static_cast<size_t>(Header) + 1 + OutLen + ErrLen) {
    ADD_FAILURE() << "malformed reply: " << Reply;
    return A;
  }
  A.Out = Reply.substr(Header + 1, OutLen);
  A.Err = Reply.substr(Header + 1 + OutLen, ErrLen);
  return A;
}

TEST(CompileOptionsTest, BadValueGetsOneMessageFromAlpcAndAlpd) {
  ServerOptions SO;
  SO.SocketPath =
      std::string(::testing::TempDir()) + "/compile_options_test.sock";
  SO.Threads = 1;
  Server Srv(SO);
  ASSERT_TRUE(Srv.start().isOk());
  for (const RequestOption &O : requestOptions()) {
    if (!O.Arg)
      continue;
    SCOPED_TRACE(O.Name);
    const std::string Flag = std::string(O.Name) + "=bogus";
    const std::string Message =
        "invalid value 'bogus' for option '" + std::string(O.Name) + "'";
    Answer Cli = runAlpc(Flag);
    EXPECT_EQ(Cli.Exit, 2);
    EXPECT_EQ(Cli.Err.substr(0, Cli.Err.find('\n')), Message);
    Answer Service = compileOver(SO.SocketPath, Flag + "\n" + Source);
    EXPECT_EQ(Service.Exit, 2);
    EXPECT_EQ(Service.Out, "");
    EXPECT_EQ(Service.Err, "error: " + Message + "\n");
  }
  Srv.requestShutdown();
  Srv.wait();
}

} // namespace
