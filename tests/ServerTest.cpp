//===- tests/ServerTest.cpp - alpd over a live socket ----------------------===//
//
// Drives an in-process Server (service/Server.h) on a temporary Unix
// socket through its line protocol, as alpd's clients do: a COMPILE miss
// then a hit with identical bytes, a BATCH of the same requests answered
// byte for byte from the cache, STATS as the counters section of the
// schema-v2 stats document, SHUTDOWN persisting a cache image that a fresh
// DecompositionCache loads, and the per-request byte cap refusing an
// over-cap BATCH before its bytes arrive. Every client read has a receive
// timeout, so a server that stops answering fails the test instead of
// hanging it.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "core/CompileSession.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace alp;

namespace {

/// A unique path under the test temp dir; sockets need a short one.
std::string tempPath(const std::string &Stem) {
  return std::string(::testing::TempDir()) + "/alp_server_test_" +
         std::to_string(::getpid()) + "_" + Stem;
}

/// Two-buffer Jacobi relaxation at size \p N: distinct N, distinct key.
std::string jacobi(int N) {
  return "program jacobi;\nparam N = " + std::to_string(N) +
         ", T = 4;\narray A[N + 2, N + 2], B[N + 2, N + 2];\n"
         "for t = 1 to T {\n"
         "  forall i = 1 to N { forall j = 1 to N {\n"
         "    B[i, j] = f(A[i - 1, j], A[i + 1, j], A[i, j - 1], "
         "A[i, j + 1]) @cost(8); } }\n"
         "  forall i = 1 to N { forall j = 1 to N {\n"
         "    A[i, j] = B[i, j] @cost(2); } }\n"
         "}\n";
}

const char *const Flags = "--spmd --procs=32";

std::string payload(int N) { return std::string(Flags) + "\n" + jacobi(N); }

/// A connected socket to \p Path, or -1.
int connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd >= 0 &&
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    Fd = -1;
  }
  return Fd;
}

/// Whether a connection to \p Path succeeds (closed again at once).
bool accepting(const std::string &Path) {
  int Fd = connectTo(Path);
  if (Fd >= 0)
    ::close(Fd);
  return Fd >= 0;
}

/// A Server on a temp socket, shut down and joined on destruction.
struct LiveServer {
  explicit LiveServer(const std::string &CacheFile = "") {
    Opts.SocketPath = tempPath("sock");
    Opts.Threads = 2;
    Opts.CachePersistPath = CacheFile;
    Srv = std::make_unique<Server>(Opts);
    Status S = Srv->start();
    EXPECT_TRUE(S.isOk()) << S.str();
  }
  LiveServer(const LiveServer &) = delete;
  LiveServer &operator=(const LiveServer &) = delete;
  ~LiveServer() {
    if (Srv) {
      Srv->requestShutdown();
      Srv->wait();
    }
    ::unlink(Opts.SocketPath.c_str());
  }
  ServerOptions Opts;
  std::unique_ptr<Server> Srv;
};

struct Reply {
  int Exit = -1;
  bool Hit = false;
  std::string Out, Err;
};

/// One protocol connection. Reads time out after 30 s.
class Client {
public:
  explicit Client(const std::string &Path) : Fd(connectTo(Path)) {
    if (Fd < 0) {
      ADD_FAILURE() << "connect " << Path << ": " << std::strerror(errno);
      return;
    }
    timeval Timeout{30, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool send(const std::string &Bytes) {
    return Fd >= 0 && ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL) ==
                          static_cast<ssize_t>(Bytes.size());
  }

  /// One '\n'-terminated line, terminator dropped; false on EOF/timeout.
  bool line(std::string &Line) {
    Line.clear();
    for (char C; ::recv(Fd, &C, 1, 0) == 1;) {
      if (C == '\n')
        return true;
      Line.push_back(C);
    }
    return false;
  }

  bool exact(size_t Len, std::string &Out) {
    Out.resize(Len);
    for (size_t Got = 0; Got < Len;) {
      ssize_t N = ::recv(Fd, Out.data() + Got, Len - Got, 0);
      if (N <= 0)
        return false;
      Got += static_cast<size_t>(N);
    }
    return true;
  }

  /// One "RESULT <exit> <hit|miss> <outlen> <errlen>" reply with its bytes.
  bool result(Reply &R) {
    std::string Header;
    char Hit[8] = {};
    unsigned long long OutLen = 0, ErrLen = 0;
    if (!line(Header) ||
        std::sscanf(Header.c_str(), "RESULT %d %7s %llu %llu", &R.Exit, Hit,
                    &OutLen, &ErrLen) != 4)
      return false;
    R.Hit = std::string(Hit) == "hit";
    return exact(OutLen, R.Out) && exact(ErrLen, R.Err);
  }

  Reply compile(const std::string &Payload) {
    Reply R;
    EXPECT_TRUE(send("COMPILE " + std::to_string(Payload.size()) + "\n" +
                     Payload));
    EXPECT_TRUE(result(R));
    return R;
  }

  /// The body of a "<Verb> <len>\n<body>" reply.
  std::string sized(const std::string &Verb) {
    std::string Header, Body;
    unsigned long long Len = 0;
    EXPECT_TRUE(line(Header) && std::sscanf(Header.c_str(),
                                            (Verb + " %llu").c_str(),
                                            &Len) == 1)
        << Header;
    EXPECT_TRUE(exact(Len, Body));
    return Body;
  }

  const int Fd;
};

void expectSameAnswer(const Reply &A, const Reply &B) {
  EXPECT_EQ(A.Exit, B.Exit);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Err, B.Err);
}

} // namespace

TEST(ServerTest, CompileMissThenHitWithIdenticalBytes) {
  LiveServer S;
  Client C(S.Opts.SocketPath);
  Reply Miss = C.compile(payload(16));
  EXPECT_EQ(Miss.Exit, 0) << Miss.Err;
  EXPECT_FALSE(Miss.Hit);
  EXPECT_NE(Miss.Out.find("decomposition of 'jacobi'"), std::string::npos);

  Reply Hit = C.compile(payload(16));
  EXPECT_TRUE(Hit.Hit);
  expectSameAnswer(Miss, Hit);

  // The answer is the one CompileSession gives for the same request.
  CompileRequest Req;
  std::string FlagErr;
  ASSERT_TRUE(parseServiceRequestFlags(Flags, Req, FlagErr)) << FlagErr;
  Req.FileName = "<request>";
  Req.Source = jacobi(16);
  CompileResult Direct = CompileSession::compile(Req);
  EXPECT_EQ(Miss.Exit, Direct.ExitCode);
  EXPECT_EQ(Miss.Out, Direct.Out);
  EXPECT_EQ(Miss.Err, Direct.Err);
}

TEST(ServerTest, BatchRepliesMatchCompilesAndHitTheCache) {
  LiveServer S;
  Client C(S.Opts.SocketPath);
  std::vector<std::string> Payloads = {payload(16), payload(17), payload(18)};
  std::vector<Reply> Compiled;
  for (const std::string &P : Payloads)
    Compiled.push_back(C.compile(P));

  std::string Msg = "BATCH " + std::to_string(Payloads.size()) + "\n";
  for (const std::string &P : Payloads)
    Msg += std::to_string(P.size()) + "\n" + P;
  ASSERT_TRUE(C.send(Msg));
  for (size_t I = 0; I != Payloads.size(); ++I) {
    Reply R;
    ASSERT_TRUE(C.result(R)) << "item " << I;
    EXPECT_TRUE(R.Hit) << "item " << I;
    expectSameAnswer(Compiled[I], R);
  }
  EXPECT_NE(C.sized("BATCHSTATS").find("\"kind\": \"batch\""),
            std::string::npos);
}

TEST(ServerTest, StatsIsTheSchemaV2CountersSection) {
  LiveServer S;
  Client C(S.Opts.SocketPath);
  C.compile(payload(16));
  C.compile(payload(16));
  ASSERT_TRUE(C.send("STATS\n"));
  std::string Counters = C.sized("STATS");
  EXPECT_NE(Counters.find("\"service.requests\": 2"), std::string::npos)
      << Counters;
  EXPECT_NE(Counters.find("\"service.cache_hits\": 1"), std::string::npos)
      << Counters;
  // STATS adds no counter, so the server's schema-v2 document carries
  // the reply verbatim as its counters section.
  std::string Doc = renderStatsJson(&S.Srv->metrics(), nullptr);
  EXPECT_NE(Doc.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(Doc.find("\"counters\": " + Counters + ",\n"), std::string::npos)
      << Doc;
}

TEST(ServerTest, ShutdownPersistsALoadableCacheImage) {
  const std::string Image = tempPath("cache.bin");
  std::remove(Image.c_str());
  LiveServer S(Image);
  std::vector<Reply> Answers;
  {
    Client C(S.Opts.SocketPath);
    Answers.push_back(C.compile(payload(16)));
    Answers.push_back(C.compile(payload(17)));
    ASSERT_TRUE(C.send("SHUTDOWN\n"));
    std::string Bye;
    ASSERT_TRUE(C.line(Bye));
    EXPECT_EQ(Bye, "BYE");
  }
  // SHUTDOWN alone must stop the server. Poll until it refuses
  // connections, so a server that ignores SHUTDOWN fails instead of
  // hanging; then join it, which saves the image.
  bool Stopped = false;
  for (int I = 0; I != 300 && !(Stopped = !accepting(S.Opts.SocketPath));
       ++I)
    ::usleep(100 * 1000);
  ASSERT_TRUE(Stopped) << "still accepting 30 s after SHUTDOWN";
  S.Srv->wait();
  S.Srv.reset(); // Joined and saved: nothing left for ~LiveServer to save.

  DecompositionCache Fresh;
  Status Load = Fresh.loadFromFile(Image);
  ASSERT_TRUE(Load.isOk()) << Load.str();
  EXPECT_EQ(Fresh.size(), 2u);
  for (int N : {16, 17}) {
    CompileRequest Req;
    std::string FlagErr;
    ASSERT_TRUE(parseServiceRequestFlags(Flags, Req, FlagErr)) << FlagErr;
    Req.FileName = "<request>";
    Req.Source = jacobi(N);
    RequestKey Key;
    ASSERT_TRUE(keyRequest(Req, Key));
    DecompositionCache::Entry E;
    ASSERT_TRUE(Fresh.lookup(Key, E)) << "N = " << N;
    const Reply &A = Answers[N - 16];
    EXPECT_EQ(E.ExitCode, A.Exit);
    EXPECT_EQ(E.Output, A.Out);
    EXPECT_EQ(E.Error, A.Err);
  }
  std::remove(Image.c_str());
}

TEST(ServerTest, OverCapBatchIsRefusedBeforeItsBytes) {
  LiveServer S;
  {
    // The first item fits; the second declares enough to carry the batch
    // past the 64 MiB one-request cap. Its bytes are never sent, so only
    // a refusal made before reading them can answer.
    Client C(S.Opts.SocketPath);
    std::string First = payload(16);
    ASSERT_TRUE(C.send("BATCH 2\n" + std::to_string(First.size()) + "\n" +
                       First + std::to_string((64u << 20) - 8) + "\n"));
    std::string Reply;
    ASSERT_TRUE(C.line(Reply)) << "no reply before the receive timeout";
    EXPECT_EQ(Reply, "ERR malformed BATCH payload");
  }
  Client Next(S.Opts.SocketPath);
  ASSERT_TRUE(Next.send("PING\n"));
  std::string Pong;
  ASSERT_TRUE(Next.line(Pong));
  EXPECT_EQ(Pong, "PONG");
}
