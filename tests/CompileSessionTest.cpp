//===- tests/CompileSessionTest.cpp - CLI-vs-library equivalence ----------===//
//
// The CompileSession contract (core/CompileSession.h): compile(Req)
// returns exactly the bytes the alpc CLI writes to stdout/stderr for the
// same selections, and the CLI exit code. These tests hold the library
// against the real binary over the shipped program corpus, so the
// extraction can never silently drift from the CLI.
//
//===----------------------------------------------------------------------===//

#include "core/CompileSession.h"
#include "frontend/Lowering.h"
#include "support/FailPoint.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

using namespace alp;

namespace {

std::string readFileOrEmpty(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

struct CliRun {
  int ExitCode = -1;
  std::string Out;
  std::string Err;
};

/// Runs the installed alpc binary on \p File with \p Flags, capturing both
/// streams and the exit code.
CliRun runCli(const std::string &File, const std::string &Flags) {
  const std::string ErrPath =
      std::string(::testing::TempDir()) + "/alpc_session_test.stderr";
  std::string Cmd = std::string("'") + ALP_ALPC_PATH + "' '" + File + "'";
  if (!Flags.empty())
    Cmd += " " + Flags;
  Cmd += " 2>'" + ErrPath + "'";

  CliRun R;
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Cmd;
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Out.append(Buf, N);
  int RC = pclose(Pipe);
  R.ExitCode = WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
  R.Err = readFileOrEmpty(ErrPath);
  std::remove(ErrPath.c_str());
  return R;
}

CompileRequest requestFor(const std::string &Path) {
  CompileRequest Req;
  Req.FileName = Path;
  Req.Source = readFileOrEmpty(Path);
  return Req;
}

/// The corpus: every shipped example plus the testdata programs the CLI
/// smoke tests exercise.
std::vector<std::string> corpus() {
  return {
      std::string(ALP_EXAMPLES_DIR) + "/jacobi.alp",
      std::string(ALP_EXAMPLES_DIR) + "/trisolve.alp",
      std::string(ALP_TESTDATA_DIR) + "/fig1.alp",
      std::string(ALP_TESTDATA_DIR) + "/adi.alp",
      std::string(ALP_TESTDATA_DIR) + "/matmul.alp",
      std::string(ALP_TESTDATA_DIR) + "/conduct.alp",
  };
}

void expectCliMatchesLibrary(const std::string &Path, const std::string &Flags,
                             const CompileRequest &Req) {
  SCOPED_TRACE(Path + " " + Flags);
  CliRun Cli = runCli(Path, Flags);
  CompileResult Lib = CompileSession::compile(Req);
  EXPECT_EQ(Cli.ExitCode, Lib.ExitCode);
  EXPECT_EQ(Cli.Out, Lib.Out);
  EXPECT_EQ(Cli.Err, Lib.Err);
}

/// Everything written to \p F so far.
std::string contentsOf(std::FILE *F) {
  std::string S;
  std::rewind(F);
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    S.append(Buf, N);
  return S;
}

TEST(CompileSessionTest, DefaultPipelineMatchesCliOnCorpus) {
  for (const std::string &Path : corpus())
    expectCliMatchesLibrary(Path, "", requestFor(Path));
}

TEST(CompileSessionTest, SpmdAndCommMatchCliOnCorpus) {
  for (const std::string &Path : corpus()) {
    CompileRequest Req = requestFor(Path);
    Req.DoSpmd = true;
    Req.DoComm = true;
    expectCliMatchesLibrary(Path, "--spmd --comm", Req);
  }
}

TEST(CompileSessionTest, LintMatchesCli) {
  const std::string Path = std::string(ALP_EXAMPLES_DIR) + "/jacobi.alp";
  CompileRequest Req = requestFor(Path);
  Req.DoLint = true;
  expectCliMatchesLibrary(Path, "--lint", Req);
}

TEST(CompileSessionTest, RepeatRunsAreByteIdentical) {
  CompileRequest Req =
      requestFor(std::string(ALP_EXAMPLES_DIR) + "/jacobi.alp");
  Req.DoSpmd = true;
  CompileResult A = CompileSession::compile(Req);
  CompileResult B = CompileSession::compile(Req);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Err, B.Err);
}

TEST(CompileSessionTest, ParseFailureIsExitOneWithDiagnostics) {
  CompileRequest Req;
  Req.FileName = "<broken>";
  Req.Source = "program broken; for i = 0 to {";
  CompileResult R = CompileSession::compile(Req);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_FALSE(R.Err.empty());
  EXPECT_FALSE(R.Decomposition.has_value());
}

TEST(CompileSessionTest, StatsArtifactCarriesSchemaHeader) {
  CompileRequest Req =
      requestFor(std::string(ALP_EXAMPLES_DIR) + "/jacobi.alp");
  Req.WantStats = true;
  CompileResult R = CompileSession::compile(Req);
  EXPECT_EQ(R.ExitCode, 0);
  ASSERT_TRUE(R.Artifacts.HasStats);
  EXPECT_NE(R.Artifacts.StatsJson.find("\"schema_version\": 2"),
            std::string::npos);
}

TEST(CompileSessionTest, StructuredResultCarriesDecomposition) {
  CompileRequest Req =
      requestFor(std::string(ALP_TESTDATA_DIR) + "/fig1.alp");
  Req.DoSpmd = true;
  CompileResult R = CompileSession::compile(Req);
  EXPECT_EQ(R.ExitCode, 0);
  ASSERT_TRUE(R.Decomposition.has_value());
  EXPECT_FALSE(R.DecompositionReport.empty());
  EXPECT_FALSE(R.SpmdText.empty());
  // The bytes carry exactly what the structured result carries.
  EXPECT_NE(R.Out.find(R.DecompositionReport), std::string::npos);
}

TEST(CompileSessionTest, RunWritesTheCompileBytes) {
  // A degraded run has bytes on both streams.
  CompileRequest Req =
      requestFor(std::string(ALP_TESTDATA_DIR) + "/matmul.alp");
  Req.DoSpmd = true;
  Req.Driver.Budget.MaxEliminationSteps = 4;
  Req.Driver.Budget.MaxSolverIterations = 4;
  Req.Driver.Budget.MaxFMConstraints = 16;
  std::FILE *Out = std::tmpfile();
  std::FILE *Err = std::tmpfile();
  ASSERT_TRUE(Out && Err);
  CompileResult R = CompileSession::run(Req, Out, Err);
  EXPECT_EQ(R.ExitCode, 4);
  EXPECT_EQ(contentsOf(Out), CompileSession::compile(Req).Out);
  EXPECT_EQ(contentsOf(Err), R.Err);
  EXPECT_FALSE(R.Err.empty());
  std::fclose(Out);
  std::fclose(Err);
}

TEST(CompileSessionTest, CliStatsToStdoutComeLast) {
  const std::string Path = std::string(ALP_EXAMPLES_DIR) + "/jacobi.alp";
  CompileRequest Req = requestFor(Path);
  Req.DoSpmd = true;
  CliRun Cli = runCli(Path, "--spmd --stats=-");
  CompileResult Lib = CompileSession::compile(Req);
  ASSERT_EQ(Cli.Out.rfind(Lib.Out, 0), 0u) << Cli.Out;
  std::string Stats = Cli.Out.substr(Lib.Out.size());
  EXPECT_EQ(Stats.rfind("{", 0), 0u) << Stats;
  EXPECT_NE(Stats.find("\"schema_version\": 2"), std::string::npos);
}

TEST(CompileSessionTest, SimulationLinesFollowProcessorOrder) {
  const std::string Path = std::string(ALP_TESTDATA_DIR) + "/conduct.alp";
  CompileRequest Req = requestFor(Path);
  Req.DoSim = true;
  Req.Driver.Jobs = 4;
  expectCliMatchesLibrary(Path, "--simulate --jobs 4", Req);
  CompileResult Clean = CompileSession::compile(Req);
  ASSERT_EQ(Clean.ExitCode, 0);
  size_t At = Clean.Out.find("sequential: ");
  for (unsigned P = 1; P <= 32; P *= 2) {
    char Line[16];
    std::snprintf(Line, sizeof(Line), "\n%3u procs: ", P);
    At = Clean.Out.find(Line, At);
    ASSERT_NE(At, std::string::npos) << Line << " out of order in\n"
                                     << Clean.Out;
  }

  // With one armed trigger and no worker threads, the first task, the
  // 32-processor run, is the one that fails: the bytes are still the
  // serial loop's, every line before it and then its error.
  ASSERT_TRUE(FailPointRegistry::instance()
                  .configure("machine.simulate.run:throw:1")
                  .isOk());
  Req.Driver.Jobs = 1;
  CompileResult Faulted = CompileSession::compile(Req);
  FailPointRegistry::instance().reset();
  EXPECT_EQ(Faulted.ExitCode, 3);
  EXPECT_EQ(Faulted.Out, Clean.Out.substr(0, Clean.Out.find(" 32 procs: ")));
  EXPECT_EQ(Faulted.Err.rfind("error: simulation failed: ", 0), 0u)
      << Faulted.Err;
}

} // namespace
