//===- perfbench/src/main.cpp - alp benchmark driver ----------------------===//
//
// alp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --alpc <path> --alpd <path> --work-dir <dir>
//               --reference <file>
// alp_perfbench --record-reference ...    rewrite the reference file
// alp_perfbench --calibrate-service ...   closed-loop alpd capacity
//
// Runs from the root of an alp checkout (it reads testdata/ and
// examples/). Normally started by perfbench/run.py, which builds it
// first. The last line of stdout is the run's JSON result; diagnostics go
// to stderr. Exit status: 0 every check passed, 1 an output check failed,
// 2 usage, 3 the run is invalid (no result printed).
//
//===----------------------------------------------------------------------===//

#include "Support.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sim-paper|compile-corpus|service-mix> "
               "--seed <n> --seconds <s> --trace <0|1> --alpc <path> "
               "--alpd <path> --work-dir <dir> --reference <file> "
               "[--record-reference | --calibrate-service]\n",
               Argv0);
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End && *End == '\0' && End != S;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool Record = false, Calibrate = false;
  double Num = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--record-reference") {
      Record = true;
      continue;
    }
    if (A == "--calibrate-service") {
      Calibrate = true;
      continue;
    }
    if (I + 1 >= argc)
      return usage(argv[0]);
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed" && parseNumber(V, Num) && Num >= 0)
      O.Seed = static_cast<uint64_t>(Num);
    else if (A == "--seconds" && parseNumber(V, Num) && Num > 0)
      O.Seconds = Num;
    else if (A == "--trace" && (!std::strcmp(V, "0") || !std::strcmp(V, "1")))
      O.Trace = V[0] == '1';
    else if (A == "--alpc")
      O.Alpc = V;
    else if (A == "--alpd")
      O.Alpd = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--reference")
      O.ReferencePath = V;
    else
      return usage(argv[0]);
  }
  if (O.Alpc.empty() || O.Alpd.empty() || O.WorkDir.empty() ||
      O.ReferencePath.empty())
    return usage(argv[0]);

  RunReport Report;
  if (Record) {
    Reference Ref;
    recordReference(O, Ref, Report);
    std::string Err;
    if (!Report.correct() || !Ref.save(O.ReferencePath, Err)) {
      for (const std::string &P : Report.problems())
        std::fprintf(stderr, "error: %s\n", P.c_str());
      std::fprintf(stderr, "error: reference not written %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded %zu reference values\n", Ref.size());
    return 0;
  }
  if (Calibrate) {
    O.Workload = "service-mix";
    double Rate = measureServiceCapacity(O, Report);
    std::printf("closed-loop capacity: %.0f ops/s\n", Rate);
    return Report.correct() ? 0 : 1;
  }

  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == O.Workload;
  if (!Known)
    return usage(argv[0]);

  Reference Ref;
  std::string Err;
  if (!Ref.load(O.ReferencePath, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  Report.Expected = &Ref;
  std::string Invalid;
  if (!runWorkload(O, Report, Invalid)) {
    std::fprintf(stderr, "invalid run: %s\n", Invalid.c_str());
    return 3;
  }
  for (const std::string &P : Report.problems())
    std::fprintf(stderr, "check failed: %s\n", P.c_str());
  std::printf("%s\n", Report.json().c_str());
  return Report.exitCode();
}
