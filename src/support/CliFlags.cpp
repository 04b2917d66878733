//===- support/CliFlags.cpp - Table-driven command-line parsing --------------===//

#include "support/CliFlags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace alp;

bool alp::parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno != 0 || End == S.c_str() || *End != '\0')
    return false;
  Out = V;
  return true;
}

void alp::printUsage(const CliParser &P) {
  std::fprintf(stderr, "usage: %s %s  (see %s --help)\n", P.Prog, P.Operands,
               P.Prog);
}

void alp::printHelp(const CliParser &P) {
  std::printf("usage: %s %s\n\n"
              "%s\n\n"
              "Value flags accept both --flag=value and --flag value.\n\n"
              "options:\n",
              P.Prog, P.Operands, P.Overview);
  size_t Width = 0;
  auto Rendered = [](const FlagSpec &F) {
    std::string S = F.Name;
    if (F.Arg)
      S += std::string("=<") + F.Arg + ">";
    return S;
  };
  for (const FlagSpec &F : P.Table)
    Width = std::max(Width, Rendered(F).size());
  for (const FlagSpec &F : P.Table)
    std::printf("  %-*s  %s\n", static_cast<int>(Width), Rendered(F).c_str(),
                F.Help);
}

std::string alp::parseFlags(const std::vector<FlagSpec> &Table,
                            const std::vector<std::string> &Args,
                            std::vector<std::string> *Operands, bool *Help) {
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &A = Args[I];
    if (Help && (A == "--help" || A == "-h")) {
      *Help = true;
      return "";
    }
    if (A.rfind("--", 0) != 0) {
      if (!Operands)
        return "unexpected operand '" + A + "'";
      if (!A.empty() && A[0] == '-')
        return "unknown option '" + A + "'";
      Operands->push_back(A);
      continue;
    }
    std::string Name = A, Value;
    bool HasValue = false;
    if (size_t Eq = A.find('='); Eq != std::string::npos) {
      Name = A.substr(0, Eq);
      Value = A.substr(Eq + 1);
      HasValue = true;
    }
    const FlagSpec *Spec = nullptr;
    for (const FlagSpec &F : Table)
      if (Name == F.Name) {
        Spec = &F;
        break;
      }
    if (!Spec)
      return "unknown option '" + Name + "'";
    if (!Spec->Arg) {
      if (HasValue)
        return "option '" + Name + "' takes no value";
    } else if (!HasValue) {
      if (I + 1 == Args.size())
        return "option '" + Name + "' requires a value";
      Value = Args[++I];
    }
    if (!Spec->Apply(Value))
      return "invalid value '" + Value + "' for option '" + Name + "'";
  }
  return "";
}

CliAction alp::parseCommandLine(const CliParser &P, int argc, char **argv,
                                std::vector<std::string> &Positionals) {
  bool Help = false;
  std::string Err = parseFlags(P.Table,
                               std::vector<std::string>(argv + 1, argv + argc),
                               &Positionals, &Help);
  if (!Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    printUsage(P);
    return CliAction::ExitUsage;
  }
  if (Help) {
    printHelp(P);
    return CliAction::ExitSuccess;
  }
  return CliAction::Proceed;
}
