//===- support/CliFlags.h - Table-driven command-line parsing ---*- C++ -*-===//
///
/// \file
/// The table-driven flag parser that grew inside tools/alpc.cpp, promoted
/// to a library so every executable (alpc, alp_fuzz, alp_chaos, alpd, the
/// bench harnesses) parses the same way: one FlagSpec table drives
/// parsing, --help generation, and unknown-flag errors. Every value-taking
/// flag accepts both "--flag=value" and "--flag value". alpd's request
/// lines go through the same walk (parseFlags), which returns its error
/// as a string instead of printing it.
///
/// A tool declares its table and calls parseCommandLine:
///
///   CliParser P{argv[0], "<file.alp> [options]", "Compiles ...", Table};
///   std::vector<std::string> Positionals;
///   switch (parseCommandLine(P, argc, argv, Positionals)) {
///   case CliAction::Proceed:     break;
///   case CliAction::ExitSuccess: return 0;  // --help was printed
///   case CliAction::ExitUsage:   return 2;  // error already on stderr
///   }
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_CLIFLAGS_H
#define ALP_SUPPORT_CLIFLAGS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace alp {

/// One command-line flag: parsing, help text, and the action it performs.
/// Arg == nullptr marks a boolean flag ("--flag"); otherwise the flag
/// takes a value ("--flag=<Arg>" or "--flag <Arg>"). Apply returns false
/// when the value is malformed (usage error, exit 2).
struct FlagSpec {
  const char *Name; ///< Including the leading "--".
  const char *Arg;  ///< Placeholder for help ("N", "file"), or nullptr.
  const char *Help;
  std::function<bool(const std::string &)> Apply;
};

/// Strict base-10 unsigned parse; rejects signs, junk, and overflow.
bool parseU64(const std::string &S, uint64_t &Out);

/// A tool's command-line description: program name, operand synopsis for
/// the usage line, a prose overview for --help, and the flag table.
struct CliParser {
  const char *Prog;     ///< argv[0].
  const char *Operands; ///< e.g. "<file.alp> [options]".
  const char *Overview; ///< --help preamble prose (may be multi-line).
  const std::vector<FlagSpec> &Table;
};

/// The one-line usage hint, to stderr:
///   "usage: <prog> <operands>  (see <prog> --help)".
void printUsage(const CliParser &P);

/// Full --help text (usage, overview, one aligned row per flag), to
/// stdout.
void printHelp(const CliParser &P);

/// What the caller should do after parsing.
enum class CliAction {
  Proceed,     ///< Flags applied; positionals collected.
  ExitSuccess, ///< --help/-h was printed; exit 0.
  ExitUsage,   ///< Parse error; message + usage already on stderr; exit 2.
};

/// The one flag walk: applies \p Table to \p Args in order and returns the
/// first error as a one-line message ("" on success); the walk stops
/// there. With \p Operands, arguments that do not start with '-' are
/// collected into it (any other argument starting with '-' is an unknown
/// option); without it they are errors. With \p Help, "--help"/"-h" stop
/// the walk and set it; without it they are unknown, like any flag
/// missing from the table.
std::string parseFlags(const std::vector<FlagSpec> &Table,
                       const std::vector<std::string> &Args,
                       std::vector<std::string> *Operands = nullptr,
                       bool *Help = nullptr);

/// parseFlags over argv, reporting to the terminal: an error goes to
/// stderr with the usage hint (ExitUsage), "--help"/"-h" prints help
/// (ExitSuccess; earlier errors still win), and operands are appended to
/// \p Positionals.
CliAction parseCommandLine(const CliParser &P, int argc, char **argv,
                           std::vector<std::string> &Positionals);

} // namespace alp

#endif // ALP_SUPPORT_CLIFLAGS_H
