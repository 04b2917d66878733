//===- core/CompileOptions.cpp - The compile-request option table -----------===//

#include "core/CompileOptions.h"

#include "core/CompileSession.h"

#include <sstream>
#include <string_view>
#include <type_traits>

using namespace alp;

namespace {

// An entry names the request member it controls with an accessor,
// [](auto &R) -> auto & { return R.Member; }, which serves the setter (on
// a mutable request) and the key reader (on a const one) alike.

/// Appends one setting to a cache key. Strings carry their length, so no
/// value can run into the next.
template <typename T> void keyValue(const T &V, std::string &Key) {
  if constexpr (std::is_same_v<T, std::string>) {
    Key += std::to_string(V.size());
    Key += ':';
    Key += V;
  } else if constexpr (std::is_enum_v<T>) {
    Key += std::to_string(static_cast<int>(V));
  } else {
    Key += std::to_string(V);
  }
}

template <typename Field> auto keyOf(Field F) {
  return [F](const CompileRequest &R, std::string &Key) {
    keyValue(F(R), Key);
  };
}

/// A switch storing \p V; keyed by whether it is in effect.
template <typename Field, typename T>
RequestOption switchOption(const char *Name, const char *Help, Field F,
                           T V) {
  return {Name, nullptr, Help,
          [F, V](CompileRequest &R, const std::string &) {
            F(R) = V;
            return true;
          },
          [F, V](const CompileRequest &R, std::string &Key) {
            keyValue(F(R) == V, Key);
          }};
}

/// Parses an unsigned value into the member's type.
template <typename Field> auto setCount(Field F) {
  return [F](CompileRequest &R, const std::string &V) {
    uint64_t U;
    if (!parseU64(V, U))
      return false;
    F(R) = static_cast<std::remove_reference_t<decltype(F(R))>>(U);
    return true;
  };
}

template <typename Field>
RequestOption countOption(const char *Name, const char *Help, Field F) {
  return {Name, "N", Help, setCount(F), keyOf(F)};
}

/// A value that must be one of the '|'-separated words of the placeholder
/// \p Words. A string member stores the word; an enum member stores the
/// word's position, so its enumerators follow the placeholder's order.
template <typename Field>
RequestOption wordOption(const char *Name, const char *Words,
                         const char *Help, Field F) {
  return {Name, Words, Help,
          [F, Words](CompileRequest &R, const std::string &V) {
            std::string_view Rest = Words;
            for (int Index = 0;; ++Index) {
              size_t Bar = Rest.find('|');
              if (Rest.substr(0, Bar) == V) {
                using T = std::remove_reference_t<decltype(F(R))>;
                if constexpr (std::is_enum_v<T>)
                  F(R) = static_cast<T>(Index);
                else
                  F(R) = V;
                return true;
              }
              if (Bar == std::string_view::npos)
                return false;
              Rest.remove_prefix(Bar + 1);
            }
          },
          keyOf(F)};
}

/// --lint-passes: a comma-separated list of pass families. Each use
/// replaces the selection (an empty list restores the default);
/// restricting the families also opts the decomposition validator into
/// --lint.
bool setLintPasses(CompileRequest &R, const std::string &List) {
  R.LintPassesExplicit = !List.empty();
  R.SelRace = R.SelModel = R.SelDecomp = R.SelSchedule = List.empty();
  std::istringstream Ids(List);
  for (std::string Id; std::getline(Ids, Id, ',');) {
    bool *Sel = Id == "race"       ? &R.SelRace
                : Id == "model"    ? &R.SelModel
                : Id == "decomp"   ? &R.SelDecomp
                : Id == "schedule" ? &R.SelSchedule
                                   : nullptr;
    if (!Sel)
      return false;
    *Sel = true;
  }
  return true;
}

void keyLintPasses(const CompileRequest &R, std::string &Key) {
  for (bool B : {R.LintPassesExplicit, R.SelRace, R.SelModel, R.SelDecomp,
                 R.SelSchedule})
    keyValue(B, Key);
}

bool setTaskRetries(CompileRequest &R, const std::string &V) {
  uint64_t U;
  if (!parseU64(V, U))
    return false;
  R.Driver.TaskAttempts = static_cast<unsigned>(U) + 1;
  return true;
}

} // namespace

const std::vector<RequestOption> &alp::requestOptions() {
  static const std::vector<RequestOption> Table = {
      switchOption(
          "--no-local-phase", "skip Wolf-Lam canonicalization",
          [](auto &R) -> auto & { return R.Driver.RunLocalPhase; }, false),
      switchOption(
          "--no-blocking", "disable blocked (pipelined) decompositions",
          [](auto &R) -> auto & { return R.Driver.EnableBlocking; }, false),
      switchOption(
          "--no-replication", "disable read-only replication",
          [](auto &R) -> auto & { return R.Driver.EnableReplication; },
          false),
      switchOption(
          "--no-projection", "disable idle-processor projection",
          [](auto &R) -> auto & { return R.Driver.EnableIdleProjection; },
          false),
      switchOption(
          "--force-single", "join every nest into one component",
          [](auto &R) -> auto & { return R.Driver.Policy; },
          JoinPolicy::ForceSingle),
      switchOption(
          "--never-join", "keep every nest in its own component",
          [](auto &R) -> auto & { return R.Driver.Policy; },
          JoinPolicy::NeverJoin),
      switchOption(
          "--multi-level", "decompose the loop-nest hierarchy level by level",
          [](auto &R) -> auto & { return R.Driver.MultiLevel; }, true),
      switchOption(
          "--fuse", "run the loop-fusion post-pass",
          [](auto &R) -> auto & { return R.DoFuse; }, true),
      switchOption(
          "--spmd", "print the generated SPMD pseudo-code",
          [](auto &R) -> auto & { return R.DoSpmd; }, true),
      wordOption("--emit", "spmd|comm-plan",
                 "codegen backend: 'spmd' prints message-passing SPMD code "
                 "driven by the planned communication schedule; "
                 "'comm-plan' prints the schedule itself",
                 [](auto &R) -> auto & { return R.EmitMode; }),
      wordOption("--machine", "dash|touchstone",
                 "machine preset: 'dash' (cache-coherent NUMA, default) or "
                 "'touchstone' (message-passing multicomputer)",
                 [](auto &R) -> auto & { return R.MachineName; }),
      switchOption(
          "--comm", "print the communication analysis",
          [](auto &R) -> auto & { return R.DoComm; }, true),
      switchOption(
          "--print-ir", "print the canonicalized IR",
          [](auto &R) -> auto & { return R.DoIr; }, true),
      switchOption(
          "--deps", "print the dependences of every nest",
          [](auto &R) -> auto & { return R.DoDeps; }, true),
      switchOption(
          "--lint",
          "run the alp-lint passes (race detector, affine-model lints, and "
          "the SPMD schedule verifier when the program decomposes) and "
          "render the diagnostics instead of reporting a decomposition",
          [](auto &R) -> auto & { return R.DoLint; }, true),
      {"--lint-passes", "list|help",
       "restrict --lint / --verify to a comma-separated list of pass "
       "families; 'help' lists the registered pass ids",
       setLintPasses, keyLintPasses},
      {"--miscompile", "mode",
       "test-only: seed one schedule miscompilation so the schedule "
       "verifier can prove its checkers fire (drop-transfer, "
       "shrink-aggregation, reorder-recv, reorder-barrier, drop-recv, "
       "alias-buffer)",
       [](CompileRequest &R, const std::string &V) {
         return parseMiscompileMode(V, R.Miscompile);
       },
       keyOf([](auto &R) -> auto & { return R.Miscompile; })},
      switchOption(
          "--verify",
          "validate the decomposition (Theorem 4.1 invariants + SPMD "
          "communication coverage)",
          [](auto &R) -> auto & { return R.DoVerify; }, true),
      switchOption(
          "--Werror", "treat lint/verify warnings as errors",
          [](auto &R) -> auto & { return R.WError; }, true),
      wordOption("--diagnostics-format", "text|json|sarif",
                 "how --lint / --verify diagnostics are rendered",
                 [](auto &R) -> auto & { return R.Format; }),
      switchOption(
          "--simulate", "simulate on the NUMA machine (1..procs)",
          [](auto &R) -> auto & { return R.DoSim; }, true),
      countOption("--procs", "machine size for --simulate (default 32)",
                  [](auto &R) -> auto & { return R.Procs; }),
      countOption("--block", "pipeline block size (default 4)",
                  [](auto &R) -> auto & { return R.Block; }),
      countOption("--max-fm", "cap live Fourier-Motzkin constraints (0 = off)",
                  [](auto &R) -> auto & {
                    return R.Driver.Budget.MaxFMConstraints;
                  }),
      countOption("--max-steps", "cap FM elimination steps (0 = off)",
                  [](auto &R) -> auto & {
                    return R.Driver.Budget.MaxEliminationSteps;
                  }),
      countOption("--max-iters", "cap solver fixpoint iterations (0 = off)",
                  [](auto &R) -> auto & {
                    return R.Driver.Budget.MaxSolverIterations;
                  }),
      countOption("--deadline-ms",
                  "wall-clock budget for the pipeline (0 = off)",
                  [](auto &R) -> auto & { return R.Driver.DeadlineMs; }),
      // The one entry without a key reader (see CompileOptions.h).
      {"--jobs", "N",
       "analysis worker threads (0 = all hardware threads); output is "
       "identical for every value",
       setCount([](auto &R) -> auto & { return R.Driver.Jobs; }), nullptr},
      {"--task-retries", "N",
       "extra attempts per parallel task on a shrunken budget before it "
       "degrades to its stage's conservative fallback (default 1)",
       setTaskRetries,
       keyOf([](auto &R) -> auto & { return R.Driver.TaskAttempts; })},
      countOption(
          "--task-deadline-ms",
          "per-attempt wall-clock deadline for each parallel task (0 = off; "
          "an armed task deadline trades --jobs determinism for "
          "boundedness)",
          [](auto &R) -> auto & { return R.Driver.TaskDeadlineMs; }),
  };
  return Table;
}

std::vector<FlagSpec> alp::requestFlags(CompileRequest &Req) {
  std::vector<FlagSpec> Flags;
  Flags.reserve(requestOptions().size());
  for (const RequestOption &O : requestOptions())
    Flags.push_back({O.Name, O.Arg, O.Help, [&Req, &O](const std::string &V) {
                       return O.Set(Req, V);
                     }});
  return Flags;
}
