//===- core/CompileOptions.h - The compile-request option table -*- C++ -*-===//
///
/// \file
/// Every option a compile request takes, declared once. The paper's
/// Figure 7 strategies differ only here (blocked partitions, the join
/// policy, §7 replication and projection), and so do the stage
/// selections, the machine, and the resource budgets. Three consumers are
/// generated from this one table:
///
///   - alpc's request flags and their --help rows (requestFlags; alpc
///     appends only its CLI-only flags);
///   - alpd's request-line parser (parseServiceRequestFlags,
///     service/Server.h);
///   - the cache key (canonicalRequestKey, service/DecompositionCache.h).
///
/// Each entry's Key reader writes the entry's setting into the cache key,
/// so an option cannot be added without being keyed. Only --jobs has no
/// reader: the output is byte-identical for every value (the
/// jobs-determinism contract), so all job counts share one entry.
/// tests/CompileOptionsTest.cpp checks that every other entry moves the
/// key.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_CORE_COMPILEOPTIONS_H
#define ALP_CORE_COMPILEOPTIONS_H

#include "support/CliFlags.h"

#include <functional>
#include <string>
#include <vector>

namespace alp {

struct CompileRequest;

/// One request option.
struct RequestOption {
  const char *Name; ///< Including the leading "--".
  const char *Arg;  ///< Value placeholder for --help, or nullptr (a switch).
  const char *Help;
  /// Applies the option to a request; the value is empty for a switch.
  /// False when the value is malformed.
  std::function<bool(CompileRequest &, const std::string &)> Set;
  /// Appends the option's setting in a request to a cache key; empty when
  /// no setting of the option changes an answer.
  std::function<void(const CompileRequest &, std::string &)> Key;
};

/// The table, in --help order.
const std::vector<RequestOption> &requestOptions();

/// The table as flag specs whose actions apply to \p Req, which must
/// outlive them.
std::vector<FlagSpec> requestFlags(CompileRequest &Req);

} // namespace alp

#endif // ALP_CORE_COMPILEOPTIONS_H
