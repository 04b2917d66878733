//===- support/StatsReport.h - Versioned stats document writer --*- C++ -*-===//
///
/// \file
/// The one writer for the versioned stats JSON document (schema v2) that
/// alpc --stats and alpc --batch emit, and whose counters section alpd's
/// STATS verb returns. Before v2 each producer hand-rolled its own header
/// and ad-hoc aggregate shape; v2 unifies them:
///
/// \code{.json}
/// {
///   "alp_stats": {"schema_version": 2, "kind": "compile"},
///   "<field>": <value>, ...             // producer-specific, insertion order
///   "counters": { "dep.pairs": 6, ... },
///   "gauges":   { "sim.cycles": 1234, ... },
///   "spans":    [ {"name": "driver.decompose", "count": 1, "total_ms": 0.85} ]
/// }
/// \endcode
///
/// v1 compatibility: v2 is v1 plus a "kind" discriminator in the header
/// and optional producer fields between the header and the counters
/// section. The counters / gauges / spans sections are byte-identical to
/// v1's layout and always present (empty "{}" / "[]" when the producer
/// has no source for them). Consumers that ignored unknown names — the
/// v1 policy — parse v2 unchanged apart from the version number.
///
/// Determinism: counters are jobs-deterministic (sums commute); gauges
/// and span times are scheduling/wall-clock facts. A producer that
/// promises a jobs-deterministic document (the batch report) simply does
/// not attach a gauge source or a tracer, leaving those sections empty.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SUPPORT_STATSREPORT_H
#define ALP_SUPPORT_STATSREPORT_H

#include <string>
#include <utility>
#include <vector>

namespace alp {

class MetricsRegistry;
class Tracer;

class StatsReport {
public:
  /// \p Kind discriminates the producer ("compile", "batch", ...). Must
  /// be a plain identifier-like string; it is embedded in the header
  /// unescaped.
  explicit StatsReport(std::string Kind) : Kind(std::move(Kind)) {}

  /// Adds a producer-specific top-level field rendered between the header
  /// and the counters section, in insertion order. \p RawJson is a
  /// pre-rendered JSON value (number, string with quotes, object, ...).
  void field(const std::string &Name, std::string RawJson);
  void fieldUInt(const std::string &Name, unsigned long long V);
  void fieldDouble(const std::string &Name, double V);
  void fieldBool(const std::string &Name, bool V);
  /// Quotes and escapes \p V as a JSON string.
  void fieldString(const std::string &Name, const std::string &V);

  /// Sources for the three schema sections. Null (the default) renders
  /// the section empty.
  void setCounters(const MetricsRegistry *M) { Counters = M; }
  void setGauges(const MetricsRegistry *M) { Gauges = M; }
  void setSpans(const Tracer *T) { Spans = T; }

  /// Renders the whole document, trailing newline included.
  std::string render() const;

  /// Escapes \p S for embedding inside a JSON string literal.
  static std::string escapeJson(const std::string &S);

private:
  /// The document header that render() starts with:
  /// `{\n  "alp_stats": {"schema_version": 2, "kind": "<kind>"},\n`.
  static std::string headerOpen(const std::string &Kind);

  std::string Kind;
  std::vector<std::pair<std::string, std::string>> Fields;
  const MetricsRegistry *Counters = nullptr;
  const MetricsRegistry *Gauges = nullptr;
  const Tracer *Spans = nullptr;
};

} // namespace alp

#endif // ALP_SUPPORT_STATSREPORT_H
