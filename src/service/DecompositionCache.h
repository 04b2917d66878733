//===- service/DecompositionCache.h - Process-wide compile cache *- C++ -*-===//
///
/// \file
/// The compilation service's answer store: a process-wide, sharded,
/// generation-aged cache from a canonical whole-program key to the full
/// compile answer (exit code + the exact stdout/stderr bytes the
/// CompileSession produced). One alpd process serves many clients; repeat
/// requests — the common case for a compilation daemon — are answered
/// from here without running the decomposition pipeline at all.
///
/// Keying extends the linalg/SystemKey idiom up to whole programs: the
/// key serializes the request label and every keyed option of the one
/// option table (core/CompileOptions.h), the source facts an answer can
/// print that the IR text leaves out, the frontend's warnings, and the
/// canonical IR text of the parsed program (ir/Printer.h's printProgram);
/// it hashes the serialization with FNV-1a and keeps the serialization
/// alongside the hash so lookups compare exactly — a hash collision can
/// never alias two different requests to one answer. Equal keys mean
/// byte-identical answers. Printing the IR (rather than hashing the raw
/// source) means requests whose layout moves no token (trailing blanks,
/// a comment after a line's last token, blank lines at the end) share an
/// entry.
///
/// Concurrency: the table is split into a fixed number of shards, each
/// behind its own mutex, so concurrent service workers rarely contend.
/// Aging: the cache keeps a generation counter; every hit or insert
/// stamps the entry with the current generation, bumpGeneration()
/// advances it (the server does so periodically), and a full shard
/// evicts its oldest-generation entries first — a transposition-table
/// style policy that keeps hot entries resident without per-hit LRU
/// list maintenance.
///
/// Persistence: save/load via support/AtomicFile.h so a daemon restart
/// starts warm. Loads validate a magic header, per-entry lengths, and
/// the recomputed key hash; any mismatch (or the "service.cache.load"
/// failpoint) is a Status error the caller degrades on — an unreadable
/// cache file must never take the service down, it just recomputes.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_SERVICE_DECOMPOSITIONCACHE_H
#define ALP_SERVICE_DECOMPOSITIONCACHE_H

#include "support/Status.h"
#include "support/Trace.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace alp {

class Program;
struct CompileRequest;

/// A canonical whole-program request key: FNV-1a hash plus the exact
/// serialization it was computed from (equality compares the bytes).
struct RequestKey {
  uint64_t Hash = 0;
  std::string Repr;

  bool operator==(const RequestKey &RHS) const {
    return Hash == RHS.Hash && Repr == RHS.Repr;
  }
  bool operator!=(const RequestKey &RHS) const { return !(*this == RHS); }
};

/// Hasher for unordered containers keyed by RequestKey.
struct RequestKeyHash {
  size_t operator()(const RequestKey &K) const {
    return static_cast<size_t>(K.Hash);
  }
};

/// FNV-1a over arbitrary bytes (the shared hashing primitive of the
/// service keys; seeded with the standard offset basis).
uint64_t fnv1aHash(const std::string &Bytes);

/// Builds the key for \p Req whose source parsed to \p P: the label
/// (FileName, which every diagnostic prints and JSON/SARIF name as the
/// file), the setting of every keyed entry of core/CompileOptions.h, the
/// source positions the IR carries (arrays, loops, statements, accesses:
/// diagnostics print them), the statement costs and exact branch
/// probabilities printProgram omits or rounds, the parse's warnings when
/// Req.PreParsedDiags holds them, and printProgram(P).
RequestKey canonicalRequestKey(const CompileRequest &Req, const Program &P);

/// The service's keying step: parses \p Req's source and, when it
/// parses, returns true with the key in \p Key and the parse handed on to
/// the session (CompileRequest::PreParsed / PreParsedDiags), so the
/// source is never parsed twice. A parse failure has no key: the request
/// bypasses the cache and the session renders the diagnostics.
bool keyRequest(CompileRequest &Req, RequestKey &Key);

/// The sharded, generation-aged answer cache.
class DecompositionCache {
public:
  /// One cached compile answer: the exit code and the exact bytes the
  /// session wrote to its two streams.
  struct Entry {
    int ExitCode = 0;
    std::string Output;
    std::string Error;
  };

  /// \p MaxEntries bounds the whole cache (split evenly across shards,
  /// floor one entry per shard).
  explicit DecompositionCache(size_t MaxEntries = 4096);

  /// Counter sink for service.cache_* metrics; may be empty.
  void setObserve(TraceContext O) { Observe = O; }

  /// Looks \p K up; on a hit copies the answer into \p Out, re-stamps
  /// the entry with the current generation, and counts
  /// service.cache_hits (misses count service.cache_misses).
  bool lookup(const RequestKey &K, Entry &Out);

  /// Inserts (or overwrites) the answer for \p K, stamped with the
  /// current generation; evicts oldest-generation entries when the
  /// shard is full. Counts service.cache_inserts / _evictions.
  void insert(const RequestKey &K, Entry E);

  /// Advances the age epoch: entries not touched since the previous
  /// epoch become eviction candidates before anything newer.
  void bumpGeneration() { Gen.fetch_add(1, std::memory_order_relaxed); }
  uint64_t generation() const { return Gen.load(std::memory_order_relaxed); }

  /// Total resident entries (sums the shards; approximate under
  /// concurrent mutation).
  size_t size() const;

  void clear();

  /// Serializes every resident entry (text header + length-prefixed
  /// binary-safe records).
  std::string serialize() const;

  /// Replaces the cache contents with a previously serialized image.
  /// Malformed text (bad magic, truncated record, hash mismatch) is an
  /// InvalidInput error and leaves the cache empty.
  Status deserialize(const std::string &Text);

  /// serialize() to \p Path via atomic temp-file + rename.
  Status saveToFile(const std::string &Path) const;

  /// Reads and deserializes \p Path. Fails soft: a missing or malformed
  /// file (or the "service.cache.load" failpoint) returns an error and
  /// leaves the cache empty — the service then recomputes on demand.
  Status loadFromFile(const std::string &Path);

private:
  struct Stored {
    Entry E;
    uint64_t Gen = 0;
  };
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<RequestKey, Stored, RequestKeyHash> Map;
  };

  static constexpr size_t NumShards = 16;

  Shard &shardFor(const RequestKey &K) {
    return Shards[K.Hash % NumShards];
  }

  std::array<Shard, NumShards> Shards;
  size_t MaxPerShard;
  std::atomic<uint64_t> Gen{0};
  TraceContext Observe;
};

} // namespace alp

#endif // ALP_SERVICE_DECOMPOSITIONCACHE_H
