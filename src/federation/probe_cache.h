#ifndef ALEX_FEDERATION_PROBE_CACHE_H_
#define ALEX_FEDERATION_PROBE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "federation/endpoint.h"
#include "rdf/dictionary.h"

namespace alex::fed {

/// Tuning knobs for CachingEndpoint.
struct ProbeCacheConfig {
  /// LRU bound on cached probe results.
  size_t max_entries = 4096;
  /// Probes streaming more rows than this are not cached (a probe result is
  /// replayed whole, so unbounded entries would pin unbounded memory).
  size_t max_rows_per_entry = 4096;
  /// All-wildcard probes scan the entire remote store; by default they pass
  /// through uncached.
  bool cache_unbounded_probes = false;
};

/// Caching decorator over any QueryEndpoint: memoizes complete, successful
/// probe results keyed by the dictionary-encoded pattern triple, so the
/// bound joins of a federated workload stop re-asking the (simulated)
/// remote endpoint the same triple-pattern question.
///
/// Placement: outermost in the decorator stack
/// (`CachingEndpoint -> ResilientEndpoint -> FaultInjectedEndpoint ->
/// Endpoint`), so a hit skips the whole retry/latency ladder.
///
/// What is never cached — this is what preserves the fault-tolerance
/// semantics of the undecorated stack bit-for-bit:
///  - failed probes (any non-OK status, including deadline-truncated ones):
///    the next probe retries the endpoint for real;
///  - streams the caller cut short (row callback returned false): the
///    cached entry would be missing rows;
///  - results larger than `max_rows_per_entry`.
/// A cold cache therefore forwards exactly the probe sequence the inner
/// stack would have seen without it.
///
/// An entry depends on the endpoint's data only. The federated engine
/// expands owl:sameAs co-referents against its link snapshot BEFORE it
/// probes, so a probe is a concrete pattern and link changes never make a
/// cached result stale: over an immutable dataset (the link service's
/// case) construct without an `EpochFn` and the cache never flushes.
/// When the data under the endpoint can change, pass an `EpochFn` that
/// moves with it (e.g. a dataset mutation counter): whenever the epoch
/// changes between probes the whole cache is dropped. `Flush()` is the
/// manual hook for mutations with no epoch source.
///
/// Thread-safe: lookups/inserts are mutex-guarded, and the lock is never
/// held while rows stream through callbacks (probes re-enter recursively
/// during bound joins), so parallel workload threads can share one cache.
///
/// Metrics: fed.probe_cache_hits / fed.probe_cache_misses /
/// fed.probe_cache_evictions.
class CachingEndpoint final : public QueryEndpoint {
 public:
  using EpochFn = std::function<uint64_t()>;

  /// `inner` is borrowed and must outlive the wrapper. `epoch` may be null
  /// (cache never auto-invalidates; use Flush()).
  explicit CachingEndpoint(const QueryEndpoint* inner,
                           ProbeCacheConfig config = ProbeCacheConfig(),
                           EpochFn epoch = nullptr);

  const std::string& name() const override { return inner_->name(); }

  bool CanAnswer(const sparql::TriplePatternAst& pattern) const override {
    return inner_->CanAnswer(pattern);
  }

  Status Probe(const PatternProbe& probe, const CallOptions& opts,
               const ProbeRowFn& fn) const override;

  /// Drops every cached entry.
  void Flush();

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  /// Dictionary-encoded probe shape: ids of the bound terms,
  /// rdf::kInvalidTermId for wildcards.
  struct Key {
    rdf::TermId s = rdf::kInvalidTermId;
    rdf::TermId p = rdf::kInvalidTermId;
    rdf::TermId o = rdf::kInvalidTermId;
    bool operator==(const Key& other) const {
      return s == other.s && p == other.p && o == other.o;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = 1469598103934665603ull;
      for (uint64_t v : {uint64_t{k.s}, uint64_t{k.p}, uint64_t{k.o}}) {
        h = (h ^ v) * 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  /// One cached row: terms for the slots that were unbound in the probe
  /// (bound slots replay as nullptr, matching the ProbeRowFn contract).
  struct CachedRow {
    std::optional<rdf::Term> terms[3];
  };
  using Rows = std::shared_ptr<const std::vector<CachedRow>>;

  struct Entry {
    Key key;
    Rows rows;
  };

  Key MakeKeyLocked(const PatternProbe& probe) const;
  void FlushLocked() const;
  void InsertLocked(const Key& key, Rows rows) const;

  const QueryEndpoint* inner_;
  ProbeCacheConfig config_;
  EpochFn epoch_fn_;

  mutable std::mutex mu_;
  mutable uint64_t last_epoch_ = 0;
  mutable std::list<Entry> lru_;  // Front = most recently used.
  mutable std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  mutable rdf::Dictionary key_dict_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  mutable uint64_t evictions_ = 0;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_PROBE_CACHE_H_
