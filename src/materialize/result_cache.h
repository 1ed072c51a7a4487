#ifndef NIMBLE_MATERIALIZE_RESULT_CACHE_H_
#define NIMBLE_MATERIALIZE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "xml/node.h"

namespace nimble {
namespace materialize {

/// Cache statistics (E8 evidence). Counters are cumulative since the last
/// ResetStats(); `entries`/`bytes` are point-in-time gauges.
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;         ///< includes singleflight leaders, not waiters.
  size_t coalesced = 0;      ///< singleflight waiters served by a leader.
  size_t insertions = 0;
  size_t evictions = 0;      ///< dropped to fit the byte budget.
  size_t expirations = 0;    ///< dropped because their TTL elapsed.
  size_t invalidations = 0;  ///< dropped by Invalidate/InvalidateTag/Clear.
  size_t entries = 0;        ///< gauge: live entries.
  size_t bytes = 0;          ///< gauge: estimated bytes of live entries.

  double HitRate() const {
    size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// ResultCache configuration.
struct ResultCacheOptions {
  /// Total byte budget across all shards (estimated document bytes);
  /// 0 disables storage (lookups always miss, computes still coalesce).
  size_t max_bytes = 8u << 20;
  /// Default entry TTL; <= 0 means entries never expire.
  int64_t ttl_micros = 0;
  /// Lock shards (each with its own mutex, LRU list and byte budget).
  /// Clamped to at least 1.
  size_t shards = 8;
};

/// Sharded LRU query-result cache with TTL expiry and byte-budget capacity
/// accounting — the "query caching and other performance tuning
/// capabilities" of §2.1/§4, rebuilt for the concurrent execution layer:
///
///  * **Zero-copy hits.** Entries hold *frozen* document snapshots
///    (Node::Freeze). A hit returns the shared snapshot in O(1) instead of
///    deep-cloning an O(result-size) tree; callers that must mutate a
///    cached answer Clone() it themselves (copy-on-write).
///  * **Thread safety.** Every operation is safe from any thread; state is
///    split across `shards` lock shards so concurrent hits on different
///    keys do not contend.
///  * **Singleflight.** LookupOrCompute collapses N concurrent identical
///    misses into one compute: a single leader executes, the other callers
///    block until the leader publishes its snapshot (or error).
///  * **Tag invalidation.** Entries carry tags (source names); a Catalog
///    update hook calls InvalidateTag(source) to drop every answer that
///    depended on that source. Invalidate, InvalidateTag and Clear also
///    detach in-flight computes: callers arriving later start a new flight,
///    and a detached leader shares its answer with its existing waiters but
///    does not store it, since it may predate the write.
class ResultCache {
 public:
  ResultCache(ResultCacheOptions options, Clock* clock);

  /// Legacy-shaped convenience constructor: budget in bytes, default TTL.
  ResultCache(size_t max_bytes, int64_t ttl_micros, Clock* clock)
      : ResultCache(ResultCacheOptions{max_bytes, ttl_micros, 8}, clock) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the shared frozen snapshot, or nullptr on miss/expiry. O(1).
  ConstNodePtr Lookup(const std::string& key);

  /// Inserts (or replaces) an entry. The document is frozen in place (the
  /// caller's handle keeps working for reads) and shared, not cloned.
  /// `tags` drive InvalidateTag; `ttl_micros` < 0 means "use the cache
  /// default", 0 means "never expires". Documents larger than a shard's
  /// byte budget are not stored.
  void Insert(const std::string& key, const NodePtr& document,
              std::vector<std::string> tags = {}, int64_t ttl_micros = -1);

  /// What a singleflight leader's compute returns.
  struct Computed {
    NodePtr document;            ///< frozen by the cache before publishing.
    bool cacheable = true;       ///< false: share with waiters, don't store.
    std::vector<std::string> tags;
    int64_t ttl_micros = -1;     ///< per-entry TTL; -1 = cache default.
  };
  using ComputeFn = std::function<Result<Computed>()>;

  /// Hit: returns the snapshot. Miss: the first caller (the leader) runs
  /// `compute` without holding any cache lock; concurrent callers with the
  /// same key block until the leader finishes and share its snapshot (or
  /// its error — errors are never cached). `executed_compute` (optional)
  /// is set to true only for the leader. `compute` must not re-enter the
  /// cache with the same key.
  Result<ConstNodePtr> LookupOrCompute(const std::string& key,
                                       const ComputeFn& compute,
                                       bool* executed_compute = nullptr);

  /// Drops one entry; false if absent.
  bool Invalidate(const std::string& key);

  /// Drops every entry carrying `tag`; returns how many were dropped.
  size_t InvalidateTag(const std::string& tag);

  void Clear();

  size_t size() const;       ///< live entries across all shards.
  size_t bytes() const;      ///< estimated live bytes across all shards.
  size_t max_bytes() const { return options_.max_bytes; }

  /// Aggregated over shards (a consistent-enough snapshot for monitoring).
  CacheStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    std::string key;
    ConstNodePtr snapshot;
    size_t bytes = 0;
    int64_t expires_at_micros = 0;  ///< 0 = never.
    std::vector<std::string> tags;
  };

  /// One singleflight slot: the leader publishes here and notifies.
  struct InFlight {
    Mutex mu{LockRank::kResultCacheFlight, "result_cache.flight"};
    CondVar cv;
    bool done NIMBLE_GUARDED_BY(mu) = false;
    std::optional<Result<ConstNodePtr>> outcome NIMBLE_GUARDED_BY(mu);
  };

  struct Shard {
    mutable Mutex mu{LockRank::kResultCacheShard, "result_cache.shard"};
    /// front = most recently used.
    std::list<Entry> lru NIMBLE_GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> entries
        NIMBLE_GUARDED_BY(mu);
    std::unordered_map<std::string, std::shared_ptr<InFlight>> flights
        NIMBLE_GUARDED_BY(mu);
    size_t bytes NIMBLE_GUARDED_BY(mu) = 0;
    CacheStats stats NIMBLE_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);
  /// Lookup with TTL handling and LRU promotion; caller holds `shard.mu`.
  /// `count_miss` controls whether an absence bumps the miss counter.
  ConstNodePtr LookupLocked(Shard& shard, const std::string& key,
                            bool count_miss) NIMBLE_REQUIRES(shard.mu);
  /// Insert/replace; caller holds `shard.mu`. Evicts LRU entries until the
  /// shard fits its budget.
  void InsertLocked(Shard& shard, const std::string& key,
                    ConstNodePtr snapshot, std::vector<std::string> tags,
                    int64_t ttl_micros) NIMBLE_REQUIRES(shard.mu);
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it)
      NIMBLE_REQUIRES(shard.mu);
  int64_t ExpiryFor(int64_t ttl_micros) const;

  ResultCacheOptions options_;
  size_t shard_budget_;  ///< per-shard byte budget.
  Clock* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace materialize
}  // namespace nimble

#endif  // NIMBLE_MATERIALIZE_RESULT_CACHE_H_
