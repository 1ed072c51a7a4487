#include "materialize/result_cache.h"

#include <algorithm>

namespace nimble {
namespace materialize {

ResultCache::ResultCache(ResultCacheOptions options, Clock* clock)
    : options_(options), clock_(clock) {
  if (options_.shards == 0) options_.shards = 1;
  shard_budget_ = options_.max_bytes / options_.shards;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

int64_t ResultCache::ExpiryFor(int64_t ttl_micros) const {
  int64_t ttl = ttl_micros < 0 ? options_.ttl_micros : ttl_micros;
  return ttl <= 0 ? 0 : clock_->NowMicros() + ttl;
}

ConstNodePtr ResultCache::LookupLocked(Shard& shard, const std::string& key,
                                       bool count_miss) {
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  if (it->second->expires_at_micros != 0 &&
      clock_->NowMicros() >= it->second->expires_at_micros) {
    ++shard.stats.expirations;
    EraseLocked(shard, it->second);
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  // Promote to MRU; the snapshot is shared, not cloned — an O(1) hit.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  return it->second->snapshot;
}

void ResultCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  shard.entries.erase(it->key);
  shard.lru.erase(it);
}

void ResultCache::InsertLocked(Shard& shard, const std::string& key,
                               ConstNodePtr snapshot,
                               std::vector<std::string> tags,
                               int64_t ttl_micros) {
  size_t cost = snapshot->EstimatedBytes();
  if (cost > shard_budget_) {
    // Oversized documents would evict the whole shard for one entry.
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) EraseLocked(shard, it->second);
    return;
  }
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) EraseLocked(shard, it->second);
  while (shard.bytes + cost > shard_budget_ && !shard.lru.empty()) {
    ++shard.stats.evictions;
    EraseLocked(shard, std::prev(shard.lru.end()));
  }
  shard.lru.push_front(Entry{key, std::move(snapshot), cost,
                             ExpiryFor(ttl_micros), std::move(tags)});
  shard.entries[key] = shard.lru.begin();
  shard.bytes += cost;
  ++shard.stats.insertions;
}

ConstNodePtr ResultCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  return LookupLocked(shard, key, /*count_miss=*/true);
}

void ResultCache::Insert(const std::string& key, const NodePtr& document,
                         std::vector<std::string> tags, int64_t ttl_micros) {
  if (document == nullptr) return;
  ConstNodePtr snapshot = document->Freeze();
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  InsertLocked(shard, key, std::move(snapshot), std::move(tags), ttl_micros);
}

Result<ConstNodePtr> ResultCache::LookupOrCompute(const std::string& key,
                                                  const ComputeFn& compute,
                                                  bool* executed_compute) {
  if (executed_compute != nullptr) *executed_compute = false;
  Shard& shard = ShardFor(key);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    MutexLock lock(shard.mu);
    // Waiters do not count as misses — only the leader pays the fetch.
    ConstNodePtr snapshot = LookupLocked(shard, key, /*count_miss=*/false);
    if (snapshot != nullptr) return snapshot;
    auto it = shard.flights.find(key);
    if (it != shard.flights.end()) {
      flight = it->second;
      ++shard.stats.coalesced;
    } else {
      flight = std::make_shared<InFlight>();
      shard.flights.emplace(key, flight);
      leader = true;
      ++shard.stats.misses;
    }
  }

  if (!leader) {
    MutexLock wait_lock(flight->mu);
    while (!flight->done) flight->cv.Wait(flight->mu);
    return *flight->outcome;
  }

  if (executed_compute != nullptr) *executed_compute = true;
  Result<Computed> computed = compute();
  Result<ConstNodePtr> outcome =
      Status::Internal("compute returned no document");
  if (!computed.ok()) {
    outcome = computed.status();
  } else if (computed->document != nullptr) {
    outcome = computed->document->Freeze();
  }
  {
    MutexLock lock(shard.mu);
    // An invalidation during the compute detached this flight: its answer
    // may predate the write, so only the waiters it already has share it,
    // it is not stored, and the slot may now hold a newer flight.
    auto it = shard.flights.find(key);
    if (it != shard.flights.end() && it->second == flight) {
      shard.flights.erase(it);
      if (outcome.ok() && computed->cacheable) {
        InsertLocked(shard, key, *outcome, std::move(computed->tags),
                     computed->ttl_micros);
      }
    }
  }
  {
    MutexLock publish_lock(flight->mu);
    flight->outcome = outcome;
    flight->done = true;
  }
  flight->cv.NotifyAll();
  return outcome;
}

bool ResultCache::Invalidate(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  shard.flights.erase(key);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return false;
  ++shard.stats.invalidations;
  EraseLocked(shard, it->second);
  return true;
}

size_t ResultCache::InvalidateTag(const std::string& tag) {
  size_t dropped = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    // A flight's tags are unknown until its compute returns, so every
    // in-flight compute is detached.
    shard->flights.clear();
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      auto next = std::next(it);
      if (std::find(it->tags.begin(), it->tags.end(), tag) != it->tags.end()) {
        ++shard->stats.invalidations;
        EraseLocked(*shard, it);
        ++dropped;
      }
      it = next;
    }
  }
  return dropped;
}

void ResultCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->stats.invalidations += shard->lru.size();
    shard->flights.clear();
    shard->lru.clear();
    shard->entries.clear();
    shard->bytes = 0;
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

size_t ResultCache::bytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

CacheStats ResultCache::stats() const {
  CacheStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.coalesced += shard->stats.coalesced;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    total.expirations += shard->stats.expirations;
    total.invalidations += shard->stats.invalidations;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

void ResultCache::ResetStats() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->stats = CacheStats{};
  }
}

}  // namespace materialize
}  // namespace nimble
