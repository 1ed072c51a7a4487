#ifndef NIMBLE_CORE_PLAN_CACHE_H_
#define NIMBLE_CORE_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/fragmenter.h"
#include "xmlql/ast.h"

namespace nimble {
namespace core {

/// A parsed XML-QL program together with its per-branch fragmentations.
/// The fragmentations point into `program`, so the pair is compiled once
/// and shared immutably — a CompiledProgram is safe to execute from many
/// threads at once (execution only reads the AST).
struct CompiledProgram {
  xmlql::Program program;
  std::vector<Fragmentation> fragmentations;  ///< one per branch.
};

/// Canonical form of XML-QL text for cache keying: whitespace runs outside
/// quoted literals collapse to a single space, leading/trailing whitespace
/// is dropped. Two spellings of the same query hit the same cache slot.
std::string CanonicalizeQueryText(std::string_view text);

/// Fragments `program` into an immutable CompiledProgram. The program is
/// moved into its final home first, because fragments point into the AST.
std::shared_ptr<const CompiledProgram> CompileProgram(xmlql::Program program);

/// Parses `text`, then compiles it as above.
Result<std::shared_ptr<const CompiledProgram>> CompileProgram(
    std::string_view text);

/// Thread-safe LRU cache of compiled programs keyed by canonicalized query
/// text, so repeated queries (the common case under Zipf traffic and for
/// mediated-view expansion) skip parse + fragment entirely.
class PlanCache {
 public:
  /// `max_entries` of 0 disables storage (GetOrCompile still compiles).
  explicit PlanCache(size_t max_entries) : max_entries_(max_entries) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached program for `canonical_text`, or nullptr.
  /// `stats_epoch` is the caller's current statistics epoch: an entry
  /// compiled under a different epoch was optimized with superseded
  /// statistics, so it is evicted (counted in `stats_evictions`) and the
  /// caller recompiles — the cache key is effectively (text, epoch).
  std::shared_ptr<const CompiledProgram> Lookup(
      const std::string& canonical_text, uint64_t stats_epoch = 0);

  /// One-stop shop: canonicalize, look up, compile-and-insert on miss.
  Result<std::shared_ptr<const CompiledProgram>> GetOrCompile(
      std::string_view text, uint64_t stats_epoch = 0);

  void Insert(const std::string& canonical_text,
              std::shared_ptr<const CompiledProgram> compiled,
              uint64_t stats_epoch = 0);

  /// Drops one entry (no-op when absent). Used by the engine when the plan
  /// verifier rejects a cached plan that no longer matches the catalog;
  /// counted as an invalidation, not an eviction.
  void Erase(const std::string& canonical_text);

  void Clear();

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t insertions = 0;
    size_t evictions = 0;
    /// Entries dropped by Erase (verifier-rejected stale plans).
    size_t invalidations = 0;
    /// Entries dropped on Lookup because their statistics epoch was
    /// superseded (plans re-optimized under fresh stats, DESIGN.md §2h).
    size_t stats_evictions = 0;
  };
  Stats stats() const;
  size_t size() const;
  size_t max_entries() const { return max_entries_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CompiledProgram> compiled;
    uint64_t stats_epoch = 0;  ///< statistics epoch at compile time.
  };

  const size_t max_entries_;
  mutable Mutex mu_{LockRank::kPlanCache, "plan_cache.lru"};
  /// front = most recently used.
  std::list<Entry> lru_ NIMBLE_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_
      NIMBLE_GUARDED_BY(mu_);
  Stats stats_ NIMBLE_GUARDED_BY(mu_);
};

}  // namespace core
}  // namespace nimble

#endif  // NIMBLE_CORE_PLAN_CACHE_H_
