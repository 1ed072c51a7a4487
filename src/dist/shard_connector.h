#ifndef NIMBLE_DIST_SHARD_CONNECTOR_H_
#define NIMBLE_DIST_SHARD_CONNECTOR_H_

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "connector/connector.h"
#include "xml/node.h"

namespace nimble {
namespace dist {

/// Registry of the fragment *trees* behind a shard cluster: for each
/// sharded source:collection, one frozen tree per shard. Shard connectors
/// read a snapshot under the lock; Repartition swaps whole fragment sets
/// in one Install. Frozen trees make the handoff safe — a query that
/// fetched the old set keeps reading it while the new set serves.
class FragmentRegistry {
 public:
  FragmentRegistry() = default;
  FragmentRegistry(const FragmentRegistry&) = delete;
  FragmentRegistry& operator=(const FragmentRegistry&) = delete;

  /// Installs (or replaces) the fragment set for `source`:`collection`.
  void Install(const std::string& source, const std::string& collection,
               std::vector<ConstNodePtr> fragments) NIMBLE_EXCLUDES(mu_);

  /// Shard `shard`'s fragment, or nullptr when the collection is not
  /// sharded (or the shard index is out of range).
  ConstNodePtr Get(const std::string& source, const std::string& collection,
                   size_t shard) const NIMBLE_EXCLUDES(mu_);

  /// Per-fragment record counts for one sharded collection (monitor
  /// gauges); empty when unsharded.
  std::vector<size_t> FragmentRowCounts(
      const std::string& source, const std::string& collection) const
      NIMBLE_EXCLUDES(mu_);

  /// Bumps on every Install — folded into shard connectors' DataVersion so
  /// caches keyed on data versions see repartitions as data changes.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  static std::string Key(const std::string& source,
                         const std::string& collection) {
    return source + "\x1f" + collection;
  }

  mutable Mutex mu_{LockRank::kShardFragments, "dist.fragments"};
  std::map<std::string, std::vector<ConstNodePtr>> fragments_
      NIMBLE_GUARDED_BY(mu_);
  std::atomic<uint64_t> epoch_{0};
};

/// The connector a shard engine sees for one global source: sharded
/// collections come from this shard's fragment in the registry; everything
/// else forwards to the real connector (small dimension collections are
/// replicated-by-reference this way).
///
/// Capabilities are deliberately empty — SQL/predicate pushdown into the
/// *inner* connector would read the whole unfragmented collection and break
/// shard isolation, so shard-local plans always fetch + match. (The inner
/// source's own indexes still serve the coordinator's non-distributed
/// plans.)
class ShardSourceConnector : public connector::Connector {
 public:
  /// `registry` and `inner` must outlive this connector; `inner` stays
  /// owned by the global catalog.
  ShardSourceConnector(const FragmentRegistry* registry,
                       connector::Connector* inner, size_t shard_index)
      : registry_(registry), inner_(inner), shard_index_(shard_index) {}

  const std::string& name() const override { return inner_->name(); }
  connector::SourceCapabilities capabilities() const override {
    return connector::SourceCapabilities{};
  }
  Status Ping() override { return inner_->Ping(); }
  std::vector<std::string> Collections() override {
    return inner_->Collections();
  }

  Result<NodePtr> FetchCollection(
      const std::string& collection,
      const connector::RequestContext& ctx) override;

  uint64_t DataVersion() override {
    // Mixed so either an inner-data change or a repartition moves it.
    return inner_->DataVersion() * 1000003u + registry_->epoch();
  }

  size_t shard_index() const { return shard_index_; }

 private:
  const FragmentRegistry* registry_;
  connector::Connector* inner_;
  const size_t shard_index_;
};

}  // namespace dist
}  // namespace nimble

#endif  // NIMBLE_DIST_SHARD_CONNECTOR_H_
