#ifndef NIMBLE_METADATA_CATALOG_H_
#define NIMBLE_METADATA_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "connector/connector.h"
#include "metadata/fragment_map.h"
#include "metadata/statistics.h"
#include "xmlql/ast.h"

namespace nimble {
namespace metadata {

/// A mediated schema element: a named view defined by an XML-QL query over
/// sources and/or other views (global-as-view, §2.1). Views compose
/// hierarchically — "we can define successive schemas as views over other
/// underlying schemas" — so an organisation integrates incrementally.
struct MediatedView {
  std::string name;
  std::string query_text;
  std::string description;
  /// Views this view's query references (for dependency ordering).
  std::vector<std::string> view_dependencies;
  /// Sources this view touches, directly or transitively.
  std::vector<std::string> source_dependencies;
};

/// The metadata server: registry of source connectors plus the mediated
/// schema (view) definitions — "the metadata server contains the mappings
/// that allow XML-QL to be split apart and translated appropriately" (§2.1).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a source connector under its own name.
  Status RegisterSource(std::unique_ptr<connector::Connector> source);

  connector::Connector* source(const std::string& name) const;
  std::vector<std::string> SourceNames() const;

  /// Defines a mediated view. The query text is parsed and validated now;
  /// every source and view it references must already be registered
  /// (bottom-up definition order — which also rules out cycles).
  Status DefineView(const std::string& name, const std::string& query_text,
                    const std::string& description = "");

  const MediatedView* view(const std::string& name) const;
  std::vector<std::string> ViewNames() const;

  /// All sources a view depends on, transitively through sub-views
  /// (its MediatedView::source_dependencies).
  Result<std::vector<std::string>> TransitiveSources(
      const std::string& view_name) const;

  /// A view's staleness cookie: the sum of its sources' (monotone)
  /// DataVersion(). Read it before loading the view, so a racing write
  /// shows as a change instead of being recorded as loaded.
  uint64_t ViewSourcesVersion(const MediatedView& view) const;

  // ---- Source-update notifications ---------------------------------------
  //
  // Writers that change a source's data (replication jobs, admin tooling,
  // tests) call NotifySourceUpdated; subscribers — the engines' result
  // caches — drop every cached answer that depended on that source.
  // Thread-safe; listeners run synchronously on the notifying thread and
  // must not call back into the catalog's listener API.

  using UpdateListener = std::function<void(const std::string& source_name)>;

  /// Registers a listener; returns a token for RemoveUpdateListener.
  uint64_t AddUpdateListener(UpdateListener listener);
  void RemoveUpdateListener(uint64_t token);

  /// Announces that `source_name`'s underlying data changed. Besides
  /// fanning out to listeners, marks the source's statistics stale (cheap
  /// incremental upkeep: the optimizer epoch advances so cached plans
  /// re-optimize, without paying for a re-Analyze on every write).
  void NotifySourceUpdated(const std::string& source_name);

  // ---- Horizontal fragmentation (DESIGN.md §2i) --------------------------

  /// Records how `map.source`:`map.collection` is split into horizontal
  /// fragments. Like RegisterSource, configure-before-serve: the partition
  /// topology (key, keying, fragment count) is fixed at setup; only the
  /// fragment *contents* move at runtime (dist::ShardCluster::Repartition).
  Status RegisterFragmentMap(FragmentMap map);

  /// The fragment map for a collection, or nullptr if it is unsharded.
  const FragmentMap* fragment_map(const std::string& source,
                                  const std::string& collection) const;

  /// Every registered fragment map (monitor/EXPLAIN enumeration).
  std::vector<const FragmentMap*> FragmentMaps() const;

  // ---- Optimizer statistics (DESIGN.md §2h) ------------------------------

  /// Per-collection statistics feeding the cost-based optimizer.
  StatisticsCatalog& statistics() { return statistics_; }
  const StatisticsCatalog& statistics() const { return statistics_; }

  /// Runs an Analyze() pass over one registered source (or all of them),
  /// sampling at most `sample_rows` records per collection (0 = all).
  Status AnalyzeSource(const std::string& source_name, size_t sample_rows = 0);
  Status AnalyzeAllSources(size_t sample_rows = 0);

 private:
  /// Configure-before-serve (see the class contract): RegisterSource and
  /// DefineView run during single-threaded setup, after which these maps
  /// are read-only — the documented exemption from GUARDED_BY in
  /// DESIGN.md section 2e.
  // nimble-lint: unguarded(configure-before-serve: RegisterSource runs during single-threaded setup)
  std::map<std::string, std::unique_ptr<connector::Connector>> sources_;
  // nimble-lint: unguarded(configure-before-serve: DefineView runs during single-threaded setup)
  std::map<std::string, MediatedView> views_;
  /// Keyed source + "\x1f" + collection; configure-before-serve like the
  /// two maps above — RegisterFragmentMap refuses overwrites, and
  /// Repartition only reads the map (it re-installs *fragments*, not maps).
  // nimble-lint: unguarded(configure-before-serve: RegisterFragmentMap refuses overwrites; Repartition only reads)
  std::map<std::string, FragmentMap> fragment_maps_;
  mutable Mutex listeners_mu_{LockRank::kCatalogListeners, "catalog.listeners"};
  uint64_t next_listener_token_ NIMBLE_GUARDED_BY(listeners_mu_) = 1;
  std::vector<std::pair<uint64_t, UpdateListener>> listeners_
      NIMBLE_GUARDED_BY(listeners_mu_);
  /// Internally synchronized (LockRank::kStatistics).
  // nimble-lint: unguarded(StatisticsCatalog is internally synchronized under LockRank::kStatistics)
  StatisticsCatalog statistics_;
};

}  // namespace metadata
}  // namespace nimble

#endif  // NIMBLE_METADATA_CATALOG_H_
