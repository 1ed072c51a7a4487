#ifndef NIMBLE_MATERIALIZE_VIEW_STORE_H_
#define NIMBLE_MATERIALIZE_VIEW_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/engine.h"
#include "metadata/catalog.h"

namespace nimble {
namespace materialize {

/// When a materialized view's local copy is refreshed.
struct MaterializationPolicy {
  enum class Refresh {
    kManualOnly,  ///< only explicit Refresh() calls.
    kOnStale,     ///< on serve, re-run if any source version changed.
    kTtl,         ///< on serve, re-run if older than ttl_micros.
  };
  Refresh refresh = Refresh::kOnStale;
  int64_t ttl_micros = 60'000'000;
};

/// Serving statistics per view.
struct ViewStoreStats {
  size_t serves = 0;
  size_t refreshes = 0;
  size_t stale_serves = 0;  ///< serves that returned out-of-date data.
};

/// Local materialization of mediated views — the paper's middle way
/// between warehousing and virtual integration (§3.3): "one materializes
/// views over the mediated schema" instead of designing a warehouse
/// schema, and "the query processor knows to make use of local copies of
/// data when available".
class MaterializedViewStore {
 public:
  /// All pointers must outlive the store.
  MaterializedViewStore(metadata::Catalog* catalog,
                        core::IntegrationEngine* engine, Clock* clock)
      : catalog_(catalog), engine_(engine), clock_(clock) {}

  MaterializedViewStore(const MaterializedViewStore&) = delete;
  MaterializedViewStore& operator=(const MaterializedViewStore&) = delete;

  /// Starts materializing `view_name` (must be defined in the catalog);
  /// performs the initial load now.
  Status Materialize(const std::string& view_name,
                     const MaterializationPolicy& policy = {});

  /// Serves the view: from the local copy when fresh per policy, else
  /// refreshing first. A local serve shares the frozen copy (no clone;
  /// mutate via QueryResult::MutableDocument). Views that were never
  /// materialized execute virtually through the engine.
  Result<core::QueryResult> Query(const std::string& view_name);

  /// Forces a reload from the sources.
  Status Refresh(const std::string& view_name);

  /// Removes the local copy (subsequent queries run virtually).
  Status Drop(const std::string& view_name);

  bool IsMaterialized(const std::string& view_name) const;

  /// True when any underlying source changed since the last refresh.
  /// NotFound if the view is not materialized.
  Result<bool> IsStale(const std::string& view_name) const;

  /// Age of the local copy in microseconds (virtual clock).
  Result<int64_t> AgeMicros(const std::string& view_name) const;

  const ViewStoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ViewStoreStats{}; }

  /// Total result-tree nodes held across materialized views (the storage
  /// cost metric used by view selection, E2).
  size_t StorageCost() const;

 private:
  struct Entry {
    const metadata::MediatedView* view = nullptr;
    /// The view's answer, frozen at load and shared by every serve.
    ConstNodePtr snapshot;
    core::ExecutionReport load_report;
    MaterializationPolicy policy;
    int64_t refreshed_at_micros = 0;
    /// Catalog::ViewSourcesVersion, read before the load executed.
    uint64_t source_version = 0;
  };

  Status LoadEntry(Entry* entry);
  bool EntryIsStale(const Entry& entry) const;

  metadata::Catalog* catalog_;
  core::IntegrationEngine* engine_;
  Clock* clock_;
  std::map<std::string, Entry> entries_;
  ViewStoreStats stats_;
};

}  // namespace materialize
}  // namespace nimble

#endif  // NIMBLE_MATERIALIZE_VIEW_STORE_H_
