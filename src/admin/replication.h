#ifndef NIMBLE_ADMIN_REPLICATION_H_
#define NIMBLE_ADMIN_REPLICATION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cleaning/flow.h"
#include "common/result.h"
#include "core/engine.h"
#include "metadata/catalog.h"
#include "relational/database.h"

namespace nimble {
namespace admin {

/// What one replication run did.
struct ReplicationRunStats {
  size_t rows_loaded = 0;
  size_t rows_before_cleaning = 0;
  size_t values_normalized = 0;
  uint64_t source_version = 0;
};

/// Offline replication (paper §2.1: "our main architecture is built on a
/// federated integration model, [but] we support a compound architecture
/// that includes offline data manipulation and replication as well, using
/// our data administrator sub-system").
///
/// A ReplicationJob copies a source collection or a mediated view's result
/// into a local relational table, optionally pushing the records through a
/// cleaning flow on the way (the warehouse-style ETL path, in contrast to
/// the dynamic cleaning of §3.2). The target schema is inferred from the
/// records: the union of field names, with the dominant scalar type per
/// field.
class ReplicationJob {
 public:
  /// Replicates `source:collection` (or a view when `source` is empty)
  /// into `target_table` of `target`. All pointers must outlive the job.
  ReplicationJob(metadata::Catalog* catalog, core::IntegrationEngine* engine,
                 relational::Database* target, std::string target_table,
                 xmlql::SourceRef what)
      : catalog_(catalog),
        engine_(engine),
        target_(target),
        target_table_(std::move(target_table)),
        what_(std::move(what)) {}

  /// Attaches a cleaning flow applied to every batch before loading.
  void SetCleaningFlow(std::shared_ptr<cleaning::CleaningFlow> flow) {
    flow_ = std::move(flow);
  }

  /// Runs the job: fetches, optionally cleans, (re)creates the target
  /// table, loads. Idempotent — each run fully replaces the replica.
  Result<ReplicationRunStats> Run();

  /// True when the origin changed since the last successful run.
  Result<bool> OriginChanged() const;

  const std::string& target_table() const { return target_table_; }
  const xmlql::SourceRef& origin() const { return what_; }
  std::optional<uint64_t> last_loaded_version() const {
    return last_loaded_version_;
  }

 private:
  /// The origin's staleness cookie: the source's DataVersion, or
  /// Catalog::ViewSourcesVersion for a view.
  Result<uint64_t> OriginVersion() const;
  /// Reads the origin's version into `*version`, then its records.
  Result<std::vector<cleaning::KeyedRecord>> FetchRecords(
      uint64_t* version) const;

  metadata::Catalog* catalog_;
  core::IntegrationEngine* engine_;
  relational::Database* target_;
  std::string target_table_;
  xmlql::SourceRef what_;
  std::shared_ptr<cleaning::CleaningFlow> flow_;
  std::optional<uint64_t> last_loaded_version_;
};

/// Infers a relational schema from a record batch: union of field names
/// (sorted), column type = the single scalar type seen, widened to string
/// on conflict (int+double widen to double). Exposed for tests.
relational::TableSchema InferSchema(
    const std::string& table_name,
    const std::vector<cleaning::KeyedRecord>& records);

}  // namespace admin
}  // namespace nimble

#endif  // NIMBLE_ADMIN_REPLICATION_H_
