#ifndef NIMBLE_CONNECTOR_CSV_CONNECTOR_H_
#define NIMBLE_CONNECTOR_CSV_CONNECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "connector/connector.h"

namespace nimble {
namespace connector {

/// Serves flat files (CSV with a header row) as record collections — the
/// "legacy flat file" source class. Fields are type-inferred on ingest,
/// quoted fields ("a,b" and doubled "" escapes) are supported. Each
/// collection is frozen once by PutCsv and shared on every fetch.
class CsvConnector : public Connector {
 public:
  explicit CsvConnector(std::string source_name)
      : name_(std::move(source_name)) {}

  const std::string& name() const override { return name_; }
  SourceCapabilities capabilities() const override {
    return SourceCapabilities{};
  }
  std::vector<std::string> Collections() override;
  using Connector::FetchCollection;
  Result<NodePtr> FetchCollection(const std::string& collection,
                                  const RequestContext& ctx) override;
  uint64_t DataVersion() override {
    ReaderMutexLock lock(mutex_);
    return version_;
  }

  /// Parses `csv_text` (header row + data rows) and registers it as
  /// `collection_name`. Each row becomes `<row><header>value</header>…</row>`.
  Status PutCsv(const std::string& collection_name,
                const std::string& csv_text);

 private:
  const std::string name_;
  /// Reads shared, PutCsv exclusive.
  mutable SharedMutex mutex_{LockRank::kConnectorData, "csv_connector.data"};
  std::map<std::string, NodePtr> collections_ NIMBLE_GUARDED_BY(mutex_);
  uint64_t version_ NIMBLE_GUARDED_BY(mutex_) = 0;
};

/// Splits one CSV line honouring quotes; exposed for tests.
std::vector<std::string> SplitCsvLine(const std::string& line);

}  // namespace connector
}  // namespace nimble

#endif  // NIMBLE_CONNECTOR_CSV_CONNECTOR_H_
