// Tracing for the per-layer run, recorded entirely from the benchmark's own
// code: an in-memory span recorder, and a Connector decorator that times
// every call the engine makes into a source.

#ifndef NIMBLE_PERFBENCH_TRACE_H_
#define NIMBLE_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "connector/connector.h"

namespace perfbench {

/// One timed interval. `parent` is the id of the span that caused it (0 =
/// none); `op` is the benchmark operation it belongs to (0 = not
/// attributable, e.g. connector calls on a multi-client workload).
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
  int64_t start_ns;
  int64_t end_ns;
};

/// Thread-safe in-memory span store. Nothing is written while the run is
/// measured; WriteCsv dumps the spans once the run has ended. At most
/// `capacity` spans are kept, later ones are counted as dropped.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity < 65536 ? capacity : 65536);
  }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span);

  /// Writes `id,parent,op,name,start_ns,end_ns` lines, times relative to
  /// the earliest span. Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

  size_t size() const;
  size_t dropped() const { return dropped_.load(); }

 private:
  const size_t capacity_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Everything the timing decorators observe, summed over the run, plus the
/// calls of the operation in flight on a one-client workload.
class SourceTrace {
 public:
  explicit SourceTrace(SpanRecorder* recorder) : recorder_(recorder) {}

  /// Connector calls are only counted between Enable() and Disable(), so
  /// set-up traffic (Analyze, warm-up) stays out of the totals.
  void Enable() { enabled_.store(true); }
  void Disable() { enabled_.store(false); }

  /// One-client workloads: connector calls from now on belong to `op`,
  /// children of span `parent`, and their SQL text and fetched collections
  /// are kept for the standalone layer re-calls. Clears the previous
  /// operation's captures.
  void BeginOp(uint64_t op, uint64_t parent);
  void EndOp();

  struct Captured {
    std::vector<std::pair<int64_t, int64_t>> intervals;  ///< connector calls.
    std::vector<std::string> sql;                        ///< SELECT texts.
    /// Fetched collections, with the undecorated source that serves them.
    /// The tree itself is not kept: holding it would move the cost of
    /// freeing it out of the engine's timed call.
    std::vector<std::pair<nimble::connector::Connector*, std::string>> fetches;
  };
  /// Captures of the last operation (valid after EndOp).
  const Captured& captured() const { return captured_; }

  /// Multi-client workloads: SELECT texts seen, up to a fixed sample.
  std::vector<std::string> SampledSql() const;

  void OnFetch(int64_t start, int64_t end, size_t rows,
               nimble::connector::Connector* source,
               const std::string& collection);
  /// `rows` is the SELECT's result size (records crossing the boundary).
  void OnSql(const std::string& sql, int64_t start, int64_t end, bool select,
             size_t rows);

  int64_t fetch_ns() const { return fetch_ns_.load(); }
  int64_t sql_ns() const { return sql_ns_.load(); }
  int64_t dml_ns() const { return dml_ns_.load(); }
  uint64_t read_calls() const { return read_calls_.load(); }
  uint64_t rows_shipped() const { return rows_shipped_.load(); }

 private:
  void Capture(int64_t start, int64_t end, const char* name,
               std::string* sql, nimble::connector::Connector* source,
               const std::string* collection);

  SpanRecorder* const recorder_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> fetch_ns_{0};
  std::atomic<int64_t> sql_ns_{0};
  std::atomic<int64_t> dml_ns_{0};
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> rows_shipped_{0};

  mutable std::mutex mu_;
  uint64_t op_ = 0;
  uint64_t parent_ = 0;
  Captured captured_;
  std::vector<std::string> sampled_sql_;
};

/// Forwards every call to the wrapped source, timing FetchCollection and
/// ExecuteSql into a SourceTrace. Per-call statistics still flow through
/// the inner connector into the engine's RequestContext.
class TimingConnector : public nimble::connector::Connector {
 public:
  TimingConnector(std::unique_ptr<nimble::connector::Connector> inner,
                  SourceTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  const std::string& name() const override { return inner_->name(); }
  nimble::connector::SourceCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  nimble::Status Ping() override { return inner_->Ping(); }
  std::vector<std::string> Collections() override {
    return inner_->Collections();
  }
  uint64_t DataVersion() override { return inner_->DataVersion(); }
  nimble::connector::FetchStats stats() const override {
    return inner_->stats();
  }
  void ResetStats() override { inner_->ResetStats(); }

  using Connector::ExecuteSql;
  using Connector::FetchCollection;
  nimble::Result<nimble::NodePtr> FetchCollection(
      const std::string& collection,
      const nimble::connector::RequestContext& ctx) override;
  nimble::Result<nimble::relational::ResultSet> ExecuteSql(
      const std::string& sql,
      const nimble::connector::RequestContext& ctx) override;

 private:
  const std::unique_ptr<nimble::connector::Connector> inner_;
  SourceTrace* const trace_;
};

}  // namespace perfbench

#endif  // NIMBLE_PERFBENCH_TRACE_H_
