#include "trace.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "util.h"

namespace perfbench {

namespace {
constexpr size_t kSqlSample = 4096;

bool IsSelect(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || sql.size() - i < 6) return false;
  std::string head = sql.substr(i, 6);
  for (char& c : head) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return head == "SELECT";
}
}  // namespace

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64
                 "\n",
                 s.id, s.parent, s.op, s.name, s.start_ns - origin,
                 s.end_ns - origin);
  }
  return std::fclose(f) == 0;
}

void SourceTrace::BeginOp(uint64_t op, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  op_ = op;
  parent_ = parent;
  captured_ = Captured{};
}

void SourceTrace::EndOp() {
  std::lock_guard<std::mutex> lock(mu_);
  op_ = 0;
  parent_ = 0;
}

std::vector<std::string> SourceTrace::SampledSql() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_sql_;
}

void SourceTrace::Capture(int64_t start, int64_t end, const char* name,
                          std::string* sql,
                          nimble::connector::Connector* source,
                          const std::string* collection) {
  uint64_t op;
  uint64_t parent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    op = op_;
    parent = parent_;
    if (op != 0) {
      captured_.intervals.emplace_back(start, end);
      if (sql != nullptr) captured_.sql.push_back(std::move(*sql));
      if (collection != nullptr) {
        captured_.fetches.emplace_back(source, *collection);
      }
    } else if (sql != nullptr && sampled_sql_.size() < kSqlSample) {
      sampled_sql_.push_back(std::move(*sql));
    }
  }
  recorder_->Record(Span{name, recorder_->NewId(), parent, op, start, end});
}

void SourceTrace::OnFetch(int64_t start, int64_t end, size_t rows,
                          nimble::connector::Connector* source,
                          const std::string& collection) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  fetch_ns_.fetch_add(end - start);
  read_calls_.fetch_add(1);
  rows_shipped_.fetch_add(rows);
  Capture(start, end, "connector.fetch", nullptr, source, &collection);
}

void SourceTrace::OnSql(const std::string& sql, int64_t start, int64_t end,
                        bool select, size_t rows) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (!select) {
    dml_ns_.fetch_add(end - start);
    Capture(start, end, "connector.dml", nullptr, nullptr, nullptr);
    return;
  }
  sql_ns_.fetch_add(end - start);
  read_calls_.fetch_add(1);
  rows_shipped_.fetch_add(rows);
  std::string text = sql;
  Capture(start, end, "connector.sql", &text, nullptr, nullptr);
}

nimble::Result<nimble::NodePtr> TimingConnector::FetchCollection(
    const std::string& collection,
    const nimble::connector::RequestContext& ctx) {
  int64_t start = NowNs();
  nimble::Result<nimble::NodePtr> tree =
      inner_->FetchCollection(collection, ctx);
  int64_t end = NowNs();
  if (tree.ok()) {
    trace_->OnFetch(start, end, (*tree)->children().size(), inner_.get(),
                    collection);
  }
  return tree;
}

nimble::Result<nimble::relational::ResultSet> TimingConnector::ExecuteSql(
    const std::string& sql, const nimble::connector::RequestContext& ctx) {
  int64_t start = NowNs();
  nimble::Result<nimble::relational::ResultSet> rs =
      inner_->ExecuteSql(sql, ctx);
  int64_t end = NowNs();
  trace_->OnSql(sql, start, end, IsSelect(sql), rs.ok() ? rs->rows.size() : 0);
  return rs;
}

}  // namespace perfbench
