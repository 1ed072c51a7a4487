#include "workloads.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "algebra/construct.h"
#include "algebra/pattern_match.h"
#include "core/plan_cache.h"
#include "relational/sql_parser.h"
#include "util.h"
#include "xml/serializer.h"
#include "xmlql/parser.h"

namespace perfbench {

namespace {

using nimble::Node;
using nimble::NodePtr;
using nimble::algebra::Tuple;
using nimble::algebra::TupleSchema;

constexpr size_t kSetupReps = 5;
constexpr size_t kSpanCapacity = 200000;

// portal_mixed: one round of each client is 44 point reads, 5 range reads
// and 1 write in a seeded order (88 % / 10 % / 2 %). Range reads (plan-cache
// misses) and reads stalled behind a write are the slowest classes; with
// 10 % range reads the read p90 falls inside the range-read class instead
// of on its boundary with the point reads, where it jumps between classes
// from run to run.
constexpr size_t kRoundPoint = 44;
constexpr size_t kRoundRange = 5;
constexpr size_t kRoundWrite = 1;
constexpr size_t kHotSet = 1000;
constexpr double kZipfSkew = 1.0;
constexpr size_t kPortalClients = 2;
// portal_mixed runs every thread of the process on one CPU at a time and
// moves them all to the next allowed CPU after this long (see RotateCpus).
constexpr auto kCpuSlice = std::chrono::milliseconds(250);

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(double ns) { return ns / 1e3; }

/// Length of the part of [lo, hi) covered by the union of `intervals`.
int64_t CoveredWithin(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

// ---- Operations and their independent checks --------------------------------

/// A read operation: its span name, XML-QL text, the check of its answer
/// against the generator's records, and (xml_scan) the selection predicate
/// the standalone CONSTRUCT re-call applies to the matched tuples.
struct ReadOp {
  const char* kind = "op";
  std::string text;
  std::function<bool(const Node& doc, std::string* why)> check;
  std::function<bool(const Tuple&, const TupleSchema&)> selected;
};

std::string Str(const nimble::Value& v) { return v.ToString(); }

bool ChildIs(const Node& node, const char* child, int64_t expected) {
  NodePtr c = node.FindChild(child);
  return c != nullptr && Str(c->ScalarValue()) == std::to_string(expected);
}

ReadOp XmlScanOp(const Data& data, int64_t k) {
  ReadOp op;
  op.kind = "op.scan";
  op.text =
      "WHERE <orders><order><id>$i</id><cust>$c</cust><total>$t</total>"
      "</order></orders> IN \"shop:orders\", $t > " +
      std::to_string(k) +
      " CONSTRUCT <o id=$i><cust>$c</cust><total>$t</total></o>";
  op.check = [&data, k](const Node& doc, std::string* why) {
    const std::vector<NodePtr>& got = doc.children();
    size_t j = 0;
    for (const Order& o : data.orders) {
      if (o.total <= k) continue;
      if (j >= got.size()) {
        *why = "xml_scan: too few results";
        return false;
      }
      const Node& r = *got[j++];
      if (Str(r.GetAttribute("id")) != std::to_string(o.id) ||
          !ChildIs(r, "cust", o.cust) || !ChildIs(r, "total", o.total)) {
        *why = "xml_scan: result " + std::to_string(j - 1) +
               " differs from order " + std::to_string(o.id);
        return false;
      }
    }
    if (j != got.size()) {
      *why = "xml_scan: too many results";
      return false;
    }
    return true;
  };
  op.selected = [k](const Tuple& t, const TupleSchema& schema) {
    std::optional<size_t> slot = schema.SlotOf("t");
    if (!slot.has_value()) slot = schema.SlotOf("$t");
    if (!slot.has_value()) return false;
    const nimble::Value& v = t[*slot].AsScalar();
    return v.is_numeric() && v.NumericValue() > static_cast<double>(k);
  };
  return op;
}

ReadOp FederatedOp(const Data& data, int64_t min_score, int64_t min_balance) {
  ReadOp op;
  op.kind = "op.join";
  op.text =
      "WHERE <customers><row><id>$c</id><city>$y</city><score>$s</score>"
      "</row></customers> IN \"crm:customers\", "
      "<accounts><row><cust>$c</cust><balance>$b</balance></row></accounts> "
      "IN \"billing:accounts\", $s >= " +
      std::to_string(min_score) + ", $b >= " + std::to_string(min_balance) +
      " CONSTRUCT <city name=$y><n>count($b)</n><sum>sum($b)</sum></city>"
      " GROUP BY $y ORDER BY $y";
  op.check = [&data, min_score, min_balance](const Node& doc,
                                             std::string* why) {
    // Plain std::map join over the generator's records.
    std::map<std::string, std::pair<int64_t, int64_t>> expected;
    for (const Account& a : data.accounts) {
      const Customer& c = data.customers[static_cast<size_t>(a.cust)];
      if (a.balance < min_balance || c.score < min_score) continue;
      auto& [n, sum] = expected[kCities[c.city]];
      ++n;
      sum += a.balance;
    }
    const std::vector<NodePtr>& got = doc.children();
    if (got.size() != expected.size()) {
      *why = "federated_join: " + std::to_string(got.size()) +
             " cities, expected " + std::to_string(expected.size());
      return false;
    }
    size_t j = 0;
    for (const auto& [city, agg] : expected) {
      const Node& r = *got[j++];
      NodePtr n = r.FindChild("n");
      NodePtr sum = r.FindChild("sum");
      if (Str(r.GetAttribute("name")) != city || n == nullptr ||
          sum == nullptr || !n->ScalarValue().is_numeric() ||
          !sum->ScalarValue().is_numeric() ||
          n->ScalarValue().NumericValue() != static_cast<double>(agg.first) ||
          sum->ScalarValue().NumericValue() !=
              static_cast<double>(agg.second)) {
        *why = "federated_join: wrong count or sum for " + city;
        return false;
      }
    }
    return true;
  };
  return op;
}

std::string PointText(int64_t id) {
  return "WHERE <customers><row><id>$i</id><name>$n</name>"
         "<version>$v</version></row></customers> IN \"crm:customers\", $i = " +
         std::to_string(id) +
         " CONSTRUCT <c id=$i><name>$n</name><version>$v</version></c>";
}

std::string RangeText(int64_t lo, int64_t hi) {
  return "WHERE <customers><row><id>$i</id><name>$n</name></row></customers>"
         " IN \"crm:customers\", $i >= " +
         std::to_string(lo) + ", $i < " + std::to_string(hi) +
         " CONSTRUCT <c id=$i><name>$n</name></c>";
}

/// Point read: exactly one row, the generated name, and a version no older
/// than the last write to that id acknowledged before the read began.
bool CheckPoint(const Data& data, int64_t id, int64_t min_version,
                const Node& doc, std::string* why) {
  if (doc.children().size() != 1) {
    *why = "point read " + std::to_string(id) + ": " +
           std::to_string(doc.children().size()) + " rows";
    return false;
  }
  const Node& r = *doc.children()[0];
  NodePtr name = r.FindChild("name");
  NodePtr version = r.FindChild("version");
  const std::string& expected = data.customers[static_cast<size_t>(id)].name;
  if (Str(r.GetAttribute("id")) != std::to_string(id) || name == nullptr ||
      Str(name->ScalarValue()) != expected || version == nullptr ||
      !version->ScalarValue().is_numeric()) {
    *why = "point read " + std::to_string(id) + ": wrong row";
    return false;
  }
  if (version->ScalarValue().NumericValue() <
      static_cast<double>(min_version)) {
    *why = "point read " + std::to_string(id) + ": stale version " +
           Str(version->ScalarValue()) + " < acknowledged " +
           std::to_string(min_version);
    return false;
  }
  return true;
}

/// Range read: the exact id set [lo, hi).
bool CheckRange(int64_t lo, int64_t hi, const Node& doc, std::string* why) {
  std::vector<std::string> got;
  for (const NodePtr& r : doc.children()) {
    got.push_back(Str(r->GetAttribute("id")));
  }
  std::vector<std::string> expected;
  for (int64_t id = lo; id < hi; ++id) expected.push_back(std::to_string(id));
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  if (got != expected) {
    *why = "range read [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "): wrong id set";
    return false;
  }
  return true;
}

// ---- Measurement -----------------------------------------------------------

/// Per-layer sums of one client (traced run only).
struct Layers {
  double parse_ns = 0, compile_ns = 0, exec_ns = 0, connector_covered_ns = 0;
  double queue_wait_us = 0, serialize_ns = 0, result_bytes = 0;
  double sql_parse_ns = 0, sql_parsed = 0;
  double match_ns = 0, rows_matched = 0, construct_ns = 0;
  double notify_ns = 0;

  void Add(const Layers& o) {
    parse_ns += o.parse_ns;
    compile_ns += o.compile_ns;
    exec_ns += o.exec_ns;
    connector_covered_ns += o.connector_covered_ns;
    queue_wait_us += o.queue_wait_us;
    serialize_ns += o.serialize_ns;
    result_bytes += o.result_bytes;
    sql_parse_ns += o.sql_parse_ns;
    sql_parsed += o.sql_parsed;
    match_ns += o.match_ns;
    rows_matched += o.rows_matched;
    construct_ns += o.construct_ns;
    notify_ns += o.notify_ns;
  }
};

struct Client {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_error;
  int64_t busy_ns = 0;  ///< time inside timed operations, failed ones too.
  Layers layers;

  void Fail(const std::string& why, bool wrong_answer) {
    ++failed;
    if (wrong_answer) ++wrong;
    if (first_error.empty()) first_error = why;
  }
  void Add(const Client& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (first_error.empty()) first_error = o.first_error;
    layers.Add(o.layers);
  }
};

/// Shared state of a traced run.
struct Tracer {
  SpanRecorder recorder{kSpanCapacity};
  SourceTrace sources{&recorder};

  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t op,
              int64_t start, int64_t end) {
    recorder.Record(Span{name, id, parent, op, start, end});
  }
  /// Times `fn` as a span and returns its duration in ns.
  template <typename Fn>
  int64_t Timed(const char* name, uint64_t parent, uint64_t op, Fn&& fn) {
    int64_t start = NowNs();
    fn();
    int64_t end = NowNs();
    Record(name, recorder.NewId(), parent, op, start, end);
    return end - start;
  }
};

/// The timed unit of a read: ExecuteText, then ToXml of the answer.
struct ReadOutcome {
  nimble::Result<nimble::core::QueryResult> result =
      nimble::Status::Internal("not run");
  int64_t start = 0, exec_end = 0, end = 0;
  size_t bytes = 0;
};

void TimedRead(nimble::core::IntegrationEngine* engine, const std::string& text,
               ReadOutcome* out) {
  out->start = NowNs();
  out->result = engine->ExecuteText(text);
  out->exec_end = NowNs();
  if (out->result.ok()) {
    out->bytes = nimble::ToXml(*out->result->document).size();
  }
  out->end = NowNs();
}

/// Runs `op`, checks the answer, records latency; in a traced run also
/// records spans and makes the standalone layer re-calls.
void ReadOnce(World* world, const ReadOp& op, Client* client, Tracer* tracer,
              bool one_client) {
  ++client->attempted;
  ReadOutcome out;
  uint64_t op_id = 0;
  uint64_t exec_id = 0;
  if (tracer != nullptr) {
    op_id = tracer->recorder.NewId();
    exec_id = tracer->recorder.NewId();
    if (one_client) tracer->sources.BeginOp(op_id, exec_id);
  }
  TimedRead(world->engine.get(), op.text, &out);
  client->busy_ns += out.end - out.start;
  if (tracer != nullptr && one_client) tracer->sources.EndOp();
  if (!out.result.ok()) {
    client->Fail(out.result.status().ToString(), false);
    return;
  }
  client->read_ms.push_back(Ms(out.end - out.start));
  std::string why;
  if (!op.check(*out.result->document, &why)) client->Fail(why, true);
  if (tracer == nullptr) return;

  // Traced run: spans for the operation, then the standalone re-calls.
  Layers& l = client->layers;
  tracer->Record(op.kind, op_id, 0, op_id, out.start, out.end);
  tracer->Record("core.execute_text", exec_id, op_id, op_id, out.start,
                 out.exec_end);
  tracer->Record("xml.serialize", tracer->recorder.NewId(), op_id, op_id,
                 out.exec_end, out.end);
  const int64_t exec_ns = out.exec_end - out.start;
  const double queue_us =
      static_cast<double>(out.result->report.queue_wait_micros);
  l.exec_ns += static_cast<double>(exec_ns);
  l.queue_wait_us += queue_us;
  l.serialize_ns += static_cast<double>(out.end - out.exec_end);
  l.result_bytes += static_cast<double>(out.bytes);
  if (one_client) {
    const int64_t covered = CoveredWithin(tracer->sources.captured().intervals,
                                          out.start, out.exec_end);
    l.connector_covered_ns += static_cast<double>(covered);
  }
  l.parse_ns += static_cast<double>(tracer->Timed(
      "xmlql.parse", op_id, op_id,
      [&] { (void)nimble::xmlql::ParseProgram(op.text); }));
  std::shared_ptr<const nimble::core::CompiledProgram> compiled;
  l.compile_ns += static_cast<double>(
      tracer->Timed("core.compile", op_id, op_id, [&] {
        auto c = nimble::core::CompileProgram(op.text);
        if (c.ok()) compiled = *c;
      }));
  if (!one_client) return;
  const SourceTrace::Captured& cap = tracer->sources.captured();
  for (const std::string& sql : cap.sql) {
    l.sql_parse_ns += static_cast<double>(tracer->Timed(
        "relational.sql_parse", op_id, op_id,
        [&] { (void)nimble::relational::ParseSql(sql); }));
    l.sql_parsed += 1;
  }
  if (compiled == nullptr || cap.fetches.empty() ||
      compiled->fragmentations.empty() ||
      compiled->fragmentations[0].fragments.empty()) {
    return;
  }
  const nimble::core::Fragment& fragment =
      compiled->fragmentations[0].fragments[0];
  std::vector<Tuple> matched;
  for (const auto& [source, collection] : cap.fetches) {
    // The same document the engine fetched, served again by the source.
    nimble::Result<NodePtr> refetched = source->FetchCollection(collection);
    if (!refetched.ok()) continue;
    const NodePtr& tree = *refetched;
    l.match_ns += static_cast<double>(
        tracer->Timed("algebra.match", op_id, op_id, [&] {
          auto m = nimble::algebra::MatchPattern(fragment.pattern->root, tree,
                                                 fragment.schema);
          if (m.ok()) matched = std::move(*m);
        }));
    l.rows_matched += static_cast<double>(matched.size());
  }
  if (!op.selected) return;
  std::vector<const Tuple*> selected;
  for (const Tuple& t : matched) {
    if (op.selected(t, fragment.schema)) selected.push_back(&t);
  }
  const nimble::xmlql::Query& query = compiled->program.branches[0];
  l.construct_ns += static_cast<double>(
      tracer->Timed("algebra.construct", op_id, op_id, [&] {
        for (const Tuple* t : selected) {
          (void)nimble::algebra::InstantiateTemplate(*query.construct,
                                                     fragment.schema, *t);
        }
      }));
}

/// portal_mixed write: UPDATE through the connector, then the catalog
/// notification that invalidates cached answers over the source.
void WriteOnce(World* world, int64_t id, int64_t version, Client* client,
               Tracer* tracer) {
  ++client->attempted;
  const std::string sql = "UPDATE customers SET version = " +
                          std::to_string(version) +
                          " WHERE id = " + std::to_string(id);
  int64_t start = NowNs();
  auto rs = world->catalog.source("crm")->ExecuteSql(sql);
  int64_t sql_end = NowNs();
  if (rs.ok()) world->catalog.NotifySourceUpdated("crm");
  int64_t end = NowNs();
  client->busy_ns += end - start;
  if (!rs.ok()) {
    client->Fail(rs.status().ToString(), false);
    return;
  }
  client->write_ms.push_back(Ms(end - start));
  if (rs->stats.rows_returned != 1) {
    client->Fail("write " + std::to_string(id) + ": " +
                     std::to_string(rs->stats.rows_returned) + " rows affected",
                 true);
  }
  if (tracer != nullptr) {
    uint64_t op_id = tracer->recorder.NewId();
    tracer->Record("op.write", op_id, 0, op_id, start, end);
    tracer->Record("metadata.notify", tracer->recorder.NewId(), op_id, op_id,
                 sql_end, end);
    client->layers.notify_ns += static_cast<double>(end - sql_end);
  }
}

// ---- Workload loops --------------------------------------------------------

/// Operation `i` of a one-client workload; `warmup` picks a constant
/// outside the timed range so the warm-up never pre-caches a timed text.
ReadOp OneClientOp(Workload w, const Data& data, uint64_t seed, uint64_t i,
                   bool warmup) {
  nimble::Rng rng(seed ^ 0xC0FFEEull);
  const uint64_t off1 = rng.Next();
  const uint64_t off2 = rng.Next();
  if (w == Workload::kXmlScan) {
    // Thresholds in [49000, 51000] of totals in [0, 1e5): about half of
    // the orders are selected, so every operation does about the same work.
    int64_t k = warmup ? 48999 : DistinctConstant(49000, 2001, off1, i);
    return XmlScanOp(data, k);
  }
  // Scores >= [3000, 3400] of [0, 1e4) and balances >= [30000, 32000] of
  // [0, 1e5): about 13.6k customer keys and 69k accounts pass, far over
  // bind_join_limit on both sides, so the bind-join decision never flips.
  // The two spans are coprime, so no (score, balance) pair repeats.
  int64_t min_score = warmup ? 2999 : DistinctConstant(3000, 401, off1, i);
  int64_t min_balance = warmup ? 29999 : DistinctConstant(30000, 2001, off2, i);
  return FederatedOp(data, min_score, min_balance);
}

void RunOneClient(Workload w, World* world, const Data& data,
                  const RunConfig& config, int64_t deadline, Client* client,
                  Tracer* tracer) {
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    ReadOnce(world, OneClientOp(w, data, config.seed, i, false), client, tracer,
             true);
  }
}

struct PortalShared {
  std::vector<std::atomic<int64_t>> acked;  ///< last acknowledged version.
  std::vector<int64_t> hot;                 ///< hot ids, by Zipf rank.
  std::atomic<uint64_t> next_range{0};
  uint64_t range_offset = 0;

  explicit PortalShared(uint64_t seed) : acked(kCustomers) {
    for (auto& a : acked) a.store(0);
    nimble::Rng rng(seed ^ 0x9047A1ull);
    std::vector<int64_t> ids(kCustomers);
    for (size_t i = 0; i < kCustomers; ++i) ids[i] = static_cast<int64_t>(i);
    Shuffle(&ids, &rng);
    hot.assign(ids.begin(), ids.begin() + kHotSet);
    range_offset = rng.Next();
  }
};

void RunPortalClient(size_t c, World* world, const Data& data,
                     const RunConfig& config, int64_t deadline,
                     PortalShared* shared, Client* client, Tracer* tracer) {
  const uint64_t client_seed = config.seed * 31 + c + 1;
  nimble::Rng rng(client_seed);
  nimble::ZipfGenerator zipf(kHotSet, kZipfSkew, client_seed ^ 0x21FFull);
  std::vector<char> round;
  round.insert(round.end(), kRoundPoint, 'p');
  round.insert(round.end(), kRoundRange, 'r');
  round.insert(round.end(), kRoundWrite, 'w');
  while (NowNs() < deadline) {
    Shuffle(&round, &rng);
    for (char kind : round) {
      if (kind == 'p') {
        int64_t id = shared->hot[zipf.Next()];
        int64_t acked = shared->acked[static_cast<size_t>(id)].load();
        ReadOp op;
        op.kind = "op.point";
        op.text = PointText(id);
        op.check = [&data, id, acked](const Node& doc, std::string* why) {
          return CheckPoint(data, id, acked, doc, why);
        };
        ReadOnce(world, op, client, tracer, false);
      } else if (kind == 'r') {
        // Fresh constants: the j-th range read of the run starts at the
        // j-th draw of a permutation of the ids, 8..24 wide.
        uint64_t j = shared->next_range.fetch_add(1);
        int64_t lo = DistinctConstant(0, 19976, shared->range_offset, j);
        int64_t hi = lo + 8 + static_cast<int64_t>((j / 19976 + j) % 17);
        ReadOp op;
        op.kind = "op.range";
        op.text = RangeText(lo, hi);
        op.check = [lo, hi](const Node& doc, std::string* why) {
          return CheckRange(lo, hi, doc, why);
        };
        ReadOnce(world, op, client, tracer, false);
      } else {
        // Each client writes only ids of its own parity, so versions of one
        // id are written in order by one client.
        int64_t id = (shared->hot[zipf.Next()] & ~int64_t{1}) |
                     static_cast<int64_t>(c % 2);
        auto& slot = shared->acked[static_cast<size_t>(id)];
        int64_t version = slot.load() + 1;
        size_t failed_before = client->failed;
        WriteOnce(world, id, version, client, tracer);
        if (client->failed == failed_before) slot.store(version);
      }
    }
  }
}

/// Sets the CPU mask of every thread of the process (the engine's workers
/// included, which the benchmark cannot reach otherwise).
void SetProcessAffinity(const cpu_set_t& mask) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
  }
  closedir(dir);
}

/// Until `deadline`, keeps every thread of the process on one allowed CPU
/// and moves them all to the next one every kCpuSlice; then restores the
/// mask. A portal read is ~50 us of work around two thread hand-offs
/// (client to engine worker and back). Spread over idle virtual CPUs, each
/// hand-off wakes a halted CPU through the hypervisor, which on a shared
/// host costs as much as the read itself and doubles when other guests
/// take CPU time. On one CPU a hand-off is a context switch on a running
/// CPU; rotating over all CPUs keeps any one core's neighbours from setting
/// a run's speed.
void RotateCpus(int64_t deadline) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  for (size_t k = 0; NowNs() < deadline; ++k) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[k % cpus.size()], &one);
      SetProcessAffinity(one);
    }
    std::this_thread::sleep_for(
        std::min<std::chrono::nanoseconds>(
            kCpuSlice, std::chrono::nanoseconds(deadline - NowNs())));
  }
  if (!cpus.empty()) SetProcessAffinity(allowed);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t ClientsOf(Workload w) {
  return w == Workload::kPortalMixed ? kPortalClients : 1;
}

/// One warm-up operation, checked like any other.
bool WarmUp(Workload w, World* world, const Data& data, uint64_t seed) {
  ReadOp op;
  op.kind = "op.point";
  if (w == Workload::kPortalMixed) {
    const int64_t id = static_cast<int64_t>(kCustomers) - 1;
    op.text = PointText(id);
    op.check = [&data, id](const Node& doc, std::string* why) {
      return CheckPoint(data, id, 0, doc, why);
    };
  } else {
    op = OneClientOp(w, data, seed, 0, true);
  }
  Client client;
  ReadOnce(world, op, &client, nullptr, true);
  if (client.failed != 0) {
    std::fprintf(stderr, "setup: warm-up failed: %s\n",
                 client.first_error.c_str());
    return false;
  }
  return true;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const Workload w = config.workload;
  const size_t clients = ClientsOf(w);
  std::unique_ptr<Tracer> tracer;
  if (config.trace) tracer = std::make_unique<Tracer>();
  SourceTrace* sources = tracer != nullptr ? &tracer->sources : nullptr;

  // Set-up, several times; the last world is the one measured.
  std::vector<double> setup_s, doc_parse_ms, analyze_ms;
  Data data;
  std::unique_ptr<World> world;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    int64_t start = NowNs();
    data = Generate(w, config.seed);
    world = BuildWorld(w, data, clients, sources);
    if (world == nullptr || !WarmUp(w, world.get(), data, config.seed)) {
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    doc_parse_ms.push_back(world->doc_parse_ms);
    analyze_ms.push_back(world->analyze_ms);
  }

  nimble::core::IntegrationEngine* engine = world->engine.get();
  const nimble::core::PlanCache::Stats plan_before =
      engine->plan_cache() != nullptr ? engine->plan_cache()->stats()
                                      : nimble::core::PlanCache::Stats{};
  const nimble::materialize::CacheStats cache_before =
      engine->result_cache() != nullptr ? engine->result_cache()->stats()
                                        : nimble::materialize::CacheStats{};
  const uint64_t served_before = engine->queries_served();

  if (sources != nullptr) sources->Enable();
  std::vector<Client> per_client(clients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(config.seconds * 1e9);
  if (w == Workload::kPortalMixed) {
    PortalShared shared(config.seed);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        RunPortalClient(c, world.get(), data, config, deadline, &shared,
                        &per_client[c], tracer.get());
      });
    }
    RotateCpus(deadline);
    for (std::thread& t : threads) t.join();
  } else {
    RunOneClient(w, world.get(), data, config, deadline, &per_client[0],
                 tracer.get());
  }
  if (sources != nullptr) sources->Disable();

  // Each client's closed-loop rate over the time it spent inside its
  // operations, summed over the clients. Checking answers, building the
  // next text and freeing the answer are the benchmark's own work between
  // operations and are not counted.
  double throughput_qps = 0.0;
  for (const Client& c : per_client) {
    if (c.busy_ns > 0) {
      throughput_qps += static_cast<double>(c.attempted - c.failed) /
                        (static_cast<double>(c.busy_ns) / 1e9);
    }
  }
  Client all;
  for (const Client& c : per_client) all.Add(c);
  result.ok = true;
  result.attempted = all.attempted;
  result.failed = all.failed;
  result.correct = all.wrong == 0;
  if (!all.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", all.first_error.c_str());
  }

  const double reads = static_cast<double>(all.read_ms.size());
  const double writes = static_cast<double>(all.write_ms.size());
  auto& notes = result.notes;
  notes.push_back({"read_samples", reads, "count"});
  notes.push_back({"latency_p99_ms", Quantile(all.read_ms, 0.99), "ms"});
  if (writes > 0) {
    notes.push_back({"write_samples", writes, "count"});
    notes.push_back({"write_latency_p50_ms", Median(all.write_ms), "ms"});
  }

  if (!config.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_qps", throughput_qps, "ops/s"},
        {"latency_p50_ms", Median(all.read_ms), "ms"},
        {"latency_p90_ms", Quantile(all.read_ms, 0.90), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    return result;
  }

  // Traced run: per-layer figures, per read (or per write) operation.
  const Layers& l = all.layers;
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double fetch_ns = static_cast<double>(sources->fetch_ns());
  const double sql_ns = static_cast<double>(sources->sql_ns());
  // Engine self time: ExecuteText wall minus the connector time inside it
  // minus queue wait. On one client, connector time is the union of the
  // operation's connector spans (calls that overlap count once); with several
  // clients connector calls run on the engine's workers and cannot be tied
  // to an operation, so the run's total is subtracted instead.
  const double connector_ns =
      clients > 1 ? fetch_ns + sql_ns : l.connector_covered_ns;
  const double self_ns = l.exec_ns - connector_ns - l.queue_wait_us * 1e3;
  double sql_parse_ns = l.sql_parse_ns;
  double sql_parsed = l.sql_parsed;
  if (clients > 1) {
    for (const std::string& sql : sources->SampledSql()) {
      sql_parse_ns += static_cast<double>(tracer->Timed(
          "relational.sql_parse", 0, 0,
          [&] { (void)nimble::relational::ParseSql(sql); }));
      sql_parsed += 1;
    }
  }
  const nimble::core::PlanCache::Stats plan =
      engine->plan_cache() != nullptr ? engine->plan_cache()->stats()
                                      : nimble::core::PlanCache::Stats{};
  const nimble::materialize::CacheStats cache =
      engine->result_cache() != nullptr ? engine->result_cache()->stats()
                                        : nimble::materialize::CacheStats{};
  auto delta = [](size_t after, size_t before) {
    return static_cast<double>(after - before);
  };
  const double plan_hits = delta(plan.hits, plan_before.hits);
  const double plan_misses = delta(plan.misses, plan_before.misses);
  const double cache_hits = delta(cache.hits, cache_before.hits);
  const double cache_misses = delta(cache.misses, cache_before.misses);

  result.metrics = {
      {"xmlql.parse_us", per(Us(l.parse_ns), reads), "us"},
      {"core.compile_us", per(Us(l.compile_ns), reads), "us"},
      {"core.plan_cache_hit_ratio", per(plan_hits, plan_hits + plan_misses),
       "ratio"},
      {"core.executions_per_op",
       per(delta(engine->queries_served(), served_before), reads), "count/op"},
      {"core.engine_self_us", per(Us(self_ns), reads), "us"},
      {"sched.queue_wait_us", per(l.queue_wait_us, reads), "us"},
      {"connector.fetch_us", per(Us(fetch_ns), reads), "us"},
      {"connector.calls",
       per(static_cast<double>(sources->read_calls()), reads), "count/op"},
      {"connector.rows_shipped",
       per(static_cast<double>(sources->rows_shipped()), reads), "count/op"},
      {"connector.sql_us", per(Us(sql_ns), reads), "us"},
      {"connector.dml_us",
       per(Us(static_cast<double>(sources->dml_ns())), writes), "us"},
      {"relational.sql_parse_us", per(Us(sql_parse_ns), sql_parsed), "us"},
      {"algebra.match_us", per(Us(l.match_ns), reads), "us"},
      {"algebra.rows_matched", per(l.rows_matched, reads), "count/op"},
      {"algebra.construct_us", per(Us(l.construct_ns), reads), "us"},
      {"xml.serialize_us", per(Us(l.serialize_ns), reads), "us"},
      {"xml.result_bytes", per(l.result_bytes, reads), "bytes"},
      {"materialize.result_cache_hit_ratio",
       per(cache_hits, cache_hits + cache_misses), "ratio"},
      {"materialize.coalesced",
       per(delta(cache.coalesced, cache_before.coalesced), reads), "count/op"},
      {"materialize.invalidations",
       per(delta(cache.invalidations, cache_before.invalidations), writes),
       "count/op"},
      {"metadata.notify_us", per(Us(l.notify_ns), writes), "us"},
      {"xml.doc_parse_ms", Median(doc_parse_ms), "ms"},
      {"metadata.analyze_ms", Median(analyze_ms), "ms"},
  };
  // Connector + engine self + queue wait + serialization add up to the
  // mean traced read latency; the median is printed beside it.
  notes.push_back({"traced_latency_p50_ms", Median(all.read_ms), "ms"});
  notes.push_back({"traced_latency_mean_ms",
                   per(l.exec_ns + l.serialize_ns, reads) / 1e6, "ms"});
  notes.push_back({"spans_recorded",
                   static_cast<double>(tracer->recorder.size()), "count"});
  notes.push_back({"spans_dropped",
                   static_cast<double>(tracer->recorder.dropped()), "count"});
  if (!config.trace_file.empty() &&
      !tracer->recorder.WriteCsv(config.trace_file)) {
    std::fprintf(stderr, "could not write %s\n", config.trace_file.c_str());
  }
  return result;
}

}  // namespace perfbench
