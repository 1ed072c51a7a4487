#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "connector/xml_connector.h"
#include "core/engine.h"
#include "frontend/load_balancer.h"
#include "metadata/catalog.h"
#include "sched/scheduler.h"
#include "xml/serializer.h"

namespace nimble {
namespace {

// ---------------------------------------------------------------------------
// QueryScheduler unit tests (opaque callbacks, no engine).

/// Collects scheduler outcomes with a waitable completion count.
class Outcomes {
 public:
  void RecordRun(const std::string& label) {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(label);
    done_++;
    cv_.notify_all();
  }
  void RecordDrop(const Status& status) {
    std::lock_guard<std::mutex> lock(mutex_);
    drops_.push_back(status);
    done_++;
    cv_.notify_all();
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_ >= n; });
  }
  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }
  std::vector<Status> drops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return drops_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  size_t done_ = 0;
  std::vector<std::string> order_;
  std::vector<Status> drops_;
};

/// A run callback that blocks until released — holds a concurrency token so
/// tests can fill the queue deterministically behind it.
class Plug {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(QuerySchedulerTest, WeightedFairDequeueConvergesToThreeToOne) {
  RealClock clock;
  ThreadPool pool(2);
  sched::SchedulerOptions options;
  options.max_inflight_queries = 1;
  options.queue_capacity = 128;
  options.tenant_weights = {{"A", 3}, {"B", 1}};
  sched::QueryScheduler scheduler(options, &clock, &pool);

  Plug plug;
  Outcomes outcomes;
  sched::SubmitInfo plug_info;
  auto plugged = scheduler.Submit(
      plug_info, [&](int64_t) { plug.Block(); }, [&](const Status&) {});
  ASSERT_TRUE(plugged.ok());
  plug.WaitEntered();  // the single token is now held

  constexpr int kPerTenant = 30;
  for (int i = 0; i < kPerTenant; ++i) {
    for (const char* tenant : {"A", "B"}) {
      sched::SubmitInfo info;
      info.tenant = tenant;
      std::string label = tenant;
      auto submission = scheduler.Submit(
          info, [&outcomes, label](int64_t) { outcomes.RecordRun(label); },
          [&outcomes](const Status& s) { outcomes.RecordDrop(s); });
      ASSERT_TRUE(submission.ok());
    }
  }
  plug.Release();
  outcomes.WaitFor(2 * kPerTenant);

  // Deficit round robin with weights 3:1 drains A,A,A,B repeating; over any
  // prefix where both tenants still have work, completions converge to 3:1.
  std::vector<std::string> order = outcomes.order();
  ASSERT_EQ(order.size(), static_cast<size_t>(2 * kPerTenant));
  int a_in_prefix = 0;
  for (int i = 0; i < 24; ++i) a_in_prefix += order[i] == "A" ? 1 : 0;
  EXPECT_EQ(a_in_prefix, 18) << "first 24 completions should split 18:6";
  EXPECT_TRUE(outcomes.drops().empty());

  // The scheduler retires an entry (completed++, token release) just after
  // the run callback returns, so the counter can lag WaitFor — poll.
  sched::SchedulerStats stats = scheduler.stats();
  for (int i = 0;
       i < 2000 && stats.completed < static_cast<uint64_t>(2 * kPerTenant + 1);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = scheduler.stats();
  }
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(2 * kPerTenant + 1));
  ASSERT_EQ(stats.tenants.size(), 3u);  // "", "A", "B"
}

TEST(QuerySchedulerTest, RejectsWhenQueueFullWithRetryAfterHint) {
  RealClock clock;
  ThreadPool pool(2);
  sched::SchedulerOptions options;
  options.max_inflight_queries = 1;
  options.queue_capacity = 2;
  sched::QueryScheduler scheduler(options, &clock, &pool);

  Plug plug;
  Outcomes outcomes;
  auto plugged = scheduler.Submit(
      {}, [&](int64_t) { plug.Block(); }, [&](const Status&) {});
  ASSERT_TRUE(plugged.ok());
  plug.WaitEntered();

  for (int i = 0; i < 2; ++i) {
    auto queued = scheduler.Submit(
        {}, [&](int64_t) { outcomes.RecordRun("q"); },
        [&](const Status& s) { outcomes.RecordDrop(s); });
    ASSERT_TRUE(queued.ok()) << "capacity admits " << i;
  }
  auto rejected = scheduler.Submit(
      {}, [&](int64_t) { outcomes.RecordRun("overflow"); },
      [&](const Status& s) { outcomes.RecordDrop(s); });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_GT(sched::RetryAfterMicros(rejected.status()), 0);
  EXPECT_EQ(scheduler.stats().shed_queue_full, 1u);

  plug.Release();
  outcomes.WaitFor(2);
  EXPECT_EQ(outcomes.order().size(), 2u);  // the overflow never ran
}

TEST(QuerySchedulerTest, DeadlineExpiredWhileQueuedDroppedWithoutExecuting) {
  VirtualClock clock;
  ThreadPool pool(2);
  sched::SchedulerOptions options;
  options.max_inflight_queries = 1;
  sched::QueryScheduler scheduler(options, &clock, &pool);

  Plug plug;
  Outcomes outcomes;
  auto plugged = scheduler.Submit(
      {}, [&](int64_t) { plug.Block(); }, [&](const Status&) {});
  ASSERT_TRUE(plugged.ok());
  plug.WaitEntered();

  sched::SubmitInfo info;
  info.deadline_micros = 1000;
  std::atomic<bool> executed{false};
  auto queued = scheduler.Submit(
      info, [&](int64_t) { executed.store(true); outcomes.RecordRun("x"); },
      [&](const Status& s) { outcomes.RecordDrop(s); });
  ASSERT_TRUE(queued.ok());

  clock.AdvanceMicros(2000);  // the queued entry's deadline passes
  plug.Release();
  outcomes.WaitFor(1);

  EXPECT_FALSE(executed.load());
  std::vector<Status> drops = outcomes.drops();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].code(), StatusCode::kTimeout) << drops[0].ToString();
  EXPECT_EQ(scheduler.stats().dropped_expired, 1u);
}

TEST(QuerySchedulerTest, CancelWhileQueuedDropsWithoutExecuting) {
  RealClock clock;
  ThreadPool pool(2);
  sched::SchedulerOptions options;
  options.max_inflight_queries = 1;
  sched::QueryScheduler scheduler(options, &clock, &pool);

  Plug plug;
  Outcomes outcomes;
  auto plugged = scheduler.Submit(
      {}, [&](int64_t) { plug.Block(); }, [&](const Status&) {});
  ASSERT_TRUE(plugged.ok());
  plug.WaitEntered();

  std::atomic<bool> executed{false};
  auto queued = scheduler.Submit(
      {}, [&](int64_t) { executed.store(true); outcomes.RecordRun("x"); },
      [&](const Status& s) { outcomes.RecordDrop(s); });
  ASSERT_TRUE(queued.ok());

  EXPECT_TRUE((*queued)->Cancel());
  EXPECT_FALSE((*queued)->Cancel()) << "second cancel finds nothing queued";
  outcomes.WaitFor(1);
  EXPECT_FALSE(executed.load());
  ASSERT_EQ(outcomes.drops().size(), 1u);
  EXPECT_EQ(outcomes.drops()[0].code(), StatusCode::kCancelled);
  EXPECT_EQ(scheduler.stats().dropped_cancelled, 1u);

  plug.Release();
}

TEST(QuerySchedulerTest, ShedsWhenEstimatedWaitExceedsDeadline) {
  VirtualClock clock;
  ThreadPool pool(2);
  sched::SchedulerOptions options;
  options.max_inflight_queries = 1;
  sched::QueryScheduler scheduler(options, &clock, &pool);

  // Seed the EWMA service-time estimate with one slow completion.
  Outcomes outcomes;
  auto seed = scheduler.Submit(
      {}, [&](int64_t) { clock.AdvanceMicros(10000); outcomes.RecordRun("s"); },
      [&](const Status&) {});
  ASSERT_TRUE(seed.ok());
  outcomes.WaitFor(1);

  Plug plug;
  auto plugged = scheduler.Submit(
      {}, [&](int64_t) { plug.Block(); }, [&](const Status&) {});
  ASSERT_TRUE(plugged.ok());
  plug.WaitEntered();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit({}, [&](int64_t) { outcomes.RecordRun("q"); },
                            [&](const Status&) {})
                    .ok());
  }

  // Estimated wait: (2 queued + 0.5 in flight) * 10000us ≈ 25000us, far
  // beyond this submission's 5000us deadline — shed at submit.
  sched::SubmitInfo info;
  info.deadline_micros = 5000;
  auto shed = scheduler.Submit(
      info, [&](int64_t) { outcomes.RecordRun("hopeless"); },
      [&](const Status&) {});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(sched::RetryAfterMicros(shed.status()), 0);
  EXPECT_EQ(scheduler.stats().shed_wait_deadline, 1u);

  plug.Release();
  outcomes.WaitFor(3);
}

// The TSan target: submits, cancels and sheds race from many threads while
// the scheduler dispatches; every accepted submission resolves exactly once.
TEST(QuerySchedulerTest, StressConcurrentSubmitCancelShed) {
  RealClock clock;
  ThreadPool pool(4);
  sched::SchedulerOptions options;
  options.max_inflight_queries = 3;
  options.queue_capacity = 16;
  options.tenant_weights = {{"A", 3}, {"B", 1}};
  sched::QueryScheduler scheduler(options, &clock, &pool);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<uint64_t> accepted{0}, shed{0}, ran{0}, dropped{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < kPerThread; ++i) {
        sched::SubmitInfo info;
        info.tenant = (t % 2 == 0) ? "A" : "B";
        info.priority = t % 3 == 0 ? 1 : 0;
        if (i % 5 == 0) info.deadline_micros = 50'000'000;  // never expires
        auto submission = scheduler.Submit(
            info,
            [&ran](int64_t) {
              ran.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            },
            [&dropped](const Status&) { dropped.fetch_add(1); });
        if (!submission.ok()) {
          EXPECT_EQ(submission.status().code(),
                    StatusCode::kResourceExhausted);
          shed.fetch_add(1);
          continue;
        }
        accepted.fetch_add(1);
        if (rng() % 4 == 0) (*submission)->Cancel();
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(accepted.load() + shed.load(),
            static_cast<uint64_t>(kThreads * kPerThread));

  // Poll until the scheduler has retired every accepted entry (the run
  // callback returns slightly before the entry's bookkeeping settles).
  sched::SchedulerStats stats = scheduler.stats();
  for (int i = 0;
       i < 5000 && stats.completed + stats.dropped_cancelled +
                           stats.dropped_expired <
                       accepted.load();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = scheduler.stats();
  }
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.TotalShed(), shed.load());
  EXPECT_EQ(stats.completed + stats.dropped_cancelled + stats.dropped_expired,
            accepted.load());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight_queries, 0u);
}

// Destroying a scheduler with queued work drops the queue (Cancelled) and
// drains in-flight queries before returning.
TEST(QuerySchedulerTest, DestructorDrainsQueueAndInflight) {
  RealClock clock;
  ThreadPool pool(2);
  Outcomes outcomes;
  Plug plug;
  // The destructor first drops every queued entry (firing the 3 drop
  // callbacks), then blocks until the in-flight plug finishes. Releasing
  // the plug only after the drops fire guarantees the queue cannot be
  // dispatched instead.
  std::thread releaser([&] {
    outcomes.WaitFor(3);
    plug.Release();
  });
  {
    sched::SchedulerOptions options;
    options.max_inflight_queries = 1;
    sched::QueryScheduler scheduler(options, &clock, &pool);
    ASSERT_TRUE(scheduler
                    .Submit({}, [&](int64_t) { plug.Block(); },
                            [&](const Status&) {})
                    .ok());
    plug.WaitEntered();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(scheduler
                      .Submit({}, [&](int64_t) { outcomes.RecordRun("q"); },
                              [&](const Status& s) { outcomes.RecordDrop(s); })
                      .ok());
    }
  }
  releaser.join();
  // After destruction every queued entry was dropped with Cancelled.
  std::vector<Status> drops = outcomes.drops();
  ASSERT_EQ(drops.size(), 3u);
  for (const Status& s : drops) EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// ExecutionContext: queue wait charges the deadline budget (the bugfix).

TEST(ExecContextQueueWaitTest, QueueWaitChargesAgainstDeadline) {
  VirtualClock clock;
  ThreadPool pool(1);
  // 10ms budget, 6ms already spent queued: 4ms of execution remain.
  core::ExecutionContext ctx(&clock, &pool, 10000, core::RetryPolicy{}, true,
                             nullptr, 6000, nullptr);
  EXPECT_TRUE(ctx.Check().ok());
  clock.AdvanceMicros(3999);
  EXPECT_TRUE(ctx.Check().ok());
  clock.AdvanceMicros(1);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kTimeout);
}

TEST(ExecContextQueueWaitTest, WaitConsumingWholeBudgetStartsExpired) {
  VirtualClock clock;
  ThreadPool pool(1);
  core::ExecutionContext ctx(&clock, &pool, 10000, core::RetryPolicy{}, true,
                             nullptr, 10000, nullptr);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kTimeout);
}

TEST(ExecContextQueueWaitTest, HandleCancelFlagStopsExecution) {
  VirtualClock clock;
  ThreadPool pool(1);
  std::atomic<bool> handle_cancel{false};
  core::ExecutionContext ctx(&clock, &pool, 0, core::RetryPolicy{}, true,
                             nullptr, 0, &handle_cancel);
  EXPECT_TRUE(ctx.Check().ok());
  handle_cancel.store(true);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Engine integration: Submit / ExecuteText through the scheduler.

/// Wraps an XmlConnector with a test-controlled gate: FetchCollection
/// blocks until Open(), then charges `advance_micros` to the clock.
class GateConnector : public connector::Connector {
 public:
  GateConnector(std::unique_ptr<connector::XmlConnector> inner,
                VirtualClock* clock, int64_t advance_micros)
      : inner_(std::move(inner)), clock_(clock),
        advance_micros_(advance_micros) {}

  const std::string& name() const override { return inner_->name(); }
  connector::SourceCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::vector<std::string> Collections() override {
    return inner_->Collections();
  }
  using connector::Connector::FetchCollection;
  Result<NodePtr> FetchCollection(
      const std::string& collection,
      const connector::RequestContext& ctx) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      waiters_++;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    clock_->AdvanceMicros(advance_micros_);
    return inner_->FetchCollection(collection, ctx);
  }
  uint64_t DataVersion() override { return inner_->DataVersion(); }

  void WaitForWaiter() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return waiters_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::unique_ptr<connector::XmlConnector> inner_;
  VirtualClock* clock_;
  int64_t advance_micros_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiters_ = 0;
  bool open_ = false;
};

constexpr char kStockQuery[] = R"(
  WHERE <stock><item sku=$s><on_hand>$h</on_hand></item></stock>
          IN "wh:stock", $h > 0
  CONSTRUCT <hit><sku>$s</sku></hit>
)";

constexpr char kStockXml[] =
    "<stock>"
    "<item sku=\"w-1\"><on_hand>14</on_hand></item>"
    "<item sku=\"g-1\"><on_hand>0</on_hand></item>"
    "<item sku=\"b-1\"><on_hand>250</on_hand></item>"
    "</stock>";

std::unique_ptr<connector::XmlConnector> MakeStockFeed() {
  auto feed = std::make_unique<connector::XmlConnector>("wh");
  EXPECT_TRUE(feed->PutDocumentText("stock", kStockXml).ok());
  return feed;
}

TEST(EngineSchedulerTest, ExecuteTextThroughSchedulerMatchesDirect) {
  metadata::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeStockFeed()).ok());

  core::EngineOptions options;
  core::IntegrationEngine direct(&catalog, options);
  Result<core::QueryResult> expected = direct.ExecuteText(kStockQuery);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->report.result_count, 2u);

  options.max_inflight_queries = 2;
  core::IntegrationEngine scheduled(&catalog, options);
  ASSERT_NE(scheduled.scheduler(), nullptr);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        Result<core::QueryResult> r = scheduled.ExecuteText(kStockQuery);
        if (!r.ok() || r->report.result_count != 2) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Handles resolve inside the run callback, slightly before the scheduler
  // retires the entry — poll the stats to settlement.
  sched::SchedulerStats stats = scheduled.scheduler()->stats();
  for (int i = 0; i < 2000 && stats.completed < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = scheduled.scheduler()->stats();
  }
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.inflight_queries, 0u);
}

// A compiled program takes the text Submit's admission path: the scheduler
// admits and accounts it like any other query, and it answers the same.
TEST(EngineSchedulerTest, CompiledSubmitIsAdmittedLikeText) {
  metadata::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeStockFeed()).ok());

  core::EngineOptions options;
  options.max_inflight_queries = 1;
  options.verify_plans = true;
  core::IntegrationEngine engine(&catalog, options);
  ASSERT_NE(engine.scheduler(), nullptr);

  Result<std::shared_ptr<const core::CompiledProgram>> compiled =
      core::CompileProgram(kStockQuery);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  core::QueryHandlePtr handle = engine.Submit(*compiled);
  const Result<core::QueryResult>& got = handle->Wait();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<core::QueryResult> want = engine.ExecuteText(kStockQuery);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(got->report.result_count, 2u);
  EXPECT_EQ(ToXml(*got->document), ToXml(*want->document));

  sched::SchedulerStats stats = engine.scheduler()->stats();
  for (int i = 0; i < 2000 && stats.completed < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = engine.scheduler()->stats();
  }
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

// Compiled programs skip the parse, not the verifier: one naming a
// collection this engine's catalog lacks fails with a Status.
TEST(EngineSchedulerTest, CompiledSubmitVerifiesAgainstCatalog) {
  metadata::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeStockFeed()).ok());

  core::EngineOptions options;
  options.max_inflight_queries = 1;
  options.verify_plans = true;
  core::IntegrationEngine engine(&catalog, options);

  Result<std::shared_ptr<const core::CompiledProgram>> compiled =
      core::CompileProgram(
          "WHERE <stock><item sku=$s></item></stock> IN \"wh:missing\" "
          "CONSTRUCT <hit><sku>$s</sku></hit>");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  core::QueryHandlePtr handle = engine.Submit(*compiled);
  const Result<core::QueryResult>& got = handle->Wait();
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().code(), StatusCode::kInternal)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find("missing"), std::string::npos)
      << got.status().ToString();
  EXPECT_EQ(engine.queries_served(), 0u) << "rejected only at execution";
}

TEST(EngineSchedulerTest, SubmitHandleCancelsQueuedQuery) {
  VirtualClock clock;
  metadata::Catalog catalog;
  auto gate = std::make_unique<GateConnector>(MakeStockFeed(), &clock, 0);
  GateConnector* gate_raw = gate.get();
  ASSERT_TRUE(catalog.RegisterSource(std::move(gate)).ok());

  core::EngineOptions options;
  options.clock = &clock;
  options.max_inflight_queries = 1;
  options.worker_threads = 2;
  core::IntegrationEngine engine(&catalog, options);

  core::QueryHandlePtr running = engine.Submit(kStockQuery);
  gate_raw->WaitForWaiter();  // holds the single token inside the fetch
  core::QueryHandlePtr queued = engine.Submit(kStockQuery);
  EXPECT_FALSE(queued->done());

  queued->Cancel();
  const Result<core::QueryResult>& cancelled = queued->Wait();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.scheduler()->stats().dropped_cancelled, 1u);

  gate_raw->Open();
  const Result<core::QueryResult>& first = running->Wait();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->report.result_count, 2u);
}

// The queue-aware-deadline bugfix end to end: a query that spends most of
// its wall budget waiting behind another query must time out, not run with
// a fresh budget. Deterministic on a VirtualClock: only the test and the
// gate advance time.
TEST(EngineSchedulerTest, QueueWaitChargesDeadlineEndToEnd) {
  VirtualClock clock;
  metadata::Catalog catalog;
  auto gate = std::make_unique<GateConnector>(MakeStockFeed(), &clock, 1000);
  GateConnector* gate_raw = gate.get();
  ASSERT_TRUE(catalog.RegisterSource(std::move(gate)).ok());

  core::EngineOptions options;
  options.clock = &clock;
  options.max_inflight_queries = 1;
  options.worker_threads = 2;
  options.query_deadline_micros = 6000;
  options.load_shedding = false;  // exercise the deadline path, not the shed
  core::IntegrationEngine engine(&catalog, options);

  core::QueryHandlePtr first = engine.Submit(kStockQuery);
  gate_raw->WaitForWaiter();
  core::QueryHandlePtr second = engine.Submit(kStockQuery);

  clock.AdvanceMicros(4000);  // both queries age 4ms; the second is queued
  gate_raw->Open();

  // First query: 5ms total (4ms aged + 1ms fetch) within its 6ms budget.
  const Result<core::QueryResult>& r1 = first->Wait();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->report.queue_wait_micros, 0);

  // Second query: waited 5ms of its 6ms budget in queue, so the 1ms fetch
  // exhausts it. Without queue-aware deadlines it would finish comfortably.
  const Result<core::QueryResult>& r2 = second->Wait();
  ASSERT_FALSE(r2.ok()) << "queued query must charge its wait";
  EXPECT_EQ(r2.status().code(), StatusCode::kTimeout)
      << r2.status().ToString();
}

TEST(LoadBalancerSchedulerTest, BatchRoutesThroughAdmission) {
  metadata::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterSource(MakeStockFeed()).ok());

  core::EngineOptions options;
  options.max_inflight_queries = 2;
  options.queue_capacity = 64;
  frontend::LoadBalancer balancer;
  balancer.AddEngine(
      std::make_unique<core::IntegrationEngine>(&catalog, options));
  balancer.AddEngine(
      std::make_unique<core::IntegrationEngine>(&catalog, options));

  std::vector<std::string> queries(10, kStockQuery);
  std::vector<Result<core::QueryResult>> results =
      balancer.ExecuteBatch(queries);
  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->report.result_count, 2u);
  }
  // Every batch query went through an engine scheduler, none bypassed.
  uint64_t admitted = 0;
  for (size_t i = 0; i < balancer.pool_size(); ++i) {
    admitted += balancer.engine(i)->scheduler()->stats().admitted;
  }
  EXPECT_EQ(admitted, 10u);
}

}  // namespace
}  // namespace nimble
