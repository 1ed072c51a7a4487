#include <gtest/gtest.h>

#include "admin/monitor.h"
#include "admin/replication.h"
#include "cleaning/similarity.h"
#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "materialize/view_store.h"

namespace nimble {
namespace admin {
namespace {

/// A source written while a load reads it: every fetch first replaces the
/// document through a copy-on-write put (bumping the data version), then
/// serves the version it read.
class WriteDuringFetch : public connector::Connector {
 public:
  explicit WriteDuringFetch(std::unique_ptr<connector::XmlConnector> inner)
      : inner_(std::move(inner)) {}

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
    Result<NodePtr> read = inner_->FetchCollection(collection, ctx);
    if (read.ok()) inner_->PutDocument(collection, (*read)->Clone());
    return read;
  }
  uint64_t DataVersion() override { return inner_->DataVersion(); }

 private:
  std::unique_ptr<connector::XmlConnector> inner_;
};

class AdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crm_ = std::make_unique<relational::Database>("crm");
    ASSERT_TRUE(crm_->Execute("CREATE TABLE c (id INT PRIMARY KEY, name TEXT, "
                              "balance DOUBLE)")
                    .ok());
    ASSERT_TRUE(crm_->Execute("INSERT INTO c VALUES (1, 'Ada', 10.5), "
                              "(2, 'Bob', 0.0)")
                    .ok());
    catalog_ = std::make_unique<metadata::Catalog>();
    ASSERT_TRUE(catalog_
                    ->RegisterSource(
                        std::make_unique<connector::RelationalConnector>(
                            "crm", crm_.get()))
                    .ok());
    auto feed = std::make_unique<connector::XmlConnector>("feed");
    ASSERT_TRUE(feed->PutDocumentText(
                        "people",
                        "<people>"
                        "<p><name>Ada</name><city>Seattle</city></p>"
                        "<p><name>Ada</name><city>Seattle</city></p>"
                        "<p><name>Eve</name><city>Miami</city></p>"
                        "</people>")
                    .ok());
    feed_ = feed.get();
    ASSERT_TRUE(catalog_->RegisterSource(std::move(feed)).ok());
    ASSERT_TRUE(catalog_
                    ->DefineView("all_names", R"(
                        WHERE <c><row><name>$n</name></row></c> IN "crm:c"
                        CONSTRUCT <person><name>$n</name></person>
                        UNION
                        WHERE <people><p><name>$n</name></p></people>
                              IN "feed:people"
                        CONSTRUCT <person><name>$n</name></person>
                      )")
                    .ok());
    engine_ = std::make_unique<core::IntegrationEngine>(catalog_.get());
    local_ = std::make_unique<relational::Database>("local");
  }

  std::unique_ptr<relational::Database> crm_;
  connector::XmlConnector* feed_ = nullptr;
  std::unique_ptr<metadata::Catalog> catalog_;
  std::unique_ptr<core::IntegrationEngine> engine_;
  std::unique_ptr<relational::Database> local_;
  VirtualClock clock_;
};

TEST(InferSchemaTest, UnionOfFieldsAndTypes) {
  std::vector<cleaning::KeyedRecord> records = {
      {"a", {{"x", Value::Int(1)}, {"y", Value::String("s")}}},
      {"b", {{"x", Value::Int(2)}, {"z", Value::Double(1.5)}}},
  };
  relational::TableSchema schema = InferSchema("t", records);
  ASSERT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.columns()[0].name, "x");
  EXPECT_EQ(schema.columns()[0].type, ValueType::kInt);
  EXPECT_EQ(schema.columns()[1].type, ValueType::kString);
  EXPECT_EQ(schema.columns()[2].type, ValueType::kDouble);
}

TEST(InferSchemaTest, NumericConflictWidensToDouble) {
  std::vector<cleaning::KeyedRecord> records = {
      {"a", {{"x", Value::Int(1)}}},
      {"b", {{"x", Value::Double(2.5)}}},
  };
  EXPECT_EQ(InferSchema("t", records).columns()[0].type, ValueType::kDouble);
}

TEST(InferSchemaTest, MixedConflictFallsBackToString) {
  std::vector<cleaning::KeyedRecord> records = {
      {"a", {{"x", Value::Int(1)}}},
      {"b", {{"x", Value::String("s")}}},
  };
  EXPECT_EQ(InferSchema("t", records).columns()[0].type, ValueType::kString);
}

TEST_F(AdminTest, ReplicateSourceCollection) {
  xmlql::SourceRef origin;
  origin.source = "crm";
  origin.collection = "c";
  ReplicationJob job(catalog_.get(), engine_.get(), local_.get(), "crm_copy",
                     origin);
  Result<ReplicationRunStats> stats = job.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_loaded, 2u);

  Result<relational::ResultSet> rs =
      local_->Execute("SELECT name FROM crm_copy ORDER BY name");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0], Value::String("Ada"));
}

TEST_F(AdminTest, ReplicateViewResult) {
  xmlql::SourceRef origin;
  origin.collection = "all_names";  // view
  ReplicationJob job(catalog_.get(), engine_.get(), local_.get(), "names",
                     origin);
  Result<ReplicationRunStats> stats = job.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_loaded, 5u);  // 2 crm + 3 feed
}

TEST_F(AdminTest, ReplicationWithOfflineCleaning) {
  xmlql::SourceRef origin;
  origin.source = "feed";
  origin.collection = "people";
  ReplicationJob job(catalog_.get(), engine_.get(), local_.get(),
                     "clean_people", origin);
  auto matcher = std::make_shared<cleaning::RecordMatcher>(
      std::vector<cleaning::MatchRule>{
          {"name", cleaning::JaroWinklerSimilarity, 1.0, 0.0}},
      0.9, 0.95);
  cleaning::MergePurgeOptions options;
  options.strategy = cleaning::MatchStrategy::kNaivePairwise;
  auto flow = std::make_shared<cleaning::CleaningFlow>("etl");
  flow->Deduplicate(matcher, options);
  job.SetCleaningFlow(flow);

  Result<ReplicationRunStats> stats = job.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_before_cleaning, 3u);
  EXPECT_EQ(stats->rows_loaded, 2u);  // the two Adas merged
}

TEST_F(AdminTest, RerunReplacesReplica) {
  xmlql::SourceRef origin;
  origin.source = "crm";
  origin.collection = "c";
  ReplicationJob job(catalog_.get(), engine_.get(), local_.get(), "crm_copy",
                     origin);
  ASSERT_TRUE(job.Run().ok());
  EXPECT_FALSE(*job.OriginChanged());
  ASSERT_TRUE(crm_->Execute("INSERT INTO c VALUES (3, 'Cleo', 7.0)").ok());
  EXPECT_TRUE(*job.OriginChanged());
  Result<ReplicationRunStats> stats = job.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_loaded, 3u);
  Result<relational::ResultSet> rs =
      local_->Execute("SELECT COUNT(*) FROM crm_copy");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0], Value::Int(3));
}

// A write that lands during a load must not be recorded as loaded: the
// view store and both replication origins read versions before they fetch,
// so every local copy reads as stale.
TEST(SourceVersionTest, WriteDuringLoadLeavesEveryCopyStale) {
  metadata::Catalog catalog;
  auto feed = std::make_unique<connector::XmlConnector>("feed");
  ASSERT_TRUE(
      feed->PutDocumentText("people", "<people><p><name>Ada</name></p></people>")
          .ok());
  ASSERT_TRUE(catalog
                  .RegisterSource(
                      std::make_unique<WriteDuringFetch>(std::move(feed)))
                  .ok());
  ASSERT_TRUE(catalog
                  .DefineView("names", R"(
                    WHERE <people><p><name>$n</name></p></people>
                          IN "feed:people"
                    CONSTRUCT <n><name>$n</name></n>
                  )")
                  .ok());
  core::IntegrationEngine engine(&catalog);

  VirtualClock clock;
  materialize::MaterializedViewStore store(&catalog, &engine, &clock);
  materialize::MaterializationPolicy manual;
  manual.refresh = materialize::MaterializationPolicy::Refresh::kManualOnly;
  ASSERT_TRUE(store.Materialize("names", manual).ok());
  EXPECT_TRUE(*store.IsStale("names"));

  relational::Database local("local");
  xmlql::SourceRef source_origin;
  source_origin.source = "feed";
  source_origin.collection = "people";
  xmlql::SourceRef view_origin;
  view_origin.collection = "names";
  for (const xmlql::SourceRef& origin : {source_origin, view_origin}) {
    ReplicationJob job(&catalog, &engine, &local,
                       origin.is_view() ? "names_copy" : "people_copy", origin);
    Result<ReplicationRunStats> stats = job.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->rows_loaded, 1u);
    EXPECT_TRUE(*job.OriginChanged()) << origin.ToString();
  }
}

TEST_F(AdminTest, ReplicationUnknownOrigin) {
  xmlql::SourceRef origin;
  origin.source = "nope";
  origin.collection = "c";
  ReplicationJob job(catalog_.get(), engine_.get(), local_.get(), "t",
                     origin);
  EXPECT_EQ(job.Run().status().code(), StatusCode::kNotFound);
}

TEST_F(AdminTest, MonitorStatusDocument) {
  materialize::MaterializedViewStore store(catalog_.get(), engine_.get(),
                                           &clock_);
  ASSERT_TRUE(store.Materialize("all_names").ok());
  materialize::ResultCache cache(1 << 20, 0, &clock_);
  frontend::LoadBalancer balancer;
  balancer.AddEngine(std::make_unique<core::IntegrationEngine>(catalog_.get()));

  SystemMonitor monitor(catalog_.get(), &store, &cache, &balancer);
  NodePtr status = monitor.StatusDocument();
  ASSERT_EQ(status->name(), "system_status");

  NodePtr sources = status->FindChild("sources");
  ASSERT_NE(sources, nullptr);
  EXPECT_EQ(sources->FindChildren("source").size(), 2u);
  NodePtr crm = sources->FindChildren("source")[0];
  EXPECT_EQ(crm->GetAttribute("name"), Value::String("crm"));
  EXPECT_EQ(crm->GetAttribute("online"), Value::Bool(true));
  EXPECT_EQ(crm->FindChild("sql")->ScalarValue(), Value::Bool(true));

  NodePtr views = status->FindChild("views");
  ASSERT_NE(views, nullptr);
  NodePtr view = views->FindChild("view");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->GetAttribute("name"), Value::String("all_names"));
  EXPECT_EQ(view->FindChild("materialized")->ScalarValue(),
            Value::Bool(true));
  EXPECT_EQ(view->FindChild("stale")->ScalarValue(), Value::Bool(false));

  EXPECT_NE(status->FindChild("result_cache"), nullptr);
  NodePtr pool = status->FindChild("engine_pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->GetAttribute("size"), Value::Int(1));

  std::string text = monitor.ToText();
  EXPECT_NE(text.find("system_status"), std::string::npos);
  EXPECT_NE(text.find("name=crm"), std::string::npos);
}

TEST_F(AdminTest, MonitorMinimal) {
  SystemMonitor monitor(catalog_.get());
  NodePtr status = monitor.StatusDocument();
  EXPECT_NE(status->FindChild("sources"), nullptr);
  EXPECT_EQ(status->FindChild("result_cache"), nullptr);
  EXPECT_EQ(status->FindChild("engine_pool"), nullptr);
}

}  // namespace
}  // namespace admin
}  // namespace nimble
