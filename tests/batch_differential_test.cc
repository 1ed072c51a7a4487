#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/rng.h"
#include "core/engine.h"
#include "query_generator.h"
#include "xml/serializer.h"

namespace nimble {
namespace core {
namespace {

/// Differential property tests for the vectorized execution core: the same
/// plan must produce the same rows in the same order regardless of batch
/// size — including the degenerate size 1, which exercises every
/// operator's cross-batch resume state. Divergence at any swept size is a
/// vectorization bug by definition.

constexpr size_t kBatchSizes[] = {1, 3, 1024};

// ---- Hand-built plan shapes (the algebra_test menagerie) -----------------

using algebra::Binding;
using algebra::BoundCondition;
using algebra::Operator;
using algebra::Tuple;
using algebra::TupleSchema;

std::unique_ptr<algebra::MaterializedScan> MakeScanPtr(
    std::vector<std::string> vars, std::vector<std::vector<Value>> rows) {
  TupleSchema schema(std::move(vars));
  std::vector<Tuple> tuples;
  for (auto& row : rows) {
    Tuple t;
    for (Value& v : row) t.emplace_back(Binding{std::move(v)});
    tuples.push_back(std::move(t));
  }
  return std::make_unique<algebra::MaterializedScan>(std::move(schema),
                                                     std::move(tuples));
}

xmlql::Condition MakeCondition(const std::string& lhs_var,
                               xmlql::Condition::Op op, Value rhs) {
  xmlql::Condition cond;
  cond.op = op;
  cond.lhs.is_variable = true;
  cond.lhs.variable = lhs_var;
  cond.rhs.literal = std::move(rhs);
  return cond;
}

/// The seven operator kinds plus a deep composite, as factories so each
/// batch-size run gets a fresh tree.
struct PlanShape {
  const char* name;
  std::unique_ptr<Operator> (*make)();
};

std::unique_ptr<Operator> ShapeScan() {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int(i), Value::String(i % 2 ? "odd" : "even")});
  }
  return MakeScanPtr({"x", "p"}, std::move(rows));
}

std::unique_ptr<Operator> ShapeFilter() {
  auto scan = ShapeScan();
  xmlql::Condition cond =
      MakeCondition("x", xmlql::Condition::Op::kGt, Value::Int(3));
  Result<BoundCondition> bc = BoundCondition::Bind(cond, scan->schema());
  EXPECT_TRUE(bc.ok());
  return std::make_unique<algebra::Filter>(
      std::move(scan), std::vector<BoundCondition>{*bc});
}

std::unique_ptr<Operator> ShapeHashJoin() {
  std::vector<std::vector<Value>> left, right;
  for (int i = 0; i < 12; ++i) {
    left.push_back({Value::Int(i % 5), Value::Int(i)});
    right.push_back({Value::Int(i % 7), Value::String("r" + std::to_string(i))});
  }
  return std::make_unique<algebra::HashJoin>(
      MakeScanPtr({"k", "l"}, std::move(left)),
      MakeScanPtr({"k", "r"}, std::move(right)));
}

std::unique_ptr<Operator> ShapeNestedLoopJoin() {
  auto left = MakeScanPtr(
      {"a"}, {{Value::Int(1)}, {Value::Int(5)}, {Value::Int(8)}});
  auto right = MakeScanPtr(
      {"b"}, {{Value::Int(2)}, {Value::Int(4)}, {Value::Int(9)}});
  TupleSchema joined = TupleSchema({"a"}).Merge(TupleSchema({"b"}));
  xmlql::Condition cond;
  cond.op = xmlql::Condition::Op::kLt;
  cond.lhs.is_variable = true;
  cond.lhs.variable = "a";
  cond.rhs.is_variable = true;
  cond.rhs.variable = "b";
  Result<BoundCondition> bc = BoundCondition::Bind(cond, joined);
  EXPECT_TRUE(bc.ok());
  return std::make_unique<algebra::NestedLoopJoin>(
      std::move(left), std::move(right), std::vector<BoundCondition>{*bc});
}

std::unique_ptr<Operator> ShapeSort() {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({Value::String(i % 3 == 0 ? "b" : "a"), Value::Int(9 - i)});
  }
  return std::make_unique<algebra::Sort>(
      MakeScanPtr({"g", "v"}, std::move(rows)),
      std::vector<algebra::Sort::Key>{{0, false}, {1, true}});
}

std::unique_ptr<Operator> ShapeLimit() {
  return std::make_unique<algebra::Limit>(ShapeScan(), 4);
}

std::unique_ptr<Operator> ShapeAggregate() {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 11; ++i) {
    rows.push_back({Value::String(i % 2 ? "odd" : "even"), Value::Int(i)});
  }
  return std::make_unique<algebra::HashAggregate>(
      MakeScanPtr({"g", "v"}, std::move(rows)),
      std::vector<std::string>{"g"},
      std::vector<algebra::HashAggregate::Spec>{
          {algebra::HashAggregate::Fn::kCount, "", "n"},
          {algebra::HashAggregate::Fn::kSum, "v", "total"},
          {algebra::HashAggregate::Fn::kMin, "v", "lo"},
          {algebra::HashAggregate::Fn::kMax, "v", "hi"}});
}

/// Join under filter under sort under limit: batch boundaries from the
/// join land mid-pipeline in every downstream operator.
std::unique_ptr<Operator> ShapeComposite() {
  auto join = ShapeHashJoin();
  xmlql::Condition cond =
      MakeCondition("l", xmlql::Condition::Op::kLt, Value::Int(10));
  Result<BoundCondition> bc = BoundCondition::Bind(cond, join->schema());
  EXPECT_TRUE(bc.ok());
  auto filter = std::make_unique<algebra::Filter>(
      std::move(join), std::vector<BoundCondition>{*bc});
  auto sort = std::make_unique<algebra::Sort>(
      std::move(filter), std::vector<algebra::Sort::Key>{{0, false}});
  return std::make_unique<algebra::Limit>(std::move(sort), 7);
}

constexpr PlanShape kShapes[] = {
    {"scan", ShapeScan},         {"filter", ShapeFilter},
    {"hash_join", ShapeHashJoin}, {"nested_loop", ShapeNestedLoopJoin},
    {"sort", ShapeSort},         {"limit", ShapeLimit},
    {"aggregate", ShapeAggregate}, {"composite", ShapeComposite},
};

std::string RenderTuple(const TupleSchema& schema, const Tuple& tuple) {
  std::string s;
  for (size_t i = 0; i < tuple.size(); ++i) {
    s += schema.variables()[i] + "=" + tuple[i].AsScalar().ToString() + ";";
  }
  return s;
}

/// Drains `op` via NextBatch(), rendering each row in arrival order.
std::vector<std::string> DrainBatches(Operator* op) {
  std::vector<std::string> out;
  EXPECT_TRUE(op->Open().ok());
  while (true) {
    Result<std::optional<algebra::TupleBatch>> batch = op->NextBatch();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || !batch->has_value()) break;
    EXPECT_LE((*batch)->size(), op->batch_size());
    for (size_t i = 0; i < (*batch)->size(); ++i) {
      out.push_back(RenderTuple(op->schema(), (*batch)->MaterializeTuple(i)));
    }
  }
  op->Close();
  return out;
}

TEST(BatchDifferentialTest, PlanShapesAgreeAcrossBatchSizes) {
  for (const PlanShape& shape : kShapes) {
    // Reference: batch drain at the default (largest swept) size.
    std::unique_ptr<Operator> ref_plan = shape.make();
    ref_plan->SetBatchSize(1024);
    const std::vector<std::string> reference = DrainBatches(ref_plan.get());
    EXPECT_FALSE(reference.empty()) << shape.name << ": vacuous shape";

    for (size_t batch_size : kBatchSizes) {
      std::unique_ptr<Operator> batched = shape.make();
      batched->SetBatchSize(batch_size);
      EXPECT_EQ(DrainBatches(batched.get()), reference)
          << shape.name << " diverges at batch_size=" << batch_size;
    }
  }
}

// ---- Whole-engine differential over generated programs -------------------

/// The old fetch contract as a reference: every fetch hands out a private
/// deep copy instead of the source's shared frozen snapshot.
class CloneOnFetch : public connector::Connector {
 public:
  explicit CloneOnFetch(std::unique_ptr<connector::Connector> inner)
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
    Result<NodePtr> tree = inner_->FetchCollection(collection, ctx);
    if (!tree.ok()) return tree;
    return (*tree)->Clone();
  }
  uint64_t DataVersion() override { return inner_->DataVersion(); }

 private:
  std::unique_ptr<connector::Connector> inner_;
};

/// Runs generated XML-QL programs through engines configured at each swept
/// batch size, against a reference engine whose XML feed clones every fetch
/// (the pre-snapshot contract); outcome (status code) and serialized result
/// document must be identical everywhere. Reuses the grammar fuzzer's
/// generator so any fuzzer repro (NIMBLE_FUZZ_SEED/NIMBLE_FUZZ_ITERS)
/// replays here.
TEST(BatchDifferentialTest, GeneratedProgramsAgreeAcrossEngineBatchSizes) {
  testgen::GeneratorFixture fixture = testgen::MakeGeneratorFixture();
  ASSERT_NE(fixture.catalog, nullptr) << "generator fixture setup failed";
  testgen::GeneratorFixture cloning = testgen::MakeGeneratorFixture(
      [](std::unique_ptr<connector::Connector> feed)
          -> std::unique_ptr<connector::Connector> {
        return std::make_unique<CloneOnFetch>(std::move(feed));
      });
  ASSERT_NE(cloning.catalog, nullptr) << "generator fixture setup failed";

  EngineOptions reference_opts;
  reference_opts.verify_plans = true;
  IntegrationEngine reference_engine(cloning.catalog.get(), reference_opts);
  std::vector<std::unique_ptr<IntegrationEngine>> engines;
  for (size_t batch_size : kBatchSizes) {
    EngineOptions opts;
    opts.verify_plans = true;
    opts.batch_size = batch_size;
    engines.push_back(
        std::make_unique<IntegrationEngine>(fixture.catalog.get(), opts));
  }

  Rng rng(testgen::FuzzSeed());
  const size_t iters = testgen::FuzzIters(/*fallback=*/400);
  size_t executed = 0;
  for (size_t i = 0; i < iters; ++i) {
    const std::string text = testgen::GenProgram(rng);

    Result<QueryResult> reference = reference_engine.ExecuteText(text);
    std::string reference_xml;
    if (reference.ok()) {
      ++executed;
      reference_xml = ToXml(*reference->document);
    }
    for (size_t e = 0; e < engines.size(); ++e) {
      Result<QueryResult> got = engines[e]->ExecuteText(text);
      ASSERT_EQ(got.ok(), reference.ok())
          << "batch_size=" << kBatchSizes[e] << " outcome diverges at iter "
          << i << " (seed " << testgen::FuzzSeed() << "):\n"
          << text;
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), reference.status().code())
            << "batch_size=" << kBatchSizes[e] << " error class diverges:\n"
            << text;
        continue;
      }
      EXPECT_EQ(ToXml(*got->document), reference_xml)
          << "batch_size=" << kBatchSizes[e] << " result diverges at iter "
          << i << " (seed " << testgen::FuzzSeed() << "):\n"
          << text;
    }
  }
  // The property is vacuous unless a healthy share of programs ran.
  EXPECT_GT(executed, iters / 10)
      << "only " << executed << "/" << iters << " programs executed";
}

}  // namespace
}  // namespace core
}  // namespace nimble
