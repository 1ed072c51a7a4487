#include <gtest/gtest.h>

#include "algebra/construct.h"
#include "algebra/operators.h"
#include "algebra/pattern_match.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmlql/parser.h"

namespace nimble {
namespace algebra {
namespace {

// Helper: parse a one-pattern query and match its pattern against a doc.
std::pair<TupleSchema, std::vector<Tuple>> Match(const std::string& pattern_q,
                                                 const std::string& xml) {
  Result<xmlql::Query> q = xmlql::ParseQuery(pattern_q);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  Result<NodePtr> doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  TupleSchema schema = SchemaForPattern(q->patterns[0].root);
  Result<std::vector<Tuple>> tuples =
      MatchPattern(q->patterns[0].root, *doc, schema);
  EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
  return {schema, std::move(*tuples)};
}

MaterializedScan MakeScan(std::vector<std::string> vars,
                          std::vector<std::vector<Value>> rows) {
  TupleSchema schema(std::move(vars));
  std::vector<Tuple> tuples;
  for (auto& row : rows) {
    Tuple t;
    for (Value& v : row) t.emplace_back(Binding{std::move(v)});
    tuples.push_back(std::move(t));
  }
  return MaterializedScan(std::move(schema), std::move(tuples));
}

std::unique_ptr<MaterializedScan> MakeScanPtr(
    std::vector<std::string> vars, std::vector<std::vector<Value>> rows) {
  return std::make_unique<MaterializedScan>(
      MakeScan(std::move(vars), std::move(rows)));
}

// ---- Binding / schema ---------------------------------------------------------

TEST(BindingTest, States) {
  Binding unset;
  EXPECT_TRUE(unset.is_unset());
  EXPECT_TRUE(unset.AsScalar().is_null());
  Binding scalar{Value::Int(5)};
  EXPECT_TRUE(scalar.is_scalar());
  EXPECT_EQ(scalar.AsScalar(), Value::Int(5));
  Binding node{Node::Element("e")};
  EXPECT_TRUE(node.is_node());
}

TEST(BindingTest, JoinEquality) {
  EXPECT_TRUE(Binding{Value::Int(3)}.EqualsForJoin(Binding{Value::Double(3)}));
  EXPECT_FALSE(Binding{}.EqualsForJoin(Binding{Value::Int(3)}));
  NodePtr e = Node::Element("year");
  e->AddChild(Node::Text(Value::Int(2001)));
  // A node binding joins with a scalar via its scalar view.
  EXPECT_TRUE(Binding{e}.EqualsForJoin(Binding{Value::Int(2001)}));
}

TEST(TupleSchemaTest, AddAndMerge) {
  TupleSchema a({"x", "y"});
  EXPECT_EQ(a.SlotOf("y"), std::optional<size_t>(1));
  EXPECT_FALSE(a.SlotOf("z").has_value());
  EXPECT_EQ(a.AddVariable("x"), 0u);  // idempotent
  TupleSchema b({"y", "z"});
  TupleSchema merged = a.Merge(b);
  EXPECT_EQ(merged.variables(), (std::vector<std::string>{"x", "y", "z"}));
}

// ---- Pattern matching ----------------------------------------------------------

TEST(PatternMatchTest, FlatRecords) {
  auto [schema, tuples] = Match(
      "WHERE <t><r><a>$a</a><b>$b</b></r></t> IN \"s:t\" CONSTRUCT <o>$a</o>",
      "<t><r><a>1</a><b>x</b></r><r><a>2</a><b>y</b></r></t>");
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0][*schema.SlotOf("a")].AsScalar(), Value::Int(1));
  EXPECT_EQ(tuples[1][*schema.SlotOf("b")].AsScalar(), Value::String("y"));
}

TEST(PatternMatchTest, MissingRequiredChildDropsRecord) {
  auto [schema, tuples] = Match(
      "WHERE <t><r><a>$a</a><b>$b</b></r></t> IN \"s:t\" CONSTRUCT <o>$a</o>",
      "<t><r><a>1</a></r><r><a>2</a><b>y</b></r></t>");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][*schema.SlotOf("a")].AsScalar(), Value::Int(2));
}

TEST(PatternMatchTest, MultipleChildrenCartesian) {
  auto [schema, tuples] = Match(
      "WHERE <o><item><sku>$s</sku></item><item><sku>$t</sku></item></o> "
      "IN \"s:o\" CONSTRUCT <x>$s</x>",
      "<o><item><sku>a</sku></item><item><sku>b</sku></item></o>");
  // 2 choices for first item pattern × 2 for second = 4 combinations.
  EXPECT_EQ(tuples.size(), 4u);
}

TEST(PatternMatchTest, RepeatedVariableUnifies) {
  auto [schema, tuples] = Match(
      "WHERE <d><p><a>$x</a></p><q><b>$x</b></q></d> IN \"s:d\" "
      "CONSTRUCT <o>$x</o>",
      "<d><p><a>1</a></p><p><a>2</a></p><q><b>2</b></q><q><b>3</b></q></d>");
  // Only $x=2 appears on both sides.
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][*schema.SlotOf("x")].AsScalar(), Value::Int(2));
}

TEST(PatternMatchTest, AttributeLiteralConstraint) {
  auto [schema, tuples] = Match(
      "WHERE <t><r k=\"keep\"><v>$v</v></r></t> IN \"s:t\" CONSTRUCT <o>$v</o>",
      "<t><r k=\"keep\"><v>1</v></r><r k=\"drop\"><v>2</v></r>"
      "<r><v>3</v></r></t>");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][0].AsScalar(), Value::Int(1));
}

TEST(PatternMatchTest, DescendantRootSearchesAnywhere) {
  auto [schema, tuples] = Match(
      "WHERE <//leaf><v>$v</v></leaf> IN \"s:t\" CONSTRUCT <o>$v</o>",
      "<t><mid><leaf><v>1</v></leaf></mid><leaf><v>2</v></leaf></t>");
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(PatternMatchTest, RootMismatchYieldsNothing) {
  auto [schema, tuples] = Match(
      "WHERE <nope><r><v>$v</v></r></nope> IN \"s:t\" CONSTRUCT <o>$v</o>",
      "<t><r><v>1</v></r></t>");
  EXPECT_TRUE(tuples.empty());
}

TEST(PatternMatchTest, ElementAsBindsNode) {
  auto [schema, tuples] = Match(
      "WHERE <t><r ELEMENT_AS $e><v>$v</v></r></t> IN \"s:t\" "
      "CONSTRUCT <o>$v</o>",
      "<t><r><v>7</v><extra>z</extra></r></t>");
  ASSERT_EQ(tuples.size(), 1u);
  const Binding& e = tuples[0][*schema.SlotOf("e")];
  ASSERT_TRUE(e.is_node());
  EXPECT_EQ(e.node()->FindChild("extra")->ScalarValue(), Value::String("z"));
}

// ---- Operators -----------------------------------------------------------------

TEST(OperatorTest, MaterializedScanDrain) {
  auto scan = MakeScanPtr({"x"}, {{Value::Int(1)}, {Value::Int(2)}});
  Result<std::vector<Tuple>> all = scan->Drain();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(OperatorTest, FilterKeepsPassing) {
  auto scan =
      MakeScanPtr({"x"}, {{Value::Int(1)}, {Value::Int(5)}, {Value::Int(9)}});
  xmlql::Condition cond;
  cond.op = xmlql::Condition::Op::kGt;
  cond.lhs.is_variable = true;
  cond.lhs.variable = "x";
  cond.rhs.literal = Value::Int(3);
  Result<BoundCondition> bc = BoundCondition::Bind(cond, scan->schema());
  ASSERT_TRUE(bc.ok());
  Filter filter(std::move(scan), {*bc});
  Result<std::vector<Tuple>> out = filter.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(OperatorTest, HashJoinOnSharedVariable) {
  auto left = MakeScanPtr({"id", "name"}, {{Value::Int(1), Value::String("a")},
                                           {Value::Int(2), Value::String("b")},
                                           {Value::Int(3), Value::String("c")}});
  auto right = MakeScanPtr({"id", "total"}, {{Value::Int(1), Value::Int(10)},
                                             {Value::Int(1), Value::Int(20)},
                                             {Value::Int(3), Value::Int(30)},
                                             {Value::Int(9), Value::Int(99)}});
  HashJoin join(std::move(left), std::move(right));
  EXPECT_EQ(join.join_variables(), (std::vector<std::string>{"id"}));
  EXPECT_EQ(join.schema().variables(),
            (std::vector<std::string>{"id", "name", "total"}));
  Result<std::vector<Tuple>> out = join.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);  // 1→10, 1→20, 3→30
}

TEST(OperatorTest, HashJoinNullNeverJoins) {
  auto left = MakeScanPtr({"k"}, {{Value::Null()}, {Value::Int(1)}});
  auto right = MakeScanPtr({"k"}, {{Value::Null()}, {Value::Int(1)}});
  HashJoin join(std::move(left), std::move(right));
  Result<std::vector<Tuple>> out = join.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST(OperatorTest, NestedLoopJoinCartesianWithCondition) {
  auto left = MakeScanPtr({"a"}, {{Value::Int(1)}, {Value::Int(5)}});
  auto right = MakeScanPtr({"b"}, {{Value::Int(2)}, {Value::Int(4)}});
  // a < b
  TupleSchema joined = TupleSchema({"a"}).Merge(TupleSchema({"b"}));
  xmlql::Condition cond;
  cond.op = xmlql::Condition::Op::kLt;
  cond.lhs.is_variable = true;
  cond.lhs.variable = "a";
  cond.rhs.is_variable = true;
  cond.rhs.variable = "b";
  Result<BoundCondition> bc = BoundCondition::Bind(cond, joined);
  ASSERT_TRUE(bc.ok());
  NestedLoopJoin join(std::move(left), std::move(right), {*bc});
  Result<std::vector<Tuple>> out = join.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // (1,2), (1,4)
}

TEST(OperatorTest, SortStableMultiKey) {
  auto scan = MakeScanPtr(
      {"g", "v"},
      {{Value::String("b"), Value::Int(1)}, {Value::String("a"), Value::Int(2)},
       {Value::String("a"), Value::Int(1)}, {Value::String("b"), Value::Int(2)}});
  Sort sort(std::move(scan), {{0, false}, {1, true}});
  Result<std::vector<Tuple>> out = sort.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0][0].AsScalar(), Value::String("a"));
  EXPECT_EQ((*out)[0][1].AsScalar(), Value::Int(2));
  EXPECT_EQ((*out)[3][1].AsScalar(), Value::Int(1));
}

TEST(OperatorTest, LimitCutsOff) {
  auto scan =
      MakeScanPtr({"x"}, {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}});
  Limit limit(std::move(scan), 2);
  Result<std::vector<Tuple>> out = limit.Drain();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(OperatorTest, HashAggregateGrouped) {
  auto scan = MakeScanPtr(
      {"city", "amount"},
      {{Value::String("sea"), Value::Int(10)},
       {Value::String("pdx"), Value::Int(5)},
       {Value::String("sea"), Value::Int(20)}});
  HashAggregate agg(std::move(scan), {"city"},
                    {{HashAggregate::Fn::kCount, "", "n"},
                     {HashAggregate::Fn::kSum, "amount", "total"},
                     {HashAggregate::Fn::kMax, "amount", "biggest"}});
  Result<std::vector<Tuple>> out = agg.Drain();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  const TupleSchema& schema = agg.schema();
  EXPECT_EQ((*out)[0][*schema.SlotOf("city")].AsScalar(),
            Value::String("sea"));
  EXPECT_EQ((*out)[0][*schema.SlotOf("n")].AsScalar(), Value::Int(2));
  EXPECT_EQ((*out)[0][*schema.SlotOf("total")].AsScalar(), Value::Double(30));
  EXPECT_EQ((*out)[0][*schema.SlotOf("biggest")].AsScalar(), Value::Int(20));
}

TEST(OperatorTest, HashAggregateGlobalGroup) {
  auto scan = MakeScanPtr({"v"}, {{Value::Int(4)}, {Value::Int(6)}});
  HashAggregate agg(std::move(scan), {},
                    {{HashAggregate::Fn::kAvg, "v", "mean"}});
  Result<std::vector<Tuple>> out = agg.Drain();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0][0].AsScalar(), Value::Double(5.0));
}

TEST(OperatorTest, DescribeRendersTree) {
  auto left = MakeScanPtr({"x"}, {{Value::Int(1)}});
  auto right = MakeScanPtr({"x"}, {{Value::Int(1)}});
  HashJoin join(std::move(left), std::move(right));
  std::string description = join.Describe();
  EXPECT_NE(description.find("HashJoin($x)"), std::string::npos);
  EXPECT_NE(description.find("Scan"), std::string::npos);
}

// ---- Construct -------------------------------------------------------------------

TEST(ConstructTest, InstantiatesPerTuple) {
  Result<xmlql::Query> q = xmlql::ParseQuery(
      "WHERE <t><r><a>$a</a></r></t> IN \"s:t\" "
      "CONSTRUCT <row id=$a><val>$a</val></row>");
  ASSERT_TRUE(q.ok());
  auto scan = MakeScanPtr({"a"}, {{Value::Int(1)}, {Value::Int(2)}});
  NodePtr doc = Node::Element("results");
  Result<size_t> rows = ConstructResult(scan.get(), *q->construct, doc.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 2u);
  EXPECT_EQ(doc->children().size(), 2u);
  EXPECT_EQ(doc->children()[1]->GetAttribute("id"), Value::Int(2));
  EXPECT_EQ(doc->children()[1]->FindChild("val")->ScalarValue(),
            Value::Int(2));
}

// ---- Property: join order invariance ----------------------------------------------

class JoinCommutativity : public ::testing::TestWithParam<int> {};

TEST_P(JoinCommutativity, HashJoinResultSetIsOrderInsensitive) {
  // Generate two deterministic relations from the seed and check |A ⋈ B| ==
  // |B ⋈ A| and result multisets match (compared via sorted serialization).
  int seed = GetParam();
  std::vector<std::vector<Value>> left_rows, right_rows;
  for (int i = 0; i < 20; ++i) {
    left_rows.push_back({Value::Int((i * seed) % 7), Value::Int(i)});
    right_rows.push_back({Value::Int((i * (seed + 3)) % 5), Value::Int(i)});
  }
  auto drain_sorted = [](Operator* op) {
    Result<std::vector<Tuple>> out = op->Drain();
    EXPECT_TRUE(out.ok());
    std::vector<std::string> rendered;
    std::vector<std::string> vars = op->schema().variables();
    std::sort(vars.begin(), vars.end());  // canonical variable order
    for (const Tuple& tuple : *out) {
      std::string s;
      for (const std::string& var : vars) {
        s += var + "=" + tuple[*op->schema().SlotOf(var)].AsScalar().ToString() +
             ";";
      }
      rendered.push_back(s);
    }
    std::sort(rendered.begin(), rendered.end());
    return rendered;
  };

  HashJoin ab(MakeScanPtr({"k", "l"}, left_rows),
              MakeScanPtr({"k", "r"}, right_rows));
  HashJoin ba(MakeScanPtr({"k", "r"}, right_rows),
              MakeScanPtr({"k", "l"}, left_rows));
  EXPECT_EQ(drain_sorted(&ab), drain_sorted(&ba));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinCommutativity, ::testing::Range(1, 8));

}  // namespace
}  // namespace algebra
}  // namespace nimble
