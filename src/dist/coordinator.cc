#include "dist/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "algebra/construct.h"
#include "algebra/tuple.h"
#include "dist/merge.h"
#include "xml/serializer.h"
#include "xmlql/parser.h"

namespace nimble {
namespace dist {
namespace {

using xmlql::AggregateFn;
using xmlql::Condition;
using xmlql::ElementPattern;
using xmlql::TemplateNode;

/// Slice width for the responsive gather wait: small enough that a cancelled
/// query returns within a few milliseconds, large enough that the poll loop
/// is not a busy-wait.
constexpr int64_t kGatherSliceMicros = 2000;

/// Cancellation poll for the shard gather path. A null flag never cancels.
Status CheckCancelled(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("query cancelled during shard gather");
  }
  return Status::OK();
}

// --- AST deep clones (Query owns unique_ptr subtrees) ----------------------

void ClonePatternInto(const ElementPattern& in, ElementPattern* out) {
  out->tag = in.tag;
  out->descendant = in.descendant;
  out->attributes = in.attributes;
  out->content_variable = in.content_variable;
  out->content_literal = in.content_literal;
  out->element_variable = in.element_variable;
  out->pos = in.pos;
  for (const std::unique_ptr<ElementPattern>& child : in.children) {
    auto clone = std::make_unique<ElementPattern>();
    ClonePatternInto(*child, clone.get());
    out->children.push_back(std::move(clone));
  }
}

std::unique_ptr<TemplateNode> CloneTemplate(const TemplateNode& in) {
  auto out = std::make_unique<TemplateNode>();
  out->kind = in.kind;
  out->tag = in.tag;
  out->attributes = in.attributes;
  out->variable = in.variable;
  out->aggregate = in.aggregate;
  out->text = in.text;
  out->pos = in.pos;
  for (const std::unique_ptr<TemplateNode>& child : in.children) {
    out->children.push_back(CloneTemplate(*child));
  }
  return out;
}

xmlql::Query CloneQuery(const xmlql::Query& in) {
  xmlql::Query out;
  for (const xmlql::PatternClause& pattern : in.patterns) {
    xmlql::PatternClause clause;
    clause.source = pattern.source;
    clause.pos = pattern.pos;
    ClonePatternInto(pattern.root, &clause.root);
    out.patterns.push_back(std::move(clause));
  }
  out.conditions = in.conditions;
  out.group_by = in.group_by;
  out.group_by_pos = in.group_by_pos;
  out.construct = CloneTemplate(*in.construct);
  out.order_by = in.order_by;
  out.limit = in.limit;
  return out;
}

/// "__n…" element names are the coordinator's transport vocabulary
/// (__nsk/__ngk/__nag/__npart); a template already using them could not be
/// told apart from the annotations, so such queries run undistributed.
bool UsesReservedNames(const TemplateNode& node) {
  if (node.kind == TemplateNode::Kind::kElement &&
      node.tag.rfind("__n", 0) == 0) {
    return true;
  }
  for (const std::unique_ptr<TemplateNode>& child : node.children) {
    if (UsesReservedNames(*child)) return true;
  }
  return false;
}

bool PatternHasElementVariable(const ElementPattern& pattern) {
  if (!pattern.element_variable.empty()) return true;
  for (const std::unique_ptr<ElementPattern>& child : pattern.children) {
    if (PatternHasElementVariable(*child)) return true;
  }
  return false;
}

Condition::Op FlipOp(Condition::Op op) {
  switch (op) {
    case Condition::Op::kLt:
      return Condition::Op::kGt;
    case Condition::Op::kLe:
      return Condition::Op::kGe;
    case Condition::Op::kGt:
      return Condition::Op::kLt;
    case Condition::Op::kGe:
      return Condition::Op::kLe;
    default:
      return op;
  }
}

/// The record-level patterns of a branch, shape-resolved the same way the
/// statistics mapper reads them (opt::VariableColumns): a descendant-axis
/// root matches the records itself; otherwise the root matches the
/// collection root and its children match records.
std::vector<const ElementPattern*> RecordPatterns(const ElementPattern& root) {
  std::vector<const ElementPattern*> records;
  if (root.descendant) {
    records.push_back(&root);
    return records;
  }
  for (const std::unique_ptr<ElementPattern>& child : root.children) {
    if (child != nullptr) records.push_back(child.get());
  }
  return records;
}

/// Typed value carried by one transport annotation element: scalar bindings
/// travel as a single typed text child; node bindings (ELEMENT_AS sort
/// keys) travel as the cloned element, compared by its scalar view just as
/// the engine's Sort compares node bindings.
Value AnnotationValue(const Node& annotation) {
  const std::vector<NodePtr>& kids = annotation.children();
  if (kids.size() == 1 && kids[0] != nullptr && kids[0]->is_element()) {
    return kids[0]->ScalarValue();
  }
  return annotation.ScalarValue();
}

void AddUnique(std::vector<std::string>* list, const std::string& value) {
  if (std::find(list->begin(), list->end(), value) == list->end()) {
    list->push_back(value);
  }
}

/// Group identity, mirroring HashAggregate's key (value text + type per
/// slot) so distributed grouping coincides with shard-local grouping.
std::string GroupKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    key += v.ToString();
    key += '\x1f';
    key += ValueTypeName(v.type());
    key += '\x1e';
  }
  return key;
}

bool DegradableCode(StatusCode code) {
  return code == StatusCode::kTimeout || code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}

int64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Per-(fn, variable) partial-aggregate accumulator — the distributed half
/// of HashAggregate's Accum. Shard engines run the decomposed aggregates;
/// the coordinator recombines them with the same skip-null / numeric-sum /
/// Compare-extremes rules the operator applies per row.
struct PartialAcc {
  int64_t count = 0;
  double sum = 0.0;
  bool any = false;  ///< some shard saw a non-null input.
  Value extreme;     ///< running min or max (per the partial's fn).
};

struct GroupState {
  std::vector<Value> keys;  ///< group variable values, in GROUP BY order.
  std::vector<PartialAcc> accs;
};

}  // namespace

struct Coordinator::BranchPlan {
  const xmlql::Query* query = nullptr;
  const metadata::FragmentMap* map = nullptr;
  std::string source_name;
  std::string source_label;  ///< "source:collection".
  bool aggregate = false;
  /// The rewritten query every target shard runs. Shared by the shard
  /// tasks, each of which holds its own reference: a straggler can outlive
  /// the coordinator call that dispatched it.
  std::shared_ptr<const core::CompiledProgram> shard_program;
  std::vector<size_t> target_shards;
  size_t pruned = 0;
  double est_rows = -1.0;
  /// Aggregation decomposition: the template's distinct (fn, var) calls and
  /// the deduplicated partials shipped to shards (avg → sum + count).
  std::vector<std::pair<AggregateFn, std::string>> aggregates;
  std::vector<std::pair<AggregateFn, std::string>> partials;
  /// Gather-side ordering (ORDER BY spec of the original query).
  std::vector<std::string> order_vars;
  std::vector<bool> descending;
  int64_t limit = -1;
};

Coordinator::Coordinator(ShardCluster* cluster, DistOptions options,
                         core::EngineOptions local_engine_options)
    : cluster_(cluster),
      options_(options),
      local_(cluster->catalog(), local_engine_options) {}

CoordinatorCounters Coordinator::counters() const {
  CoordinatorCounters out;
  out.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  out.fallback_queries = fallback_queries_.load(std::memory_order_relaxed);
  out.subqueries = subqueries_.load(std::memory_order_relaxed);
  out.shards_pruned = shards_pruned_.load(std::memory_order_relaxed);
  out.merge_rows = merge_rows_.load(std::memory_order_relaxed);
  out.stragglers = stragglers_.load(std::memory_order_relaxed);
  out.partial_results = partial_results_.load(std::memory_order_relaxed);
  return out;
}

bool Coordinator::PlanBranch(const xmlql::Query& query, BranchPlan* plan,
                             std::string* reason) const {
  plan->query = &query;
  if (query.patterns.size() != 1) {
    *reason = "multi-pattern join";
    return false;
  }
  const xmlql::SourceRef& ref = query.patterns[0].source;
  if (ref.is_view()) {
    *reason = "mediated-view source";
    return false;
  }
  const metadata::FragmentMap* map =
      cluster_->catalog()->fragment_map(ref.source, ref.collection);
  if (map == nullptr) {
    *reason = "collection is not sharded";
    return false;
  }
  plan->map = map;
  plan->source_name = ref.source;
  plan->source_label = ref.ToString();

  std::shared_ptr<const metadata::CollectionStats> stats =
      cluster_->catalog()->statistics().Get(ref.source, ref.collection);
  plan->est_rows = stats != nullptr ? stats->row_count : -1.0;
  if (options_.min_scatter_rows > 0 && plan->est_rows >= 0 &&
      plan->est_rows < options_.min_scatter_rows) {
    *reason = "below min_scatter_rows";
    return false;
  }

  if (query.construct == nullptr ||
      query.construct->kind != TemplateNode::Kind::kElement) {
    *reason = "non-element construct root";
    return false;
  }
  if (UsesReservedNames(*query.construct)) {
    *reason = "template uses reserved __n names";
    return false;
  }

  plan->limit = query.limit;
  for (const xmlql::OrderSpec& spec : query.order_by) {
    plan->order_vars.push_back(spec.variable);
    plan->descending.push_back(spec.descending);
  }

  plan->aggregate = query.IsAggregation();
  xmlql::Query shard_query = CloneQuery(query);
  // LIMIT is gather-side only: a shard-local LIMIT would pick an arbitrary
  // per-shard subset and the merged answer would depend on the shard count.
  shard_query.limit = -1;

  if (!plan->aggregate) {
    // Shape A (row gather): annotate each result row with its sort keys so
    // the gather side can merge order-preserving without re-deriving them.
    for (size_t i = 0; i < query.order_by.size(); ++i) {
      auto annotation = std::make_unique<TemplateNode>();
      annotation->kind = TemplateNode::Kind::kElement;
      annotation->tag = "__nsk" + std::to_string(i);
      auto variable = std::make_unique<TemplateNode>();
      variable->kind = TemplateNode::Kind::kVariable;
      variable->variable = query.order_by[i].variable;
      annotation->children.push_back(std::move(variable));
      shard_query.construct->children.push_back(std::move(annotation));
    }
  } else {
    // Shape B (partial aggregation): ship GROUP BY plus decomposed
    // aggregates; the original template is instantiated at the gather side
    // from the recombined values.
    if (PatternHasElementVariable(query.patterns[0].root)) {
      *reason = "ELEMENT_AS binding in aggregation";
      return false;
    }
    std::set<std::string> seen_groups;
    for (const std::string& var : query.group_by) {
      if (!seen_groups.insert(var).second) {
        *reason = "duplicate GROUP BY variable";
        return false;
      }
    }
    for (const std::string& var : plan->order_vars) {
      if (seen_groups.count(var) == 0) {
        *reason = "ORDER BY variable is not a grouping key";
        return false;
      }
    }
    query.construct->CollectAggregates(&plan->aggregates);
    std::set<std::string> seen_outputs;
    for (const std::string& var : query.group_by) seen_outputs.insert(var);
    for (const auto& [fn, var] : plan->aggregates) {
      if (!seen_outputs
               .insert(std::string(xmlql::AggregateFnName(fn)) + "_" + var)
               .second) {
        *reason = "aggregate output name collides with a grouping key";
        return false;
      }
    }
    std::set<std::string> seen_partials;
    auto add_partial = [&](AggregateFn fn, const std::string& var) {
      if (seen_partials
              .insert(std::string(xmlql::AggregateFnName(fn)) + "\x1f" + var)
              .second) {
        plan->partials.emplace_back(fn, var);
      }
    };
    for (const auto& [fn, var] : plan->aggregates) {
      switch (fn) {
        case AggregateFn::kCount:
          add_partial(AggregateFn::kCount, var);
          break;
        case AggregateFn::kSum:
          add_partial(AggregateFn::kSum, var);
          break;
        case AggregateFn::kAvg:
          add_partial(AggregateFn::kSum, var);
          add_partial(AggregateFn::kCount, var);
          break;
        case AggregateFn::kMin:
          add_partial(AggregateFn::kMin, var);
          break;
        case AggregateFn::kMax:
          add_partial(AggregateFn::kMax, var);
          break;
      }
    }

    auto root = std::make_unique<TemplateNode>();
    root->kind = TemplateNode::Kind::kElement;
    root->tag = "__npart";
    for (size_t i = 0; i < query.group_by.size(); ++i) {
      auto annotation = std::make_unique<TemplateNode>();
      annotation->kind = TemplateNode::Kind::kElement;
      annotation->tag = "__ngk" + std::to_string(i);
      auto variable = std::make_unique<TemplateNode>();
      variable->kind = TemplateNode::Kind::kVariable;
      variable->variable = query.group_by[i];
      annotation->children.push_back(std::move(variable));
      root->children.push_back(std::move(annotation));
    }
    for (size_t j = 0; j < plan->partials.size(); ++j) {
      auto annotation = std::make_unique<TemplateNode>();
      annotation->kind = TemplateNode::Kind::kElement;
      annotation->tag = "__nag" + std::to_string(j);
      auto agg = std::make_unique<TemplateNode>();
      agg->kind = TemplateNode::Kind::kAggregate;
      agg->aggregate = plan->partials[j].first;
      agg->variable = plan->partials[j].second;
      annotation->children.push_back(std::move(agg));
      root->children.push_back(std::move(annotation));
    }
    shard_query.construct = std::move(root);
    shard_query.order_by.clear();
  }

  xmlql::Program shard_program;
  shard_program.branches.push_back(std::move(shard_query));
  plan->shard_program = core::CompileProgram(std::move(shard_program));

  // --- Shard pruning from the partition key -------------------------------
  std::vector<size_t> targets = plan->map->AllFragments();
  auto intersect = [&targets](const std::vector<size_t>& keep) {
    std::set<size_t> allowed(keep.begin(), keep.end());
    std::vector<size_t> next;
    for (size_t shard : targets) {
      if (allowed.count(shard) > 0) next.push_back(shard);
    }
    targets = std::move(next);
  };

  std::vector<const ElementPattern*> records =
      RecordPatterns(query.patterns[0].root);
  // Variable → statistics-column map over the shape-resolved records. This
  // (like PartitionKeyOf) assumes the partition-key field appears at most
  // once per record — the flat record shape Analyze() collects.
  std::map<std::string, std::string> var_columns;
  for (const ElementPattern* record : records) {
    for (const xmlql::AttrPattern& attr : record->attributes) {
      if (attr.is_variable && !attr.variable.empty()) {
        var_columns.emplace(attr.variable, "@" + attr.name);
      }
    }
    for (const std::unique_ptr<ElementPattern>& column : record->children) {
      if (column != nullptr && !column->content_variable.empty() &&
          column->tag != "*") {
        var_columns.emplace(column->content_variable, column->tag);
      }
    }
  }
  // Literal constraints inside the pattern prune like equality conditions.
  for (const ElementPattern* record : records) {
    for (const xmlql::AttrPattern& attr : record->attributes) {
      if (!attr.is_variable && "@" + attr.name == plan->map->partition_key) {
        intersect(plan->map->FragmentsForCondition(Condition::Op::kEq,
                                                   attr.literal));
      }
    }
    for (const std::unique_ptr<ElementPattern>& column : record->children) {
      if (column != nullptr && column->content_literal.has_value() &&
          column->tag == plan->map->partition_key) {
        intersect(plan->map->FragmentsForCondition(Condition::Op::kEq,
                                                   *column->content_literal));
      }
    }
  }
  for (const Condition& condition : query.conditions) {
    const Condition::Operand* var_side = nullptr;
    const Value* literal = nullptr;
    Condition::Op op = condition.op;
    if (condition.lhs.is_variable && !condition.rhs.is_variable) {
      var_side = &condition.lhs;
      literal = &condition.rhs.literal;
    } else if (condition.rhs.is_variable && !condition.lhs.is_variable) {
      var_side = &condition.rhs;
      literal = &condition.lhs.literal;
      op = FlipOp(op);
    } else {
      continue;
    }
    auto it = var_columns.find(var_side->variable);
    if (it == var_columns.end() || it->second != plan->map->partition_key) {
      continue;
    }
    intersect(plan->map->FragmentsForCondition(op, *literal));
  }

  plan->target_shards = std::move(targets);
  plan->pruned = plan->map->num_fragments - plan->target_shards.size();
  return true;
}

Result<core::QueryResult> Coordinator::ExecuteText(
    std::string_view xmlql_text, const core::QueryOptions& query_options) {
  Result<xmlql::Program> program = xmlql::ParseProgram(xmlql_text);
  if (!program.ok()) return program.status();

  std::vector<BranchPlan> plans(program->branches.size());
  for (size_t b = 0; b < program->branches.size(); ++b) {
    std::string reason;
    if (!PlanBranch(program->branches[b], &plans[b], &reason)) {
      fallback_queries_.fetch_add(1, std::memory_order_relaxed);
      return local_.ExecuteText(xmlql_text, query_options);
    }
  }
  scatter_queries_.fetch_add(1, std::memory_order_relaxed);
  return ExecuteScattered(std::move(plans), query_options);
}

Result<core::QueryResult> Coordinator::ExecuteScattered(
    std::vector<BranchPlan> plans, const core::QueryOptions& query_options) {
  const core::AvailabilityPolicy policy = query_options.availability.value_or(
      local_.options().availability);
  core::QueryOptions shard_options = query_options;
  shard_options.availability = policy;
  // A cancelled straggler outlives this call, so shard tasks must not hold
  // the caller's flag. The gather loop polls it and cancels every shard
  // through its own handle instead.
  shard_options.cancel = nullptr;

  struct ShardRun {
    size_t shard = 0;
    core::QueryHandlePtr handle;
    const Result<core::QueryResult>* outcome = nullptr;  ///< null: straggler.
    bool degraded = false;
  };
  std::vector<std::vector<ShardRun>> runs(plans.size());
  size_t dispatched = 0;
  for (size_t b = 0; b < plans.size(); ++b) {
    for (size_t shard : plans[b].target_shards) {
      ShardRun run;
      run.shard = shard;
      run.handle = cluster_->shard_engine(shard)->Submit(
          plans[b].shard_program, shard_options);
      runs[b].push_back(std::move(run));
      ++dispatched;
    }
    shards_pruned_.fetch_add(plans[b].pruned, std::memory_order_relaxed);
  }
  subqueries_.fetch_add(dispatched, std::memory_order_relaxed);

  auto cancel_all = [&runs]() {
    for (std::vector<ShardRun>& branch_runs : runs) {
      for (ShardRun& run : branch_runs) run.handle->Cancel();
    }
  };
  const std::atomic<bool>* cancel = query_options.cancel;

  // --- Gather: wait (bounded when a straggler budget is set) --------------
  const int64_t budget = options_.straggler_wait_micros;
  const auto gather_start = std::chrono::steady_clock::now();
  core::QueryResult out;
  out.document = Node::Element("results");
  core::ExecutionReport& report = out.report;
  size_t total_merge_rows = 0;

  for (size_t b = 0; b < plans.size(); ++b) {
    const BranchPlan& plan = plans[b];
    for (ShardRun& run : runs[b]) {
      // Wait in bounded slices, polling the caller's cancel flag between
      // slices, so a cancelled scatter-gather abandons the remaining shards
      // within ~kGatherSliceMicros instead of blocking until they finish.
      while (run.outcome == nullptr) {
        Status cancelled = CheckCancelled(cancel);
        if (!cancelled.ok()) {
          cancel_all();
          return cancelled;
        }
        if (budget > 0) {
          const int64_t remaining = budget - ElapsedMicros(gather_start);
          if (remaining <= 0) break;  // Straggler: outcome stays null.
          run.outcome =
              run.handle->WaitFor(std::min(kGatherSliceMicros, remaining));
        } else if (cancel == nullptr) {
          // No flag to poll: a plain blocking wait always produces an
          // outcome, so this loop runs exactly once.
          run.outcome = &run.handle->Wait();
        } else {
          run.outcome = run.handle->WaitFor(kGatherSliceMicros);
        }
      }
      const bool straggler = run.outcome == nullptr;
      const bool failed = !straggler && !run.outcome->ok();
      if (!straggler && !failed) continue;

      if (straggler) {
        run.handle->Cancel();
        stragglers_.fetch_add(1, std::memory_order_relaxed);
      } else if (run.outcome->status().code() == StatusCode::kTimeout) {
        stragglers_.fetch_add(1, std::memory_order_relaxed);
      }
      const Status status =
          straggler ? Status::Timeout(
                          "shard " + std::to_string(run.shard) + " of " +
                          plan.source_label + " exceeded the straggler budget")
                    : run.outcome->status();
      if (policy == core::AvailabilityPolicy::kFailFast ||
          !DegradableCode(status.code())) {
        cancel_all();
        return status;
      }
      // Required sources fail the query under any policy (paper §3.4).
      for (const std::string& required : query_options.required_sources) {
        if (required == plan.source_name) {
          cancel_all();
          return Status::Unavailable("required source '" + required +
                                     "' is unavailable");
        }
      }
      run.degraded = true;
      report.completeness.complete = false;
      AddUnique(&report.completeness.unavailable_sources,
                plan.source_label + "#shard" + std::to_string(run.shard));
    }
  }

  // --- Merge each branch's shard answers ----------------------------------
  std::string plan_text, plan_stats_text;
  for (size_t b = 0; b < plans.size(); ++b) {
    const BranchPlan& plan = plans[b];
    const xmlql::Query& query = *plan.query;

    std::string shard_list;
    for (size_t i = 0; i < plan.target_shards.size(); ++i) {
      if (i > 0) shard_list += ",";
      shard_list += std::to_string(plan.target_shards[i]);
    }
    const std::string scatter_header =
        (plans.size() > 1 ? "-- branch " + std::to_string(b) + " --\n" : "") +
        "scatter: " + plan.source_label + " shards=[" + shard_list + "] of " +
        std::to_string(plan.map->num_fragments) +
        " pruned=" + std::to_string(plan.pruned) + " key=" +
        plan.map->partition_key + " (" +
        metadata::FragmentMap::KindName(plan.map->kind) + ") est_cost=" +
        std::to_string(cost_model_.ScatterGatherCost(
            std::max(plan.est_rows, 0.0), plan.target_shards.size(),
            std::max(plan.est_rows, 0.0))) +
        "\n";
    plan_text += scatter_header;
    plan_stats_text += scatter_header;

    // Collect successful shard answers (and their reports).
    std::vector<core::QueryResult> shard_results;
    size_t degraded = 0;
    for (ShardRun& run : runs[b]) {
      const std::string header = "-- shard " + std::to_string(run.shard) +
                                 (run.degraded ? " (degraded) --\n" : " --\n");
      plan_text += header;
      plan_stats_text += header;
      if (run.degraded) {
        ++degraded;
        continue;
      }
      core::QueryResult shard_result = **run.outcome;
      const core::ExecutionReport& sr = shard_result.report;
      plan_text += sr.plan;
      if (!plan_text.empty() && plan_text.back() != '\n') plan_text += "\n";
      plan_stats_text += sr.plan_with_stats;
      if (!plan_stats_text.empty() && plan_stats_text.back() != '\n') {
        plan_stats_text += "\n";
      }
      report.rows_shipped += sr.rows_shipped;
      report.fragments_pushed_down += sr.fragments_pushed_down;
      report.fragments_fetched += sr.fragments_fetched;
      report.fragments_bind_joined += sr.fragments_bind_joined;
      report.retries += sr.retries;
      report.source_latency_micros =
          std::max(report.source_latency_micros, sr.source_latency_micros);
      report.queue_wait_micros =
          std::max(report.queue_wait_micros, sr.queue_wait_micros);
      for (const std::string& src : sr.sources_contacted) {
        AddUnique(&report.sources_contacted, src);
      }
      // Shard-internal degradation (an unsharded forwarded source was down
      // under kPartial) taints the distributed answer too.
      if (!sr.completeness.complete) {
        report.completeness.complete = false;
        for (const std::string& src : sr.completeness.unavailable_sources) {
          AddUnique(&report.completeness.unavailable_sources, src);
        }
      }
      shard_results.push_back(std::move(shard_result));
    }
    if (!runs[b].empty() && degraded == runs[b].size()) {
      report.completeness.skipped_branches.push_back(b);
    }

    size_t branch_merge_rows = 0;
    if (!plan.aggregate) {
      // Shape A: strip the __nsk sort-key annotations, sort every shard
      // stream canonically, k-way merge, apply LIMIT.
      const size_t num_keys = plan.order_vars.size();
      MergeComparator cmp(plan.descending);
      std::vector<std::vector<MergeItem>> streams;
      streams.reserve(shard_results.size());
      for (core::QueryResult& shard_result : shard_results) {
        NodePtr doc = shard_result.MutableDocument();
        std::vector<MergeItem> stream;
        for (NodePtr& instance : doc->TakeChildren()) {
          MergeItem item;
          const size_t n = instance->children().size();
          if (n < num_keys) {
            return Status::Internal("shard row lost its sort annotations");
          }
          item.keys.resize(num_keys);
          for (size_t k = 0; k < num_keys; ++k) {
            const Node& annotation = *instance->children()[n - num_keys + k];
            if (annotation.name() != "__nsk" + std::to_string(k)) {
              return Status::Internal("mis-shaped sort annotation " +
                                      annotation.name());
            }
            item.keys[k] = AnnotationValue(annotation);
          }
          for (size_t k = 0; k < num_keys; ++k) {
            instance->RemoveChild(instance->children().size() - 1);
          }
          item.bytes = ToXml(*instance);
          item.node = std::move(instance);
          stream.push_back(std::move(item));
        }
        std::sort(stream.begin(), stream.end(),
                  [&cmp](const MergeItem& a, const MergeItem& b) {
                    return cmp.Less(a, b);
                  });
        streams.push_back(std::move(stream));
      }
      std::vector<MergeItem> merged =
          KWayMerge(std::move(streams), cmp, &branch_merge_rows);
      if (plan.limit >= 0 &&
          merged.size() > static_cast<size_t>(plan.limit)) {
        merged.resize(static_cast<size_t>(plan.limit));
      }
      for (MergeItem& item : merged) {
        out.document->AddChild(std::move(item.node));
      }
    } else {
      // Shape B: recombine partial aggregates per group, finalize with
      // HashAggregate's rules, instantiate the original template.
      const size_t num_groups = query.group_by.size();
      const size_t num_partials = plan.partials.size();
      std::map<std::string, size_t> index;
      std::vector<GroupState> groups;
      for (core::QueryResult& shard_result : shard_results) {
        NodePtr doc = shard_result.MutableDocument();
        for (const NodePtr& part : doc->TakeChildren()) {
          if (!part->is_element() || part->name() != "__npart" ||
              part->children().size() != num_groups + num_partials) {
            return Status::Internal("mis-shaped partial-aggregate row");
          }
          std::vector<Value> keys(num_groups);
          for (size_t i = 0; i < num_groups; ++i) {
            keys[i] = AnnotationValue(*part->children()[i]);
          }
          auto [it, inserted] = index.try_emplace(GroupKey(keys), groups.size());
          if (inserted) {
            GroupState state;
            state.keys = std::move(keys);
            state.accs.resize(num_partials);
            groups.push_back(std::move(state));
          }
          GroupState& state = groups[it->second];
          for (size_t j = 0; j < num_partials; ++j) {
            const Value v = AnnotationValue(*part->children()[num_groups + j]);
            PartialAcc& acc = state.accs[j];
            switch (plan.partials[j].first) {
              case AggregateFn::kCount:
                acc.count += v.is_numeric()
                                 ? static_cast<int64_t>(v.NumericValue())
                                 : 0;
                break;
              case AggregateFn::kSum:
                if (!v.is_null()) {
                  acc.sum += v.NumericValue();
                  acc.any = true;
                }
                break;
              case AggregateFn::kMin:
                if (!v.is_null()) {
                  if (!acc.any || v.Compare(acc.extreme) < 0) acc.extreme = v;
                  acc.any = true;
                }
                break;
              case AggregateFn::kMax:
                if (!v.is_null()) {
                  if (!acc.any || v.Compare(acc.extreme) > 0) acc.extreme = v;
                  acc.any = true;
                }
                break;
              case AggregateFn::kAvg:
                return Status::Internal("avg survived decomposition");
            }
          }
        }
      }

      std::map<std::string, size_t> partial_of;
      for (size_t j = 0; j < num_partials; ++j) {
        partial_of[std::string(xmlql::AggregateFnName(plan.partials[j].first)) +
                   "\x1f" + plan.partials[j].second] = j;
      }
      algebra::TupleSchema schema;
      for (const std::string& var : query.group_by) schema.AddVariable(var);
      for (const auto& [fn, var] : plan.aggregates) {
        schema.AddVariable(std::string(xmlql::AggregateFnName(fn)) + "_" + var);
      }

      MergeComparator cmp(plan.descending);
      std::vector<MergeItem> items;
      items.reserve(groups.size());
      for (const GroupState& state : groups) {
        algebra::Tuple tuple(schema.size());
        for (size_t i = 0; i < num_groups; ++i) {
          tuple[i] = algebra::Binding{state.keys[i]};
        }
        size_t slot = num_groups;
        for (const auto& [fn, var] : plan.aggregates) {
          auto acc_of = [&](AggregateFn pfn) -> const PartialAcc& {
            return state.accs[partial_of.at(
                std::string(xmlql::AggregateFnName(pfn)) + "\x1f" + var)];
          };
          Value final_value;
          switch (fn) {
            case AggregateFn::kCount:
              final_value = Value::Int(acc_of(AggregateFn::kCount).count);
              break;
            case AggregateFn::kSum: {
              const PartialAcc& acc = acc_of(AggregateFn::kSum);
              final_value =
                  acc.any ? Value::Double(acc.sum) : Value::Null();
              break;
            }
            case AggregateFn::kAvg: {
              const PartialAcc& sum_acc = acc_of(AggregateFn::kSum);
              const int64_t count = acc_of(AggregateFn::kCount).count;
              final_value =
                  count > 0
                      ? Value::Double(sum_acc.sum / static_cast<double>(count))
                      : Value::Null();
              break;
            }
            case AggregateFn::kMin:
            case AggregateFn::kMax: {
              const PartialAcc& acc = acc_of(fn);
              final_value = acc.any ? acc.extreme : Value::Null();
              break;
            }
          }
          tuple[slot++] = algebra::Binding{final_value};
        }
        NIMBLE_ASSIGN_OR_RETURN(
            NodePtr instance,
            algebra::InstantiateTemplate(*query.construct, schema, tuple));
        MergeItem item;
        item.keys.reserve(plan.order_vars.size());
        for (const std::string& var : plan.order_vars) {
          size_t group_slot = 0;
          for (size_t i = 0; i < query.group_by.size(); ++i) {
            if (query.group_by[i] == var) group_slot = i;
          }
          item.keys.push_back(state.keys[group_slot]);
        }
        item.bytes = ToXml(*instance);
        item.node = std::move(instance);
        items.push_back(std::move(item));
      }
      std::sort(items.begin(), items.end(),
                [&cmp](const MergeItem& a, const MergeItem& b) {
                  return cmp.Less(a, b);
                });
      branch_merge_rows = items.size();
      if (plan.limit >= 0 && items.size() > static_cast<size_t>(plan.limit)) {
        items.resize(static_cast<size_t>(plan.limit));
      }
      for (MergeItem& item : items) {
        out.document->AddChild(std::move(item.node));
      }
    }

    total_merge_rows += branch_merge_rows;
    const std::string gather_line =
        "gather: merge rows=" + std::to_string(branch_merge_rows) +
        " order_by=" + std::to_string(plan.order_vars.size()) + " limit=" +
        std::to_string(plan.limit) +
        (plan.aggregate
             ? " partial_aggregates=" + std::to_string(plan.partials.size())
             : "") +
        "\n";
    plan_text += gather_line;
    plan_stats_text += gather_line;
  }

  merge_rows_.fetch_add(total_merge_rows, std::memory_order_relaxed);
  report.plan = std::move(plan_text);
  report.plan_with_stats = std::move(plan_stats_text);
  report.result_count = out.document->children().size();
  out.document->SetAttribute("complete",
                             Value::Bool(report.completeness.complete));
  if (!report.completeness.complete) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
    std::string missing;
    for (size_t i = 0; i < report.completeness.unavailable_sources.size();
         ++i) {
      if (i > 0) missing += ",";
      missing += report.completeness.unavailable_sources[i];
    }
    out.document->SetAttribute("missing_sources", Value::String(missing));
  }
  return out;
}

}  // namespace dist
}  // namespace nimble
