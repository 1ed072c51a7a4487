#include "opt/cardinality.h"

#include <algorithm>
#include <cmath>

namespace nimble {
namespace opt {

namespace {

/// Clamps a selectivity into (0, 1]: zero would collapse every downstream
/// estimate, and the formulas above can mathematically overshoot 1.
double Clamp01(double s) { return std::min(1.0, std::max(1e-6, s)); }

}  // namespace

namespace {

/// Maps one record-level pattern: the record's attribute bindings become
/// "@name" columns and its scalar children's content bindings become tag
/// columns — the flat record shape Analyze() collects.
void MapRecordPattern(const xmlql::ElementPattern& record,
                      std::map<std::string, std::string>* mapping) {
  for (const xmlql::AttrPattern& attr : record.attributes) {
    if (attr.is_variable && !attr.variable.empty()) {
      mapping->emplace(attr.variable, "@" + attr.name);
    }
  }
  for (const std::unique_ptr<xmlql::ElementPattern>& column : record.children) {
    if (column == nullptr) continue;
    if (!column->content_variable.empty() && column->tag != "*") {
      mapping->emplace(column->content_variable, column->tag);
    }
  }
}

}  // namespace

std::map<std::string, std::string> VariableColumns(
    const xmlql::ElementPattern& root) {
  std::map<std::string, std::string> mapping;
  // Normal shape: the pattern root matches the collection root and each of
  // its children matches a record, so the statistics columns sit two levels
  // down (<orders><row><cust>$c</cust>… — $c reads column "cust").
  for (const std::unique_ptr<xmlql::ElementPattern>& record : root.children) {
    if (record != nullptr) MapRecordPattern(*record, &mapping);
  }
  // Descendant-axis shape (<//entry><employee>$e</employee>…): the root
  // itself matches the records. First mapping wins on variable collision.
  MapRecordPattern(root, &mapping);
  return mapping;
}

double ConditionSelectivity(xmlql::Condition::Op op, const Value& literal,
                            const metadata::ColumnStats* stats,
                            double row_count) {
  using Op = xmlql::Condition::Op;
  switch (op) {
    case Op::kEq: {
      if (stats == nullptr) return kDefaultEqSelectivity;
      if (stats->unique && row_count > 0) return Clamp01(1.0 / row_count);
      return Clamp01(1.0 / stats->distinct());
    }
    case Op::kNe: {
      if (stats == nullptr) return kDefaultNeSelectivity;
      return Clamp01(1.0 - 1.0 / stats->distinct());
    }
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      if (stats == nullptr || !literal.is_numeric() ||
          !stats->min.is_numeric() || !stats->max.is_numeric()) {
        return kDefaultRangeSelectivity;
      }
      double lo = stats->min.NumericValue();
      double hi = stats->max.NumericValue();
      double v = literal.NumericValue();
      if (hi <= lo) {
        // Single-point domain: the comparison either keeps all rows or
        // (nearly) none.
        bool keeps = (op == Op::kLt && lo < v) || (op == Op::kLe && lo <= v) ||
                     (op == Op::kGt && lo > v) || (op == Op::kGe && lo >= v);
        return keeps ? 1.0 : Clamp01(0.0);
      }
      // Linear interpolation of the literal's position in [min, max].
      double frac = (v - lo) / (hi - lo);
      frac = std::min(1.0, std::max(0.0, frac));
      if (op == Op::kLt || op == Op::kLe) return Clamp01(frac);
      return Clamp01(1.0 - frac);
    }
    case Op::kLike:
      return kDefaultLikeSelectivity;
  }
  return kDefaultRangeSelectivity;
}

double EstimateFragmentRows(
    const metadata::CollectionStats& stats,
    const std::map<std::string, std::string>& variable_columns,
    const std::vector<const xmlql::Condition*>& local_conditions) {
  if (stats.row_count < 0.0) return -1.0;
  // One factor per condition, multiplied in condition order at the end. A
  // column bounded on both sides gets one interval factor, (hi - lo) /
  // (max - min), in place of its first bound and 1 for the rest: its bounds
  // are not independent predicates, and their product overestimates a
  // narrow range.
  std::vector<double> factors;
  struct Bounds {
    double lo = -HUGE_VAL;
    double hi = HUGE_VAL;
    std::vector<size_t> factor_index;
  };
  std::map<const metadata::ColumnStats*, Bounds> ranges;
  for (const xmlql::Condition* cond : local_conditions) {
    if (cond == nullptr) continue;
    // Normalize to column-vs-literal: exactly one side a mapped variable.
    const xmlql::Condition::Operand* var_side = nullptr;
    const xmlql::Condition::Operand* lit_side = nullptr;
    xmlql::Condition::Op op = cond->op;
    if (cond->lhs.is_variable && !cond->rhs.is_variable) {
      var_side = &cond->lhs;
      lit_side = &cond->rhs;
    } else if (!cond->lhs.is_variable && cond->rhs.is_variable) {
      var_side = &cond->rhs;
      lit_side = &cond->lhs;
      // Flip the comparison so the variable is on the left.
      using Op = xmlql::Condition::Op;
      switch (op) {
        case Op::kLt: op = Op::kGt; break;
        case Op::kLe: op = Op::kGe; break;
        case Op::kGt: op = Op::kLt; break;
        case Op::kGe: op = Op::kLe; break;
        default: break;
      }
    }
    double selectivity;
    if (var_side == nullptr) {
      // var-op-var within one fragment (or literal-literal): equality
      // default is the best we can say without joint statistics.
      selectivity = kDefaultEqSelectivity;
    } else {
      const metadata::ColumnStats* column = nullptr;
      auto it = variable_columns.find(var_side->variable);
      if (it != variable_columns.end()) column = stats.column(it->second);
      selectivity = ConditionSelectivity(op, lit_side->literal, column,
                                         stats.row_count);
      if (column != nullptr) {
        // Rows where the column is missing/null never pass a comparison.
        selectivity *= (1.0 - column->null_fraction);
      }
      using Op = xmlql::Condition::Op;
      if (column != nullptr && op != Op::kEq && op != Op::kNe &&
          op != Op::kLike && lit_side->literal.is_numeric() &&
          column->min.is_numeric() && column->max.is_numeric() &&
          column->max.NumericValue() > column->min.NumericValue()) {
        Bounds& b = ranges[column];
        const double v = lit_side->literal.NumericValue();
        if (op == Op::kGt || op == Op::kGe) {
          b.lo = std::max(b.lo, v);
        } else {
          b.hi = std::min(b.hi, v);
        }
        b.factor_index.push_back(factors.size());
      }
    }
    factors.push_back(std::min(1.0, std::max(0.0, selectivity)));
  }
  for (const auto& [column, b] : ranges) {
    if (b.lo == -HUGE_VAL || b.hi == HUGE_VAL) continue;
    for (size_t i : b.factor_index) factors[i] = 1.0;
    const double min = column->min.NumericValue();
    const double max = column->max.NumericValue();
    factors[b.factor_index.front()] =
        Clamp01((std::min(b.hi, max) - std::max(b.lo, min)) / (max - min)) *
        (1.0 - column->null_fraction);
  }
  double rows = stats.row_count;
  for (double factor : factors) rows *= factor;
  return rows;
}

double JoinSelectivity(double ndv_left, double ndv_right) {
  double ndv = std::max(std::max(ndv_left, ndv_right), 1.0);
  return 1.0 / ndv;
}

double ColumnDistinctEstimate(const algebra::TupleBatch& data, size_t slot) {
  metadata::DistinctSketch sketch;
  for (size_t i = 0; i < data.size(); ++i) {
    sketch.AddHash(
        metadata::DistinctSketch::HashValue(data.binding(slot, i).AsScalar()));
  }
  return std::max(1.0, sketch.Estimate());
}

}  // namespace opt
}  // namespace nimble
