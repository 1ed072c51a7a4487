#ifndef NIMBLE_RELATIONAL_INDEX_H_
#define NIMBLE_RELATIONAL_INDEX_H_

#include <set>
#include <string>
#include <vector>

#include "relational/schema.h"

namespace nimble {
namespace relational {

/// An ordered secondary index over one column. Maps column value → row ids,
/// ordered by (value, row id), so a probe returns equal keys in row-id order
/// and one entry is erased in O(log n) however many rows share its key.
/// Supports equality and range probes; the mediator's compiler consults
/// index presence when deciding what to push down (paper §2.1: the compiler
/// considers "the presence of indices on the data").
class OrderedIndex {
 public:
  OrderedIndex(std::string index_name, size_t column)
      : name_(std::move(index_name)), column_(column) {}

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }

  void Insert(const Value& key, size_t row_id) {
    entries_.emplace(key, row_id);
  }

  /// Removes the entry (key, row_id); a no-op when it is absent.
  void Erase(const Value& key, size_t row_id) {
    entries_.erase({key, row_id});
  }

  /// Row ids with column == key.
  std::vector<size_t> Lookup(const Value& key) const;

  /// Row ids with lo <= column <= hi (either bound may be null = open).
  std::vector<size_t> Range(const Value& lo, bool lo_inclusive,
                            const Value& hi, bool hi_inclusive) const;

  size_t size() const { return entries_.size(); }

 private:
  using Entry = std::pair<Value, size_t>;
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      int cmp = a.first.Compare(b.first);
      return cmp != 0 ? cmp < 0 : a.second < b.second;
    }
  };

  std::string name_;
  size_t column_;
  std::set<Entry, EntryLess> entries_;
};

}  // namespace relational
}  // namespace nimble

#endif  // NIMBLE_RELATIONAL_INDEX_H_
