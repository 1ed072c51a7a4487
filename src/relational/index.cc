#include "relational/index.h"

#include <cstdint>

namespace nimble {
namespace relational {

std::vector<size_t> OrderedIndex::Lookup(const Value& key) const {
  std::vector<size_t> out;
  for (auto it = entries_.lower_bound({key, 0});
       it != entries_.end() && it->first == key; ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<size_t> OrderedIndex::Range(const Value& lo, bool lo_inclusive,
                                        const Value& hi,
                                        bool hi_inclusive) const {
  std::vector<size_t> out;
  // An inverted range (lo > hi, or lo == hi with an exclusive end) is empty.
  // Without this guard `begin` can sit past `end` and the walk below never
  // terminates.
  if (!lo.is_null() && !hi.is_null()) {
    int cmp = lo.Compare(hi);
    if (cmp > 0 || (cmp == 0 && !(lo_inclusive && hi_inclusive))) return out;
  }
  auto begin = lo.is_null() ? entries_.begin()
               : lo_inclusive ? entries_.lower_bound({lo, 0})
                              : entries_.upper_bound({lo, SIZE_MAX});
  auto end = hi.is_null() ? entries_.end()
             : hi_inclusive ? entries_.upper_bound({hi, SIZE_MAX})
                            : entries_.lower_bound({hi, 0});
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

}  // namespace relational
}  // namespace nimble
