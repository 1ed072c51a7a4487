// Small helpers shared by the benchmark's files: a monotonic clock, a
// seeded shuffle, order statistics and distinct per-operation constants.

#ifndef NIMBLE_PERFBENCH_UTIL_H_
#define NIMBLE_PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fisher-Yates shuffle driven by the engine's seeded generator, so the
/// order does not depend on the standard library's implementation.
template <typename T>
void Shuffle(std::vector<T>* v, nimble::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// The q-quantile (0..1) of `v` by the nearest-rank rule; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Distinct per-operation constants: the `i`-th draw of a fixed permutation
/// of [lo, lo + span) (stride coprime with span), so no two operations of a
/// run share a constant until `span` operations have run.
inline int64_t DistinctConstant(int64_t lo, int64_t span, uint64_t offset,
                                uint64_t i) {
  constexpr uint64_t kStride = 7919;  // prime; callers pick span % 7919 != 0
  return lo + static_cast<int64_t>((offset + i * kStride) %
                                   static_cast<uint64_t>(span));
}

}  // namespace perfbench

#endif  // NIMBLE_PERFBENCH_UTIL_H_
