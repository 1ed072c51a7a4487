// The three workloads: operation generators, answer checks and the timed
// closed loops that produce the end-to-end and per-layer metrics.

#ifndef NIMBLE_PERFBENCH_WORKLOADS_H_
#define NIMBLE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "world.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunConfig {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< span CSV written after a traced run ("" = none).
};

struct RunResult {
  bool ok = false;  ///< false: the run could not be set up; nothing to report.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of the final JSON line: end-to-end ones for an untraced
  /// run, per-layer ones for a traced run.
  std::vector<Metric> metrics;
  /// Further figures printed as text only (tails, sample counts, trace
  /// accounting).
  std::vector<Metric> notes;
};

RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // NIMBLE_PERFBENCH_WORKLOADS_H_
