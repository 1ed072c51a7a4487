// nimble_perfbench: end-to-end query benchmark for the integration engine.
//
//   nimble_perfbench --workload <xml_scan|federated_join|portal_mixed>
//                    --seed <n> --seconds <s> --trace <0|1> [--trace-file f]
//
// Builds the workload's inputs from the seed, sets the engine up over them,
// runs the workload's closed loop for the given time, checks every answer
// and prints every metric with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer split, measured around calls made from this program.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: nimble_perfbench --workload "
               "<xml_scan|federated_join|portal_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n");
}

bool ParseWorkload(const std::string& name, perfbench::Workload* out) {
  if (name == "xml_scan") {
    *out = perfbench::Workload::kXmlScan;
  } else if (name == "federated_join") {
    *out = perfbench::Workload::kFederatedJoin;
  } else if (name == "portal_mixed") {
    *out = perfbench::Workload::kPortalMixed;
  } else {
    return false;
  }
  return true;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &config.workload)) {
        Usage();
        return 2;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-file") {
      config.trace_file = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || config.seconds <= 0) {
    Usage();
    return 2;
  }

  perfbench::RunResult result = perfbench::RunWorkload(config);
  if (!result.ok) {
    std::fprintf(stderr, "set-up failed; no result\n");
    return 1;
  }
  std::printf("attempted %llu, failed %llu, answers %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "correct" : "WRONG");
  for (const auto* list : {&result.metrics, &result.notes}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
