// Seeded inputs and the engine set up over them. The generator's records
// stay with the benchmark so every answer can be checked against a
// computation made apart from the engine.

#ifndef NIMBLE_PERFBENCH_WORLD_H_
#define NIMBLE_PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "metadata/catalog.h"
#include "relational/database.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kXmlScan, kFederatedJoin, kPortalMixed };

struct Order {
  int64_t id;
  int64_t cust;
  int64_t total;
};

struct Customer {
  int64_t id;
  std::string name;
  int city;  ///< index into kCities.
  int64_t score;
};

struct Account {
  int64_t id;
  int64_t cust;
  int64_t balance;
};

extern const char* const kCities[10];

// Input sizes (README "Workloads").
constexpr size_t kOrders = 20000;
constexpr size_t kCustomers = 20000;
constexpr size_t kAccounts = 100000;
constexpr int64_t kTotalRange = 100000;    ///< order totals in [0, 1e5).
constexpr int64_t kScoreRange = 10000;     ///< customer scores in [0, 1e4).
constexpr int64_t kBalanceRange = 100000;  ///< balances in [0, 1e5).

/// The generator's own records for one workload.
struct Data {
  std::vector<Order> orders;
  std::vector<Customer> customers;
  std::vector<Account> accounts;
};

Data Generate(Workload workload, uint64_t seed);

/// The engine and its sources for one workload.
struct World {
  std::unique_ptr<nimble::relational::Database> crm;
  std::unique_ptr<nimble::relational::Database> billing;
  nimble::metadata::Catalog catalog;
  std::unique_ptr<nimble::core::IntegrationEngine> engine;
  double doc_parse_ms = 0.0;  ///< ParseXml of the source documents.
  double analyze_ms = 0.0;    ///< IntegrationEngine::Analyze.
};

/// Loads `data` into fresh sources, registers them (wrapped in timing
/// decorators when `trace` is non-null), builds the engine and runs
/// Analyze(). Returns null and prints the reason on failure.
std::unique_ptr<World> BuildWorld(Workload workload, const Data& data,
                                  size_t clients, SourceTrace* trace);

}  // namespace perfbench

#endif  // NIMBLE_PERFBENCH_WORLD_H_
