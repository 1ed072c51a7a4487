#include "world.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "connector/relational_connector.h"
#include "connector/xml_connector.h"
#include "util.h"
#include "xml/parser.h"

namespace perfbench {

using nimble::Status;
using nimble::Value;

const char* const kCities[10] = {"bend",    "boise",   "eugene",  "olympia",
                                 "portland", "salem",  "seattle", "spokane",
                                 "tacoma",  "yakima"};

namespace {

bool Check(const Status& status, const char* what) {
  if (status.ok()) return true;
  std::fprintf(stderr, "setup: %s: %s\n", what, status.ToString().c_str());
  return false;
}

std::string OrdersXml(const std::vector<Order>& orders) {
  static const char* const kStatus[] = {"open", "paid", "void", "held"};
  std::string out = "<orders>";
  out.reserve(orders.size() * 90);
  for (const Order& o : orders) {
    out += "<order><id>" + std::to_string(o.id) + "</id><cust>" +
           std::to_string(o.cust) + "</cust><total>" +
           std::to_string(o.total) + "</total><status>" +
           kStatus[o.id % 4] + "</status></order>";
  }
  out += "</orders>";
  return out;
}

/// customers(id PK, name, city, score, version); every version starts at 0.
bool LoadCustomers(nimble::relational::Database* db,
                   const std::vector<Customer>& customers) {
  if (!Check(db->Execute("CREATE TABLE customers (id INT PRIMARY KEY, "
                         "name TEXT, city TEXT, score INT, version INT)")
                 .status(),
             "create customers")) {
    return false;
  }
  nimble::relational::Table* table = db->GetTable("customers");
  for (const Customer& c : customers) {
    if (!Check(table->Insert({Value::Int(c.id), Value::String(c.name),
                              Value::String(kCities[c.city]),
                              Value::Int(c.score), Value::Int(0)}),
               "insert customer")) {
      return false;
    }
  }
  return true;
}

bool LoadAccounts(nimble::relational::Database* db,
                  const std::vector<Account>& accounts) {
  if (!Check(db->Execute("CREATE TABLE accounts (id INT PRIMARY KEY, "
                         "cust INT, balance INT)")
                 .status(),
             "create accounts")) {
    return false;
  }
  nimble::relational::Table* table = db->GetTable("accounts");
  for (const Account& a : accounts) {
    if (!Check(table->Insert({Value::Int(a.id), Value::Int(a.cust),
                              Value::Int(a.balance)}),
               "insert account")) {
      return false;
    }
  }
  return true;
}

bool Register(World* world, std::unique_ptr<nimble::connector::Connector> c,
              SourceTrace* trace) {
  if (trace != nullptr) {
    c = std::make_unique<TimingConnector>(std::move(c), trace);
  }
  return Check(world->catalog.RegisterSource(std::move(c)), "register source");
}

/// Engine options: defaults, plus what the workload names, with the worker
/// pool sized so that pool + `clients` threads fit the machine.
nimble::core::EngineOptions OptionsFor(Workload workload, size_t clients) {
  nimble::core::EngineOptions options;
  size_t cores = std::max<size_t>(std::thread::hardware_concurrency(), 2);
  options.worker_threads =
      std::max<size_t>(cores - std::min(cores, clients), 1);
  if (workload == Workload::kPortalMixed) {
    options.result_cache_bytes = 32u << 20;
    options.plan_cache_entries = 4096;
    options.max_inflight_queries = clients;
  }
  return options;
}

}  // namespace

Data Generate(Workload workload, uint64_t seed) {
  nimble::Rng rng(seed * 0x100000001B3ull + static_cast<uint64_t>(workload));
  Data data;
  if (workload == Workload::kXmlScan) {
    data.orders.reserve(kOrders);
    for (size_t i = 0; i < kOrders; ++i) {
      data.orders.push_back(Order{static_cast<int64_t>(i),
                                  rng.UniformInt(0, kCustomers - 1),
                                  rng.UniformInt(0, kTotalRange - 1)});
    }
    return data;
  }
  data.customers.reserve(kCustomers);
  for (size_t i = 0; i < kCustomers; ++i) {
    data.customers.push_back(Customer{static_cast<int64_t>(i),
                                      "cust_" + rng.RandomWord(8),
                                      static_cast<int>(rng.Uniform(10)),
                                      rng.UniformInt(0, kScoreRange - 1)});
  }
  if (workload == Workload::kFederatedJoin) {
    data.accounts.reserve(kAccounts);
    for (size_t i = 0; i < kAccounts; ++i) {
      data.accounts.push_back(Account{static_cast<int64_t>(i),
                                      rng.UniformInt(0, kCustomers - 1),
                                      rng.UniformInt(0, kBalanceRange - 1)});
    }
  }
  return data;
}

std::unique_ptr<World> BuildWorld(Workload workload, const Data& data,
                                  size_t clients, SourceTrace* trace) {
  auto world = std::make_unique<World>();
  if (workload == Workload::kXmlScan) {
    std::string text = OrdersXml(data.orders);
    int64_t start = NowNs();
    nimble::Result<nimble::NodePtr> doc = nimble::ParseXml(text);
    world->doc_parse_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!Check(doc.status(), "parse orders document")) return nullptr;
    auto shop = std::make_unique<nimble::connector::XmlConnector>("shop");
    shop->PutDocument("orders", std::move(*doc));
    if (!Register(world.get(), std::move(shop), trace)) return nullptr;
  } else {
    world->crm = std::make_unique<nimble::relational::Database>("crm");
    if (!LoadCustomers(world->crm.get(), data.customers)) return nullptr;
    if (!Register(world.get(),
                  std::make_unique<nimble::connector::RelationalConnector>(
                      "crm", world->crm.get()),
                  trace)) {
      return nullptr;
    }
    if (workload == Workload::kFederatedJoin) {
      world->billing =
          std::make_unique<nimble::relational::Database>("billing");
      if (!LoadAccounts(world->billing.get(), data.accounts)) return nullptr;
      if (!Register(world.get(),
                    std::make_unique<nimble::connector::RelationalConnector>(
                        "billing", world->billing.get()),
                    trace)) {
        return nullptr;
      }
    }
  }
  world->engine = std::make_unique<nimble::core::IntegrationEngine>(
      &world->catalog, OptionsFor(workload, clients));
  int64_t start = NowNs();
  if (!Check(world->engine->Analyze(), "analyze")) return nullptr;
  world->analyze_ms = static_cast<double>(NowNs() - start) / 1e6;
  return world;
}

}  // namespace perfbench
