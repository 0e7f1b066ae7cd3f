// Warehouse-style OLTP benchmark: multi-table transactions with an
// ordered log line through atomic deferral.
//
// Each transaction picks kItemsPerOrder stock items (zipfian — hot items
// exist in any real inventory), logs the order through the ordered
// TxLogger (the deferral path doing real I/O-adjacent work inside the hot
// loop), decrements stock rows in the B+ tree and inserts the order into
// the skip list. Matrix: every backend x the thread list, after one
// unrecorded warm-up window.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/oltp_driver.hpp"
#include "stm/backend.hpp"

int main() {
  using adtm::oltp::Dist;
  using adtm::oltp::ScenarioConfig;

  adtm::oltp::setup_observability();
  const adtm::oltp::MatrixConfig m = adtm::oltp::matrix_from_env();
  adtm::bench::BenchReport report("oltp_warehouse");

  // Stock table is smaller than the YCSB key space — warehouses are.
  const std::uint64_t items = std::min<std::uint64_t>(m.keys, 1u << 16);
  adtm::oltp::WarehouseRunner runner(items, /*seed=*/42);

  std::vector<std::string> backends;
  for (const adtm::stm::Backend& b : adtm::stm::backends()) {
    backends.emplace_back(b.name);
  }

  const auto scenario_cfg = [&m, items](const std::string& backend,
                                        unsigned threads) {
    ScenarioConfig cfg;
    cfg.backend = backend;
    cfg.dist = Dist::Zipf;
    cfg.theta = m.theta;
    cfg.threads = threads;
    cfg.duration_ms = m.duration_ms;
    cfg.key_space = items;
    cfg.rate = m.rate;
    cfg.spin_ns = m.spin_ns;
    return cfg;
  };
  int failures = 0;

  // One unrecorded window of the first scenario, so that no recorded row
  // runs cold after the preload. Its order and log oracle must hold like
  // any other window's.
  if (!runner.run(scenario_cfg(backends.front(), m.threads.front()))
           .oracle_ok) {
    ++failures;
  }

  for (const std::string& backend : backends) {
    for (const unsigned threads : m.threads) {
      const auto res = runner.run(scenario_cfg(backend, threads));
      const std::string scenario = "wh/t" + std::to_string(threads);
      adtm::oltp::print_scenario(scenario, backend, res);
      adtm::oltp::append_scenario(report, scenario, backend, res);
      if (!res.oracle_ok) ++failures;
    }
  }

  if (!report.write()) {
    std::fprintf(stderr, "oltp_warehouse: failed to write bench report\n");
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr, "oltp_warehouse: %d scenario oracle mismatch(es)\n",
                 failures);
    return 1;
  }
  return 0;
}
