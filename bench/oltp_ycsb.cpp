// YCSB-style OLTP benchmark over the transactional containers.
//
// Matrix: every backend x {uniform, zipfian} x the thread list,
// over one container (ADTM_OLTP_CONTAINER=btree|skiplist|both). Each
// scenario reuses the same preloaded container — the oracle tracks size
// deltas, so carry-over between scenarios is fine and saves the (large)
// preload cost. One unrecorded window of the first scenario runs first,
// so no recorded row is measured cold.
//
// Output: console rows plus adtm-bench/v1 entries appended to
// $ADTM_BENCH_OUT (tools/bench_all.sh-style aggregation; the committed
// snapshot is BENCH_oltp.json, refreshed via tools/perf_gate.sh --update).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/oltp_driver.hpp"
#include "stm/backend.hpp"

namespace {

using adtm::oltp::Dist;
using adtm::oltp::MatrixConfig;
using adtm::oltp::ScenarioConfig;

std::vector<std::string> matrix_backends() {
  std::vector<std::string> out;
  for (const adtm::stm::Backend& b : adtm::stm::backends()) {
    out.emplace_back(b.name);
  }
  return out;
}

template <typename Container>
int run_container(const char* tag, const MatrixConfig& m,
                  adtm::bench::BenchReport& report) {
  adtm::oltp::YcsbRunner<Container> runner(m.keys, /*seed=*/42);
  const auto scenario_cfg = [&m](const std::string& backend, Dist dist,
                                 unsigned threads) {
    ScenarioConfig cfg;
    cfg.backend = backend;
    cfg.dist = dist;
    cfg.theta = m.theta;
    cfg.threads = threads;
    cfg.duration_ms = m.duration_ms;
    cfg.key_space = m.keys;
    cfg.read_pct = m.read_pct;
    cfg.scan_pct = m.scan_pct;
    cfg.rate = m.rate;
    cfg.spin_ns = m.spin_ns;
    return cfg;
  };
  const std::vector<std::string> backends = matrix_backends();
  int failures = 0;

  // The first window over a freshly preloaded container reads low (x0.50-
  // 0.89 of the window after it in back-to-back TL2 t2 pairs; the cause
  // was not measured), so one unrecorded window of the first scenario runs
  // before any row is measured. Its size oracle must hold like any other
  // window's.
  if (!runner.run(scenario_cfg(backends.front(), Dist::Uniform,
                               m.threads.front()))
           .oracle_ok) {
    ++failures;
  }

  for (const std::string& backend : backends) {
    for (const Dist dist : {Dist::Uniform, Dist::Zipf}) {
      for (const unsigned threads : m.threads) {
        const auto res = runner.run(scenario_cfg(backend, dist, threads));
        const std::string scenario = std::string("ycsb/") + tag + "/" +
                                     adtm::oltp::dist_tag(dist, m.theta) +
                                     "/t" + std::to_string(threads);
        adtm::oltp::print_scenario(scenario, backend, res);
        adtm::oltp::append_scenario(report, scenario, backend, res);
        if (!res.oracle_ok) ++failures;
      }
    }
  }
  return failures;
}

}  // namespace

int main() {
  adtm::oltp::setup_observability();
  const MatrixConfig m = adtm::oltp::matrix_from_env();
  adtm::bench::BenchReport report("oltp_ycsb");

  int failures = 0;
  if (m.container == "btree" || m.container == "both") {
    failures += run_container<
        adtm::containers::TxBTree<std::uint64_t, std::uint64_t>>("bt", m,
                                                                 report);
  }
  if (m.container == "skiplist" || m.container == "both") {
    failures += run_container<
        adtm::containers::TxSkipList<std::uint64_t, std::uint64_t>>("sl", m,
                                                                    report);
  }

  if (!report.write()) {
    std::fprintf(stderr, "oltp_ycsb: failed to write bench report\n");
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr, "oltp_ycsb: %d scenario oracle mismatch(es)\n",
                 failures);
    return 1;
  }
  return 0;
}
