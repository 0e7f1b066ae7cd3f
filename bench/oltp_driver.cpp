#include "bench/oltp_driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/env.hpp"
#include "common/runtime_config.hpp"
#include "stm/backend.hpp"
#include "stm/config.hpp"

namespace adtm::oltp {

MatrixConfig matrix_from_env() {
  MatrixConfig m;
  // "1,2,4"-style list; bad tokens are skipped.
  const std::string threads = env_str("ADTM_OLTP_THREADS", "1,2,4");
  std::vector<unsigned> parsed;
  std::stringstream ss(threads);
  for (std::string tok; std::getline(ss, tok, ',');) {
    const unsigned long v = std::strtoul(tok.c_str(), nullptr, 10);
    if (v >= 1 && v <= 256) parsed.push_back(static_cast<unsigned>(v));
  }
  if (!parsed.empty()) m.threads = std::move(parsed);
  m.duration_ms = env_u64("ADTM_OLTP_DURATION_MS", m.duration_ms);
  m.keys = env_u64("ADTM_OLTP_KEYS", m.keys);
  const std::string theta = env_str("ADTM_OLTP_THETA", "");
  if (!theta.empty()) {
    const double v = std::strtod(theta.c_str(), nullptr);
    if (v > 0.0 && v < 1.0) m.theta = v;
  }
  m.read_pct =
      static_cast<unsigned>(env_u64("ADTM_OLTP_READ_PCT", m.read_pct));
  m.scan_pct =
      static_cast<unsigned>(env_u64("ADTM_OLTP_SCAN_PCT", m.scan_pct));
  if (m.read_pct > 100) m.read_pct = 100;
  if (m.scan_pct > 100 - m.read_pct) m.scan_pct = 100 - m.read_pct;
  m.rate = env_u64("ADTM_OLTP_RATE", m.rate);
  m.spin_ns = env_u64("ADTM_OLTP_SPIN_NS", m.spin_ns);
  m.container = env_str("ADTM_OLTP_CONTAINER", m.container);
  return m;
}

void setup_observability() {
  // Tracing on for the taxonomy aggregates, but no Chrome trace dumped at
  // process exit — the bench output is the adtm-bench/v1 report.
  RuntimeConfig cfg = runtime_config();
  cfg.trace = true;
  cfg.trace_out = "";
  configure(cfg);
  obs::enable();
}

std::string dist_tag(Dist dist, double theta) {
  if (dist == Dist::Uniform) return "u";
  // 0.99 -> "z99", 0.8 -> "z80".
  const int hundredths = static_cast<int>(theta * 100.0 + 0.5);
  return "z" + std::to_string(hundredths);
}

namespace detail {

void begin_scenario(const ScenarioConfig& cfg) {
  stm::Config sc;
  sc.backend = cfg.backend;
  stm::init(sc);
  obs::clear();
}

ScenarioResult finish_scenario(const ScenarioConfig& cfg,
                               const EngineOut& engine, bool oracle_ok) {
  ScenarioResult res;
  res.commits = engine.ops;
  res.wall_s = engine.wall_s;
  res.p50_ns = engine.p50;
  res.p99_ns = engine.p99;
  res.p999_ns = engine.p999;
  res.oracle_ok = oracle_ok;

  // The scenario's taxonomy is its backend's row of the run summary.
  const stm::Backend* b = stm::find_backend(cfg.backend);
  const obs::RunSummary sum = obs::summary();
  for (const auto& a : sum.algos) {
    if (a.algo != b->name) continue;
    res.obs_commits = a.commits;
    res.obs_aborts = a.total_aborts;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(obs::AbortCause::kCount); ++c) {
      if (a.aborts[c] == 0) continue;
      res.abort_causes.emplace_back(
          obs::abort_cause_name(static_cast<obs::AbortCause>(c)), a.aborts[c]);
    }
  }
  return res;
}

}  // namespace detail

void append_scenario(bench::BenchReport& report, const std::string& scenario,
                     const std::string& algo, const ScenarioResult& res) {
  const double wall_ns = res.wall_s * 1e9;
  // Throughput row: iterations / real_ns is ops per ns; the gate compares
  // that ratio, so both fields matter.
  report.add(scenario + "/tput", wall_ns, res.commits, algo);
  // Latency rows: the percentile is the time field, one "iteration".
  report.add(scenario + "/p50", static_cast<double>(res.p50_ns), 1, algo);
  report.add(scenario + "/p99", static_cast<double>(res.p99_ns), 1, algo);
  report.add(scenario + "/p999", static_cast<double>(res.p999_ns), 1, algo);
  // Abort taxonomy: counts in the iterations field (real_ns carries the
  // wall time so rates are reconstructible).
  report.add(scenario + "/aborts", wall_ns, res.obs_aborts, algo);
  for (const auto& [cause, count] : res.abort_causes) {
    report.add(scenario + "/abort/" + cause, wall_ns, count, algo);
  }
}

void print_scenario(const std::string& scenario, const std::string& algo,
                    const ScenarioResult& res) {
  const double tput =
      res.wall_s > 0.0 ? static_cast<double>(res.commits) / res.wall_s : 0.0;
  std::printf(
      "%-18s %-7s %9.0f ops/s  p50 %7llu ns  p99 %8llu ns  p999 %8llu ns  "
      "aborts %llu%s%s\n",
      scenario.c_str(), algo.c_str(), tput,
      static_cast<unsigned long long>(res.p50_ns),
      static_cast<unsigned long long>(res.p99_ns),
      static_cast<unsigned long long>(res.p999_ns),
      static_cast<unsigned long long>(res.obs_aborts),
      res.oracle_ok ? "" : "  ORACLE-MISMATCH",
      // Epilogues may run bookkeeping transactions (TxLock release), so
      // obs may legitimately exceed the driver count — never undershoot.
      res.obs_commits >= res.commits ? "" : "  (obs-commit-drift)");
}

}  // namespace adtm::oltp
