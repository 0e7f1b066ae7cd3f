// OLTP workload driver: the DBx1000-style harness over the transactional
// B+ tree and skip list.
//
// Two workloads share one engine:
//  * YCSB-style key/value mix (oltp_ycsb): point reads, short range
//    scans, puts and removes over a preloaded ordered map, keys drawn
//    uniform or scrambled-zipfian (common/keygen).
//  * Warehouse-style multi-table transactions (oltp_warehouse): each
//    transaction reserves an order id, writes an *ordered* log line
//    through atomic deferral (txlog::TxLogger — the paper's Listing 3
//    doing real work inside the hot path), updates several stock rows in
//    the B+ tree, and inserts the order into the skip list.
//
// The engine runs every scenario over one algorithm with per-operation
// latency recorded in a LatencyHistogram (p50/p99/p999), optionally with
// open-loop arrival (a target rate; latency is measured from the
// scheduled arrival, so queueing delay counts — no coordinated
// omission). Results carry the obs abort taxonomy for the window plus an
// oracle check: the container's final size must equal the preloaded size
// plus the net of successful inserts and removes, and (warehouse) the
// ordered log must hold exactly one record per committed transaction.
//
// Env knobs (ADTM_OLTP_*): see matrix_from_env() and the README table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/align.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"
#include "containers/btree.hpp"
#include "containers/skiplist.hpp"
#include "io/temp_dir.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "txlog/txlog.hpp"

namespace adtm::oltp {

enum class Dist { Uniform, Zipf };

struct ScenarioConfig {
  // Backend id or display name ("tl2", "2PL", ...); the scenario runs
  // it for its whole duration.
  std::string backend = "tl2";
  Dist dist = Dist::Uniform;
  double theta = 0.99;          // zipfian skew
  unsigned threads = 1;
  std::uint64_t duration_ms = 400;
  std::uint64_t key_space = std::uint64_t{1} << 20;
  unsigned read_pct = 50;       // point reads
  unsigned scan_pct = 5;        // short range scans; the rest of the mix
                                // splits evenly between put and remove
  std::size_t scan_len = 50;
  std::uint64_t rate = 0;       // open-loop target ops/s over all threads;
                                // 0 = closed loop
  std::uint64_t spin_ns = 0;    // planted slowdown inside every attempt
                                // (perf-gate self-test; see
                                // tools/perf_gate.sh)
  std::uint64_t seed = 42;
};

struct ScenarioResult {
  std::uint64_t commits = 0;    // operations completed (one tx each)
  double wall_s = 0.0;
  std::uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
  std::uint64_t obs_commits = 0;
  std::uint64_t obs_aborts = 0;
  // Nonzero abort causes for this window, from the obs taxonomy.
  std::vector<std::pair<std::string, std::uint64_t>> abort_causes;
  bool oracle_ok = false;
};

// The scenario matrix one bench binary runs, resolved from ADTM_OLTP_*.
struct MatrixConfig {
  std::vector<unsigned> threads{1, 2, 4};
  std::uint64_t duration_ms = 400;
  std::uint64_t keys = std::uint64_t{1} << 20;
  double theta = 0.99;
  unsigned read_pct = 50;
  unsigned scan_pct = 5;
  std::uint64_t rate = 0;
  std::uint64_t spin_ns = 0;
  std::string container = "btree";  // ycsb: btree | skiplist
};

MatrixConfig matrix_from_env();

// Enable tracing with the process-exit Chrome writer disabled (bench
// binaries only want the taxonomy aggregates). Idempotent.
void setup_observability();

// "u" / "z99"-style tag for scenario names.
std::string dist_tag(Dist dist, double theta);

// Append one scenario's rows (tput, p50/p99/p999, abort taxonomy) to the
// adtm-bench/v1 report. `scenario` is e.g. "ycsb/bt/z99/t4"; the entry
// label is the algorithm name.
void append_scenario(bench::BenchReport& report, const std::string& scenario,
                     const std::string& algo, const ScenarioResult& res);

// One console row, same data as append_scenario.
void print_scenario(const std::string& scenario, const std::string& algo,
                    const ScenarioResult& res);

namespace detail {

// The planted slowdown. Workers call it inside their transaction bodies,
// so it lengthens every attempt (and the time a CGL or 2PL attempt holds
// its locks) as a slower barrier or commit would; spun after the
// transaction it would also thin out contention.
inline void spin_for(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

struct EngineOut {
  std::uint64_t ops = 0;
  std::int64_t net = 0;
  double wall_s = 0.0;
  std::uint64_t p50 = 0, p99 = 0, p999 = 0;
};

// One worker's measurement state, on cache lines of its own: workers
// share nothing while they record, and run_engine merges at the end.
struct alignas(kCacheLine) WorkerTally {
  LatencyHistogram hist;
  std::uint64_t ops = 0;
  std::int64_t net = 0;
};

// Run cfg.threads workers for cfg.duration_ms. make_worker(tid) returns a
// callable that performs ONE operation (one transaction) and returns its
// net container-size delta. Latency is per operation; under open-loop
// arrival it is measured from the scheduled arrival instant.
template <typename MakeWorker>
EngineOut run_engine(const ScenarioConfig& cfg, MakeWorker&& make_worker) {
  const auto tallies = std::make_unique<WorkerTally[]>(cfg.threads);
  std::atomic<bool> go{false};

  // Per-thread open-loop period: each of T threads serves every T-th
  // arrival of the aggregate rate.
  const std::uint64_t period_ns =
      cfg.rate == 0 ? 0
                    : (std::uint64_t{1'000'000'000} * cfg.threads) / cfg.rate;

  std::vector<std::thread> pool;
  pool.reserve(cfg.threads);
  std::atomic<std::uint64_t> start_ns{0};
  for (unsigned t = 0; t < cfg.threads; ++t) {
    pool.emplace_back([&, t] {
      auto work = make_worker(t);
      WorkerTally& tally = tallies[t];
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::uint64_t start = start_ns.load(std::memory_order_relaxed);
      const std::uint64_t end = start + cfg.duration_ms * 1'000'000;
      // Stagger open-loop arrivals across threads.
      std::uint64_t scheduled =
          start + (period_ns / (cfg.threads == 0 ? 1 : cfg.threads)) * t;
      for (;;) {
        std::uint64_t t0 = now_ns();
        if (t0 >= end) break;
        if (period_ns != 0) {
          while (now_ns() < scheduled) {
          }
          t0 = scheduled;
          scheduled += period_ns;
        }
        tally.net += work();
        tally.hist.record(now_ns() - t0);
        ++tally.ops;
      }
    });
  }
  Timer timer;
  start_ns.store(now_ns(), std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  EngineOut out;
  out.wall_s = timer.elapsed_s();
  LatencyHistogram hist;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    out.ops += tallies[t].ops;
    out.net += tallies[t].net;
    hist.merge(tallies[t].hist);
  }
  out.p50 = hist.percentile(50);
  out.p99 = hist.percentile(99);
  out.p999 = hist.percentile(99.9);
  return out;
}

// Fold the engine output and the obs window into a ScenarioResult.
ScenarioResult finish_scenario(const ScenarioConfig& cfg,
                               const EngineOut& engine, bool oracle_ok);

// Install cfg.backend and reset the obs window. Call before run_engine.
void begin_scenario(const ScenarioConfig& cfg);

}  // namespace detail

// ---------------------------------------------------------------------------
// YCSB-style runner
// ---------------------------------------------------------------------------

// Container: TxBTree<std::uint64_t, std::uint64_t> or
// TxSkipList<std::uint64_t, std::uint64_t>.
template <typename Container>
class YcsbRunner {
 public:
  // Preloads every even key (50% occupancy) under CGL — direct-mode
  // writes make the million-key preload cheap — in batched transactions.
  YcsbRunner(std::uint64_t key_space, std::uint64_t seed)
      : key_space_(key_space), seed_(seed) {
    stm::Config cgl;
    cgl.backend = "cgl";
    stm::init(cgl);
    constexpr std::uint64_t kBatch = 1024;
    for (std::uint64_t base = 0; base < key_space_; base += 2 * kBatch) {
      stm::atomic([&](stm::Tx& tx) {
        for (std::uint64_t k = base;
             k < base + 2 * kBatch && k < key_space_; k += 2) {
          map_.put(tx, k, k * 3 + 1);
        }
      });
    }
  }

  ScenarioResult run(const ScenarioConfig& cfg) {
    if (cfg.dist == Dist::Zipf &&
        (spec_ == nullptr || spec_->items() != cfg.key_space ||
         spec_->theta() != cfg.theta)) {
      spec_ = std::make_unique<ZipfianSpec>(cfg.key_space, cfg.theta);
    }
    detail::begin_scenario(cfg);
    const std::size_t size_before = map_.size_direct();
    const auto engine = detail::run_engine(cfg, [&](unsigned tid) {
      const std::uint64_t tseed = cfg.seed * 0x9e3779b9ULL + tid * 7919 + 1;
      auto picker = cfg.dist == Dist::Zipf
                        ? KeyPicker(*spec_, tseed)
                        : KeyPicker(cfg.key_space, tseed);
      Xoshiro256 rng(tseed ^ 0xadc0ffee);
      // `sink` folds what each read returns. It is the worker's own, so
      // no two workers write one word per op.
      return [this, &cfg, picker, rng,
              sink = std::uint64_t{0}]() mutable -> std::int64_t {
        const std::uint64_t key = picker.next();
        const unsigned roll =
            static_cast<unsigned>(rng.next_below(100));
        if (roll < cfg.read_pct) {
          const auto v = stm::atomic([&](stm::Tx& tx) {
            auto got = map_.get(tx, key);
            detail::spin_for(cfg.spin_ns);
            return got;
          });
          sink += v.has_value() ? 1 : 0;
          return 0;
        }
        if (roll < cfg.read_pct + cfg.scan_pct) {
          // ~50% occupancy: a window of 2*scan_len keys yields ~scan_len
          // hits.
          const std::uint64_t hi = key + 2 * cfg.scan_len;
          const std::size_t n = stm::atomic([&](stm::Tx& tx) {
            std::uint64_t acc = 0;
            const std::size_t seen = map_.range_scan(
                tx, key, hi, cfg.scan_len,
                [&acc](const std::uint64_t&, const std::uint64_t& v) {
                  acc += v;
                  return true;
                });
            sink += acc;
            detail::spin_for(cfg.spin_ns);
            return seen;
          });
          sink += n;
          return 0;
        }
        const bool is_put = ((roll - cfg.read_pct - cfg.scan_pct) & 1) == 0;
        if (is_put) {
          const bool inserted = stm::atomic([&](stm::Tx& tx) {
            const bool fresh = map_.put(tx, key, key + roll);
            detail::spin_for(cfg.spin_ns);
            return fresh;
          });
          return inserted ? 1 : 0;
        }
        const bool removed = stm::atomic([&](stm::Tx& tx) {
          const bool gone = map_.remove(tx, key);
          detail::spin_for(cfg.spin_ns);
          return gone;
        });
        return removed ? -1 : 0;
      };
    });
    const bool oracle_ok =
        static_cast<std::int64_t>(map_.size_direct()) ==
        static_cast<std::int64_t>(size_before) + engine.net;
    return detail::finish_scenario(cfg, engine, oracle_ok);
  }

  std::size_t size_direct() const { return map_.size_direct(); }

 private:
  Container map_;
  std::uint64_t key_space_;
  std::uint64_t seed_;
  std::unique_ptr<ZipfianSpec> spec_;
};

// ---------------------------------------------------------------------------
// Warehouse-style runner
// ---------------------------------------------------------------------------

// Multi-table transaction: ordered txlog line (atomic deferral), stock
// updates in the B+ tree, order insert into the skip list.
class WarehouseRunner {
 public:
  static constexpr unsigned kItemsPerOrder = 4;

  WarehouseRunner(std::uint64_t items, std::uint64_t seed)
      : items_(items), seed_(seed), dir_("adtm-oltp-wh"),
        logger_(dir_.file("orders.log")) {
    stm::Config cgl;
    cgl.backend = "cgl";
    stm::init(cgl);
    constexpr std::uint64_t kBatch = 1024;
    for (std::uint64_t base = 0; base < items_; base += kBatch) {
      stm::atomic([&](stm::Tx& tx) {
        for (std::uint64_t i = base; i < base + kBatch && i < items_; ++i) {
          stock_.put(tx, i, 100);
        }
      });
    }
  }

  ScenarioResult run(const ScenarioConfig& cfg) {
    if (cfg.dist == Dist::Zipf &&
        (spec_ == nullptr || spec_->items() != items_ ||
         spec_->theta() != cfg.theta)) {
      spec_ = std::make_unique<ZipfianSpec>(items_, cfg.theta);
    }
    detail::begin_scenario(cfg);
    const std::size_t orders_before = orders_.size_direct();
    const std::uint64_t log_before = logger_.records_written();
    const auto engine = detail::run_engine(cfg, [&](unsigned tid) {
      const std::uint64_t tseed = cfg.seed * 0x51ed2701ULL + tid * 131 + 3;
      auto picker = cfg.dist == Dist::Zipf ? KeyPicker(*spec_, tseed)
                                           : KeyPicker(items_, tseed);
      return [this, &cfg, picker]() mutable -> std::int64_t {
        std::uint64_t items[kItemsPerOrder];
        for (unsigned i = 0; i < kItemsPerOrder; ++i) {
          items[i] = picker.next();
        }
        stm::atomic([&](stm::Tx& tx) {
          // The ordered logger acquires its TxLock at registration, and a
          // contended acquire blocks via stm::retry — so the log line
          // must precede the transaction's first write (under CGL writes
          // are direct and a retry after one is illegal).
          const std::uint64_t oid = next_order_.get(tx);
          logger_.log(tx, "order " + std::to_string(oid) + " item " +
                              std::to_string(items[0]));
          next_order_.set(tx, oid + 1);
          for (unsigned i = 0; i < kItemsPerOrder; ++i) {
            const auto q = stock_.get(tx, items[i]);
            const std::uint64_t have = q.has_value() ? *q : 0;
            // Sell one unit; restock when exhausted.
            stock_.put(tx, items[i], have == 0 ? 100 : have - 1);
          }
          orders_.put(tx, oid, items[0]);
          detail::spin_for(cfg.spin_ns);
        });
        return 1;  // order ids are unique: every commit inserts one row
      };
    });
    // Both-or-neither at workload level: one ordered log record and one
    // order row per committed transaction, no more, no fewer. Deferred
    // ops run in the committing thread, so after join they are all done.
    const bool oracle_ok =
        orders_.size_direct() ==
            orders_before + static_cast<std::size_t>(engine.net) &&
        logger_.records_written() ==
            log_before + static_cast<std::uint64_t>(engine.ops);
    return detail::finish_scenario(cfg, engine, oracle_ok);
  }

 private:
  std::uint64_t items_;
  std::uint64_t seed_;
  io::TempDir dir_;
  txlog::TxLogger logger_;
  containers::TxBTree<std::uint64_t, std::uint64_t> stock_;
  containers::TxSkipList<std::uint64_t, std::uint64_t> orders_;
  stm::tvar<std::uint64_t> next_order_{0};
  std::unique_ptr<ZipfianSpec> spec_;
};

}  // namespace adtm::oltp
