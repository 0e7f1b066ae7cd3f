// Component bench: cost of the liveness layer on the fast paths — timed
// lock/subscribe variants vs their untimed forms, contention-manager
// bookkeeping, watchdog scans over a quiet table, and jittered backoff.
// Liveness machinery must be (near) free when nothing is stuck.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/backoff.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"
#include "defer/txlock.hpp"
#include "liveness/contention.hpp"
#include "liveness/watchdog.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace {

using namespace adtm;  // NOLINT
using namespace std::chrono_literals;

void init_tl2() {
  stm::Config cfg;
  cfg.backend = "tl2";
  stm::init(cfg);
}

void BM_AcquireReleaseUntimed(benchmark::State& state) {
  // Baseline: the pre-liveness acquire path, for comparison below.
  init_tl2();
  TxLock lock;
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) {
      lock.acquire(tx);
      lock.release(tx);
    });
  }
}
BENCHMARK(BM_AcquireReleaseUntimed);

void BM_AcquireReleaseTimed(benchmark::State& state) {
  // Timed variant on an uncontended lock: the deadline is carried but never
  // consulted, so this should track the untimed baseline.
  init_tl2();
  TxLock lock;
  for (auto _ : state) {
    const Deadline deadline = Deadline::at(now_ns() + 1'000'000'000ull);
    stm::atomic([&](stm::Tx& tx) {
      lock.acquire(tx, deadline);
      lock.release(tx);
    });
  }
}
BENCHMARK(BM_AcquireReleaseTimed);

void BM_SubscribeTimedUnheld(benchmark::State& state) {
  init_tl2();
  TxLock lock;
  for (auto _ : state) {
    const Deadline deadline = Deadline::at(now_ns() + 1'000'000'000ull);
    stm::atomic([&](stm::Tx& tx) { lock.subscribe(tx, deadline); });
  }
}
BENCHMARK(BM_SubscribeTimedUnheld);

void BM_AcquireForTimeoutOnContended(benchmark::State& state) {
  // The slow path: a short timed wait on a lock held by another thread —
  // measures one park/timeout round trip including wait-edge publication.
  init_tl2();
  TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> done{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    lock.release();
  });
  while (!held.load()) std::this_thread::yield();
  for (auto _ : state) {
    bool ok = lock.acquire(Deadline(50us));
    benchmark::DoNotOptimize(ok);
  }
  done.store(true);
  holder.join();
}
BENCHMARK(BM_AcquireForTimeoutOnContended);

void BM_ContentionManagerBookkeeping(benchmark::State& state) {
  // Per-transaction CM cost: one abort + escalate check + commit.
  liveness::ContentionManager cm;
  for (auto _ : state) {
    cm.on_conflict_abort();
    benchmark::DoNotOptimize(cm.should_escalate(64));
    cm.on_commit();
  }
}
BENCHMARK(BM_ContentionManagerBookkeeping);

void BM_WatchdogScanQuietTable(benchmark::State& state) {
  // A scan over a table with no stalled threads: the steady-state cost the
  // background sampler pays every interval.
  init_tl2();
  liveness::Watchdog wd;
  liveness::WatchdogOptions opts;
  opts.sink = nullptr;
  wd.configure(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wd.scan_once());
  }
}
BENCHMARK(BM_WatchdogScanQuietTable);

void BM_BackoffNextSpinsAndReset(benchmark::State& state) {
  // Jittered backoff bookkeeping: a full escalation ladder plus a reset.
  Backoff bo(4, 4096);
  for (auto _ : state) {
    for (int i = 0; i < 12; ++i) benchmark::DoNotOptimize(bo.next_spins());
    bo.reset();
  }
}
BENCHMARK(BM_BackoffNextSpinsAndReset);

void BM_TxCommitUncontended(benchmark::State& state) {
  // A plain uncontended write transaction with starvation escalation
  // armed but never crossed: the per-commit streak bookkeeping.
  init_tl2();
  stm::tvar<int> x{0};
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  }
}
BENCHMARK(BM_TxCommitUncontended);

void BM_LatencyHistogramRecord(benchmark::State& state) {
  // One wait-free histogram insert: the per-sample cost of lock stats.
  LatencyHistogram h;
  std::uint64_t ns = 1;
  for (auto _ : state) {
    h.record(ns);
    ns = (ns * 2) | 1;  // walk the buckets
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_LatencyHistogramRecord);

void BM_LockStatsClosedGateRecord(benchmark::State& state) {
  // The price a contended acquire pays for lock stats while the trace
  // gate is closed: one relaxed load at the block site, one thread-local
  // compare at the acquire.
  obs::disable();
  int key = 0;
  for (auto _ : state) {
    obs::lock_wait_begin(&key);
    obs::lock_wait_end(&key);
  }
  benchmark::DoNotOptimize(key);
}
BENCHMARK(BM_LockStatsClosedGateRecord);

void BM_LockStatsEnabledRecord(benchmark::State& state) {
  // Open gate: one hold span — thread-local start, hash, claim-once
  // probe, histogram insert.
  obs::enable();
  int key = 0;
  for (auto _ : state) {
    obs::lock_hold_begin(&key);
    obs::lock_hold_end(&key);
  }
  obs::disable();
  obs::clear();
}
BENCHMARK(BM_LockStatsEnabledRecord);

void BM_LockStatsInstrumentedAcquire(benchmark::State& state) {
  // End-to-end: uncontended TxLock acquire/release with the trace gate
  // open — the hold-span on_commit hooks and the transaction events ride
  // the transaction.
  init_tl2();
  obs::clear();
  obs::enable();
  TxLock lock;
  for (auto _ : state) {
    lock.acquire();
    lock.release();
  }
  obs::disable();
  obs::clear();
}
BENCHMARK(BM_LockStatsInstrumentedAcquire);

}  // namespace

BENCHMARK_MAIN();
