// Component bench: TxLock vs std::mutex, and subscription cost — the price
// of making locks transaction-friendly (paper §4.2).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <mutex>
#include <thread>

#include "bench/backend_bench.hpp"
#include "common/backoff.hpp"
#include "common/timing.hpp"
#include "defer/txlock.hpp"
#include "stm/api.hpp"
#include "stm/control.hpp"

namespace {

using namespace adtm;  // NOLINT

void init_tl2() {
  stm::Config cfg;
  cfg.backend = "tl2";
  stm::init(cfg);
}

void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex m;
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_TxLockAcquireRelease(benchmark::State& state) {
  init_tl2();
  TxLock lock;
  for (auto _ : state) {
    lock.acquire();
    lock.release();
  }
}
BENCHMARK(BM_TxLockAcquireRelease);

void BM_TxLockAcquireReleaseInsideTx(benchmark::State& state) {
  init_tl2();
  TxLock lock;
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) {
      lock.acquire(tx);
      lock.release(tx);
    });
  }
}
BENCHMARK(BM_TxLockAcquireReleaseInsideTx);

void BM_TxLockReentrantAcquire(benchmark::State& state) {
  init_tl2();
  TxLock lock;
  lock.acquire();
  for (auto _ : state) {
    lock.acquire();
    lock.release();
  }
  lock.release();
}
BENCHMARK(BM_TxLockReentrantAcquire);

void BM_SubscribeUnheldLock(benchmark::State& state) {
  // Subscription is the per-method overhead injected into every accessor
  // of a deferrable class: one transactional read of the owner field.
  init_tl2();
  TxLock lock;
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) { lock.subscribe(tx); });
  }
}
BENCHMARK(BM_SubscribeUnheldLock);

void BM_SubscribeInsideLargerTx(benchmark::State& state) {
  init_tl2();
  TxLock lock;
  stm::tvar<long> x{0};
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) {
      lock.subscribe(tx);
      x.set(tx, x.get(tx) + 1);
    });
  }
}
BENCHMARK(BM_SubscribeInsideLargerTx);

// Contended hand-off: the threads take turns on one lock. Each op
// acquires it inside a transaction (as atomic_defer does), holds it for
// about a microsecond outside (the deferred operation), and releases it.
// Most acquires find the lock held, so the row prices a TxLock wait and
// hand-off per op: the park, the wake-up and, for a waiter that cannot
// park in place, the abort, unwind and re-run of its attempt.
void BM_TxLockContendedHandoff(benchmark::State& state) {
  static TxLock lock;
  static long turns = 0;  // guarded by the lock
  if (state.thread_index() == 0) adtm::bench::init_backend(state);
  for (auto _ : state) {
    stm::atomic([](stm::Tx& tx) { lock.acquire(tx); });
    ++turns;
    const std::uint64_t until = now_ns() + 1000;
    while (now_ns() < until) cpu_relax();
    lock.release();
  }
  adtm::bench::set_backend_label(state);
}

// Every speculative backend at 2..nproc threads.
void SpeculativeBackendsContended(benchmark::internal::Benchmark* b) {
  const int cores =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const stm::Backend& be : stm::backends()) {
    if (be.algo != stm::Algo::CGL) b->Arg(be.obs_index());
  }
  b->DenseThreadRange(2, cores)->UseRealTime();
}
BENCHMARK(BM_TxLockContendedHandoff)->Apply(SpeculativeBackendsContended);

// Raises stm::retry's abort `frames` calls deep.
[[gnu::noinline]] int retry_from(stm::Tx& tx, std::int64_t frames) {
  if (frames <= 0) return 0;
  if (frames == 1) stm::retry(tx);
  return retry_from(tx, frames - 1) + 1;  // no tail call: one frame each
}

// The throw-to-catch cost of one retry abort: stm::retry throws the
// driver's internal request, which unwinds `frames` calls to a catch.
// A TxLock waiter that cannot park in place pays this each time it finds
// the lock held (from acquire() to the driver is a few frames; from a
// container method that subscribes, ten or more).
void BM_RetryThrowToCatch(benchmark::State& state) {
  init_tl2();
  stm::atomic([&](stm::Tx& tx) {
    for (auto _ : state) {
      try {
        benchmark::DoNotOptimize(retry_from(tx, state.range(0)));
      } catch (const stm::detail::RetryRequest&) {
        benchmark::ClobberMemory();
      }
    }
  });
  state.SetLabel(std::to_string(state.range(0)) + " frames");
}
BENCHMARK(BM_RetryThrowToCatch)->Arg(2)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
