// Randomized stress and failure-injection tests for the STM runtime.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "defer/atomic_defer.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/registry.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

using test::AlgoTest;

class StressTest : public AlgoTest {};

TEST_P(StressTest, RandomTransfersWithInjectedCancels) {
  // Threads randomly transfer between accounts; a fraction of transactions
  // cancel after doing half the work. Conservation must hold regardless
  // (direct modes never cancel after writing, so inject pre-write there).
  constexpr int kAccounts = 12;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1200;
  constexpr long kInitial = 100;
  std::array<stm::tvar<long>, kAccounts> accounts;
  for (auto& a : accounts) a.store_direct(kInitial);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng{static_cast<std::uint64_t>(t) * 7 + 1};
      for (int i = 0; i < kPerThread; ++i) {
        const int from = static_cast<int>(rng.next_below(kAccounts));
        const int to = static_cast<int>((from + 1 + rng.next_below(
                                             kAccounts - 1)) % kAccounts);
        const bool inject = rng.next_below(5) == 0;
        stm::atomic([&](stm::Tx& tx) {
          if (inject && tx.irrevocable()) stm::cancel(tx);  // before writes
          accounts[from].set(tx, accounts[from].get(tx) - 1);
          if (inject && !tx.irrevocable()) stm::cancel(tx);  // mid-update!
          accounts[to].set(tx, accounts[to].get(tx) + 1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  long total = 0;
  for (auto& a : accounts) total += a.load_direct();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_P(StressTest, OrecAliasingDoesNotBreakIsolation) {
  // Force heavy false sharing: many tvars packed into few cache lines so
  // distinct variables share orecs. Aliasing may cost aborts, never
  // correctness.
  struct Packed {
    std::array<stm::tvar<std::uint32_t>, 64> slots;  // 8B each -> 4 lines
  };
  auto packed = std::make_unique<Packed>();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1600;  // divisible by 16 slots per thread
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns a disjoint set of slots (but shares lines).
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t slot =
            static_cast<std::size_t>(t) * 16 + (i % 16);
        stm::atomic([&](stm::Tx& tx) {
          packed->slots[slot].set(tx, packed->slots[slot].get(tx) + 1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int s = 0; s < 16; ++s) {
      EXPECT_EQ(packed->slots[static_cast<std::size_t>(t) * 16 + s]
                    .load_direct(),
                static_cast<std::uint32_t>(kPerThread / 16));
    }
  }
}

TEST_P(StressTest, MixedReadersWritersAndDeferrers) {
  // Everything at once: writers, long readers, deferred operations, and a
  // thread that periodically escalates to irrevocability.
  struct Shared : Deferrable {
    stm::tvar<long> a{0};
    stm::tvar<long> b{0};  // written directly, only under the implicit lock
  };
  Shared shared;
  std::array<stm::tvar<long>, 32> table{};
  std::atomic<bool> stop{false};
  std::atomic<long> torn{0};

  std::thread writer([&] {
    for (long i = 1; i <= 600; ++i) {
      stm::atomic([&](stm::Tx& tx) {
        shared.subscribe(tx);
        shared.a.set(tx, i);
        atomic_defer(tx, [&shared, i] { shared.b.store_direct(i); }, shared);
      });
    }
    stop.store(true);
  });

  std::thread reader([&] {
    while (!stop.load()) {
      const auto [a, b] = stm::atomic([&](stm::Tx& tx) {
        shared.subscribe(tx);
        return std::pair{shared.a.get(tx), shared.b.get(tx)};
      });
      if (a != b) torn.fetch_add(1);
    }
  });

  std::thread scanner([&] {
    while (!stop.load()) {
      (void)stm::atomic([&](stm::Tx& tx) {
        long sum = 0;
        for (auto& v : table) sum += v.get(tx);
        return sum;
      });
    }
  });

  std::thread escalator([&] {
    int rounds = 0;
    while (!stop.load() && rounds++ < 50) {
      stm::atomic([&](stm::Tx& tx) {
        stm::become_irrevocable(tx);
        table[0].set(tx, table[0].get(tx) + 1);
      });
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  writer.join();
  reader.join();
  scanner.join();
  escalator.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(shared.a.load_direct(), 600);
  EXPECT_EQ(shared.b.load_direct(), 600);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, StressTest, test::AllAlgos(),
                         test::algo_param_name);

TEST(SerialGateRegression, SerialTxAcquiresLockHeldByDeferredOp) {
  // Regression for the locker-accounting design (see registry.hpp): a
  // serial-irrevocable transaction wants a TxLock that an in-flight
  // deferred operation holds. Without locker draining this deadlocks:
  // the deferred op's release transaction would block on the serial gate
  // while the serial transaction spins on the lock.
  stm::init({.backend = "tl2"});

  struct Cell : Deferrable {
    stm::tvar<long> v{0};
  } cell;
  std::atomic<bool> in_deferred{false};

  std::thread deferrer([&] {
    stm::atomic([&](stm::Tx& tx) {
      atomic_defer(tx, [&] {
        in_deferred.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        cell.v.store_direct(1);
      }, cell);
    });
  });

  while (!in_deferred.load()) std::this_thread::yield();

  // Escalate to serial mode and touch the cell: must wait for the
  // deferred op (draining it), not deadlock.
  long seen = -1;
  stm::atomic([&](stm::Tx& tx) {
    stm::become_irrevocable(tx);
    cell.subscribe(tx);  // lock is free by the time the gate admits us
    seen = cell.v.get(tx);
  });
  deferrer.join();
  EXPECT_EQ(seen, 1);
}

TEST(SerialGateRegression, SerialTxWhileTxLockGuardHeldElsewhere) {
  stm::init({.backend = "tl2"});
  TxLock lock;
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};

  std::thread holder([&] {
    TxLockGuard guard(lock);
    holding.store(true);
    while (!release.load()) std::this_thread::yield();
  });

  while (!holding.load()) std::this_thread::yield();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    release.store(true);
  });

  // The serial gate drains the guard holder before running, so the lock
  // is acquirable inside the serial transaction.
  stm::atomic([&](stm::Tx& tx) {
    stm::become_irrevocable(tx);
    lock.acquire(tx);
    lock.release(tx);
  });
  holder.join();
  releaser.join();
  SUCCEED();
}

// An irrevocable writer that takes the serial gate and then waits there
// for `lock`, a cross-transaction hold of the calling thread, to drain.
std::thread start_draining_writer(TxLock& lock) {
  std::thread writer([&lock] {
    stm::atomic([&](stm::Tx& tx) {
      stm::become_irrevocable(tx);
      lock.acquire(tx);
      lock.release(tx);
    });
  });
  while (!stm::detail::g_serial_gate.busy()) std::this_thread::yield();
  return writer;
}

TEST(SerialGateRegression, PinnedHolderDoesNotQueueBehindDrainingWriter) {
  // A writer at the serial gate waits for every other thread's
  // cross-transaction holds to drain. If a thread pinning such a hold
  // escalated and queued behind that writer, neither could proceed. Here
  // the holder's first attempt loses a seeded conflict while the writer
  // takes the gate, and its one-attempt budget sends it to the gate: it
  // must run its next attempt speculatively instead of waiting.
  stm::Config cfg;
  cfg.backend = "tl2";
  cfg.serialize_after = 1;
  cfg.quiescence = false;  // the rival commits while attempt 1 is live
  stm::init(cfg);
  TxLock lock;
  lock.acquire();  // this thread now pins a cross-transaction hold
  const std::uint64_t irrevocable0 = stats().total(Counter::TxIrrevocable);

  stm::tvar<long> x{0};
  stm::tvar<long> y{0};
  std::thread writer;
  int attempts = 0;
  stm::atomic([&](stm::Tx& tx) {
    const long seen = x.get(tx);
    if (++attempts == 1) {
      std::thread([&] {
        stm::atomic([&](stm::Tx& rtx) { x.set(rtx, seen + 1); });
      }).join();
      writer = start_draining_writer(lock);
    }
    y.set(tx, seen + 1);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(y.load_direct(), 2);
  lock.release();  // lets the writer's drain finish
  writer.join();
  // The writer's become_irrevocable and the holder's one fallback.
  EXPECT_EQ(stats().total(Counter::TxIrrevocable) - irrevocable0, 2u);
  stm::init(stm::Config{});
}

TEST(SerialGateRegression, IrrevocableHolderBehindDrainingWriterRaises) {
  // The same pinned holder, but its transaction cannot commit without
  // the gate (become_irrevocable), and the writer at the gate waits for
  // the hold it pins: a wait cycle. It must raise DeadlockError, once,
  // instead of cycling between the gate and speculative attempts.
  stm::init({.backend = "tl2"});
  TxLock lock;
  lock.acquire();
  std::thread writer = start_draining_writer(lock);
  const std::uint64_t deadlocks0 = stats().total(Counter::DeadlocksDetected);
  const std::uint64_t irrevocable0 = stats().total(Counter::TxIrrevocable);
  int attempts = 0;
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 ++attempts;
                 stm::become_irrevocable(tx);
               }),
               liveness::DeadlockError);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(stats().total(Counter::DeadlocksDetected) - deadlocks0, 1u);
  EXPECT_EQ(stats().total(Counter::TxIrrevocable) - irrevocable0, 1u);
  lock.release();
  writer.join();
}

}  // namespace
}  // namespace adtm
