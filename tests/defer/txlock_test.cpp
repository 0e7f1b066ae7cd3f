// TxLock: the transaction-friendly reentrant mutex of paper §4.2/Listing 2.
#include "defer/txlock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "support/algo_param.hpp"
#include "support/json.hpp"

namespace adtm {
namespace {

using test::AlgoTest;

class TxLockTest : public AlgoTest {};

TEST_P(TxLockTest, AcquireAndReleaseOutsideTransaction) {
  TxLock lock;
  EXPECT_FALSE(lock.held_by_me());
  lock.acquire();
  EXPECT_TRUE(lock.held_by_me());
  lock.release();
  EXPECT_FALSE(lock.held_by_me());
}

TEST_P(TxLockTest, ReentrantAcquire) {
  TxLock lock;
  lock.acquire();
  lock.acquire();
  lock.acquire();
  stm::atomic([&](stm::Tx& tx) { EXPECT_EQ(lock.depth(tx), 3u); });
  lock.release();
  lock.release();
  EXPECT_TRUE(lock.held_by_me());
  lock.release();
  EXPECT_FALSE(lock.held_by_me());
}

TEST_P(TxLockTest, ReleaseWithoutOwnershipThrows) {
  TxLock lock;
  EXPECT_THROW(lock.release(), std::logic_error);
}

TEST_P(TxLockTest, ReleaseOfLockHeldByOtherThreadThrows) {
  TxLock lock;
  lock.acquire();
  std::thread t([&] { EXPECT_THROW(lock.release(), std::logic_error); });
  t.join();
  lock.release();
}

TEST_P(TxLockTest, MutualExclusionStress) {
  TxLock lock;
  long shared = 0;  // plain variable protected only by the TxLock
  constexpr int kThreads = 4;
  constexpr int kPerThread = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        TxLockGuard guard(lock);
        ++shared;  // racy unless the lock really excludes
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared, long{kThreads} * kPerThread);
}

TEST_P(TxLockTest, SubscribeBlocksWhileHeld) {
  TxLock lock;
  stm::tvar<int> data{0};
  lock.acquire();

  std::atomic<bool> subscriber_done{false};
  std::thread subscriber([&] {
    stm::atomic([&](stm::Tx& tx) {
      lock.subscribe(tx);
      data.set(tx, 1);
    });
    subscriber_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(subscriber_done.load());
  EXPECT_EQ(data.load_direct(), 0);

  lock.release();
  subscriber.join();
  EXPECT_TRUE(subscriber_done.load());
  EXPECT_EQ(data.load_direct(), 1);
}

TEST_P(TxLockTest, SubscribePassesWhenHeldByMe) {
  TxLock lock;
  lock.acquire();
  stm::atomic([&](stm::Tx& tx) {
    lock.subscribe(tx);  // owner: must not retry
    SUCCEED();
  });
  lock.release();
}

TEST_P(TxLockTest, ConcurrentSubscribersDoNotConflict) {
  // Subscription only reads the owner field, so many subscribers can run
  // concurrently without aborting each other.
  TxLock lock;
  std::atomic<int> done{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        stm::atomic([&](stm::Tx& tx) { lock.subscribe(tx); });
      }
      done.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), kThreads);
}

TEST_P(TxLockTest, TryAcquireSucceedsWhenFree) {
  TxLock lock;
  EXPECT_TRUE(lock.try_acquire());
  EXPECT_TRUE(lock.held_by_me());
  EXPECT_TRUE(lock.try_acquire());  // reentrant
  lock.release();
  lock.release();
  EXPECT_FALSE(lock.held_by_me());
}

TEST_P(TxLockTest, TryAcquireFailsWhenHeldElsewhere) {
  TxLock lock;
  lock.acquire();
  std::thread other([&] {
    EXPECT_FALSE(lock.try_acquire());
    // And inside a larger transaction too, without aborting it.
    stm::tvar<int> side{0};
    stm::atomic([&](stm::Tx& tx) {
      side.set(tx, 1);
      EXPECT_FALSE(lock.try_acquire(tx));
    });
    EXPECT_EQ(side.load_direct(), 1);  // the transaction still committed
  });
  other.join();
  lock.release();
}

TEST_P(TxLockTest, AcquireInsideTransactionCommitsWithIt) {
  TxLock lock;
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) {
    lock.acquire(tx);
    x.set(tx, 1);
  });
  // The lock acquisition committed with the transaction.
  EXPECT_TRUE(lock.held_by_me());
  EXPECT_EQ(x.load_direct(), 1);
  lock.release();
}

// Lock stats are fed under the trace gate. Opens it (with every buffer
// empty) for one test and leaves it closed and empty however the test ends.
struct TracedScope {
  TracedScope() {
    obs::clear();
    obs::enable();
  }
  ~TracedScope() {
    obs::disable();
    obs::clear();
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
};

// The summary's entry for `lock`; all zeros when it has none.
obs::LockSummary lock_summary(const TxLock& lock) {
  for (const obs::LockSummary& l : obs::summary().locks) {
    if (l.lock == &lock) return l;
  }
  return {};
}

TEST_P(TxLockTest, LockStatsRecordNothingWhileDisabled) {
  ASSERT_FALSE(obs::enabled());  // ADTM_TRACE unset in tests
  TxLock lock;
  lock.acquire();
  lock.release();
  const obs::LockSummary l = lock_summary(lock);
  EXPECT_EQ(l.waits, 0u);
  EXPECT_EQ(l.holds, 0u);
}

TEST_P(TxLockTest, LockStatsRecordContendedWaitAndHold) {
  TracedScope traced;
  // On a loaded single-core host the contender can be descheduled past
  // the owner's entire hold, shrinking (or skipping) its park — so a
  // single run cannot assert an absolute wait duration. Retry the
  // scenario until one park spans most of the 5 ms hold.
  bool sampled = false;
  for (int attempt = 0; attempt < 20 && !sampled; ++attempt) {
    obs::clear();
    TxLock lock;
    std::atomic<bool> held{false};
    std::atomic<bool> contender_ready{false};
    std::thread owner([&] {
      lock.acquire();
      held.store(true);
      // Start the timed hold only once the contender is at the acquire.
      while (!contender_ready.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      lock.release();
    });
    while (!held.load()) std::this_thread::yield();
    contender_ready.store(true);
    lock.acquire();  // parks behind the owner: one wait sample
    lock.release();  // depth hits zero: one hold sample
    owner.join();
    // Two committed holds (owner's and ours), every attempt.
    const obs::LockSummary l = lock_summary(lock);
    ASSERT_EQ(l.holds, 2u);
    sampled = l.waits >= 1u && l.wait_p99 >= 1'000'000u;
  }
  EXPECT_TRUE(sampled) << "no contended wait spanned >=1ms in 20 tries";
}

TEST_P(TxLockTest, LockStatsDropAWaitThatEndedWithoutTheLock) {
  // A park that ends without the lock (here: the deadline expires) must
  // not leave its wait timed: a later uncontended acquire would record
  // the whole gap as a wait and emit a lock-wait event that long.
  TracedScope traced;
  TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    lock.acquire();
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    lock.release();
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_FALSE(lock.acquire(Deadline::in(std::chrono::milliseconds(5))));
  release.store(true);
  owner.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  lock.acquire();  // uncontended: nothing to wait for
  lock.release();
  obs::disable();

  const obs::LockSummary l = lock_summary(lock);
  EXPECT_EQ(l.waits, 0u) << "p99 " << l.wait_p99 << " ns";
  EXPECT_EQ(l.holds, 2u);
  const test::Json trace = test::json_parse(obs::chrome_trace_json());
  for (const test::Json& e : trace.at("traceEvents").array) {
    if (e.at("name").str != "lock-wait") continue;
    EXPECT_LT(e.at("dur").number, 50'000.0) << "a lock-wait event spans "
                                            << e.at("dur").number << " us";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, TxLockTest, test::AllAlgos(),
                         test::algo_param_name);

// Rollback-dependent behaviours (speculative algorithms only).
class TxLockSpecTest : public AlgoTest {};

TEST_P(TxLockSpecTest, AbortedAcquireLeavesLockFree) {
  TxLock lock;
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 lock.acquire(tx);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_FALSE(lock.held_by_me());
  // And it is acquirable afterwards.
  lock.acquire();
  lock.release();
}

TEST_P(TxLockSpecTest, MultiLockAcquisitionIsDeadlockFree) {
  // Two threads acquire {A,B} in opposite orders inside transactions.
  // With ordinary mutexes this deadlocks; with TxLocks the enclosing
  // transaction retries, releasing its speculative acquisition.
  TxLock a, b;
  constexpr int kRounds = 200;
  auto worker = [&](TxLock& first, TxLock& second) {
    for (int i = 0; i < kRounds; ++i) {
      stm::atomic([&](stm::Tx& tx) {
        first.acquire(tx);
        second.acquire(tx);
      });
      // Both held: release outside the transaction.
      second.release();
      first.release();
    }
  };
  std::thread t1([&] { worker(a, b); });
  std::thread t2([&] { worker(b, a); });
  t1.join();
  t2.join();
  EXPECT_FALSE(a.held_by_me());
  EXPECT_FALSE(b.held_by_me());
}

INSTANTIATE_TEST_SUITE_P(Speculative, TxLockSpecTest, test::SpeculativeAlgos(),
                         test::algo_param_name);

}  // namespace
}  // namespace adtm
