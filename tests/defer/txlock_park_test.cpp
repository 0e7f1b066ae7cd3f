// A TxLock waiter parks in place: when its attempt has nothing other
// threads can see (TL2, NOrec, or Eager before its first write), it waits
// without aborting and resumes the same attempt at a fresh snapshot once
// the lock may have changed. HTMSim and 2PL keep the paper's abort and
// re-execution. Every wait below is bounded, so a regression fails
// instead of hanging.
#include "defer/txlock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/deadline.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/api.hpp"
#include "stm/registry.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

using namespace std::chrono_literals;

// Polls `done` until it holds or two seconds pass; returns its last value.
template <typename Pred>
bool eventually(Pred done) {
  const std::uint64_t until = now_ns() + 2'000'000'000;
  while (!done() && now_ns() < until) std::this_thread::yield();
  return done();
}

class TxLockParkTest : public test::AlgoTest {
 protected:
  // The backends whose waiters park in place.
  bool parks_in_place() const {
    return GetParam() == "TL2" || GetParam() == "NOrec" ||
           GetParam() == "Eager";
  }

  // True once another thread is waiting on `lock` and has counted
  // `waits` retry waits in total.
  static bool waiting_on(const TxLock& lock, std::uint64_t waits) {
    return liveness::others_wait_on(&lock) &&
           stats().total(Counter::TxRetry) >= waits;
  }
};

TEST_P(TxLockParkTest, WaiterRunsItsBodyOnce) {
  for (const bool subscribe : {false, true}) {
    SCOPED_TRACE(subscribe ? "subscribe" : "acquire");
    stats().reset();
    TxLock lock;
    std::atomic<int> runs{0};
    std::atomic<std::uint32_t> attempt{0};
    std::atomic<bool> stale_edge{false};
    std::thread waiter;
    {
      TxLockGuard held(lock);
      waiter = std::thread([&] {
        stm::atomic([&](stm::Tx& tx) {
          runs.fetch_add(1);
          if (subscribe) {
            lock.subscribe(tx);
          } else {
            lock.acquire(tx);
          }
          attempt.store(tx.attempt());
          // A stale edge would keep the releaser's hand-off spinning.
          if (liveness::has_wait_edge()) stale_edge.store(true);
        });
        if (!subscribe) lock.release();
      });
      ASSERT_TRUE(eventually([&] { return waiting_on(lock, 1); }));
    }
    waiter.join();
    // A waiter that parks in place runs its body once per attempt; one
    // that aborts to wait runs it again in the same attempt (a wait is
    // not contention). On a loaded host the lock's release can still
    // cost the waiter a conflict abort, which starts a new attempt.
    if (parks_in_place()) {
      EXPECT_EQ(static_cast<std::uint32_t>(runs.load()), attempt.load());
      if (stats().total(Counter::TxAbortConflict) == 0) {
        EXPECT_EQ(runs.load(), 1);
        EXPECT_EQ(attempt.load(), 1u);
      }
    } else {
      EXPECT_GT(static_cast<std::uint32_t>(runs.load()), attempt.load());
    }
    EXPECT_FALSE(stale_edge.load()) << "wait edge outlived the wait";
    EXPECT_FALSE(lock.held_by_me());
  }
}

TEST_P(TxLockParkTest, ResumedAttemptRestartsWhenAKeptReadChanged) {
  TxLock lock;
  stm::tvar<long> x{0};
  stm::tvar<long> y{0};
  std::atomic<int> runs{0};
  std::atomic<int> torn{0};
  std::atomic<std::uint32_t> attempt{0};
  std::thread waiter;
  {
    TxLockGuard held(lock);
    waiter = std::thread([&] {
      stm::atomic([&](stm::Tx& tx) {
        runs.fetch_add(1);
        attempt.store(tx.attempt());
        const long seen = x.get(tx);
        lock.subscribe(tx);
        // A resumed attempt sees one snapshot: x cannot have moved.
        if (x.get(tx) != seen) torn.fetch_add(1);
        y.set(tx, seen + 100);
      });
    });
    ASSERT_TRUE(eventually([&] { return waiting_on(lock, 1); }));
    stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  }
  waiter.join();
  EXPECT_EQ(y.load_direct(), 101) << "committed with a stale read of x";
  EXPECT_EQ(torn.load(), 0) << "a resumed attempt saw x change";
  EXPECT_GE(runs.load(), 2);
  // Parked in place, the waiter restarts as a new attempt when its
  // resumed read of x fails to validate (2 on a quiet host).
  if (parks_in_place()) {
    EXPECT_EQ(static_cast<std::uint32_t>(runs.load()), attempt.load());
    EXPECT_GE(stats().total(Counter::TxAbortConflict), 1u);
  }
}

TEST_P(TxLockParkTest, MemoryFreedWhileParkedIsNotReadOnResume) {
  // A parked waiter is out of the registry, so a writer that unlinks a
  // node the waiter read does not wait for it before freeing the node.
  // The waiter's re-validation must fail on the changed link before it
  // reads the freed node (NOrec validates by value); ASan reports it if
  // it does not.
  struct Node {
    stm::tvar<long> value{7};
  };
  TxLock lock;
  stm::tvar<Node*> head{nullptr};
  stm::atomic([&](stm::Tx& tx) {
    head.set(tx, new (tx.alloc(sizeof(Node))) Node);
  });
  std::atomic<long> seen{0};
  std::thread waiter;
  {
    TxLockGuard held(lock);
    waiter = std::thread([&] {
      stm::atomic([&](stm::Tx& tx) {
        Node* n = head.get(tx);
        const long v = n != nullptr ? n->value.get(tx) : -1;
        lock.subscribe(tx);
        seen.store(v);
      });
    });
    ASSERT_TRUE(eventually([&] { return waiting_on(lock, 1); }));
    stm::atomic([&](stm::Tx& tx) {
      Node* n = head.get(tx);
      head.set(tx, nullptr);
      tx.free(n);
    });
  }
  waiter.join();
  EXPECT_EQ(seen.load(), -1);
}

TEST_P(TxLockParkTest, AttemptHoldingALockDoesNotParkInPlace) {
  // The waiter acquired l1 in this attempt, then waits on l2. Parking in
  // place would keep its l1 hold (and, under Eager, its visible ownership
  // write) while it waits; it must abort instead, so another thread can
  // take l1 meanwhile and two waiters can never hold-and-wait.
  TxLock l1, l2;
  std::atomic<int> runs{0};
  std::thread waiter;
  {
    TxLockGuard held(l2);
    waiter = std::thread([&] {
      stm::atomic([&](stm::Tx& tx) {
        runs.fetch_add(1);
        l1.acquire(tx);
        l2.acquire(tx);
      });
      l2.release();
      l1.release();
    });
    // Only the guard's hold is left once the waiter rolled back.
    ASSERT_TRUE(eventually([&] {
      return waiting_on(l2, 1) &&
             stm::detail::g_lockers.load() == 1;
    })) << "lockers " << stm::detail::g_lockers.load();
    std::atomic<bool> took{false};
    std::thread other([&] {
      if (l1.try_acquire()) {
        took.store(true);
        l1.release();
      }
    });
    other.join();
    EXPECT_TRUE(took.load());
  }
  waiter.join();
  EXPECT_GE(runs.load(), 2);
}

TEST_P(TxLockParkTest, SerialCommitWhileParkedRestartsTheAttempt) {
  TxLock lock;
  stm::tvar<long> z{0};
  std::atomic<int> runs{0};
  std::thread waiter;
  {
    TxLockGuard held(lock);
    waiter = std::thread([&] {
      stm::atomic([&](stm::Tx& tx) {
        runs.fetch_add(1);
        lock.subscribe(tx);
      });
    });
    ASSERT_TRUE(eventually([&] { return waiting_on(lock, 1); }));
    // A serial commit leaves no orec trace, so the waiter cannot
    // re-validate across it: it must run its body again.
    stm::atomic([&](stm::Tx& tx) {
      stm::become_irrevocable(tx);
      z.set(tx, 1);
    });
    EXPECT_TRUE(eventually([&] { return runs.load() >= 2; }));
  }
  waiter.join();
  EXPECT_EQ(z.load_direct(), 1);
}

TEST_P(TxLockParkTest, DeadlineExpiringWhileParkedRaisesRetryTimeout) {
  TxLock lock;
  std::atomic<int> runs{0};
  std::atomic<bool> timed_out{false};
  std::atomic<std::uint64_t> slot_after{1};
  {
    TxLockGuard held(lock);
    std::thread waiter([&] {
      const Deadline deadline = Deadline::in(30ms);
      try {
        stm::atomic([&](stm::Tx& tx) {
          runs.fetch_add(1);
          lock.acquire(tx, deadline);
        });
      } catch (const stm::RetryTimeout&) {
        timed_out.store(true);
      }
      slot_after.store(stm::detail::my_slot().active_since.load());
    });
    waiter.join();
  }
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(stats().total(Counter::RetryTimeouts), 1u);
  EXPECT_GE(stats().total(Counter::TxRetry), 1u);
  EXPECT_EQ(slot_after.load(), 0u) << "registry slot left published";
  if (parks_in_place()) {
    EXPECT_EQ(runs.load(), 1);
  }
  EXPECT_FALSE(lock.held_by_me());
}

TEST_P(TxLockParkTest, NestedTimedWrapperTimesOutTheWholeTransaction) {
  // A non-transactional timed wrapper called inside an outer atomic()
  // flattens into it, so its expiry times out the whole transaction on
  // every backend: the wrapper never returns false, RetryTimeout leaves
  // the outer atomic(), and the timeout is counted. A waiter parked in
  // place must not let the wrapper catch it inside the body.
  for (const bool subscribe : {false, true}) {
    SCOPED_TRACE(subscribe ? "subscribe" : "acquire");
    stats().reset();
    TxLock lock;
    std::atomic<int> returned{0};
    std::atomic<bool> timed_out{false};
    std::atomic<std::uint64_t> slot_after{1};
    {
      TxLockGuard held(lock);
      std::thread waiter([&] {
        try {
          stm::atomic([&](stm::Tx&) {
            const Deadline deadline = Deadline::in(30ms);
            const bool got = subscribe ? lock.subscribe(deadline)
                                       : lock.acquire(deadline);
            returned.fetch_add(got ? 1 : -1);
          });
        } catch (const stm::RetryTimeout&) {
          timed_out.store(true);
        }
        slot_after.store(stm::detail::my_slot().active_since.load());
      });
      waiter.join();
    }
    EXPECT_TRUE(timed_out.load());
    EXPECT_EQ(returned.load(), 0) << "the nested wrapper returned";
    EXPECT_EQ(stats().total(Counter::RetryTimeouts), 1u);
    EXPECT_EQ(slot_after.load(), 0u) << "registry slot left published";
  }
}

INSTANTIATE_TEST_SUITE_P(Speculative, TxLockParkTest,
                         test::SpeculativeAlgos(), test::algo_param_name);

}  // namespace
}  // namespace adtm
