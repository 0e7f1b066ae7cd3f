// TxLock::release() outside a transaction only publishes: it commits
// without quiescence, then hands the lock to a parked waiter instead of
// barging past it. A release inside a user transaction still quiesces.
// Every wait below is bounded, so a regression fails instead of hanging.
#include "defer/txlock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/thread_id.hpp"
#include "common/timing.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

using namespace std::chrono_literals;

// Polls `flag` until it is set or `limit` passes; returns the flag.
bool wait_for(const std::atomic<bool>& flag, std::chrono::milliseconds limit) {
  const std::uint64_t until =
      now_ns() + static_cast<std::uint64_t>(limit.count()) * 1'000'000;
  while (!flag.load() && now_ns() < until) std::this_thread::yield();
  return flag.load();
}

// A read-only transaction held open until the object is destroyed. Every
// writer that commits meanwhile must quiesce against it.
class LatchedReader {
 public:
  LatchedReader()
      : thread_([this] {
          stm::atomic([this](stm::Tx& tx) {
            (void)x_.get(tx);
            in_tx_.store(true);
            while (open_.load()) std::this_thread::yield();
          });
        }) {
    while (!in_tx_.load()) std::this_thread::yield();
  }
  ~LatchedReader() {
    open_.store(false);
    thread_.join();
  }
  LatchedReader(const LatchedReader&) = delete;
  LatchedReader& operator=(const LatchedReader&) = delete;

 private:
  // A line of its own: under 2PL the reader's visible read lock would
  // otherwise also stall writers of a neighbouring tvar.
  alignas(64) stm::tvar<long> x_{0};
  std::atomic<bool> in_tx_{false};
  std::atomic<bool> open_{true};
  std::thread thread_;
};

// Holds `lock` on its own thread; release(body) runs `body` there to
// release it and sets released() once `body` returns.
class Holder {
 public:
  template <typename F>
  explicit Holder(TxLock& lock, F body)
      : thread_([this, &lock, body] {
          lock.acquire();
          held_.store(true);
          while (!go_.load()) std::this_thread::yield();
          body();
          released_.store(true);
        }) {
    while (!held_.load()) std::this_thread::yield();
  }
  ~Holder() {
    go_.store(true);
    thread_.join();
  }
  Holder(const Holder&) = delete;
  Holder& operator=(const Holder&) = delete;

  void release() { go_.store(true); }
  const std::atomic<bool>& released() const { return released_; }

 private:
  std::atomic<bool> held_{false};
  std::atomic<bool> go_{false};
  std::atomic<bool> released_{false};
  std::thread thread_;
};

class TxLockReleaseTest : public test::AlgoTest {};

TEST_P(TxLockReleaseTest, ReleaseDoesNotWaitForEarlierReaders) {
  TxLock lock;
  Holder holder(lock, [&lock] { lock.release(); });
  bool released_while_open = false;
  {
    LatchedReader reader;  // starts after the acquire, before the release
    holder.release();
    released_while_open = wait_for(holder.released(), 2000ms);
  }
  EXPECT_TRUE(released_while_open)
      << "the release waited for a reader it does not need to wait for";
  EXPECT_TRUE(wait_for(holder.released(), 5000ms));
}

TEST_P(TxLockReleaseTest, ReleaseInsideAWriterStillQuiesces) {
  for (const bool flattened : {false, true}) {
    SCOPED_TRACE(flattened ? "release() joined to the transaction"
                           : "release(tx)");
    TxLock lock;
    stm::tvar<long> y{0};
    Holder holder(lock, [&] {
      stm::atomic([&](stm::Tx& tx) {
        y.set(tx, 1);
        if (flattened) {
          lock.release();
        } else {
          lock.release(tx);
        }
      });
    });
    {
      LatchedReader reader;
      holder.release();
      std::this_thread::sleep_for(100ms);
      EXPECT_FALSE(holder.released().load())
          << "a writer committed without waiting for an earlier reader";
    }
    EXPECT_TRUE(wait_for(holder.released(), 5000ms));
    EXPECT_FALSE(lock.held_by_me());
  }
}

TEST_P(TxLockReleaseTest, ParkedWaiterIsNotStarvedByReacquiringOwner) {
  TxLock lock;
  std::atomic<bool> stop{false};
  std::atomic<bool> cycling{false};
  std::thread hog([&] {
    while (!stop.load()) {
      lock.acquire();
      cycling.store(true);
      lock.release();
    }
  });
  ASSERT_TRUE(wait_for(cycling, 5000ms));
  for (int round = 0; round < 20; ++round) {
    const bool got = lock.acquire(Deadline(1s));
    EXPECT_TRUE(got) << "round " << round
                     << ": starved by an owner that releases and re-acquires";
    if (got) lock.release();
  }
  stop.store(true);
  hog.join();
}

INSTANTIATE_TEST_SUITE_P(Speculative, TxLockReleaseTest,
                         test::SpeculativeAlgos(), test::algo_param_name);

TEST(WaitGraphQuery, OthersWaitOnSeesOnlyOtherThreadsPublishedEdges) {
  int lock = 0;
  int other_lock = 0;
  const auto no_owner = [](const void*) -> std::uint32_t { return kNoThread; };
  EXPECT_FALSE(liveness::others_wait_on(&lock));

  liveness::publish_wait(&lock, no_owner, "test");
  EXPECT_FALSE(liveness::others_wait_on(&lock)) << "counted its own edge";
  liveness::clear_wait();

  std::atomic<bool> published{false};
  std::atomic<bool> clear{false};
  std::atomic<bool> cleared{false};
  std::thread waiter([&] {
    liveness::publish_wait(&lock, no_owner, "test");
    published.store(true);
    while (!clear.load()) std::this_thread::yield();
    liveness::clear_wait();
    cleared.store(true);
  });
  ASSERT_TRUE(wait_for(published, 5000ms));
  EXPECT_TRUE(liveness::others_wait_on(&lock));
  EXPECT_FALSE(liveness::others_wait_on(&other_lock));
  clear.store(true);
  ASSERT_TRUE(wait_for(cleared, 5000ms));
  EXPECT_FALSE(liveness::others_wait_on(&lock));
  waiter.join();
}

}  // namespace
}  // namespace adtm
