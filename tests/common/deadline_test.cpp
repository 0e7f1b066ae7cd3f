// adtm::Deadline: the unified bounded-wait vocabulary type, and the timed
// TxLock / TxCondVar / retry waits built on it.
#include "common/deadline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/timing.hpp"
#include "defer/txcondvar.hpp"
#include "defer/txlock.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm {
namespace {

using namespace std::chrono_literals;

class DeadlineApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stm::Config cfg;
    cfg.backend = "tl2";
    stm::init(cfg);
  }
};

TEST(DeadlineTest, DefaultIsUnbounded) {
  constexpr Deadline d;
  static_assert(d.unbounded());
  static_assert(d.raw_ns() == 0);
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d, Deadline::never());
}

TEST(DeadlineTest, AtIsAbsoluteAndZeroClampsToExpired) {
  const std::uint64_t ts = now_ns() + 1'000'000'000ull;
  const Deadline d = Deadline::at(ts);
  EXPECT_FALSE(d.unbounded());
  EXPECT_EQ(d.raw_ns(), ts);
  EXPECT_FALSE(d.expired());
  // An explicit zero timestamp means "already passed", never "unbounded".
  const Deadline zero = Deadline::at(0);
  EXPECT_FALSE(zero.unbounded());
  EXPECT_TRUE(zero.expired());
}

TEST(DeadlineTest, DurationConstructionIsNowRelative) {
  const std::uint64_t before = now_ns();
  const Deadline d = 100ms;
  EXPECT_FALSE(d.unbounded());
  EXPECT_GE(d.raw_ns(), before + 100'000'000ull);
  EXPECT_FALSE(d.expired());
  // Non-positive timeouts are already expired, not unbounded.
  const Deadline past = Deadline(-5ms);
  EXPECT_FALSE(past.unbounded());
  EXPECT_TRUE(past.expired());
  EXPECT_TRUE(Deadline(0ns).expired());
}

TEST_F(DeadlineApiTest, RetryTimeoutSurvivesReExecution) {
  // The absolute-Deadline contract: constructed once outside the body,
  // the budget spans every re-execution. Rival commits wake the waiter
  // repeatedly; each wake re-runs the body, none extends the deadline.
  stm::tvar<bool> flag{false};
  stm::tvar<int> beat{0};
  std::atomic<bool> stop{false};
  std::thread heartbeat([&] {
    while (!stop.load()) {
      stm::atomic([&](stm::Tx& tx) { beat.set(tx, beat.get(tx) + 1); });
      std::this_thread::sleep_for(10ms);
    }
  });
  const std::uint64_t start = now_ns();
  const Deadline deadline = 80ms;  // absolute: now + 80ms, fixed here
  int executions = 0;
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 ++executions;
                 beat.get(tx);  // join the hammered read set: spurious wakes
                 if (!flag.get(tx)) stm::retry(tx, deadline);
               }),
               stm::RetryTimeout);
  const std::uint64_t elapsed = now_ns() - start;
  stop.store(true);
  heartbeat.join();
  EXPECT_GE(executions, 2) << "the heartbeat never woke the waiter";
  EXPECT_GE(elapsed, 80'000'000ull);
  EXPECT_LT(elapsed, 5'000'000'000ull) << "wake-ups extended the budget";
}

TEST_F(DeadlineApiTest, TimedTxLockFormsExpireWhileHeld) {
  TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> go_release{false};
  std::thread holder([&] {
    lock.acquire();
    held.store(true);
    while (!go_release.load()) std::this_thread::yield();
    lock.release();
  });
  while (!held.load()) std::this_thread::yield();

  // Timed non-transactional forms return false on expiry.
  EXPECT_FALSE(lock.acquire(Deadline(20ms)));
  EXPECT_FALSE(lock.subscribe(Deadline(20ms)));

  // The in-transaction timed form raises RetryTimeout out of atomic().
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 lock.acquire(tx, Deadline::at(now_ns() + 20'000'000ull));
               }),
               stm::RetryTimeout);

  // Deadline::never() waits through the holder's release.
  std::atomic<bool> unbounded_running{false};
  std::thread unbounded_waiter([&] {
    unbounded_running.store(true);
    stm::atomic([&](stm::Tx& tx) { lock.acquire(tx, Deadline::never()); });
    lock.release();
  });
  while (!unbounded_running.load()) std::this_thread::yield();
  std::this_thread::sleep_for(30ms);  // longer than any bounded wait above
  go_release.store(true);
  holder.join();
  unbounded_waiter.join();  // acquired after release, then released
  EXPECT_FALSE(lock.held_by_me());
}

TEST_F(DeadlineApiTest, CondVarZeroDeadlineExpiresAtOnce) {
  // Deadline::at(0) clamps to "already passed": the wait times out
  // instead of turning into an unbounded one.
  TxCondVar cv;
  stm::tvar<bool> flag{false};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 if (!flag.get(tx)) cv.wait(tx, Deadline::at(0));
               }),
               stm::RetryTimeout);
}

}  // namespace
}  // namespace adtm
