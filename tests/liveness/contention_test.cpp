// Contention manager: cross-transaction abort streaks and starvation
// escalation into serial-irrevocable mode.
#include "liveness/contention.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "stm/api.hpp"
#include "stm/control.hpp"
#include "stm/tvar.hpp"

namespace adtm {
namespace {

TEST(ContentionManager, StreakAccounting) {
  liveness::ContentionManager cm;
  const std::uint32_t me = thread_id();
  EXPECT_FALSE(cm.should_escalate(4));
  for (int i = 0; i < 4; ++i) cm.on_conflict_abort();
  EXPECT_EQ(cm.consecutive_aborts(me), 4u);
  EXPECT_EQ(cm.total_aborts(me), 4u);
  EXPECT_TRUE(cm.should_escalate(4));
  EXPECT_TRUE(cm.should_escalate(3));   // at-or-above threshold
  EXPECT_FALSE(cm.should_escalate(5));  // below threshold
  EXPECT_FALSE(cm.should_escalate(0));  // 0 disables escalation entirely
  cm.on_commit();
  EXPECT_EQ(cm.consecutive_aborts(me), 0u);
  EXPECT_EQ(cm.total_aborts(me), 4u);  // total survives the commit
  EXPECT_FALSE(cm.should_escalate(4));
  cm.on_escalation();
  EXPECT_EQ(cm.escalations(me), 1u);
  cm.reset();
  EXPECT_EQ(cm.total_aborts(me), 0u);
  EXPECT_EQ(cm.escalations(me), 0u);
}

TEST(ContentionManager, DefaultThresholdComesFromConfig) {
  // ADTM_STARVATION_THRESHOLD is unset in the test environment.
  stm::Config cfg;
  EXPECT_EQ(cfg.starvation_threshold, 64u);
}

TEST(ContentionManager, PrimedStreakEscalatesToSerial) {
  stm::Config cfg;
  cfg.backend = "tl2";
  cfg.starvation_threshold = 8;
  stm::init(cfg);
  stats().reset();
  auto& cm = liveness::contention();
  cm.reset();
  const std::uint32_t me = thread_id();
  stm::tvar<int> x{0};
  // One loss short of the threshold: still speculative.
  for (int i = 0; i < 7; ++i) cm.on_conflict_abort();
  stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 1);
    EXPECT_FALSE(tx.irrevocable());
  });
  EXPECT_EQ(stats().total(Counter::CmEscalations), 0u);
  EXPECT_EQ(cm.consecutive_aborts(me), 0u);
  // Prime the streak as if this thread had lost 8 conflicts across
  // previous transactions: the next transaction runs serially up front.
  for (int i = 0; i < 8; ++i) cm.on_conflict_abort();
  stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 2);
    EXPECT_TRUE(tx.irrevocable());
  });
  EXPECT_EQ(stats().total(Counter::CmEscalations), 1u);
  EXPECT_EQ(cm.escalations(me), 1u);
  // The serial commit ended the streak: the next transaction is
  // speculative again and no second escalation is counted.
  EXPECT_EQ(cm.consecutive_aborts(me), 0u);
  stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 3);
    EXPECT_FALSE(tx.irrevocable());
  });
  EXPECT_EQ(stats().total(Counter::CmEscalations), 1u);
  EXPECT_EQ(x.load_direct(), 3);
  cm.reset();
  stm::init(stm::Config{});
}

// Conflicts lost within one atomic() call extend the streak too: the
// attempt after the threshold-th loss runs serially, long before the
// per-call serialize_after budget would.
TEST(ContentionManager, InFlightStreakEscalatesMidCall) {
  stm::Config cfg;
  cfg.backend = "tl2";
  cfg.starvation_threshold = 3;
  cfg.serialize_after = 100;
  stm::init(cfg);
  stats().reset();
  auto& cm = liveness::contention();
  cm.reset();
  stm::tvar<int> x{0};
  int attempts = 0;
  stm::atomic([&](stm::Tx& tx) {
    ++attempts;
    x.set(tx, attempts);
    if (attempts <= 3) {
      EXPECT_FALSE(tx.irrevocable());
      throw stm::detail::ConflictAbort{};  // as a failed validation does
    }
    EXPECT_TRUE(tx.irrevocable());
  });
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(stats().total(Counter::TxAbortConflict), 3u);
  EXPECT_EQ(stats().total(Counter::CmEscalations), 1u);
  EXPECT_EQ(stats().total(Counter::TxIrrevocable), 0u);  // not the budget
  EXPECT_EQ(cm.consecutive_aborts(thread_id()), 0u);
  EXPECT_EQ(x.load_direct(), 4);
  cm.reset();
  stm::init(stm::Config{});
}

// Escalation works on any thread, and a streak ends with its thread: the
// next thread given the recycled id starts speculative.
TEST(ContentionManager, ExitedThreadsStreakIsNotInherited) {
  stm::Config cfg;
  cfg.backend = "tl2";
  cfg.starvation_threshold = 4;
  stm::init(cfg);
  stats().reset();
  auto& cm = liveness::contention();
  cm.reset();
  stm::tvar<int> x{0};
  std::uint32_t first_id = kNoThread;
  std::thread first([&] {
    first_id = thread_id();
    for (int i = 0; i < 4; ++i) cm.on_conflict_abort();
    stm::atomic([&](stm::Tx& tx) {
      x.set(tx, 1);
      EXPECT_TRUE(tx.irrevocable());
    });
    // Starved again, and gone before its next transaction.
    for (int i = 0; i < 4; ++i) cm.on_conflict_abort();
  });
  first.join();
  EXPECT_EQ(stats().total(Counter::CmEscalations), 1u);
  EXPECT_EQ(cm.consecutive_aborts(first_id), 0u);

  // The next thread usually gets the same slot back (the lowest free one).
  std::thread second([&] {
    stm::atomic([&](stm::Tx& tx) {
      x.set(tx, 2);
      EXPECT_FALSE(tx.irrevocable());
    });
  });
  second.join();
  EXPECT_EQ(stats().total(Counter::CmEscalations), 1u);
  EXPECT_EQ(x.load_direct(), 2);
  cm.reset();
  stm::init(stm::Config{});
}

TEST(ContentionManager, ThresholdZeroNeverEscalates) {
  stm::Config cfg;
  cfg.backend = "tl2";
  cfg.starvation_threshold = 0;
  stm::init(cfg);
  stats().reset();
  auto& cm = liveness::contention();
  cm.reset();
  for (int i = 0; i < 1000; ++i) cm.on_conflict_abort();
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 1);
    EXPECT_FALSE(tx.irrevocable());
  });
  EXPECT_EQ(stats().total(Counter::CmEscalations), 0u);
  cm.reset();
  stm::init(stm::Config{});
}

}  // namespace
}  // namespace adtm
