// Deterministic schedule-perturbation stress for the liveness layer: the
// three historical hang shapes — cv-wait cycles, a starved writer under a
// commit hammer, and a dead-owner park — are reproduced under seeded
// yield/backoff jitter (common/rng) across the algorithms, and each must
// be detected or resolved well inside a generous backstop deadline rather
// than ride the deadline out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"
#include "defer/txcondvar.hpp"
#include "defer/txlock.hpp"
#include "liveness/contention.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kSeed = 0x5EEDBA5EDULL;
constexpr std::uint64_t kBackstopNs = 20'000'000'000ull;  // 20 s: a bug
constexpr std::uint64_t kPromptNs = 5'000'000'000ull;     // resolved = < 5 s

void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

// Seeded perturbation: yield a pseudo-random number of times so each
// iteration lands on a slightly different interleaving, reproducibly.
void jitter(Xoshiro256& rng) {
  for (std::uint64_t i = rng.next_below(8); i > 0; --i) {
    std::this_thread::yield();
  }
}

class ScheduleStressTest : public test::AlgoTest {
 protected:
  void SetUp() override {
    test::AlgoTest::SetUp();
    liveness::contention().reset();
  }
  void TearDown() override {
    liveness::contention().reset();
    stm::init(stm::Config{});
  }
};

// Two threads, two conditions, each thread registered as the notifier of
// the condition the *other* waits on: a wait cycle with zero locks held.
// Before cv edges joined the wait graph this parked both threads until
// the deadline; now at least one waiter's park-loop scan must raise
// DeadlockError promptly, and its handler resolves the other.
TEST_P(ScheduleStressTest, CvWaitCycleDetectedAndResolved) {
  TxCondVar cv_a, cv_b;
  stm::tvar<int> resolved{0};
  std::atomic<int> deadlocks{0};
  std::atomic<int> timeouts{0};
  std::atomic<bool> reg_a{false}, reg_b{false};
  const std::uint64_t start = now_ns();

  auto waiter = [&](TxCondVar& mine, std::atomic<bool>& mine_reg,
                    TxCondVar& other, std::atomic<bool>& other_reg,
                    std::uint64_t seed) {
    Xoshiro256 rng(seed);
    mine.set_notifier();
    mine_reg.store(true);
    spin_until(other_reg);
    jitter(rng);
    try {
      stm::atomic([&](stm::Tx& tx) {
        if (resolved.get(tx) != 0) return;  // peer broke the cycle
        other.wait(tx, Deadline::at(start + kBackstopNs));
      });
    } catch (const liveness::DeadlockError&) {
      deadlocks.fetch_add(1);
      // Breaking the cycle is the raiser's job: publish the resolution
      // (the committed write wakes the peer through its read set).
      stm::atomic([&](stm::Tx& tx) { resolved.set(tx, 1); });
    } catch (const stm::RetryTimeout&) {
      timeouts.fetch_add(1);
      stm::atomic([&](stm::Tx& tx) { resolved.set(tx, 1); });
    }
    mine.clear_notifier();
  };

  std::thread t1(waiter, std::ref(cv_a), std::ref(reg_a), std::ref(cv_b),
                 std::ref(reg_b), kSeed);
  std::thread t2(waiter, std::ref(cv_b), std::ref(reg_b), std::ref(cv_a),
                 std::ref(reg_a), kSeed ^ 0xFFFF);
  t1.join();
  t2.join();
  const std::uint64_t elapsed = now_ns() - start;
  EXPECT_GE(deadlocks.load(), 1) << "cv-only cycle never detected";
  EXPECT_EQ(timeouts.load(), 0) << "cycle rode the deadline out";
  EXPECT_LT(elapsed, kPromptNs) << "detection too slow: " << elapsed << " ns";
}

// A writer that has already lost `threshold` conflicts faces a hammer of
// rivals committing to its target. The writer spins for kWriterHoldNs
// between its read of the target and its write, so a hammer commit in
// that window dooms a speculative attempt and the writer really keeps
// losing. Starvation escalation must get it through within the prompt
// bound instead of letting it lose indefinitely, in three inputs:
//  * unpinned: the writer escalates to serial up front;
//  * pinned: the writer holds a TxLock across transactions, so it skips
//    the up-front escalation; while it keeps losing, its per-call
//    serialize_after budget reaches the serial gate, which admits it (no
//    other thread pins a hold);
//  * pinned-rival: a hammer thread pins a TxLock too, so the gate refuses
//    the writer and backoff alone must get it through. This writer does
//    not spin: backoff does not slow the hammer, so a writer that holds
//    its read for 50 us commits only when both rivals happen to pause
//    that long (up to 7 s under HTMSim).
// Each input's time-to-commit and attempt count are recorded as test
// properties.
TEST_P(ScheduleStressTest, StarvedWriterCommitsUnderHammer) {
  constexpr std::uint64_t kWriterHoldNs = 50'000;
  if (GetParam() == "CGL") GTEST_SKIP() << "CGL cannot starve";
  stm::Config cfg;
  cfg.backend = GetParam();
  cfg.starvation_threshold = 4;
  stm::init(cfg);

  enum class Pin { None, Writer, WriterAndRival };
  const struct {
    Pin pin;
    const char* name;
    std::uint64_t hold_ns;
  } inputs[] = {{Pin::None, "unpinned", kWriterHoldNs},
                {Pin::Writer, "pinned", kWriterHoldNs},
                {Pin::WriterAndRival, "pinned-rival", 0}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.name);
    liveness::contention().reset();
    stm::tvar<std::uint64_t> x{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> rival_pins{false};
    std::atomic<std::uint64_t> hammer_commits{0};
    std::vector<std::thread> hammers;
    for (int i = 0; i < 2; ++i) {
      const bool pins = i == 0 && input.pin == Pin::WriterAndRival;
      hammers.emplace_back([&, i, pins] {
        Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(i));
        TxLock held;
        if (pins) {
          held.acquire();
          rival_pins.store(true);
        }
        while (!stop.load()) {
          stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
          hammer_commits.fetch_add(1);
          jitter(rng);
        }
        if (pins) held.release();
      });
    }
    if (input.pin == Pin::WriterAndRival) spin_until(rival_pins);
    // The hammer is running before the writer starts.
    while (hammer_commits.load() < 100) std::this_thread::yield();

    TxLock pinned;
    if (input.pin != Pin::None) pinned.acquire();
    for (std::uint32_t i = 0; i < cfg.starvation_threshold; ++i) {
      liveness::contention().on_conflict_abort();
    }
    std::uint64_t attempts = 0;
    const std::uint64_t start = now_ns();
    stm::atomic([&](stm::Tx& tx) {
      ++attempts;
      const std::uint64_t v = x.get(tx);
      const std::uint64_t until = now_ns() + input.hold_ns;
      while (now_ns() < until) {
      }
      x.set(tx, v + 1'000'000);
    });
    const std::uint64_t elapsed = now_ns() - start;
    if (input.pin != Pin::None) pinned.release();
    stop.store(true);
    for (auto& t : hammers) t.join();
    RecordProperty(std::string(input.name) + "_ns", std::to_string(elapsed));
    RecordProperty(std::string(input.name) + "_attempts",
                   std::to_string(attempts));
    EXPECT_LT(elapsed, kPromptNs) << "starved writer stalled " << elapsed;
    EXPECT_GE(x.load_direct(), 1'000'000u);
  }
}

// A thread dies holding a TxLock while waiters are parked behind it. The
// park must resolve promptly via the thread-exit watch — under CGL this
// is the regression for the old deadline-only gap: nothing committed, so
// only the new exit-hook wakeup (or the tick re-check) can move waiters.
TEST_P(ScheduleStressTest, DeadOwnerParkResolvesPromptly) {
  TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> die{false};
  std::thread owner([&] {
    lock.acquire();
    held.store(true);
    spin_until(die);
    // exits holding the lock
  });
  spin_until(held);

  std::atomic<int> orphaned{0};
  std::atomic<int> timeouts{0};
  const std::uint64_t start = now_ns();
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&, i] {
      Xoshiro256 rng(kSeed * 31 + static_cast<std::uint64_t>(i));
      jitter(rng);
      try {
        stm::atomic([&](stm::Tx& tx) {
          lock.subscribe(tx, Deadline::at(start + kBackstopNs));
        });
      } catch (const TxLockOrphaned&) {
        orphaned.fetch_add(1);
      } catch (const stm::RetryTimeout&) {
        timeouts.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(50ms);  // everyone parks behind a live owner
  die.store(true);
  owner.join();
  for (auto& t : waiters) t.join();
  const std::uint64_t elapsed = now_ns() - start;
  EXPECT_EQ(orphaned.load(), 2);
  EXPECT_EQ(timeouts.load(), 0) << "dead owner noticed only at deadline";
  EXPECT_LT(elapsed, kPromptNs) << "orphan detection too slow: " << elapsed;
}

// Regression: a cv waiter that leaves its park via RetryTimeout (or any
// re-execution) must not leave a stale wait edge behind — a later real
// cycle must still be detected, and a stale edge must not fabricate one.
TEST_P(ScheduleStressTest, TimedOutCvEdgeIsRetractedThenRealCycleDetected) {
  TxCondVar lonely;  // never notified; no notifier registered
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 lonely.wait(tx, Deadline::at(now_ns() + 5'000'000));
               }),
               stm::RetryTimeout);
  // The edge died with the park: nothing published, nothing to cycle on.
  EXPECT_FALSE(liveness::has_wait_edge());
  for (const auto& e : liveness::snapshot_wait_edges()) {
    EXPECT_NE(e.entity, static_cast<const void*>(&lonely));
  }

  // And the detector still works after the timeout episode: build the
  // same two-thread cv cycle and expect a detection, not a timeout.
  TxCondVar cv_a, cv_b;
  stm::tvar<int> resolved{0};
  std::atomic<int> deadlocks{0};
  std::atomic<int> timeouts{0};
  std::atomic<bool> reg_a{false}, reg_b{false};
  const std::uint64_t start = now_ns();
  auto waiter = [&](TxCondVar& mine, std::atomic<bool>& mine_reg,
                    TxCondVar& other, std::atomic<bool>& other_reg) {
    mine.set_notifier();
    mine_reg.store(true);
    spin_until(other_reg);
    try {
      stm::atomic([&](stm::Tx& tx) {
        if (resolved.get(tx) != 0) return;
        other.wait(tx, Deadline::at(start + kBackstopNs));
      });
    } catch (const liveness::DeadlockError&) {
      deadlocks.fetch_add(1);
      stm::atomic([&](stm::Tx& tx) { resolved.set(tx, 1); });
    } catch (const stm::RetryTimeout&) {
      timeouts.fetch_add(1);
      stm::atomic([&](stm::Tx& tx) { resolved.set(tx, 1); });
    }
    mine.clear_notifier();
  };
  std::thread t1(waiter, std::ref(cv_a), std::ref(reg_a), std::ref(cv_b),
                 std::ref(reg_b));
  std::thread t2(waiter, std::ref(cv_b), std::ref(reg_b), std::ref(cv_a),
                 std::ref(reg_a));
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_EQ(timeouts.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, ScheduleStressTest, test::AllAlgos(),
                         test::algo_param_name);

}  // namespace
}  // namespace adtm
