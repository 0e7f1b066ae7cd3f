// tmsan negative tests: plant each bug class the sanitizer claims to
// catch, prove the disabled stub misses it, then arm the checker and
// prove it is caught. Plus clean-workload tests showing the armed
// checkers stay silent on correct code (the false-positive budget is
// zero by design).
#include "tmsan/tmsan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "common/runtime_config.hpp"
#include "defer/atomic_defer.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm {
namespace {

// A deferrable object with a transactional field (the defer_test Cell
// idiom): subscribe-guarded transactional accessors plus raw accessors
// for use inside deferred epilogues.
class Cell : public Deferrable {
 public:
  int get(stm::Tx& tx) const {
    subscribe(tx);
    return value_.get(tx);
  }
  void set(stm::Tx& tx, int v) {
    subscribe(tx);
    value_.set(tx, v);
  }
  int raw() const { return value_.load_direct(); }
  void raw_set(int v) { value_.store_direct(v); }

 private:
  stm::tvar<int> value_{0};
};

// Every test starts from a disarmed, empty sanitizer and leaves it that
// way, so the suite composes in any order (including under the tmsan
// preset, where ADTM_TMSAN=1 makes stm::init arm the checkers).
class TmsanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stm::Config cfg;
    cfg.backend = "tl2";
    stm::init(cfg);
    tmsan::disable(tmsan::kCheckAll);
    tmsan::reset();
  }
  void TearDown() override {
    tmsan::disable(tmsan::kCheckAll);
    tmsan::reset();
  }
};

// The planted mixed-mode race: a transaction writes a word, and while it
// is still running another thread stores to the same word directly. The
// flag dance makes the overlap deterministic.
void run_mixed_mode_race() {
  stm::tvar<int> x{0};
  std::atomic<bool> tx_wrote{false};
  std::atomic<bool> raw_done{false};
  std::thread racer([&] {
    while (!tx_wrote.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    x.store_direct(99);  // the bug: unprivatized direct store
    raw_done.store(true, std::memory_order_release);
  });
  stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 1);
    tx_wrote.store(true, std::memory_order_release);
    while (!raw_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // Touch the word again so the transactional side also observes the
    // raw store (both report directions get exercised).
    x.set(tx, 2);
  });
  racer.join();
}

TEST_F(TmsanTest, DisabledStubMissesMixedModeRace) {
  run_mixed_mode_race();
  EXPECT_EQ(tmsan::violation_count(), 0u);
}

TEST_F(TmsanTest, DetectsMixedModeRace) {
  tmsan::enable(tmsan::kCheckRace);
  run_mixed_mode_race();
  EXPECT_GE(tmsan::violation_count(tmsan::ViolationKind::MixedModeRace), 1u);
  // The report carries both sides of at least one race.
  bool saw_both_tids = false;
  for (const tmsan::Violation& v : tmsan::violations()) {
    if (v.kind == tmsan::ViolationKind::MixedModeRace &&
        v.tid_a != v.tid_b) {
      saw_both_tids = true;
    }
  }
  EXPECT_TRUE(saw_both_tids) << tmsan::report();
}

TEST_F(TmsanTest, PrivatizedAccessIsClean) {
  tmsan::enable(tmsan::kCheckRace);
  stm::tvar<int> x{0};
  // Privatization done right: the transaction commits (quiescing) before
  // the direct access, so no transaction is live at the raw store.
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  x.store_direct(2);
  stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
}

// --- direct-mode barriers ---------------------------------------------------

// CGL and serial-irrevocable transactions access words without
// instrumentation, through the barrier's inlined direct branch; the
// sanitizer must still see those accesses. The planted race: while the
// direct-mode transaction has read (or written) x, another thread stores
// to x directly.
enum class DirectAccess { Read, Write };

void run_direct_mode_race(bool irrevocable, DirectAccess access) {
  stm::tvar<int> x{0};
  std::atomic<bool> tx_touched{false};
  std::atomic<bool> raw_done{false};
  std::thread racer([&] {
    while (!tx_touched.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    x.store_direct(99);  // the bug: unprivatized direct store
    raw_done.store(true, std::memory_order_release);
  });
  stm::atomic([&](stm::Tx& tx) {
    // Under TL2 this restarts the body in serial-irrevocable mode before
    // any access; under CGL the body is direct from the start.
    if (irrevocable) stm::become_irrevocable(tx);
    EXPECT_TRUE(tx.irrevocable());
    const auto touch = [&] {
      if (access == DirectAccess::Read) {
        (void)x.get(tx);
      } else {
        x.set(tx, 1);
      }
    };
    touch();
    tx_touched.store(true, std::memory_order_release);
    while (!raw_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    touch();
  });
  racer.join();
}

TEST_F(TmsanTest, SeesCglReadsAndWrites) {
  stm::init({.backend = "cgl"});
  tmsan::enable(tmsan::kCheckRace);
  run_direct_mode_race(false, DirectAccess::Read);
  const std::size_t after_read =
      tmsan::violation_count(tmsan::ViolationKind::MixedModeRace);
  EXPECT_GE(after_read, 1u) << tmsan::report();
  run_direct_mode_race(false, DirectAccess::Write);
  EXPECT_GT(tmsan::violation_count(tmsan::ViolationKind::MixedModeRace),
            after_read)
      << tmsan::report();
}

TEST_F(TmsanTest, SeesSerialIrrevocableReadsAndWrites) {
  tmsan::enable(tmsan::kCheckRace);
  run_direct_mode_race(true, DirectAccess::Read);
  const std::size_t after_read =
      tmsan::violation_count(tmsan::ViolationKind::MixedModeRace);
  EXPECT_GE(after_read, 1u) << tmsan::report();
  run_direct_mode_race(true, DirectAccess::Write);
  EXPECT_GT(tmsan::violation_count(tmsan::ViolationKind::MixedModeRace),
            after_read)
      << tmsan::report();
}

// --- deferral contract -----------------------------------------------------

// The planted coverage bug: the epilogue touches `covered` (declared
// protected by its own TxLock) but its atomic_defer listed only `listed`.
void run_uncovered_epilogue(Cell& covered, Cell& listed) {
  stm::atomic([&](stm::Tx& tx) {
    listed.set(tx, 1);
    atomic_defer(tx, [&] { covered.raw_set(7); }, listed);
  });
}

TEST_F(TmsanTest, DisabledStubMissesUncoveredEpilogue) {
  Cell covered, listed;
  tmsan::cover(&covered, sizeof covered, &covered.txlock());
  run_uncovered_epilogue(covered, listed);
  EXPECT_EQ(tmsan::violation_count(), 0u);
}

TEST_F(TmsanTest, DetectsUncoveredEpilogueAccess) {
  tmsan::enable(tmsan::kCheckDeferral);
  Cell covered, listed;
  tmsan::cover(&covered, sizeof covered, &covered.txlock());
  run_uncovered_epilogue(covered, listed);
  EXPECT_GE(tmsan::violation_count(tmsan::ViolationKind::DeferralUncovered),
            1u);
}

TEST_F(TmsanTest, CoveredEpilogueAccessIsClean) {
  tmsan::enable(tmsan::kCheckDeferral);
  Cell a, b;
  tmsan::cover(&a, sizeof a, &a.txlock());
  tmsan::cover(&b, sizeof b, &b.txlock());
  stm::atomic([&](stm::Tx& tx) {
    a.set(tx, 1);
    atomic_defer(tx, [&] {
      a.raw_set(2);
      b.raw_set(3);
    }, a, b);
  });
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
}

// The planted early-release bug: the transaction registers an epilogue
// under `cell`'s lock, then frees that lock before committing. The
// epilogue later runs unprotected, and its own release of the no-longer-
// held lock throws.
void run_early_release(Cell& cell) {
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 atomic_defer(tx, [] {}, cell);
                 cell.txlock().release(tx);  // the bug
               }),
               std::logic_error);
}

TEST_F(TmsanTest, DisabledStubMissesEarlyLockRelease) {
  Cell cell;
  run_early_release(cell);
  EXPECT_EQ(tmsan::violation_count(), 0u);
}

TEST_F(TmsanTest, DetectsEarlyLockRelease) {
  tmsan::enable(tmsan::kCheckDeferral);
  Cell cell;
  run_early_release(cell);
  EXPECT_GE(tmsan::violation_count(tmsan::ViolationKind::EarlyLockRelease),
            1u);
}

TEST_F(TmsanTest, AbortedDeferWithdrawsPend) {
  tmsan::enable(tmsan::kCheckDeferral);
  Cell cell;
  // An attempt registers a defer, then rolls back (user abort): the pend
  // must be withdrawn, so a later legitimate free transition is clean.
  try {
    stm::atomic([&](stm::Tx& tx) {
      atomic_defer(tx, [] {}, cell);
      throw std::runtime_error("user abort");
    });
  } catch (const std::runtime_error&) {
  }
  cell.txlock().acquire();
  cell.txlock().release();
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
}

// --- opacity (hand-driven through the public hooks) ------------------------

TEST_F(TmsanTest, OpacityFlagsInconsistentCommittedSnapshot) {
  tmsan::enable(tmsan::kCheckOpacity);
  std::uint64_t a = 0, b = 0;
  // Writer 1 commits (a,b) = (1,1); writer 2 commits (2,2).
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 1);
  tmsan::on_tx_write(&b, 1);
  tmsan::on_tx_commit(10);
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 2);
  tmsan::on_tx_write(&b, 2);
  tmsan::on_tx_commit(20);
  // A reader that saw a from before writer 2 and b from after it read a
  // snapshot no single point in commit order can explain.
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 1);
  tmsan::on_tx_read(&b, 2);
  tmsan::on_tx_commit(30);
  EXPECT_EQ(tmsan::violation_count(tmsan::ViolationKind::OpacityViolation),
            1u)
      << tmsan::report();
}

TEST_F(TmsanTest, OpacityChecksAbortedTransactionsToo) {
  tmsan::enable(tmsan::kCheckOpacity);
  std::uint64_t a = 0, b = 0;
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 1);
  tmsan::on_tx_write(&b, 1);
  tmsan::on_tx_commit(10);
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 2);
  tmsan::on_tx_write(&b, 2);
  tmsan::on_tx_commit(20);
  // Same inconsistent snapshot, but the reader aborts: opacity demands
  // aborted transactions observed a consistent prefix as well.
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 1);
  tmsan::on_tx_read(&b, 2);
  tmsan::on_tx_abort();
  EXPECT_EQ(tmsan::violation_count(tmsan::ViolationKind::OpacityViolation),
            1u)
      << tmsan::report();
}

TEST_F(TmsanTest, OpacityAcceptsConsistentSnapshots) {
  tmsan::enable(tmsan::kCheckOpacity);
  std::uint64_t a = 0, b = 0;
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 1);
  tmsan::on_tx_write(&b, 1);
  tmsan::on_tx_commit(10);
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 2);
  tmsan::on_tx_write(&b, 2);
  tmsan::on_tx_commit(20);
  // Both serialization points are fine: (1,1) before writer 2, (2,2)
  // after it, and the pre-history baseline (0,0) before writer 1.
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 1);
  tmsan::on_tx_read(&b, 1);
  tmsan::on_tx_commit(30);
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 2);
  tmsan::on_tx_read(&b, 2);
  tmsan::on_tx_abort();
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
}

TEST_F(TmsanTest, ResumeDropsOnlyTheReadsAfterItsMark) {
  // A TxLock waiter parked in place drops the lock reads it made since
  // the mark and reads again at a fresh snapshot. The reads before the
  // mark stay in the log: the drop must not blind the checker to them.
  tmsan::enable(tmsan::kCheckOpacity);
  std::uint64_t a = 0, b = 0, lock = 0;
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 1);
  tmsan::on_tx_write(&b, 1);
  tmsan::on_tx_write(&lock, 7);
  tmsan::on_tx_commit(10);
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 2);
  tmsan::on_tx_write(&b, 2);
  tmsan::on_tx_write(&lock, 0);
  tmsan::on_tx_commit(20);

  // Dropped: the read of the held lock (7, before writer 2) would clash
  // with the reads after the resume (after writer 2). Clean.
  tmsan::on_tx_begin(false);
  std::size_t mark = tmsan::tx_read_mark();
  tmsan::on_tx_read(&lock, 7);
  tmsan::on_tx_resume(mark);
  tmsan::on_tx_read(&lock, 0);
  tmsan::on_tx_read(&a, 2);
  tmsan::on_tx_commit(30);
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();

  // Kept: a read made before the mark (a = 1, before writer 2) is still
  // checked against the reads after the resume (b = 2, after it).
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 1);
  mark = tmsan::tx_read_mark();
  tmsan::on_tx_read(&lock, 7);
  tmsan::on_tx_resume(mark);
  tmsan::on_tx_read(&b, 2);
  tmsan::on_tx_commit(40);
  EXPECT_EQ(tmsan::violation_count(tmsan::ViolationKind::OpacityViolation),
            1u)
      << tmsan::report();
}

TEST_F(TmsanTest, OpacityCountsUnverifiableReadsInsteadOfGuessing) {
  tmsan::enable(tmsan::kCheckOpacity);
  std::uint64_t a = 0;
  // First observation claims the pre-history baseline (0).
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 0);
  tmsan::on_tx_commit(5);
  tmsan::on_tx_begin(false);
  tmsan::on_tx_write(&a, 1);
  tmsan::on_tx_commit(10);
  // A value that matches neither the baseline nor any committed version
  // (a direct-mode store the checker cannot see): counted, never
  // reported as a violation.
  tmsan::on_tx_begin(false);
  tmsan::on_tx_read(&a, 99);
  tmsan::on_tx_commit(20);
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
  EXPECT_GE(tmsan::opacity_unverifiable_reads(), 1u);
}

// --- stack-capture sampling (ADTM_TMSAN_STACK_SAMPLE) ----------------------

// Swap in a stack-sample rate via adtm::configure and restore the
// process-wide snapshot on scope exit.
class ScopedStackSample {
 public:
  explicit ScopedStackSample(std::uint32_t n) : saved_(runtime_config()) {
    RuntimeConfig cfg = saved_;
    cfg.tmsan_stack_sample = n;
    configure(cfg);
  }
  ~ScopedStackSample() { configure(saved_); }

 private:
  RuntimeConfig saved_;
};

// format_stack renders a sampled-out (depth 0) capture as this marker.
bool is_sampled_out(const std::string& stack) {
  return stack.empty() || stack == "  <no stack>" ||
         stack == "  <backtrace unavailable>";
}

TEST_F(TmsanTest, StackSamplingZeroStillDetectsRaces) {
  ScopedStackSample sample(0);
  tmsan::enable(tmsan::kCheckRace);
  run_mixed_mode_race();
  // Sampling thins the evidence, never the detection: the race is still
  // reported, with the violation-site stack intact and only the shadow
  // (bookkeeping) side missing.
  EXPECT_GE(tmsan::violation_count(tmsan::ViolationKind::MixedModeRace), 1u);
  for (const tmsan::Violation& v : tmsan::violations()) {
    if (v.kind != tmsan::ViolationKind::MixedModeRace) continue;
    EXPECT_TRUE(is_sampled_out(v.stack_b)) << v.stack_b;
  }
}

TEST_F(TmsanTest, DefaultStackSamplingCapturesBothSides) {
  ScopedStackSample sample(1);
  tmsan::enable(tmsan::kCheckRace);
  run_mixed_mode_race();
  ASSERT_GE(tmsan::violation_count(tmsan::ViolationKind::MixedModeRace), 1u);
  bool have_backtrace = false;
  bool saw_shadow_stack = false;
  for (const tmsan::Violation& v : tmsan::violations()) {
    if (v.kind != tmsan::ViolationKind::MixedModeRace) continue;
    if (v.stack_a.find('#') != std::string::npos) have_backtrace = true;
    if (!is_sampled_out(v.stack_b)) saw_shadow_stack = true;
  }
  if (!have_backtrace) GTEST_SKIP() << "backtrace() unavailable here";
  EXPECT_TRUE(saw_shadow_stack) << tmsan::report();
}

// --- clean concurrent workload under every checker -------------------------

TEST_F(TmsanTest, CleanDeferWorkloadReportsNothing) {
  tmsan::enable(tmsan::kCheckAll);
  Cell cell;
  tmsan::cover(&cell, sizeof cell, &cell.txlock());
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      stm::atomic([&](stm::Tx& tx) { (void)cell.get(tx); });
    }
  });
  for (int i = 0; i < 64; ++i) {
    stm::atomic([&](stm::Tx& tx) {
      cell.set(tx, i);
      atomic_defer(tx, [&cell, i] { cell.raw_set(i | 0x1000000); }, cell);
    });
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
}

}  // namespace
}  // namespace adtm
