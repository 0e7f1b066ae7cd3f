// Fault injection against the WAL's deferred group commit: transient
// faults (short write, EINTR, ENOSPC) are retried and recovered with no
// data loss; permanent faults (fsync EIO, exhausted retry budgets, crash
// points) poison the log, which then fails fast — append/flush/
// wait_durable raise, blocked subscribers wake, nothing hangs — and a
// reopen recovers the valid prefix.
#include <gtest/gtest.h>

#include <cerrno>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "faultsim/faultsim.hpp"
#include "io/temp_dir.hpp"
#include "stm/api.hpp"
#include "wal/wal.hpp"

namespace adtm::wal {
namespace {

class WalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stm::init({.backend = "tl2"});
    faultsim::engine().disarm();
    stats().reset();
  }
  void TearDown() override { faultsim::engine().disarm(); }

  io::TempDir dir_{"adtm-walfault"};
};

TEST_F(WalFaultTest, ShortWritesLoseNoData) {
  const std::string path = dir_.file("wal.log");
  {
    WriteAheadLog log(path);
    // Every write capped at 5 bytes, forever: group commit degrades to
    // many small writes but must stay byte-exact.
    faultsim::engine().arm({.op = faultsim::Op::Write,
                            .fault = faultsim::Fault::short_write(5),
                            .count = 0});
    for (int i = 0; i < 20; ++i) {
      log.append("record-" + std::to_string(i) + std::string(40, 'x'));
    }
    log.flush();
    EXPECT_FALSE(log.failed());
    EXPECT_GT(faultsim::engine().injected(faultsim::Op::Write), 0u);
  }
  faultsim::engine().disarm();
  const auto r = WriteAheadLog::recover(path);
  EXPECT_TRUE(r.clean);
  ASSERT_EQ(r.records.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(r.records[static_cast<std::size_t>(i)],
              "record-" + std::to_string(i) + std::string(40, 'x'));
  }
}

TEST_F(WalFaultTest, TransientEintrOnWriteIsRetried) {
  const std::string path = dir_.file("wal.log");
  WriteAheadLog log(path);
  faultsim::engine().arm({.op = faultsim::Op::Write,
                          .fault = faultsim::Fault::error(EINTR),
                          .count = 6});
  log.append("survives-eintr");
  log.flush();
  EXPECT_FALSE(log.failed());
  EXPECT_EQ(log.durable_lsn_direct(), 1u);
  EXPECT_EQ(faultsim::engine().injected(faultsim::Op::Write), 6u);
  faultsim::engine().disarm();
  const auto r = WriteAheadLog::recover(path);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "survives-eintr");
}

TEST_F(WalFaultTest, TransientEnospcIsRetriedWithinBudget) {
  const std::string path = dir_.file("wal.log");
  WriteAheadLog log(path);
  // Three ENOSPC failures, then space "frees up": the bounded-retry
  // policy (default budget 8) must absorb them.
  faultsim::engine().arm({.op = faultsim::Op::Write,
                          .fault = faultsim::Fault::error(ENOSPC),
                          .count = 3});
  log.append("survives-enospc");
  log.flush();
  EXPECT_FALSE(log.failed());
  EXPECT_GE(stats().total(Counter::FailureRetries), 3u);
  faultsim::engine().disarm();
  const auto r = WriteAheadLog::recover(path);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "survives-enospc");
}

TEST_F(WalFaultTest, PermanentFsyncFailurePoisonsTheLog) {
  const std::string path = dir_.file("wal.log");
  WriteAheadLog log(path);
  log.append("healthy");
  log.flush();

  faultsim::engine().arm({.op = faultsim::Op::Fsync,
                          .fault = faultsim::Fault::error(EIO),
                          .count = 0});
  // The deferred group commit fails permanently; the failure surfaces on
  // the committing thread, after commit, as the paper's model dictates.
  EXPECT_THROW(log.append("doomed"), std::system_error);
  EXPECT_TRUE(log.failed());
  EXPECT_NE(log.failure_reason(), "");
  EXPECT_GE(stats().total(Counter::FailureEscalations), 1u);

  // Terminal state: every entry point raises cleanly, nothing hangs.
  EXPECT_THROW(log.append("after-poison"), std::runtime_error);
  EXPECT_THROW(log.flush(), std::runtime_error);
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) { log.wait_durable(tx, 2); }),
               std::runtime_error);

  // Recovery path: reopen on the same file. The "doomed" record's bytes
  // reached the file (only its fsync failed), so recovery may legally
  // resurrect it — a WAL promises at-least the acknowledged prefix.
  faultsim::engine().disarm();
  WriteAheadLog reopened(path);
  EXPECT_FALSE(reopened.failed());
  EXPECT_EQ(reopened.durable_lsn_direct(), 2u);
  reopened.append("after-recovery");
  reopened.flush();
  const auto r = WriteAheadLog::recover(path);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0], "healthy");
  EXPECT_EQ(r.records[1], "doomed");
  EXPECT_EQ(r.records[2], "after-recovery");
}

TEST_F(WalFaultTest, ExhaustedRetryBudgetPoisonsInsteadOfHanging) {
  const std::string path = dir_.file("wal.log");
  WriteAheadLog log(path);
  log.set_failure_policy({.max_retries = 2,
                          .backoff_min_spins = 4,
                          .backoff_max_spins = 64,
                          .retryable = nullptr,
                          .escalate = nullptr});
  faultsim::engine().arm({.op = faultsim::Op::Write,
                          .fault = faultsim::Fault::error(ENOSPC),
                          .count = 0});  // the disk never recovers
  EXPECT_THROW(log.append("never-lands"), std::system_error);
  EXPECT_TRUE(log.failed());
  EXPECT_EQ(stats().total(Counter::FailureRetries), 2u);
  EXPECT_GE(stats().total(Counter::FailureEscalations), 1u);
}

TEST_F(WalFaultTest, DefaultPolicyBurnsTheFullRetryBudgetThenPoisons) {
  // A persistent transient-class fault under the log's default policy:
  // exactly 8 backed-off retries, then escalation poisons the log.
  WriteAheadLog log(dir_.file("wal.log"));
  faultsim::engine().arm({.op = faultsim::Op::Fsync,
                          .fault = faultsim::Fault::error(ENOSPC),
                          .count = 0});
  EXPECT_THROW(log.append("doomed"), std::system_error);
  EXPECT_EQ(stats().total(Counter::FailureRetries), 8u);
  EXPECT_GE(stats().total(Counter::FailureEscalations), 1u);
  EXPECT_TRUE(log.failed());
  // Poisoned: the next entry fails fast, with no fresh retries.
  EXPECT_THROW(log.flush(), std::runtime_error);
  EXPECT_EQ(stats().total(Counter::FailureRetries), 8u);
}

TEST_F(WalFaultTest, PoisoningWakesBlockedSubscribers) {
  const std::string path = dir_.file("wal.log");
  WriteAheadLog log(path);

  std::atomic<bool> waiter_raised{false};
  std::atomic<bool> waiter_started{false};
  std::thread waiter([&] {
    try {
      waiter_started.store(true);
      stm::atomic([&](stm::Tx& tx) { log.wait_durable(tx, 1); });
    } catch (const std::runtime_error&) {
      waiter_raised.store(true);
    }
  });
  while (!waiter_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  faultsim::engine().arm({.op = faultsim::Op::Fsync,
                          .fault = faultsim::Fault::error(EIO),
                          .count = 0});
  EXPECT_THROW(log.append("doomed"), std::system_error);
  // The waiter must wake via the transactional failed_ flag and raise —
  // a hang here would time the whole suite out.
  waiter.join();
  EXPECT_TRUE(waiter_raised.load());
}

TEST_F(WalFaultTest, CrashPointMidGroupCommitIsRecoverable) {
  const std::string path = dir_.file("wal.log");
  {
    WriteAheadLog log(path);
    log.append("before-crash-1");
    log.append("before-crash-2");
    log.flush();

    // Crash 10 bytes into the next group-commit write: the batch of
    // three records tears mid-record.
    faultsim::engine().arm({.op = faultsim::Op::Write,
                            .fault = faultsim::Fault::crash(10)});
    EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                   log.append(tx, "lost-a" + std::string(30, 'a'));
                   log.append(tx, "lost-b" + std::string(30, 'b'));
                   log.append(tx, "lost-c" + std::string(30, 'c'));
                 }),
                 faultsim::SimulatedCrash);
    EXPECT_TRUE(log.failed());
    // In-memory state is abandoned here, as in a real crash: the log
    // object is poisoned and dropped.
  }
  faultsim::engine().disarm();

  const auto r = WriteAheadLog::recover(path);
  EXPECT_FALSE(r.clean);  // torn tail detected
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0], "before-crash-1");
  EXPECT_EQ(r.records[1], "before-crash-2");

  // Reopen truncates the tear and the log is fully usable again.
  WriteAheadLog reopened(path);
  EXPECT_EQ(reopened.durable_lsn_direct(), 2u);
  reopened.append("after-reopen");
  reopened.flush();
  const auto again = WriteAheadLog::recover(path);
  EXPECT_TRUE(again.clean);
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2], "after-reopen");
}

}  // namespace
}  // namespace adtm::wal
