// Write-ahead log: durability ordering, group commit, crash recovery.
#include "wal/wal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "io/posix_file.hpp"
#include "io/temp_dir.hpp"
#include "support/algo_param.hpp"

namespace adtm::wal {
namespace {

using test::AlgoTest;

class WalTest : public AlgoTest {
 protected:
  io::TempDir dir_{"adtm-wal"};
  std::string log_path() const { return dir_.file("wal.log"); }
};

TEST_P(WalTest, AppendAssignsSequentialLsns) {
  WriteAheadLog log(log_path());
  EXPECT_EQ(log.append("one"), 1u);
  EXPECT_EQ(log.append("two"), 2u);
  EXPECT_EQ(log.append("three"), 3u);
  log.flush();
  EXPECT_EQ(log.durable_lsn_direct(), 3u);
}

TEST_P(WalTest, RecordsAreDurableAfterAtomicReturns) {
  WriteAheadLog log(log_path());
  const Lsn lsn = log.append("payload");
  // The deferred op completes before atomic() returns, so:
  stm::atomic([&](stm::Tx& tx) { EXPECT_TRUE(log.is_durable(tx, lsn)); });
  const auto recovered = WriteAheadLog::recover(log_path());
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0], "payload");
  EXPECT_TRUE(recovered.clean);
}

TEST_P(WalTest, WaitDurableBlocksUntilFlushed) {
  WriteAheadLog log(log_path());
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    stm::atomic([&](stm::Tx& tx) { log.wait_durable(tx, 1); });
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  log.append("record");
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_P(WalTest, ConcurrentAppendsAllRecoverInLsnOrder) {
  WriteAheadLog log(log_path());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.append("t" + std::to_string(t) + ":" + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  log.flush();

  const auto recovered = WriteAheadLog::recover(log_path());
  EXPECT_TRUE(recovered.clean);
  ASSERT_EQ(recovered.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Each thread's records come back exactly as appended, in LSN order:
  // 0..kPerThread-1. A record lost to a re-executed append shows up as an
  // empty payload plus a gap in its thread's sequence.
  std::vector<std::vector<int>> seen(kThreads);
  for (const auto& rec : recovered.records) {
    ASSERT_FALSE(rec.empty()) << "an append logged an empty record";
    const std::size_t colon = rec.find(':');
    ASSERT_NE(colon, std::string::npos) << rec;
    const int t = std::stoi(rec.substr(1, colon - 1));
    ASSERT_TRUE(t >= 0 && t < kThreads) << rec;
    seen[t].push_back(std::stoi(rec.substr(colon + 1)));
  }
  std::vector<int> expected(kPerThread);
  for (int i = 0; i < kPerThread; ++i) expected[i] = i;
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expected) << "t" << t;
}

TEST_P(WalTest, GroupCommitBatchesFsyncs) {
  WriteAheadLog log(log_path());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) log.append("x");
    });
  }
  for (auto& th : threads) th.join();
  log.flush();
  const std::uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(log.durable_lsn_direct(), total);
  // The point of group commit: fewer fsyncs than records. With threads
  // interleaving there must be some batching; single-threaded sections
  // degrade to one fsync per record, so just require *any* combining.
  EXPECT_LT(log.fsync_count(), total);
}

TEST_P(WalTest, AppendComposesWithLargerTransaction) {
  WriteAheadLog log(log_path());
  stm::tvar<long> applied{0};
  // Log-then-apply: the WAL record and the state change commit atomically.
  stm::atomic([&](stm::Tx& tx) {
    log.append(tx, "apply:+42");
    applied.set(tx, applied.get(tx) + 42);
  });
  EXPECT_EQ(applied.load_direct(), 42);
  const auto recovered = WriteAheadLog::recover(log_path());
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0], "apply:+42");
}

TEST_P(WalTest, ReopenResumesAfterExistingRecords) {
  {
    WriteAheadLog log(log_path());
    log.append("first");
    log.append("second");
  }
  WriteAheadLog reopened(log_path());
  EXPECT_EQ(reopened.durable_lsn_direct(), 2u);
  EXPECT_EQ(reopened.append("third"), 3u);
  reopened.flush();
  const auto recovered = WriteAheadLog::recover(log_path());
  ASSERT_EQ(recovered.records.size(), 3u);
  EXPECT_EQ(recovered.records[2], "third");
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, WalTest, test::AllAlgos(),
                         test::algo_param_name);

// --- recovery corner cases (algorithm-independent) -----------------------

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { stm::init({.backend = "tl2"}); }
  io::TempDir dir_{"adtm-wal-rec"};
  std::string log_path() const { return dir_.file("wal.log"); }

  void write_log(int records) {
    WriteAheadLog log(log_path());
    for (int i = 0; i < records; ++i) {
      log.append("record-" + std::to_string(i));
    }
    log.flush();
  }
};

TEST_F(WalRecoveryTest, MissingFileIsEmptyClean) {
  const auto r = WriteAheadLog::recover(dir_.file("nope"));
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.clean);
}

TEST_F(WalRecoveryTest, TornTailIsCut) {
  write_log(5);
  // Simulate a crash mid-write: append half a record.
  {
    io::PosixFile f = io::PosixFile::open_append(log_path());
    const char garbage[] = {0x20, 0x00, 0x00, 0x00, 0x11, 0x22};  // len=32,
    f.write_fully(garbage, sizeof(garbage));  // but only 6 bytes present
  }
  const auto r = WriteAheadLog::recover(log_path());
  EXPECT_FALSE(r.clean);
  ASSERT_EQ(r.records.size(), 5u);
  EXPECT_EQ(r.records[4], "record-4");

  // recover_and_truncate leaves a clean log.
  (void)WriteAheadLog::recover_and_truncate(log_path());
  const auto again = WriteAheadLog::recover(log_path());
  EXPECT_TRUE(again.clean);
  EXPECT_EQ(again.records.size(), 5u);
}

TEST_F(WalRecoveryTest, CorruptRecordStopsRecovery) {
  write_log(6);
  // Flip one payload byte of record 3.
  std::string data = io::read_file(log_path());
  // Record layout: 8-byte header + payload "record-i" (8 bytes) each.
  const std::size_t rec_size = 8 + 8;
  const std::size_t target = 3 * rec_size + 8 + 2;  // inside payload 3
  data[target] = static_cast<char>(data[target] ^ 0xFF);
  io::write_file(log_path(), data);

  const auto r = WriteAheadLog::recover(log_path());
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.records.size(), 3u);  // records 0..2 survive
}

TEST_F(WalRecoveryTest, ReopenAfterTornTailResumesNumbering) {
  write_log(4);
  {
    io::PosixFile f = io::PosixFile::open_append(log_path());
    f.write_fully("junk", 4);
  }
  WriteAheadLog log(log_path());  // recovers + truncates on open
  EXPECT_EQ(log.durable_lsn_direct(), 4u);
  EXPECT_EQ(log.append("fresh"), 5u);
  log.flush();
  const auto r = WriteAheadLog::recover(log_path());
  EXPECT_TRUE(r.clean);
  ASSERT_EQ(r.records.size(), 5u);
  EXPECT_EQ(r.records[4], "fresh");
}

TEST_F(WalRecoveryTest, EmptyLogRoundTrips) {
  { WriteAheadLog log(log_path()); }
  const auto r = WriteAheadLog::recover(log_path());
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.records.empty());
}

}  // namespace
}  // namespace adtm::wal
