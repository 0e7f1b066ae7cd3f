// Per-lock wait/hold statistics: the claim-once table behind
// RunSummary::locks, fed under the trace gate.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace adtm {
namespace {

// Opens the gate with every buffer empty; leaves it closed and empty.
class LockStats : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable();
    obs::clear();
    obs::enable();
  }
  void TearDown() override {
    obs::disable();
    obs::clear();
  }
};

obs::LockSummary lock_summary(const void* lock) {
  for (const obs::LockSummary& l : obs::summary().locks) {
    if (l.lock == lock) return l;
  }
  return {};
}

TEST_F(LockStats, TracksPerLockWaitAndHold) {
  int a, b;
  for (int i = 0; i < 10; ++i) {
    obs::lock_wait_begin(&a);
    obs::lock_wait_end(&a);
  }
  obs::lock_wait_begin(&a);
  obs::lock_wait_begin(&a);  // a re-executed block site keeps the start
  std::this_thread::sleep_for(std::chrono::milliseconds(8));
  obs::lock_wait_end(&b);  // ends only a wait timed on &b: none
  obs::lock_wait_end(&a);
  obs::lock_hold_begin(&a);
  obs::lock_hold_end(&a);
  obs::lock_hold_begin(&b);
  obs::lock_hold_end(&b);

  const obs::LockSummary la = lock_summary(&a);
  const obs::LockSummary lb = lock_summary(&b);
  EXPECT_EQ(la.waits, 11u);
  EXPECT_EQ(la.holds, 1u);
  EXPECT_EQ(lb.waits, 0u);
  EXPECT_EQ(lb.holds, 1u);
  EXPECT_LT(la.wait_p50, 1'000'000u);   // ten of eleven waits are instant
  EXPECT_GE(la.wait_p99, 4'000'000u);   // the slept one, bucket midpoint
  EXPECT_EQ(obs::summary().locks_dropped, 0u);

  const test::Json doc = test::json_parse(obs::summary_json());
  const test::Json& locks = doc.at("locks");
  EXPECT_EQ(locks.at("dropped").number, 0.0);
  ASSERT_EQ(locks.at("entries").array.size(), 2u);
  for (const test::Json& e : locks.at("entries").array) {
    EXPECT_TRUE(e.at("lock").is_string());
    EXPECT_TRUE(e.at("wait_ns").at("p99").is_number());
    EXPECT_TRUE(e.at("hold_ns").at("p50").is_number());
  }
}

TEST_F(LockStats, FullTableCountsDrops) {
  // Distinct heap pointers until the 256-entry table is guaranteed full:
  // every further lock is dropped (counted, not silently merged).
  std::vector<std::unique_ptr<int>> locks;
  for (std::size_t i = 0; i < obs::kLockEntries * 4; ++i) {
    locks.push_back(std::make_unique<int>(0));
    obs::lock_hold_begin(locks.back().get());
    obs::lock_hold_end(locks.back().get());
  }
  const obs::RunSummary s = obs::summary();
  EXPECT_EQ(s.locks.size(), obs::kLockEntries);
  EXPECT_EQ(s.locks.size() + s.locks_dropped, obs::kLockEntries * 4);
  const test::Json doc = test::json_parse(obs::summary_json());
  EXPECT_EQ(doc.at("locks").at("dropped").number,
            static_cast<double>(s.locks_dropped));
}

TEST_F(LockStats, ClosedGateTimesNoWait) {
  obs::disable();
  int a;
  obs::lock_wait_begin(&a);
  obs::enable();
  obs::lock_wait_end(&a);
  EXPECT_EQ(lock_summary(&a).waits, 0u);
}

}  // namespace
}  // namespace adtm
