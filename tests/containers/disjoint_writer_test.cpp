// A transaction that changes a container's size must not abort, or
// block, a concurrent transaction that works on a far key of the same
// container. Run over every orec-based backend, where conflicts are
// decided per 64-byte line: a size counter sharing a line with the
// root pointer, or a single counter every writer updates, shows up here
// as an abort of A or as B stuck behind A's locks.
//
// Protocol: B builds and preloads the container; A opens a transaction
// on a near key and, in its first attempt only, waits on a latch; B
// inserts and removes a far key and commits; A then finishes. Every
// wait is bounded, so a conflict fails the test instead of hanging it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "stm/api.hpp"
#include "containers/container_ops.hpp"
#include "support/algo_param.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::containers {
namespace {

using test::BTreeOps;
using test::HashMapOps;
using test::RbTreeOps;
using test::SkipListOps;

constexpr auto kLatch = std::chrono::seconds(5);
constexpr long kKeys = 1024;    // preload: the even keys 0, 2, ..., 2046
constexpr long kNearKey = 64;   // thread A's key
constexpr long kFarKey = 1501;  // thread B's key: odd, so absent

bool await(const std::atomic<bool>& flag) {
  const auto until = std::chrono::steady_clock::now() + kLatch;
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::yield();
  }
  return true;
}

// Makes this thread's next skip-list insert draw a tower of height 1 (its
// first coin lands tails). Short towers around both keys keep each
// thread's upper-level descent off the other's nodes. The other
// containers never draw.
void pin_unit_tower() {
  std::uint64_t seed = 1;
  while ((Xoshiro256{seed}.next() & 1) != 0) ++seed;
  thread_rng().reseed(seed);
}

bool near_a_or_b(long k) {
  return std::labs(k - kNearKey) <= 8 || std::labs(k - kFarKey) <= 8;
}

enum class AMode { Reads, Inserts };

template <typename Ops>
void run_disjoint(AMode mode) {
  using Map = typename Ops::Map;
  std::unique_ptr<Map> map;
  std::atomic<bool> loaded{false};
  std::atomic<bool> a_waiting{false};
  std::atomic<bool> b_committed{false};

  // B builds the container itself, so the container, its nodes and B's
  // insert come from one contiguous heap region: no two lines A and B
  // touch can share an orec, or a 2PL reader slot, by hash collision.
  std::thread b([&] {
    map = std::make_unique<Map>();
    for (long base = 0; base < 2 * kKeys; base += 128) {
      stm::atomic([&](stm::Tx& tx) {
        for (long k = base; k < base + 128; k += 2) {
          if (near_a_or_b(k)) pin_unit_tower();
          Ops::insert(tx, *map, k);
        }
      });
    }
    loaded.store(true, std::memory_order_release);
    if (!await(a_waiting)) return;
    stm::atomic([&](stm::Tx& tx) {
      pin_unit_tower();
      Ops::insert(tx, *map, kFarKey);
      Ops::remove(tx, *map, kFarKey);
    });
    b_committed.store(true, std::memory_order_release);
  });
  if (!await(loaded)) {
    b.join();
    FAIL() << "preload did not finish";
  }

  const std::uint64_t aborts_before = stats().total(Counter::TxAbortConflict);
  int attempts = 0;
  bool b_in_window = false;
  stm::atomic([&](stm::Tx& tx) {
    ++attempts;
    if (mode == AMode::Inserts) {
      pin_unit_tower();
      Ops::insert(tx, *map, kNearKey + 1);
    } else {
      EXPECT_TRUE(map->contains(tx, kNearKey));
    }
    if (tx.attempt() == 1) {
      a_waiting.store(true, std::memory_order_release);
      b_in_window = await(b_committed);
    }
    // Read again after B's commit: an invisible reader revalidates here
    // when it meets a newer version.
    EXPECT_TRUE(map->contains(tx, kNearKey));
  });
  b.join();

  EXPECT_TRUE(b_in_window) << "B could not commit while A was open";
  EXPECT_EQ(attempts, 1) << "A was re-executed";
  EXPECT_EQ(stats().total(Counter::TxAbortConflict) - aborts_before, 0u);
  EXPECT_TRUE(Ops::consistent(*map));
  EXPECT_EQ(map->size_direct(),
            static_cast<std::size_t>(kKeys + (mode == AMode::Inserts)));
}

class DisjointWriterTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    stm::Config cfg;
    cfg.backend = GetParam();
    // Quiescence would hold B inside atomic() until A ends. That wait is
    // privatization safety, not a conflict, and B frees only its own
    // node here.
    cfg.quiescence = false;
    stm::init(cfg);
    stats().reset();
    tmsan::reset();
    tmsan::enable(tmsan::kCheckAll);
  }
  void TearDown() override {
    EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
    tmsan::disable(tmsan::kCheckAll);
    tmsan::reset();
  }
};

TEST_P(DisjointWriterTest, BTreeReaderNeverAborted) {
  run_disjoint<BTreeOps>(AMode::Reads);
}
TEST_P(DisjointWriterTest, SkipListReaderNeverAborted) {
  run_disjoint<SkipListOps>(AMode::Reads);
}
TEST_P(DisjointWriterTest, RbTreeReaderNeverAborted) {
  run_disjoint<RbTreeOps>(AMode::Reads);
}
TEST_P(DisjointWriterTest, HashMapReaderNeverAborted) {
  run_disjoint<HashMapOps>(AMode::Reads);
}

// Two inserters on far keys: each updates only its own stripe of the
// size counter. (The red-black tree and hash map are left out: their
// inserts write a node the inserting thread allocated, and A's heap is
// not B's, so a 2PL reader-slot collision could fail the test by chance.)
TEST_P(DisjointWriterTest, BTreeInsertersNeverConflict) {
  run_disjoint<BTreeOps>(AMode::Inserts);
}
TEST_P(DisjointWriterTest, SkipListInsertersNeverConflict) {
  run_disjoint<SkipListOps>(AMode::Inserts);
}

// The orec-based backends. NOrec validates by value and CGL never aborts.
INSTANTIATE_TEST_SUITE_P(OrecAlgos, DisjointWriterTest,
                         ::testing::Values(std::string("TL2"),
                                           std::string("Eager"),
                                           std::string("HTMSim"),
                                           std::string("2PL")),
                         test::algo_param_name);

}  // namespace
}  // namespace adtm::containers
