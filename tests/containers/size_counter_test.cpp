// Striped size counter: exact sums when single stripes wrap, rollback of
// a closed-nested size change, and a stable size(tx) within one
// transaction while other threads insert. Runs tmsan-armed over every
// backend, through the counter itself and through the four containers.
#include "containers/size_counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/thread_id.hpp"
#include "containers/container_ops.hpp"
#include "stm/api.hpp"
#include "support/algo_param.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::containers {
namespace {

using test::AlgoTest;
using test::BTreeOps;
using test::HashMapOps;
using test::RbTreeOps;
using test::SkipListOps;

class SizeCounterTest : public AlgoTest {
 protected:
  void SetUp() override {
    AlgoTest::SetUp();
    tmsan::reset();
    tmsan::enable(tmsan::kCheckAll);
  }
  void TearDown() override {
    EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
    tmsan::disable(tmsan::kCheckAll);
    tmsan::reset();
  }
};

std::size_t stripe_of_this_thread() {
  return thread_id() % TxSizeCounter::kStripes;
}

// Main inserts every key; a second, concurrently live thread (so on
// another stripe) removes the odd ones, which wraps its stripe below
// zero. The sum, and the validators that compare against it, stay exact.
template <typename Ops>
void wrap_stays_exact() {
  constexpr long kKeys = 200;
  typename Ops::Map map;
  stm::atomic([&](stm::Tx& tx) {
    for (long k = 0; k < kKeys; ++k) Ops::insert(tx, map, k);
  });
  std::size_t worker_stripe = 0;
  std::thread worker([&] {
    worker_stripe = stripe_of_this_thread();
    for (long k = 1; k < kKeys; k += 2) {
      stm::atomic([&](stm::Tx& tx) { EXPECT_TRUE(Ops::remove(tx, map, k)); });
    }
  });
  worker.join();
  ASSERT_NE(worker_stripe, stripe_of_this_thread());
  EXPECT_EQ(map.size_direct(), static_cast<std::size_t>(kKeys / 2));
  stm::atomic([&](stm::Tx& tx) {
    EXPECT_EQ(map.size(tx), static_cast<std::size_t>(kKeys / 2));
  });
  EXPECT_TRUE(Ops::consistent(map));
}

TEST_P(SizeCounterTest, BTreeStripesWrapYetTheCountStaysExact) {
  wrap_stays_exact<BTreeOps>();
}
TEST_P(SizeCounterTest, SkipListStripesWrapYetTheCountStaysExact) {
  wrap_stays_exact<SkipListOps>();
}
TEST_P(SizeCounterTest, RbTreeStripesWrapYetTheCountStaysExact) {
  wrap_stays_exact<RbTreeOps>();
}
TEST_P(SizeCounterTest, HashMapStripesWrapYetTheCountStaysExact) {
  wrap_stays_exact<HashMapOps>();
}

template <typename Ops>
void nested_abort_rolls_back() {
  typename Ops::Map map;
  stm::atomic([&](stm::Tx& tx) {
    Ops::insert(tx, map, 1);
    Ops::insert(tx, map, 2);
    stm::atomic_nested([&](stm::Tx& inner) {
      Ops::insert(inner, map, 3);
      Ops::remove(inner, map, 1);
      EXPECT_EQ(map.size(inner), 2u);
      stm::cancel(inner);
    });
    EXPECT_EQ(map.size(tx), 2u);
    Ops::insert(tx, map, 4);
  });
  EXPECT_EQ(map.size_direct(), 3u);
  EXPECT_TRUE(Ops::consistent(map));
}

TEST_P(SizeCounterTest, NestedAbortRollsBackSizeChange) {
  if (GetParam() == "CGL") GTEST_SKIP() << "CGL flattens nested scopes";
  TxSizeCounter count;
  stm::atomic([&](stm::Tx& tx) {
    count.add(tx, 1);
    stm::atomic_nested([&](stm::Tx& inner) {
      count.add(inner, 10);
      stm::cancel(inner);
    });
    EXPECT_EQ(count.get(tx), 1u);
  });
  EXPECT_EQ(count.load_direct(), 1u);
  nested_abort_rolls_back<BTreeOps>();
  nested_abort_rolls_back<SkipListOps>();
  nested_abort_rolls_back<RbTreeOps>();
  nested_abort_rolls_back<HashMapOps>();
}

// Two inserters run while main reads size(tx) twice per transaction, with
// a lookup in between to widen the window. Opacity requires both reads
// to agree.
template <typename Ops>
void size_is_stable_within_a_transaction() {
  constexpr int kInserters = 2;
  constexpr long kPerThread = 300;
  typename Ops::Map map;
  std::atomic<int> running{kInserters};
  std::vector<std::thread> inserters;
  for (int t = 0; t < kInserters; ++t) {
    inserters.emplace_back([&, t] {
      for (long k = 0; k < kPerThread; ++k) {
        const long key = t * kPerThread + k;
        stm::atomic([&](stm::Tx& tx) { Ops::insert(tx, map, key); });
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  int mismatches = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    stm::atomic([&](stm::Tx& tx) {
      const std::size_t first = map.size(tx);
      (void)map.contains(tx, static_cast<long>(first));
      const std::size_t second = map.size(tx);
      if (first != second) ++mismatches;
    });
    std::this_thread::yield();  // under CGL and 2PL, let the writers in
  }
  for (auto& th : inserters) th.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(map.size_direct(),
            static_cast<std::size_t>(kInserters * kPerThread));
  EXPECT_TRUE(Ops::consistent(map));
}

TEST_P(SizeCounterTest, BTreeSizeIsStableWithinATransaction) {
  size_is_stable_within_a_transaction<BTreeOps>();
}
TEST_P(SizeCounterTest, SkipListSizeIsStableWithinATransaction) {
  size_is_stable_within_a_transaction<SkipListOps>();
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, SizeCounterTest, test::AllAlgos(),
                         test::algo_param_name);

}  // namespace
}  // namespace adtm::containers
