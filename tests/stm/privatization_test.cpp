// Privatization safety (paper §2): after a transaction unlinks an object
// from a shared structure, the thread may access it non-transactionally;
// quiescence must prevent still-running transactions from racing with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

using test::AlgoTest;

class PrivatizationTest : public AlgoTest {};

// A one-slot "mailbox": the producer publishes a buffer, mutator
// transactions increment both fields keeping them equal, and the
// privatizer unlinks the buffer and then reads it NON-transactionally.
// Without quiescence a mutator still writing back could be observed
// mid-update (fields unequal). Returns the number of torn reads.
long privatize_rounds(int mutator_threads, int rounds) {
  struct Buf {
    stm::tvar<long> a{0};
    stm::tvar<long> b{0};
  };

  long violations = 0;
  for (int round = 0; round < rounds; ++round) {
    Buf buf;
    stm::tvar<Buf*> shared{&buf};
    std::atomic<bool> stop{false};

    std::vector<std::thread> mutators;
    for (int m = 0; m < mutator_threads; ++m) {
      mutators.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          stm::atomic([&](stm::Tx& tx) {
            Buf* p = shared.get(tx);
            if (p == nullptr) return;
            p->a.set(tx, p->a.get(tx) + 1);
            p->b.set(tx, p->b.get(tx) + 1);
          });
        }
      });
    }

    // Privatize: unlink, then read directly (no transaction).
    Buf* mine =
        stm::atomic([&](stm::Tx& tx) {
          Buf* p = shared.get(tx);
          shared.set(tx, nullptr);
          return p;
        });
    const long a = mine->a.load_direct();
    const long b = mine->b.load_direct();
    if (a != b) ++violations;

    stop.store(true);
    for (auto& t : mutators) t.join();
  }
  return violations;
}

TEST_P(PrivatizationTest, PrivatizedObjectIsQuiescent) {
  EXPECT_EQ(privatize_rounds(2, 300), 0);
}

// More threads than cores: quiescence outlasts its spin window and must
// yield for the transactions it waits on to finish.
TEST_P(PrivatizationTest, PrivatizedObjectIsQuiescentOversubscribed) {
  const int cores =
      static_cast<int>(std::min(16u, std::max(1u, std::thread::hardware_concurrency())));
  EXPECT_EQ(privatize_rounds(4 * cores, 30), 0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, PrivatizationTest, test::AllAlgos(),
                         test::algo_param_name);

TEST(Quiescence, WriterCommitWaitsForConcurrentReaders) {
  // Direct probe of quiesce_until: hard to observe without timing, so we
  // assert the documented counter moves under forced overlap.
  stm::init({.backend = "tl2"});
  stats().reset();

  stm::tvar<long> x{0};
  std::atomic<bool> reader_in_tx{false};
  std::atomic<bool> release_reader{false};

  std::thread reader([&] {
    stm::atomic([&](stm::Tx& tx) {
      (void)x.get(tx);
      reader_in_tx.store(true);
      // Hold the transaction open until released.
      while (!release_reader.load()) std::this_thread::yield();
    });
  });

  while (!reader_in_tx.load()) std::this_thread::yield();

  std::thread writer([&] {
    stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });
  });

  // Give the writer time to reach quiescence, then release the reader.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_reader.store(true);
  writer.join();
  reader.join();

  EXPECT_GE(stats().total(Counter::QuiesceWaits), 1u);
}

}  // namespace
}  // namespace adtm
