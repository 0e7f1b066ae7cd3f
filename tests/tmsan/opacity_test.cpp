// Opacity stress: every algorithm, seeded conflicting schedules, the
// full checker armed. The assertion is the paper-level guarantee itself:
// no transaction — committed or aborted — ever observes an inconsistent
// snapshot, so the opacity checker must stay silent. Each written value
// is globally unique, so a violation report here would be a provable
// serializability break, not a value collision.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "stm/orec.hpp"
#include "stm/runtime.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDBA5EDULL;

class OpacityStressTest : public test::AlgoTest {
 protected:
  void SetUp() override {
    test::AlgoTest::SetUp();
    tmsan::disable(tmsan::kCheckAll);
    tmsan::reset();
    tmsan::enable(tmsan::kCheckAll);
  }
  void TearDown() override {
    tmsan::disable(tmsan::kCheckAll);
    tmsan::reset();
  }
};

void jitter(Xoshiro256& rng) {
  for (std::uint64_t i = rng.next_below(8); i > 0; --i) {
    std::this_thread::yield();
  }
}

TEST_P(OpacityStressTest, ConflictingSchedulesStayOpaque) {
  constexpr int kThreads = 4;
  constexpr int kWords = 6;  // few words => high conflict rate
  constexpr int kIters = 250;
  static stm::tvar<std::uint64_t> words[kWords];
  for (auto& w : words) {
    stm::atomic([&](stm::Tx& tx) { w.set(tx, 0); });
  }
  tmsan::reset();  // the seeding writes above are not part of the run

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      for (int iter = 0; iter < kIters; ++iter) {
        const auto i = static_cast<int>(rng.next_below(kWords));
        const auto j = static_cast<int>(rng.next_below(kWords));
        if (iter % 3 == 0) {
          // Read-only scan of two words with a yield between the reads —
          // the window where a non-opaque TM hands out torn snapshots.
          stm::atomic([&](stm::Tx& tx) {
            const std::uint64_t a = words[i].get(tx);
            jitter(rng);
            const std::uint64_t b = words[j].get(tx);
            (void)a;
            (void)b;
          });
        } else {
          // Update: read one word, write two, with unique values — the
          // value encodes (thread, iteration, word), so no two commits
          // ever publish the same value to the opacity history.
          stm::atomic([&](stm::Tx& tx) {
            (void)words[j].get(tx);
            jitter(rng);
            const auto tag = (static_cast<std::uint64_t>(t + 1) << 40) |
                             (static_cast<std::uint64_t>(iter + 1) << 8);
            words[i].set(tx, tag | static_cast<std::uint64_t>(i));
            words[j].set(tx, tag | static_cast<std::uint64_t>(j));
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tmsan::violation_count(tmsan::ViolationKind::OpacityViolation),
            0u)
      << tmsan::report();
  // A purely transactional workload has no mixed-mode or deferral
  // surface either: the armed sanitizer must be completely silent.
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, OpacityStressTest, test::AllAlgos(),
                         test::algo_param_name);

// stm::init between phases changes which clock keys the opacity history:
// the version clock under TL2, the NOrec sequence under NOrec. init lifts
// both to one even value, so every commit after the change keys above
// every commit before it. Each phase commits one write, reads that word
// together with one the last phase wrote at its highest key, then runs
// its own clock up. Were the first write keyed below the last phase's,
// no point in key order would hold both values the read saw, and the
// checker would report it.
TEST(BackendChangeOpacity, Tl2NorecTl2KeepsCommitKeysMonotonic) {
  tmsan::disable(tmsan::kCheckAll);
  tmsan::reset();
  tmsan::enable(tmsan::kCheckOpacity);
  static stm::tvar<std::uint64_t> fresh{0}, stale{0};
  std::uint64_t next = 1;  // every write is unique
  for (const char* backend : {"tl2", "norec", "tl2"}) {
    stm::init({.backend = backend});
    const std::uint64_t clock =
        stm::detail::g_clock->load(std::memory_order_relaxed);
    const std::uint64_t seq =
        stm::detail::runtime().norec_seq.load(std::memory_order_relaxed);
    EXPECT_EQ(clock, seq) << backend;
    EXPECT_EQ(clock % 2, 0u) << backend;
    stm::atomic([&](stm::Tx& tx) { fresh.set(tx, next++); });
    stm::atomic([&](stm::Tx& tx) {
      (void)fresh.get(tx);
      (void)stale.get(tx);
    });
    for (int i = 0; i < 32; ++i) {
      stm::atomic([&](stm::Tx& tx) { fresh.set(tx, next++); });
    }
    stm::atomic([&](stm::Tx& tx) { stale.set(tx, next++); });
  }
  EXPECT_EQ(tmsan::violation_count(), 0u) << tmsan::report();
  tmsan::disable(tmsan::kCheckAll);
  tmsan::reset();
  stm::init({.backend = "tl2"});
}

}  // namespace
}  // namespace adtm
