// The backend table: enumeration order, lookup, each backend's Algo,
// the lazy default resolution and init-time selection.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/runtime_config.hpp"

#include "stm/backend.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

TEST(BackendRegistry, BuiltinsEnumerateInAlgoOrderWithDenseIndices) {
  const auto table = stm::backends();
  ASSERT_EQ(table.size(), 6u);
  const char* ids[] = {"tl2", "eager", "cgl", "htmsim", "norec", "2pl"};
  const char* names[] = {"TL2", "Eager", "CGL", "HTMSim", "NOrec", "2PL"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_STREQ(table[i].id, ids[i]);
    EXPECT_STREQ(table[i].name, names[i]);
    EXPECT_EQ(table[i].obs_index(), i);
  }
}

TEST(BackendRegistry, FindMatchesIdAndDisplayName) {
  EXPECT_EQ(stm::find_backend("tl2"), stm::find_backend("TL2"));
  EXPECT_EQ(stm::find_backend("2pl"), stm::find_backend("2PL"));
  EXPECT_NE(stm::find_backend("2pl"), nullptr);
  EXPECT_EQ(stm::find_backend("no-such-backend"), nullptr);
  EXPECT_EQ(stm::find_backend(""), nullptr);
}

TEST(BackendRegistry, CapabilityFlags) {
  EXPECT_EQ(stm::find_backend("tl2")->algo, stm::Algo::TL2);
  EXPECT_EQ(stm::find_backend("eager")->algo, stm::Algo::Eager);
  EXPECT_EQ(stm::find_backend("cgl")->algo, stm::Algo::CGL);
  EXPECT_EQ(stm::find_backend("htmsim")->algo, stm::Algo::HTMSim);
  EXPECT_EQ(stm::find_backend("norec")->algo, stm::Algo::NOrec);
  EXPECT_EQ(stm::find_backend("2pl")->algo, stm::Algo::TwoPL);
}

// Needs a process in which no init() has run; ctest runs each test in
// its own. Racing first transactions resolve the default backend once,
// before any of them starts.
TEST(BackendRegistry, LazyDefaultResolvesOnceForRacingFirstTransactions) {
  if (stm::current_backend() != nullptr) {
    GTEST_SKIP() << "init() already ran in this process";
  }
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  stm::tvar<int> counter{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIncrements; ++i) {
        stm::atomic(
            [&](stm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load_direct(), kThreads * kIncrements);
  // The default: ADTM_ALGO when set, else TL2.
  std::string_view expected = runtime_config().algo;
  if (expected.empty()) expected = "tl2";
  EXPECT_EQ(stm::current_backend(), stm::find_backend(expected));
}

TEST(BackendRegistry, ConfigSelectionByNameAndError) {
  stm::init({.backend = "eager"});
  EXPECT_STREQ(stm::current_backend()->id, "eager");
  stm::init({.backend = "2PL"});  // display names work too
  EXPECT_STREQ(stm::current_backend()->id, "2pl");
  for (const char* unknown : {"bogus", "auto"}) {
    EXPECT_THROW(stm::init({.backend = unknown}), std::invalid_argument)
        << unknown;
    // ADTM_ALGO takes the same names.
    const RuntimeConfig saved = runtime_config();
    RuntimeConfig env = saved;
    env.algo = unknown;
    configure(env);
    EXPECT_THROW(stm::init({}), std::invalid_argument) << unknown;
    configure(saved);
  }
  stm::init({.backend = "tl2"});
}

}  // namespace
}  // namespace adtm
