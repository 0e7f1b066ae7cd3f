// Single-threaded semantics of tvar and atomic() across all algorithms.
#include "stm/tvar.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "support/algo_param.hpp"

namespace adtm {
namespace {

using test::AlgoTest;

class TvarTest : public AlgoTest {};

TEST_P(TvarTest, ReadInitialValue) {
  stm::tvar<int> x{41};
  const int v = stm::atomic([&](stm::Tx& tx) { return x.get(tx); });
  EXPECT_EQ(v, 41);
}

TEST_P(TvarTest, WriteThenReadBack) {
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 17); });
  EXPECT_EQ(x.load_direct(), 17);
}

TEST_P(TvarTest, ReadOwnWriteInsideTransaction) {
  stm::tvar<int> x{1};
  const int seen = stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 2);
    return x.get(tx);
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(x.load_direct(), 2);
}

TEST_P(TvarTest, RepeatedWritesLastOneWins) {
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) {
    for (int i = 1; i <= 10; ++i) x.set(tx, i);
  });
  EXPECT_EQ(x.load_direct(), 10);
}

TEST_P(TvarTest, MultipleVariablesInOneTransaction) {
  stm::tvar<int> a{1}, b{2}, c{3};
  stm::atomic([&](stm::Tx& tx) {
    a.set(tx, b.get(tx) + c.get(tx));
    b.set(tx, 100);
  });
  EXPECT_EQ(a.load_direct(), 5);
  EXPECT_EQ(b.load_direct(), 100);
  EXPECT_EQ(c.load_direct(), 3);
}

TEST_P(TvarTest, ReturnsValueFromBody) {
  stm::tvar<int> x{6};
  const std::string s = stm::atomic(
      [&](stm::Tx& tx) { return std::to_string(x.get(tx) * 7); });
  EXPECT_EQ(s, "42");
}

struct Vec3 {
  double x, y, z;
  bool operator==(const Vec3&) const = default;
};

TEST_P(TvarTest, MultiWordTypeRoundTrips) {
  stm::tvar<Vec3> v{Vec3{1.5, -2.25, 1e9}};
  const Vec3 seen = stm::atomic([&](stm::Tx& tx) { return v.get(tx); });
  EXPECT_EQ(seen, (Vec3{1.5, -2.25, 1e9}));
  stm::atomic([&](stm::Tx& tx) { v.set(tx, Vec3{9, 8, 7}); });
  EXPECT_EQ(v.load_direct(), (Vec3{9, 8, 7}));
}

struct Odd {  // size not a multiple of 8
  char tag;
  std::uint16_t n;
  bool operator==(const Odd&) const = default;
};

TEST_P(TvarTest, OddSizedTypeRoundTrips) {
  stm::tvar<Odd> v{Odd{'a', 777}};
  const Odd seen = stm::atomic([&](stm::Tx& tx) { return v.get(tx); });
  EXPECT_EQ(seen, (Odd{'a', 777}));
}

TEST_P(TvarTest, SmallTypesDoNotClobberNeighbours) {
  // Two byte-sized tvars next to each other: writes must not interfere.
  struct {
    stm::tvar<std::uint8_t> a{10};
    stm::tvar<std::uint8_t> b{20};
  } pair;
  stm::atomic([&](stm::Tx& tx) { pair.a.set(tx, 11); });
  stm::atomic([&](stm::Tx& tx) { pair.b.set(tx, 21); });
  EXPECT_EQ(pair.a.load_direct(), 11);
  EXPECT_EQ(pair.b.load_direct(), 21);
}

TEST_P(TvarTest, PointerTvar) {
  int target = 5;
  stm::tvar<int*> p{nullptr};
  stm::atomic([&](stm::Tx& tx) { p.set(tx, &target); });
  EXPECT_EQ(p.load_direct(), &target);
}

TEST_P(TvarTest, InTransactionFlag) {
  EXPECT_FALSE(stm::in_transaction());
  stm::atomic([&](stm::Tx&) { EXPECT_TRUE(stm::in_transaction()); });
  EXPECT_FALSE(stm::in_transaction());
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, TvarTest, test::AllAlgos(),
                         test::algo_param_name);

// Rollback semantics only hold for speculative algorithms; CGL is a
// direct mode that cannot undo effects (documented in api.hpp).
class RollbackTest : public AlgoTest {};

TEST_P(RollbackTest, ExceptionRollsBackWrites) {
  stm::tvar<int> x{1};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 x.set(tx, 999);
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_EQ(x.load_direct(), 1);
}

TEST_P(RollbackTest, CancelDiscardsEffects) {
  stm::tvar<int> x{1};
  stm::atomic([&](stm::Tx& tx) {
    x.set(tx, 999);
    stm::cancel(tx);
  });
  EXPECT_EQ(x.load_direct(), 1);
}

TEST_P(RollbackTest, CancelSkipsEpilogues) {
  stm::tvar<int> x{0};
  bool ran = false;
  stm::atomic([&](stm::Tx& tx) {
    tx.on_commit([&] { ran = true; });
    x.set(tx, 1);
    stm::cancel(tx);
  });
  EXPECT_FALSE(ran);
  EXPECT_EQ(x.load_direct(), 0);
}

TEST_P(RollbackTest, ExceptionRollsBackMultipleVariables) {
  stm::tvar<int> a{1}, b{2};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 a.set(tx, 10);
                 b.set(tx, 20);
                 if (a.get(tx) == 10) throw std::logic_error("x");
               }),
               std::logic_error);
  EXPECT_EQ(a.load_direct(), 1);
  EXPECT_EQ(b.load_direct(), 2);
}

INSTANTIATE_TEST_SUITE_P(Speculative, RollbackTest, test::SpeculativeAlgos(),
                         test::algo_param_name);

TEST(TvarCgl, ExceptionKeepsEffectsUnderCgl) {
  stm::init({.backend = "cgl"});
  stm::tvar<int> x{1};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 x.set(tx, 999);
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // Direct mode: effects retained (GCC `synchronized` semantics).
  EXPECT_EQ(x.load_direct(), 999);
}

TEST(TvarCgl, CancelAfterWriteIsIllegalUnderCgl) {
  stm::init({.backend = "cgl"});
  stm::tvar<int> x{1};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 x.set(tx, 2);
                 stm::cancel(tx);
               }),
               std::logic_error);
}

TEST(TvarCgl, CancelBeforeWriteIsAllowedUnderCgl) {
  stm::init({.backend = "cgl"});
  stm::tvar<int> x{1};
  stm::atomic([&](stm::Tx& tx) {
    if (x.get(tx) == 1) stm::cancel(tx);
    x.set(tx, 2);
  });
  EXPECT_EQ(x.load_direct(), 1);
}

// The in-transaction check stays in the inlined barriers: a Tx reference
// kept past the end of its transaction panics on use, in every mode.
stm::Tx& ended_transaction() {
  stm::Tx* kept = nullptr;
  stm::atomic([&](stm::Tx& tx) { kept = &tx; });
  return *kept;
}

TEST(TvarDeathTest, GetOutsideTransactionPanics) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* backend : {"tl2", "cgl"}) {
    stm::init({.backend = backend});
    stm::tvar<int> x{1};
    EXPECT_DEATH((void)x.get(ended_transaction()),
                 "read_word outside a transaction")
        << backend;
  }
}

TEST(TvarDeathTest, SetOutsideTransactionPanics) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* backend : {"tl2", "cgl"}) {
    stm::init({.backend = backend});
    stm::tvar<int> x{1};
    EXPECT_DEATH(x.set(ended_transaction(), 2),
                 "write_word outside a transaction")
        << backend;
  }
}

}  // namespace
}  // namespace adtm
