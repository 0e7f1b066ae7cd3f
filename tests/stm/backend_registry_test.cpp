// The pluggable backend registry: enumeration order, lookup, capability
// flags, registration validation, and the serial-gate switch_backend
// contract (error cases here; switching under load lives in
// adaptive_switch_test.cpp).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "stm/backend.hpp"
#include "stm/tvar.hpp"
#include "support/algo_param.hpp"

namespace adtm {
namespace {

TEST(BackendRegistry, BuiltinsEnumerateInAlgoOrderWithDenseIndices) {
  auto& reg = stm::backend_registry();
  ASSERT_GE(reg.size(), 6u);
  const char* ids[] = {"tl2", "eager", "cgl", "htmsim", "norec", "2pl"};
  for (std::size_t i = 0; i < 6; ++i) {
    const stm::Backend* b = reg.at(i);
    ASSERT_NE(b, nullptr);
    EXPECT_STREQ(b->id, ids[i]);
    EXPECT_EQ(b->obs_index, i);
  }
  EXPECT_EQ(reg.at(reg.size()), nullptr);
}

TEST(BackendRegistry, FindMatchesIdAndDisplayName) {
  EXPECT_EQ(stm::find_backend("tl2"), stm::find_backend("TL2"));
  EXPECT_EQ(stm::find_backend("2pl"), stm::find_backend("2PL"));
  EXPECT_NE(stm::find_backend("2pl"), nullptr);
  EXPECT_EQ(stm::find_backend("no-such-backend"), nullptr);
  EXPECT_EQ(stm::find_backend(""), nullptr);
  // "auto" is a Config::backend selector, not a registered backend.
  EXPECT_EQ(stm::find_backend("auto"), nullptr);
}

TEST(BackendRegistry, CapabilityFlags) {
  const stm::Backend* tl2 = stm::find_backend("tl2");
  EXPECT_TRUE(tl2->has(stm::kBackendRollback));
  EXPECT_TRUE(tl2->has(stm::kBackendAdaptive));
  EXPECT_FALSE(tl2->has(stm::kBackendInPlaceWrites));

  const stm::Backend* cgl = stm::find_backend("cgl");
  EXPECT_TRUE(cgl->has(stm::kBackendDirectMode));
  EXPECT_FALSE(cgl->has(stm::kBackendRollback));

  const stm::Backend* htm = stm::find_backend("htmsim");
  EXPECT_TRUE(htm->has(stm::kBackendHtmLike));

  const stm::Backend* twopl = stm::find_backend("2pl");
  EXPECT_TRUE(twopl->has(stm::kBackendRollback));
  EXPECT_TRUE(twopl->has(stm::kBackendInPlaceWrites));
  EXPECT_TRUE(twopl->has(stm::kBackendPessimisticReads));
  EXPECT_TRUE(twopl->has(stm::kBackendAdaptive));
  EXPECT_NE(twopl->ops, nullptr);
}

TEST(BackendRegistry, RejectsInvalidRegistrations) {
  auto& reg = stm::backend_registry();
  stm::Backend dup;
  dup.id = "tl2";
  dup.name = "Duplicate";
  EXPECT_THROW(reg.register_backend(dup), std::logic_error);

  stm::Backend dup_name;
  dup_name.id = "fresh-id";
  dup_name.name = "TL2";
  EXPECT_THROW(reg.register_backend(dup_name), std::logic_error);

  stm::Backend null_id;
  null_id.id = nullptr;
  null_id.name = "NullId";
  EXPECT_THROW(reg.register_backend(null_id), std::logic_error);

  // An extension backend (non-null ops) must fill the whole ops table.
  stm::BackendOps partial{};
  stm::Backend incomplete;
  incomplete.id = "incomplete";
  incomplete.name = "Incomplete";
  incomplete.ops = &partial;
  EXPECT_THROW(reg.register_backend(incomplete), std::logic_error);
}

TEST(BackendRegistry, ConfigSelectionByNameAndError) {
  stm::init({.backend = "eager"});
  EXPECT_STREQ(stm::current_backend()->id, "eager");
  stm::init({.backend = "2PL"});  // display names work too
  EXPECT_STREQ(stm::current_backend()->id, "2pl");
  EXPECT_THROW(stm::init({.backend = "bogus"}), std::invalid_argument);
  stm::init({.backend = "tl2"});
}

TEST(BackendRegistry, SwitchSwapsBackendAndCounts) {
  stm::init({.backend = "tl2"});
  stats().reset();
  stm::tvar<int> x{0};
  stm::atomic([&](stm::Tx& tx) { x.set(tx, 1); });

  stm::switch_backend("2pl");
  EXPECT_STREQ(stm::current_backend()->id, "2pl");
  EXPECT_EQ(stats().total(Counter::BackendSwitches), 1u);
  stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
  EXPECT_EQ(x.load_direct(), 2);

  // Switching to the already-active backend is a no-op.
  stm::switch_backend("2pl");
  EXPECT_EQ(stats().total(Counter::BackendSwitches), 1u);

  stm::switch_backend("tl2");
  EXPECT_STREQ(stm::current_backend()->id, "tl2");
  EXPECT_EQ(stats().total(Counter::BackendSwitches), 2u);
}

TEST(BackendRegistry, SwitchErrorCases) {
  stm::init({.backend = "tl2"});
  EXPECT_THROW(stm::switch_backend(nullptr), std::logic_error);
  EXPECT_THROW(stm::switch_backend("no-such"), std::invalid_argument);
  // Direct-mode target: CGL transactions bypass the serial gate, so the
  // gate cannot make the swap quiescent.
  EXPECT_THROW(stm::switch_backend("cgl"), std::logic_error);

  // From inside a transaction the calling thread can never drain itself.
  stm::tvar<int> x{0};
  EXPECT_THROW(stm::atomic([&](stm::Tx& tx) {
                 x.set(tx, 1);
                 stm::switch_backend("eager");
               }),
               std::logic_error);

  // Direct-mode source: same drain problem in the other direction.
  stm::init({.backend = "cgl"});
  EXPECT_THROW(stm::switch_backend("tl2"), std::logic_error);
  stm::init({.backend = "tl2"});
}

}  // namespace
}  // namespace adtm
