// adtm::RuntimeConfig: one-shot resolution of the ADTM_* knobs and the
// programmatic configure() override that pushes gates into running
// singletons.
#include "common/runtime_config.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "stm/config.hpp"

namespace adtm {
namespace {

class RuntimeConfigTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Re-resolve from the environment so overrides never leak.
    configure(runtime_config_from_env());
    obs::disable();
    obs::clear();
  }
};

TEST_F(RuntimeConfigTest, EnvResolutionHasDocumentedDefaults) {
  // The suite runs without ADTM_* set, so from-env equals the defaults.
  const RuntimeConfig cfg = runtime_config_from_env();
  EXPECT_EQ(cfg.starvation_threshold, 64u);
  EXPECT_EQ(cfg.stall_budget_ms, 2000u);
  EXPECT_EQ(cfg.watchdog_interval_ms, 200u);
  EXPECT_EQ(cfg.watchdog_action, "report");
  EXPECT_EQ(cfg.reap_budgets, 4u);
  EXPECT_FALSE(cfg.trace);
  EXPECT_EQ(cfg.trace_ring_capacity, 8192u);
  EXPECT_EQ(cfg.trace_max_events, std::size_t{1} << 18);
  EXPECT_EQ(cfg.trace_out, "adtm_trace.json");
}

TEST_F(RuntimeConfigTest, ConfigureReplacesTheProcessSnapshot) {
  RuntimeConfig cfg = runtime_config();
  cfg.starvation_threshold = 7;
  cfg.stall_budget_ms = 123;
  configure(cfg);
  EXPECT_EQ(runtime_config().starvation_threshold, 7u);
  EXPECT_EQ(runtime_config().stall_budget_ms, 123u);
  // Consumers that resolve through the snapshot see the override.
  EXPECT_EQ(stm::Config::default_starvation_threshold(), 7u);
  EXPECT_EQ(stm::Config{}.starvation_threshold, 7u);
}

TEST_F(RuntimeConfigTest, ConfigureGatesTracing) {
  ASSERT_FALSE(obs::enabled());
  RuntimeConfig cfg = runtime_config();
  cfg.trace = true;
  configure(cfg);
  EXPECT_TRUE(obs::enabled());
  cfg.trace = false;
  configure(cfg);
  EXPECT_FALSE(obs::enabled());
}

}  // namespace
}  // namespace adtm
