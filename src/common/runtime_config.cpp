#include "common/runtime_config.hpp"

#include <mutex>

#include "common/env.hpp"

namespace adtm {

RuntimeConfig runtime_config_from_env() {
  RuntimeConfig cfg;
  cfg.algo = env_str("ADTM_ALGO", cfg.algo);
  cfg.starvation_threshold = static_cast<std::uint32_t>(
      env_u64("ADTM_STARVATION_THRESHOLD", cfg.starvation_threshold));
  cfg.stall_budget_ms = env_u64("ADTM_STALL_BUDGET_MS", cfg.stall_budget_ms);
  cfg.watchdog_interval_ms =
      env_u64("ADTM_WATCHDOG_INTERVAL_MS", cfg.watchdog_interval_ms);
  cfg.watchdog_action = env_str("ADTM_WATCHDOG_ACTION", cfg.watchdog_action);
  cfg.reap_budgets = static_cast<std::uint32_t>(
      env_u64("ADTM_REAP_BUDGETS", cfg.reap_budgets));
  cfg.trace = env_u64("ADTM_TRACE", cfg.trace ? 1 : 0) != 0;
  cfg.trace_ring_capacity = static_cast<std::size_t>(
      env_u64("ADTM_TRACE_RING", cfg.trace_ring_capacity));
  cfg.trace_max_events = static_cast<std::size_t>(
      env_u64("ADTM_TRACE_MAX_EVENTS", cfg.trace_max_events));
  cfg.trace_out = env_str("ADTM_TRACE_OUT", cfg.trace_out);
  cfg.tmsan = env_u64("ADTM_TMSAN", cfg.tmsan ? 1 : 0) != 0;
  cfg.tmsan_opacity =
      env_u64("ADTM_TMSAN_OPACITY", cfg.tmsan_opacity ? 1 : 0) != 0;
  cfg.tmsan_stack_sample = static_cast<std::uint32_t>(
      env_u64("ADTM_TMSAN_STACK_SAMPLE", cfg.tmsan_stack_sample));
  return cfg;
}

namespace {

std::mutex g_config_mutex;

RuntimeConfig& mutable_config() noexcept {
  static RuntimeConfig cfg = runtime_config_from_env();
  return cfg;
}

// Appliers let subsystems in downstream libraries (obs) react to
// configure() without this translation unit depending on them. They
// register from static initializers, which run iff their library is
// linked into the binary.
constexpr std::size_t kMaxAppliers = 4;
void (*g_appliers[kMaxAppliers])(const RuntimeConfig&) = {};
std::size_t g_applier_count = 0;

}  // namespace

namespace detail {

void register_config_applier(void (*apply)(const RuntimeConfig&)) noexcept {
  std::lock_guard<std::mutex> lk(g_config_mutex);
  if (g_applier_count < kMaxAppliers) g_appliers[g_applier_count++] = apply;
}

}  // namespace detail

const RuntimeConfig& runtime_config() noexcept { return mutable_config(); }

void configure(const RuntimeConfig& cfg) {
  std::lock_guard<std::mutex> lk(g_config_mutex);
  mutable_config() = cfg;
  // Knobs gating live singletons (tracing) take effect immediately;
  // subsystems that read their knobs at each start (watchdog, stm::init)
  // pick the new values up there.
  for (std::size_t i = 0; i < g_applier_count; ++i) g_appliers[i](cfg);
}

}  // namespace adtm
