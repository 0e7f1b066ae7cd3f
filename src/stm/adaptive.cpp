#include "stm/adaptive.hpp"

#include <atomic>
#include <cstdint>

#include "common/runtime_config.hpp"
#include "common/timing.hpp"
#include "stm/backend.hpp"
#include "stm/registry.hpp"

namespace adtm::stm::adaptive {

namespace {

// Minimum transactions (commits + aborts) in a window before its abort
// taxonomy counts as signal rather than noise.
constexpr std::uint64_t kMinSample = 64;

std::atomic<bool> g_enabled{false};

// Current-window taxonomy. Exchanged to zero when a window closes.
std::atomic<std::uint64_t> g_commits{0};
std::atomic<std::uint64_t> g_aborts_validation{0};
std::atomic<std::uint64_t> g_aborts_lockbusy{0};
std::atomic<std::uint64_t> g_aborts_other{0};

// 0 = window not started; otherwise the ns deadline after which the next
// maybe_switch() call evaluates.
std::atomic<std::uint64_t> g_window_end_ns{0};
std::atomic<std::uint64_t> g_last_switch_ns{0};
// Single-evaluator latch so one thread closes each window.
std::atomic<bool> g_evaluating{false};

void reset_window() noexcept {
  g_commits.store(0, std::memory_order_relaxed);
  g_aborts_validation.store(0, std::memory_order_relaxed);
  g_aborts_lockbusy.store(0, std::memory_order_relaxed);
  g_aborts_other.store(0, std::memory_order_relaxed);
  g_window_end_ns.store(0, std::memory_order_relaxed);
}

// Pick the backend id this window's profile calls for; null = keep.
const char* decide(std::uint64_t commits, std::uint64_t validation,
                   std::uint64_t lockbusy, std::uint64_t other) noexcept {
  const std::uint64_t aborts = validation + lockbusy + other;
  const std::uint64_t total = commits + aborts;
  if (total < kMinSample) return nullptr;
  if (aborts * 20 < total) return "norec";     // < 5% abort rate
  if (validation >= lockbusy) return "2pl";    // validation-dominated
  return "tl2";                                // lock-busy-dominated
}

}  // namespace

void set_enabled(bool on) noexcept {
  reset_window();
  g_enabled.store(on, std::memory_order_release);
}

bool enabled() noexcept {
  return g_enabled.load(std::memory_order_acquire);
}

void note_commit() noexcept {
  if (!enabled()) return;
  g_commits.fetch_add(1, std::memory_order_relaxed);
}

void note_abort(obs::AbortCause cause) noexcept {
  if (!enabled()) return;
  switch (cause) {
    case obs::AbortCause::ConflictValidation:
    case obs::AbortCause::ConflictNorecValue:
      g_aborts_validation.fetch_add(1, std::memory_order_relaxed);
      break;
    case obs::AbortCause::ConflictLockBusy:
      g_aborts_lockbusy.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      g_aborts_other.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void maybe_switch() noexcept {
  if (!enabled()) return;
  const std::uint64_t now = now_ns();
  const std::uint64_t window_ns = runtime_config().adapt_window_ms * 1'000'000;
  std::uint64_t end = g_window_end_ns.load(std::memory_order_relaxed);
  if (end == 0) {
    // First transaction of a fresh window opens it; losing the race just
    // means someone else opened it.
    g_window_end_ns.compare_exchange_strong(end, now + window_ns,
                                            std::memory_order_relaxed);
    return;
  }
  if (now < end) return;
  if (g_evaluating.exchange(true, std::memory_order_acquire)) return;
  end = g_window_end_ns.load(std::memory_order_relaxed);
  if (end != 0 && now >= end) {
    const std::uint64_t commits =
        g_commits.exchange(0, std::memory_order_relaxed);
    const std::uint64_t validation =
        g_aborts_validation.exchange(0, std::memory_order_relaxed);
    const std::uint64_t lockbusy =
        g_aborts_lockbusy.exchange(0, std::memory_order_relaxed);
    const std::uint64_t other =
        g_aborts_other.exchange(0, std::memory_order_relaxed);
    g_window_end_ns.store(now + window_ns, std::memory_order_relaxed);

    const char* id = decide(commits, validation, lockbusy, other);
    const std::uint64_t dwell_ns =
        runtime_config().adapt_min_dwell_ms * 1'000'000;
    const std::uint64_t last = g_last_switch_ns.load(std::memory_order_relaxed);
    if (id != nullptr && (last == 0 || now - last >= dwell_ns) &&
        detail::locker_depth() == 0) {
      // decide() only names backends in the table.
      const Backend* target = find_backend(id);
      if (target != current_backend()) {
        try {
          switch_backend(target);
          g_last_switch_ns.store(now, std::memory_order_relaxed);
        } catch (...) {
          // A rival init() or switch raced us into an invalid transition
          // (e.g. to direct mode); the next window re-evaluates.
        }
      }
    }
  }
  g_evaluating.store(false, std::memory_order_release);
}

}  // namespace adtm::stm::adaptive
