// Per-thread activity table: what every thread is doing right now, and
// since when.
//
// The transaction driver, the retry parking loop, the serial gate, and the
// deferred-op runner publish coarse state transitions here; the watchdog
// samples the table to flag threads stalled past the configured budget.
// Publishing is a relaxed store or two on paths that already pay atomic
// traffic, so the table costs nothing measurable when no one is watching.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/align.hpp"
#include "common/thread_id.hpp"

namespace adtm::liveness {

enum class ThreadState : std::uint32_t {
  Idle,        // not inside the runtime
  InTx,        // executing a transaction body
  RetryWait,   // parked in stm::retry waiting for a read-set change
  SerialWait,  // draining the system to enter serial-irrevocable mode
  DeferredOp,  // running a post-commit deferred operation
};

const char* state_name(ThreadState s) noexcept;

struct ActivitySlot {
  std::atomic<std::uint32_t> state{
      static_cast<std::uint32_t>(ThreadState::Idle)};
  std::atomic<std::uint64_t> since_ns{0};
  std::atomic<std::uint32_t> reap{0};
};

namespace detail {
extern CacheAligned<ActivitySlot> g_activity[kMaxThreads];
}

// Publish the calling thread's state. `stamp` is the transition time in
// now_ns() units; pass 0 to keep the previous stamp. The watchdog reads
// the stamp only for the wait states and DeferredOp, so InTx and Idle
// (one of each per transaction) pass 0 and read no clock.
void set_state(ThreadState s, std::uint64_t stamp) noexcept;

// Sample another thread's state (watchdog only; racy by design).
ThreadState state_of(std::uint32_t tid) noexcept;
std::uint64_t state_since_ns(std::uint32_t tid) noexcept;

// --- cooperative reap requests ---------------------------------------------
//
// The watchdog's ReapDeferred policy cannot abort a deferred operation —
// it runs arbitrary post-commit code on the committing thread — but it can
// flag the thread so the failure-policy retry loop stops re-trying and
// escalates at its next failure (the op's own failure path then poisons
// and releases its locks). A request targets the thread's *current*
// deferred op: starting a new op clears it.
void request_reap(std::uint32_t tid) noexcept;
bool reap_requested() noexcept;  // the calling thread's flag
void clear_reap() noexcept;      // the calling thread starts a fresh op

}  // namespace adtm::liveness
