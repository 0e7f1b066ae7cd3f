// Active-transaction registry (quiescence) and the serial gate
// (irrevocability / HTM-sim fallback).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/panic.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"

namespace adtm::stm::detail {

// One slot per thread. active_since holds the start timestamp of the
// thread's in-flight transaction, or 0 when the thread has no speculative
// state. Writers quiesce by waiting for every slot that was active with a
// start time earlier than their commit timestamp (privatization safety,
// paper §2 / Listing 1).
struct RegistrySlot {
  std::atomic<std::uint64_t> active_since{0};
};

extern CacheAligned<RegistrySlot> g_registry[kMaxThreads];

inline RegistrySlot& my_slot() noexcept { return *g_registry[thread_id()]; }

// Serial gate: at most one thread runs in serial-irrevocable mode; while
// it does (or is waiting to), no speculative transaction may start.
// The holder waits for all speculative transactions to drain before
// executing, so it runs in complete isolation — this is both GCC-style
// serial-mode irrevocability and the HTM lock-elision fallback path.
struct SerialGate {
  std::atomic<std::uint32_t> writer{kNoThread};

  bool busy() const noexcept {
    // pairs-with: release_serial_gate()'s release store, so a transaction
    // admitted after a serial body sees that body's writes; and, in
    // registry_enter()'s re-check, acquire_serial_gate()'s acq_rel CAS
    // (the store-buffering handshake described there).
    return writer.load(std::memory_order_acquire) != kNoThread;
  }
};

extern SerialGate g_serial_gate;

// --- locker accounting -----------------------------------------------------
//
// A TxLock can be held *across* transactions (by an in-flight deferred
// operation, or a TxLockGuard critical section). Releasing it requires a
// small transaction; if the serial gate blocked that transaction while a
// serial writer waited for the lock, the system would deadlock. So:
//  * every cross-transaction lock hold counts as a "locker" (global count
//    + per-thread depth),
//  * threads with locker depth > 0 are exempt from gate blocking in
//    registry_enter (they only run while the writer is still *waiting*),
//  * the writer drains all other lockers before executing, so a serial
//    transaction never observes a held TxLock it does not own.
extern std::atomic<std::uint32_t> g_lockers;

// This thread's count of cross-transaction lock holds.
std::uint32_t& locker_depth() noexcept;

inline void locker_enter() noexcept {
  ++locker_depth();
  // pairs-with: others_hold_locks()'s seq_cst load (registry.cpp). A
  // serial writer drains this thread's slot before it reads g_lockers, and
  // this increment is sequenced before the slot clears, so the writer's
  // lock drain counts the hold.
  g_lockers.fetch_add(1, std::memory_order_seq_cst);
}

inline void locker_exit() noexcept {
  ADTM_INVARIANT(locker_depth() > 0,
                 "locker_exit without a matching locker_enter "
                 "(cross-transaction lock accounting underflow)");
  --locker_depth();
  // pairs-with: others_hold_locks()'s seq_cst load. A writer whose lock
  // drain reads the decremented count also sees the committed release
  // that preceded it.
  g_lockers.fetch_sub(1, std::memory_order_seq_cst);
}

// Blocks until the gate is free, then publishes this thread's transaction
// start. Handles the publish/check race with a pending serial writer.
void registry_enter(std::uint64_t start_ts) noexcept;

inline void registry_leave() noexcept {
  // pairs-with: quiesce_until()'s and acquire_serial_gate()'s acquire
  // loads of active_since. A writer that sees the slot clear also sees
  // that this transaction finished every access it made.
  my_slot().active_since.store(0, std::memory_order_release);
}

// Waits until no transaction that started before `commit_ts` is still
// active. Callers must have already cleared their own slot. Polls each
// slot (SpinWindow), then yields between polls once the wait has lasted
// longer than the spin window.
void quiesce_until(std::uint64_t commit_ts) noexcept;

// The busy-poll phase of the runtime's short waits: quiescence, the retry
// park and the TxLock release hand-off. The transactions and wake-ups they
// wait for usually take a microsecond or two, so each wait re-reads its
// predicate after a single cpu_relax() — a randomized exponential backoff
// overshoots such waits several times over. Once one wait has lasted this
// long, it stops spinning: it yields, backs off, or gives up.
inline constexpr std::uint64_t kSpinWindowNs = 50'000;

// Polling schedule of one wait. pause() spins once and returns true until
// kSpinWindowNs after its first call; from then on it returns false
// without pausing, and the caller decides what to do instead.
class SpinWindow {
 public:
  bool pause() noexcept {
    const std::uint64_t now = now_ns();
    if (until_ == 0) until_ = now + kSpinWindowNs;
    if (now >= until_) return false;
    cpu_relax();
    return true;
  }

  // True once pause() has been called: the wait did not end at once.
  bool waited() const noexcept { return until_ != 0; }

 private:
  std::uint64_t until_ = 0;
};

// Acquire/release of the serial gate. `must` says the caller cannot make
// progress without serial mode (become_irrevocable, an HTM capacity
// overflow); otherwise it only escalates as contention management. The
// gate is Acquired once all other speculative transactions and all other
// threads' cross-transaction holds have drained; only a `must` caller
// waits for holds. Without the gate:
//  * Refused: the caller need not run serially and would wait for a hold.
//    Either it holds locks itself and a `must` writer has the gate (that
//    writer waits for those very holds), or other threads hold locks. A
//    hold can stay pinned for as long as its owner likes, even while the
//    owner waits outside the TM for this thread, so contention
//    management never waits for one.
//  * Cycle: the caller must run serially, holds locks, and a `must` writer
//    has the gate: each waits for the other.
enum class GateEntry : std::uint8_t { Acquired, Refused, Cycle };
GateEntry acquire_serial_gate(bool must) noexcept;
void release_serial_gate() noexcept;

}  // namespace adtm::stm::detail
