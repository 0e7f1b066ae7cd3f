// Small dense per-thread identifiers.
//
// The STM runtime, TxLock ownership, and the quiescence machinery all need
// a compact thread id that can be stored in a word and used to index
// fixed-size registries. Slots are recycled when threads exit, so an
// application may create any number of threads over its lifetime as long
// as at most kMaxThreads are *concurrently* using the library.
#pragma once

#include <cstdint>

namespace adtm {

inline constexpr std::uint32_t kMaxThreads = 128;

// Sentinel meaning "no thread" (e.g. an unheld TxLock's owner).
inline constexpr std::uint32_t kNoThread = ~std::uint32_t{0};

// Returns this thread's dense id in [0, kMaxThreads). Allocates a slot on
// first call; the slot is released when the thread exits. Aborts the
// process if more than kMaxThreads threads are concurrently registered.
std::uint32_t thread_id() noexcept;

// Number of slots ever handed out concurrently (high-water mark). Used by
// diagnostics only.
std::uint32_t thread_high_water() noexcept;

// --- slot liveness (liveness layer) ---------------------------------------
//
// Slots are recycled, so a bare id cannot distinguish "thread T still
// running" from "T exited and a new thread inherited its id". Each slot
// therefore carries a generation that is bumped every time the slot is
// (re)claimed; an (id, generation) pair names one thread incarnation
// exactly. This is what lets a TxLock detect that its owner died.

// Current generation of slot `id` (whether or not the slot is in use).
std::uint32_t thread_slot_generation(std::uint32_t id) noexcept;

// True while a live thread owns slot `id`.
bool thread_slot_live(std::uint32_t id) noexcept;

// The calling thread's own (id, generation) incarnation tag.
std::uint32_t thread_id_generation() noexcept;

// True iff the thread incarnation (id, generation) is still running.
inline bool thread_incarnation_live(std::uint32_t id,
                                    std::uint32_t generation) noexcept {
  return id < kMaxThreads && thread_slot_live(id) &&
         thread_slot_generation(id) == generation;
}

// Monotonic count of thread exits. Waiters parked on state owned by
// another thread watch this to wake up (and re-check for orphaned owners)
// when any thread leaves instead of sleeping until their deadline.
std::uint64_t thread_exit_count() noexcept;

// Register a callback invoked on the exiting thread after its slot is
// released and the exit count bumped (argument: the released slot id).
// Polling the exit count only wakes waiters that spin; waiters parked on
// OS primitives (the CGL commit condition variable) need a push instead.
// Registration is process-lifetime — hooks cannot be removed — and capped
// at a small fixed count; hooks must be async-signal-ish tame: no
// throwing, no thread exit.
void register_thread_exit_hook(void (*hook)(std::uint32_t tid)) noexcept;

}  // namespace adtm
