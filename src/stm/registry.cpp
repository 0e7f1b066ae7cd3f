#include "stm/registry.hpp"

#include <thread>

#include "common/backoff.hpp"
#include "common/panic.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"
#include "liveness/activity.hpp"

namespace adtm::stm::detail {

CacheAligned<RegistrySlot> g_registry[kMaxThreads];
SerialGate g_serial_gate;
std::atomic<std::uint32_t> g_lockers{0};

namespace {
// A thread that exits while still holding TxLocks across transactions (a
// killed deferred-op thread — the stall stress case) would leave g_lockers
// elevated forever, wedging every future serial writer in its locker drain
// loop. Reconcile at thread exit: give the orphaned holds back to the
// global count and record the leak. The locks themselves stay "held" until
// a waiter observes the dead owner incarnation and calls break_orphaned().
struct LockerSlot {
  std::uint32_t depth = 0;
  ~LockerSlot() {
    if (depth != 0) {
      // pairs-with: others_hold_locks()'s seq_cst load, so a writer's
      // lock drain stops waiting for a dead thread's holds.
      g_lockers.fetch_sub(depth, std::memory_order_seq_cst);
      stats().add(Counter::LockLeaks, depth);
      depth = 0;
    }
  }
};
}  // namespace

std::uint32_t& locker_depth() noexcept {
  thread_local LockerSlot slot;
  return slot.depth;
}

void registry_enter(std::uint64_t start_ts) noexcept {
  RegistrySlot& slot = my_slot();
  if (locker_depth() > 0) {
    // This thread holds a TxLock across transactions; its (small) lock
    // management transactions must be able to run while a serial writer
    // waits, or the writer could never drain the lockers. The writer does
    // not start executing until g_lockers hits zero, so this cannot run
    // concurrently with serial execution.
    // pairs-with: quiesce_until()'s and acquire_serial_gate()'s acquire
    // loads of active_since. No re-check follows, so the lock drain, not
    // this order, keeps the serial body out.
    slot.active_since.store(start_ts, std::memory_order_seq_cst);
    return;
  }
  Backoff bo;
  for (;;) {
    while (g_serial_gate.busy()) bo.pause();
    // pairs-with: acquire_serial_gate()'s acq_rel CAS of `writer` and its
    // acquire drain loads of active_since. Store buffering: we publish,
    // then re-read `writer`; the writer sets `writer`, then reads our
    // slot. At least one side must see the other's store. x86 (xchg
    // store, locked CAS) and ARMv8 (stlr then ldar) forbid both missing,
    // but the C++ model forbids it only if both loads are seq_cst too.
    slot.active_since.store(start_ts, std::memory_order_seq_cst);
    // Re-check: a serial writer that set `writer` before our publish may
    // already have scanned our (then-idle) slot. If the gate is busy now,
    // withdraw and wait; otherwise any later writer will see our slot.
    if (!g_serial_gate.busy()) return;
    // pairs-with: acquire_serial_gate()'s acquire drain load: the writer
    // waiting on this slot sees it clear. Nothing ran in between.
    slot.active_since.store(0, std::memory_order_seq_cst);
  }
}

void quiesce_until(std::uint64_t commit_ts) noexcept {
  const std::uint32_t me = thread_id();
  // pairs-with: nothing; this thread reads its own slot (default seq_cst).
  ADTM_INVARIANT(g_registry[me]->active_since.load() == 0,
                 "quiesce with own slot still active");
  SpinWindow spin;
  for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
    if (i == me) continue;
    for (;;) {
      // pairs-with: registry_leave()'s release store (a cleared slot's
      // transaction has finished its accesses, so privatised data is safe
      // to touch) and Tx::begin()'s seq_cst publish of a fresh start.
      const std::uint64_t a =
          g_registry[i]->active_since.load(std::memory_order_acquire);
      if (a == 0 || a >= commit_ts) break;
      // Past the spin window the awaited transaction may need this CPU
      // (more threads than cores): let it run.
      if (!spin.pause()) std::this_thread::yield();
    }
  }
  if (spin.waited()) stats().add(Counter::QuiesceWaits);
}

namespace {
// Set in the gate's writer word while a `must` writer holds it.
constexpr std::uint32_t kMustWriter = 1u << 31;

bool others_hold_locks() noexcept {
  // pairs-with: locker_enter(), locker_exit() and the thread-exit
  // reconciliation, all seq_cst RMWs on g_lockers.
  return g_lockers.load(std::memory_order_seq_cst) != locker_depth();
}
}  // namespace

GateEntry acquire_serial_gate(bool must) noexcept {
  const std::uint32_t me = thread_id();
  if (!must && others_hold_locks()) return GateEntry::Refused;
  // The gate queue and both drain loops can block for a long time behind a
  // stalled peer; make that visible to the watchdog.
  liveness::set_state(liveness::ThreadState::SerialWait, now_ns());
  Backoff bo;
  std::uint32_t expected = kNoThread;
  // pairs-with: release_serial_gate()'s release store (acquire side: the
  // previous serial body's writes are visible to this one) and
  // registry_enter()'s seq_cst publish plus busy() re-check (the
  // store-buffering handshake described there).
  while (!g_serial_gate.writer.compare_exchange_weak(
      expected, must ? me | kMustWriter : me, std::memory_order_acq_rel)) {
    // A `must` writer waits for this thread's holds. A contention writer
    // leaves once it sees them, so queueing behind one is bounded.
    if (expected != kNoThread && (expected & kMustWriter) != 0 &&
        locker_depth() > 0) {
      return must ? GateEntry::Cycle : GateEntry::Refused;
    }
    expected = kNoThread;
    bo.pause();
  }
  // Drain every other speculative transaction. They complete on their own
  // (commit, conflict-abort, or retry-wait, all of which clear the slot);
  // new ones are blocked by registry_enter.
  for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
    if (i == me) continue;
    Backoff drain;
    // pairs-with: registry_leave()'s release store and registry_enter()'s
    // withdrawal: the serial body starts after the drained transaction's
    // last access.
    while (g_registry[i]->active_since.load(std::memory_order_acquire) != 0) {
      drain.pause();
    }
  }
  // Drain cross-transaction lock holders (other threads' deferred
  // operations and TxLockGuard sections), so the serial body can never
  // block on a TxLock it does not own. Our own holds are fine: TxLocks
  // are reentrant.
  Backoff drain;
  while (others_hold_locks()) {
    if (!must) {
      release_serial_gate();
      return GateEntry::Refused;
    }
    drain.pause();
  }
  return GateEntry::Acquired;
}

void release_serial_gate() noexcept {
  // pairs-with: nothing; the holder reads its own CAS (default seq_cst).
  ADTM_INVARIANT(
      (g_serial_gate.writer.load() & ~kMustWriter) == thread_id(),
      "releasing a serial gate this thread does not hold");
  // pairs-with: busy()'s acquire load (registry_enter, the retry wait in
  // api.cpp) and the next writer's CAS: both see this serial body's
  // writes.
  g_serial_gate.writer.store(kNoThread, std::memory_order_release);
}

}  // namespace adtm::stm::detail
