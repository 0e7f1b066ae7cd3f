// Lock-wait graph: who is blocked on which lock, and deadlock detection
// over the cross-transaction holds.
//
// Transactional TxLock acquisition is deadlock-free by construction: a
// transaction that blocks first aborts, which rolls back every lock it
// speculatively acquired in the same transaction — there is no
// hold-and-wait, so no cycle (asserted in debug builds at the park site).
// The hole is *committed* holds: a lock held across transactions (by an
// in-flight deferred operation or a TxLockGuard section) is not released
// by an abort. A thread that blocks while pinning such a hold can form a
// classic cycle with other pinned holders, and the TM cannot break it.
//
// Every blocking site therefore publishes a thread → lock wait edge before
// parking; owners are resolved through a per-lock callback (the graph does
// not depend on the lock type). When the blocking thread pins committed
// holds, it walks owner chains; a cycle through itself — every other
// member parked, surviving a re-validation pass — raises DeadlockError,
// breaking the deadlock by construction, since the raising thread
// withdraws its edge as the error unwinds. Publication is seq_cst, so of
// any set of threads that complete a cycle, the last one to publish sees
// every other edge; because that thread may look before earlier members
// have finished parking, pinned waiters also re-run the check from their
// park loop, where a formed cycle is stable and cannot be missed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace adtm::liveness {

// Resolves the current owner (small thread id, or kNoThread) of the lock
// a wait edge points at.
using OwnerFn = std::uint32_t (*)(const void* lock);

// What the published entity is. Lock edges (TxLock) are only
// deadlock-checkable while the waiter pins committed holds (hold-and-wait
// needs a hold an abort cannot revoke). CondVar edges (TxCondVar) are
// checkable unconditionally: the duty to notify is committed state — a
// registered notifier stays responsible whether or not the waiter holds
// anything, so a notifier-wait cycle deadlocks with zero locks held.
enum class WaitKind : std::uint8_t { Lock, CondVar };

// Optional repair callbacks carried by an edge for the watchdog's
// enforcement policies. `orphaned` answers "is the entity's responsible
// thread (lock owner / cv notifier) a dead incarnation?"; `poison` marks
// the entity failed, waking every parked waiter to raise. Both must be
// callable from any thread.
using OrphanFn = bool (*)(const void* entity);
using PoisonFn = void (*)(const void* entity);

// Raised by deadlock_check (and thus out of the blocked acquire) when the
// calling thread would complete a wait cycle. The message names the cycle.
struct DeadlockError : std::runtime_error {
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

// Publish / withdraw the calling thread's wait edge. `site` is a static
// string naming the blocking operation (for reports). Publishing twice
// overwrites; clearing when no edge is published is a no-op. The short
// form publishes a WaitKind::Lock edge with no repair callbacks.
void publish_wait(const void* lock, OwnerFn owner_of,
                  const char* site) noexcept;
void publish_wait(const void* entity, OwnerFn owner_of, const char* site,
                  WaitKind kind, OrphanFn orphaned, PoisonFn poison) noexcept;
void clear_wait() noexcept;

// True if the calling thread currently has a published edge (used by the
// transaction driver to clear stale edges cheaply).
bool has_wait_edge() noexcept;

// True if a thread other than the caller has a published edge on
// `entity`. A parked waiter keeps its edge until its next attempt starts,
// so a releasing owner polls this to hand the lock over instead of
// barging (TxLock::release). Racy by design: a hint, never a guarantee.
bool others_wait_on(const void* entity) noexcept;

// True if the calling thread's published edge may be deadlock-checked
// right now: any CondVar edge, or a Lock edge while pinned_holds() > 0.
// (The park loop consults this; the block sites apply their own
// in-attempt-hold gates before the first check.)
bool wait_edge_checkable() noexcept;

// Walk the wait graph starting from the calling thread's published edge;
// throws DeadlockError on a re-validated cycle through this thread.
// Call after publish_wait and before parking.
void deadlock_check();

// A consistent-enough copy of one published edge, for the watchdog's
// enforcement pass. The entity pointer is safe to dereference only while
// its waiter stays parked (the waiter keeps the entity alive); policies
// must act through the carried callbacks, not retained pointers.
struct WaitEdgeSnapshot {
  std::uint32_t tid;
  const void* entity;
  const char* site;
  WaitKind kind;
  std::uint64_t since_ns;
  std::uint32_t owner;  // kNoThread when unresolved
  OrphanFn orphaned;    // may be null
  PoisonFn poison;      // may be null
};

// All currently-published edges (racy by design; watchdog only).
std::vector<WaitEdgeSnapshot> snapshot_wait_edges();

// --- pinned-hold accounting ------------------------------------------------
//
// Count of the calling thread's *committed* cross-transaction lock holds
// (holds an abort cannot revoke). Maintained by TxLock commit epilogues;
// blocking sites consult it to decide whether hold-and-wait is possible.
std::uint32_t pinned_holds() noexcept;
void pinned_enter() noexcept;
void pinned_exit() noexcept;

// --- diagnostics -----------------------------------------------------------

// One line per published wait edge: thread, site, lock, owner, owner
// liveness. Empty string when no thread is waiting. Also appends any
// cycle found (without throwing) — the watchdog's report body.
std::string dump_wait_graph();

}  // namespace adtm::liveness
