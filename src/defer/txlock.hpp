// Transaction-friendly reentrant mutex (paper §4.2, Listing 2).
//
// A TxLock can be acquired and released both inside and outside
// transactions; because its owner/depth fields are transactional variables,
// acquiring several TxLocks inside one transaction is deadlock-free without
// a global lock order (the enclosing transaction aborts and retries instead
// of blocking while holding).
//
// Transactions that merely need the lock to be free *subscribe* to it:
// subscription reads only lock metadata (owner, generation, poison), so any
// number of transactions can subscribe concurrently, and all of them
// conflict with (and wait out) a thread that acquires the lock — this is
// how deferred operations are kept atomic with their transaction.
//
// Waiting: an acquire or subscribe that finds the lock held by another
// live thread waits for the lock metadata to change. If its transaction
// has nothing other threads can see (TL2, NOrec, or Eager before its
// first write; not privileged; no TxLock acquired in it) it waits in
// place and, once woken, resumes at a fresh snapshot after re-validating
// what it read, restarting only if that fails. Otherwise the transaction
// aborts, waits, and re-executes, as the paper's Listing 2 does with
// retry; that abort is what releases the TxLocks it acquired so far.
// Re-validation relies on subscribe-first: data a deferred operation
// writes directly must be read only after its lock (Deferrable accessors
// subscribe first). Under TL2 and Eager, such data read before the lock
// call that waits is not re-checked: direct writes leave no orec trace.
//
// Liveness (this layer's extension of the paper):
//  * Timed waits: acquire and subscribe take an adtm::Deadline (default
//    unbounded); expiry raises stm::RetryTimeout inside a transaction, or
//    returns false from the non-transactional wrappers. NOTE: the
//    in-transaction timed variants, when called from a body that is itself
//    nested in an outer atomic(), time out the *whole flattened
//    transaction* — RetryTimeout propagates out of the outermost atomic()
//    call. This holds for a waiter parked in place too: its expired
//    wait rolls the attempt back like the abort path's.
//  * Poisoning: poison() marks the protected state suspect (used by the
//    failure-policy escalation hook when a deferred operation dies with the
//    lock held). Waiters wake — poison is a transactional write like any
//    other — and acquire/subscribe raise TxLockPoisoned until
//    clear_poison().
//  * Orphan detection: the owner's thread incarnation (slot id +
//    generation) is recorded at acquire. If the owning thread exits without
//    releasing, waiters observe the dead incarnation, wake (thread exit
//    bumps a global counter every parked waiter watches), and raise
//    TxLockOrphaned; break_orphaned() force-releases such a lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "common/deadline.hpp"
#include "stm/tvar.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm {

namespace stm::detail {
class LockWait;
}

// Raised by acquire/subscribe on a lock marked poisoned (the data it
// protects may be corrupt — typically a deferred operation failed
// permanently while holding it). Recover with clear_poison().
struct TxLockPoisoned : std::runtime_error {
  explicit TxLockPoisoned(const char* what) : std::runtime_error(what) {}
};

// Raised by acquire/subscribe when the recorded owner thread incarnation
// has exited without releasing. Recover with break_orphaned().
struct TxLockOrphaned : std::runtime_error {
  explicit TxLockOrphaned(const char* what) : std::runtime_error(what) {}
};

class TxLock {
 public:
  TxLock() = default;
  TxLock(const TxLock&) = delete;
  TxLock& operator=(const TxLock&) = delete;

  // Acquire inside a transaction. If the lock is held by another live
  // thread, the enclosing transaction waits for a change of the lock
  // metadata (in place, or by aborting; see above). Reentrant: the owner may re-acquire,
  // incrementing the depth. Raises TxLockPoisoned / TxLockOrphaned instead
  // of waiting on a poisoned or orphaned lock. A bounded Deadline raises
  // stm::RetryTimeout out of the enclosing atomic() on expiry.
  void acquire(stm::Tx& tx, Deadline deadline = {});

  // Acquire outside a transaction: runs acquire() in its own transaction
  // (the paper's Listing 2 Acquire, whose spin/retry loop the lock wait
  // provides).
  void acquire();

  // Timed acquire outside a transaction: false once `deadline` expires
  // while the lock is still held by another live thread.
  [[nodiscard]] bool acquire(Deadline deadline);

  // Non-blocking acquire: returns false (without retrying) if the lock is
  // held by another thread. Composes with the enclosing transaction like
  // acquire(tx). Still raises on a poisoned lock.
  bool try_acquire(stm::Tx& tx);
  bool try_acquire();

  // Release inside a transaction. Throws std::logic_error with a message
  // naming the actual owner if the calling thread does not hold the lock
  // (the paper's optional "forbid handoff" check, which we always enforce —
  // including across thread-id recycling: a thread whose slot id matches
  // the owner's but whose incarnation differs is rejected).
  void release(stm::Tx& tx);

  // Release outside a transaction (used after a deferred operation runs).
  // Its transaction only publishes, so it commits without quiescence;
  // before returning, the caller gives threads parked on the lock a
  // bounded chance to take it first. Called inside a transaction, it
  // joins that transaction like release(tx).
  void release();

  // Block (waiting like acquire) until the lock is free or held by the
  // calling thread. Must be called inside a transaction; reads only lock
  // metadata so concurrent subscribers do not conflict with each other.
  // A bounded Deadline bounds the wait like acquire.
  void subscribe(stm::Tx& tx, Deadline deadline = {}) const;

  // Timed subscribe outside a transaction: true once the lock was observed
  // free (or owned by the caller), false on expiry.
  [[nodiscard]] bool subscribe(Deadline deadline) const;

  // --- failure handling -------------------------------------------------

  // Mark the lock poisoned / clear the mark. Transactional writes: waiters
  // wake and raise. Any thread may poison (the failure-policy escalation
  // hook poisons locks whose deferred operation failed permanently).
  void poison(stm::Tx& tx);
  void poison();
  void clear_poison(stm::Tx& tx);
  void clear_poison();
  bool poisoned(stm::Tx& tx) const { return poisoned_.get(tx) != 0; }
  bool poisoned() const {
    // Deliberate racy metadata sample (like owner_of): not a data race to
    // report, even when a transaction is concurrently poisoning.
    tmsan::ScopedRawIgnore ignore;
    return poisoned_.load_direct() != 0;
  }

  // True if the recorded owner's thread incarnation has exited without
  // releasing (snapshot; can only become true while the lock is held).
  bool orphaned(stm::Tx& tx) const;
  bool orphaned() const;

  // Force-release a lock whose owner incarnation is dead. Returns true if
  // the lock was orphaned and is now free; false if it was free or its
  // owner is alive (the lock is not touched). The dead thread's locker
  // accounting was already reconciled at its exit.
  bool break_orphaned(stm::Tx& tx);
  bool break_orphaned();

  // --- queries ----------------------------------------------------------

  // True if the calling thread currently owns the lock. Transactional
  // variant for use inside transactions; direct variant for use outside.
  bool held_by_me(stm::Tx& tx) const;
  bool held_by_me() const;

  // Current reentrancy depth as seen by the owner (0 when unheld).
  std::uint32_t depth(stm::Tx& tx) const { return depth_.get(tx); }

  // Owner slot id (kNoThread when free), read non-transactionally — the
  // wait-graph edge resolver (liveness::OwnerFn) for TxLock waits.
  static std::uint32_t owner_of(const void* lock) noexcept;

  // Repair callbacks (liveness::OrphanFn / PoisonFn) carried by this
  // lock's wait edges for the watchdog's poison-orphans policy: is the
  // recorded owner a dead incarnation, and — atomically — poison plus
  // break such a lock so every parked waiter wakes and raises.
  static bool orphan_of(const void* lock) noexcept;
  static void poison_orphan(const void* lock);

 private:
  // Common slow path: record the wait edge, run deadlock detection when
  // this thread pins holds across transactions, then wait (timed or not).
  // Returns once the caller should read the lock again; throws when the
  // attempt aborts to wait or restarts instead (stm::detail::LockWait).
  void block(stm::Tx& tx, const stm::detail::LockWait& wait,
             Deadline deadline, const char* site) const;

  stm::tvar<std::uint32_t> owner_{kNoThread};
  stm::tvar<std::uint32_t> depth_{0};
  // Incarnation generation of the owning thread, recorded on the
  // free -> held transition (orphan detection).
  stm::tvar<std::uint32_t> owner_gen_{0};
  stm::tvar<std::uint32_t> poisoned_{0};
};

// RAII acquire/release around a non-transactional critical section.
class TxLockGuard {
 public:
  explicit TxLockGuard(TxLock& lock) : lock_(lock) { lock_.acquire(); }
  ~TxLockGuard() { lock_.release(); }
  TxLockGuard(const TxLockGuard&) = delete;
  TxLockGuard& operator=(const TxLockGuard&) = delete;

 private:
  TxLock& lock_;
};

}  // namespace adtm
