#include "defer/txlock.hpp"

#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/tsan.hpp"
#include "liveness/wait_graph.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "stm/registry.hpp"
#include "stm/runtime.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm {

std::uint32_t TxLock::owner_of(const void* lock) noexcept {
  // Wait-graph / watchdog metadata sample: deliberately racy, never acted
  // on without re-validation inside a transaction.
  tmsan::ScopedRawIgnore ignore;
  return static_cast<const TxLock*>(lock)->owner_.load_direct();
}

bool TxLock::orphan_of(const void* lock) noexcept {
  return static_cast<const TxLock*>(lock)->orphaned();
}

void TxLock::poison_orphan(const void* lock) {
  auto* l = const_cast<TxLock*>(static_cast<const TxLock*>(lock));
  // One transaction: waiters woken by the poison observe the break too,
  // so they raise TxLockPoisoned (deliberate — the protected data's state
  // is unknown) rather than racing to re-acquire a half-repaired lock.
  stm::atomic([l](stm::Tx& tx) {
    if (!l->orphaned(tx)) return;  // owner came back to life? stand down
    l->poison(tx);
    l->break_orphaned(tx);
  });
}

void TxLock::block(stm::Tx& tx, const stm::detail::LockWait& wait,
                   Deadline deadline, const char* site) const {
  obs::lock_wait_begin(this);
  liveness::publish_wait(this, &TxLock::owner_of, site,
                         liveness::WaitKind::Lock, &TxLock::orphan_of,
                         &TxLock::poison_orphan);
  // Deadlock scan, gated twice. pinned_holds() > 0: hold-and-wait needs a
  // committed hold an abort cannot revoke. locker_depth() == pinned_holds():
  // no *in-attempt* holds — an attempt that acquired a TxLock never parks
  // in place, it aborts (which revokes that hold) and waits outside the
  // transaction, so a cycle through an in-attempt hold is broken by this
  // very wait and must not be reported. That covers the purely
  // transactional multi-lock path, which relies on abort-releases-
  // everything (asserted at the park site). A waiter with only committed
  // holds (the non-transactional acquire()/TxLockGuard path, or a park in
  // place) holds them while it waits, and is scanned. Cycles this scan
  // races past are caught by the parked waiter's own re-scan.
  if (liveness::pinned_holds() > 0 &&
      stm::detail::locker_depth() == liveness::pinned_holds()) {
    liveness::deadlock_check();
  }
  wait.park(tx, deadline);
}

void TxLock::acquire(stm::Tx& tx, Deadline deadline) {
  const std::uint32_t me = thread_id();
  const stm::detail::LockWait wait(tx);
  for (;;) {
    if (poisoned_.get(tx) != 0) {
      throw TxLockPoisoned(
          "TxLock::acquire: lock is poisoned (a failed operation may have "
          "left the data it protects inconsistent; clear_poison() after "
          "recovery)");
    }
    const std::uint32_t owner = owner_.get(tx);
    if (owner == kNoThread) {
      owner_.set(tx, me);
      owner_gen_.set(tx, thread_id_generation());
      depth_.set(tx, 1);
      if (obs::enabled()) {
        // Hold time runs from the commit that makes the ownership real.
        tx.on_commit([this] { obs::lock_hold_begin(this); });
      }
      break;
    }
    if (owner == me && owner_gen_.get(tx) == thread_id_generation()) {
      depth_.set(tx, depth_.get(tx) + 1);
      break;
    }
    if (!thread_incarnation_live(owner, owner_gen_.get(tx))) {
      // Covers a dead former owner whose slot id this thread now reuses:
      // that is not reentrancy, the previous incarnation never released.
      throw TxLockOrphaned(
          "TxLock::acquire: owner thread exited while holding the lock "
          "(break_orphaned() to recover)");
    }
    // Held by another live thread: wait for the lock metadata to change,
    // the deadline to pass, or a thread to exit (so the orphan check
    // above runs again), then look again. An attempt with nothing visible
    // to other threads waits in place; one that already acquired a TxLock
    // aborts instead, discarding the locks acquired so far in it, which
    // is what keeps multi-lock acquisition deadlock-free.
    block(tx, wait, deadline, "TxLock::acquire");
  }
  // The hold can outlive this transaction (deferred operations release
  // after commit), so register it with the serial gate's locker accounting
  // — an abort revokes the registration along with the speculative
  // ownership write — and, once it commits, with the liveness layer's
  // pinned-hold count that gates deadlock detection.
  stm::detail::locker_enter();
  tx.on_abort([] { stm::detail::locker_exit(); });
  tx.on_commit([] { liveness::pinned_enter(); });
  ADTM_TSAN_ACQUIRE(this);
  obs::lock_wait_end(this);  // a park that ended here ends its wait now
  stats().add(Counter::TxLockAcquires);
}

void TxLock::acquire() {
  stm::atomic([this](stm::Tx& tx) { acquire(tx); });
}

bool TxLock::acquire(Deadline deadline) {
  try {
    stm::atomic([&](stm::Tx& tx) { acquire(tx, deadline); });
  } catch (const stm::RetryTimeout&) {
    return false;
  }
  return true;
}

bool TxLock::try_acquire(stm::Tx& tx) {
  if (poisoned_.get(tx) != 0) {
    throw TxLockPoisoned("TxLock::try_acquire: lock is poisoned");
  }
  const std::uint32_t owner = owner_.get(tx);
  const bool mine = owner == thread_id() &&
                    owner_gen_.get(tx) == thread_id_generation();
  // An orphaned lock (dead owner incarnation) also reports failure: it
  // needs break_orphaned(), not a wait.
  if (owner != kNoThread && !mine) return false;
  acquire(tx);  // free or reentrant: cannot block
  return true;
}

bool TxLock::try_acquire() {
  return stm::atomic([this](stm::Tx& tx) { return try_acquire(tx); });
}

void TxLock::release(stm::Tx& tx) {
  const std::uint32_t me = thread_id();
  const std::uint32_t owner = owner_.get(tx);
  if (owner == kNoThread) {
    throw std::logic_error(
        "TxLock::release: lock is not held (double release, or release "
        "without acquire)");
  }
  if (owner != me) {
    throw std::logic_error(
        "TxLock::release: calling thread " + std::to_string(me) +
        " is not the owner (thread " + std::to_string(owner) +
        " holds the lock; TxLock forbids lock handoff)");
  }
  if (owner_gen_.get(tx) != thread_id_generation()) {
    throw std::logic_error(
        "TxLock::release: lock is held by an exited thread whose slot id "
        "this thread reuses — this thread never acquired it "
        "(break_orphaned() to recover)");
  }
  const std::uint32_t d = depth_.get(tx);
  if (d > 1) {
    depth_.set(tx, d - 1);
  } else {
    ADTM_TSAN_RELEASE(this);
    depth_.set(tx, 0);
    owner_.set(tx, kNoThread);
    owner_gen_.set(tx, 0);
    if (obs::enabled()) {
      tx.on_commit([this] { obs::lock_hold_end(this); });
    }
    // Checked at the release call, not at commit: by commit time this
    // transaction's own epilogues are already draining (they run before
    // any on_commit bookkeeping below), so the pending count the check
    // needs is only observable here. An attempt that later aborts still
    // executed a release-while-pending — report it like TSan would.
    tmsan::on_lock_freed(this);
  }
  // Drop the locker registration (and its pinned twin) only once the
  // release commits; until then the hold is still real.
  tx.on_commit([] {
    stm::detail::locker_exit();
    liveness::pinned_exit();
  });
}

void TxLock::release() {
  // A release only publishes, so its own transaction commits without a
  // grace period. The parked waiters' wake-up still takes a few
  // microseconds; an owner that returned at once could re-acquire first
  // every time. So it waits (one spin window at most) until the lock is
  // taken, or no other thread's wait edge names it any more: every parked
  // waiter has started its next attempt and competes on equal terms.
  if (!stm::detail::run_publish([this](stm::Tx& tx) { release(tx); })) {
    return;
  }
  stm::detail::SpinWindow spin;
  while (owner_of(this) == kNoThread && liveness::others_wait_on(this) &&
         spin.pause()) {
  }
}

void TxLock::subscribe(stm::Tx& tx, Deadline deadline) const {
  const stm::detail::LockWait wait(tx);
  for (;;) {
    if (poisoned_.get(tx) != 0) {
      throw TxLockPoisoned(
          "TxLock::subscribe: lock is poisoned (a failed operation may "
          "have left the data it protects inconsistent; clear_poison() "
          "after recovery)");
    }
    const std::uint32_t owner = owner_.get(tx);
    if (owner == kNoThread) break;
    const std::uint32_t gen = owner_gen_.get(tx);
    if (owner == thread_id() && gen == thread_id_generation()) break;
    if (!thread_incarnation_live(owner, gen)) {
      throw TxLockOrphaned(
          "TxLock::subscribe: owner thread exited while holding the "
          "lock (break_orphaned() to recover)");
    }
    block(tx, wait, deadline, "TxLock::subscribe");
  }
  ADTM_TSAN_ACQUIRE(this);
  obs::lock_wait_end(this);
  stats().add(Counter::TxLockSubscribes);
}

bool TxLock::subscribe(Deadline deadline) const {
  try {
    stm::atomic([&](stm::Tx& tx) { subscribe(tx, deadline); });
  } catch (const stm::RetryTimeout&) {
    return false;
  }
  return true;
}

void TxLock::poison(stm::Tx& tx) {
  if (poisoned_.get(tx) != 0) return;
  poisoned_.set(tx, 1);
  // Counted at commit so re-executed attempts do not inflate the stat.
  tx.on_commit([] { stats().add(Counter::LockPoisons); });
}

void TxLock::poison() {
  stm::atomic([this](stm::Tx& tx) { poison(tx); });
}

void TxLock::clear_poison(stm::Tx& tx) { poisoned_.set(tx, 0); }

void TxLock::clear_poison() {
  stm::atomic([this](stm::Tx& tx) { clear_poison(tx); });
}

bool TxLock::orphaned(stm::Tx& tx) const {
  const std::uint32_t owner = owner_.get(tx);
  return owner != kNoThread &&
         !thread_incarnation_live(owner, owner_gen_.get(tx));
}

bool TxLock::orphaned() const {
  tmsan::ScopedRawIgnore ignore;
  const std::uint32_t owner = owner_.load_direct();
  return owner != kNoThread &&
         !thread_incarnation_live(owner, owner_gen_.load_direct());
}

bool TxLock::break_orphaned(stm::Tx& tx) {
  const std::uint32_t owner = owner_.get(tx);
  if (owner == kNoThread) return false;
  if (thread_incarnation_live(owner, owner_gen_.get(tx))) return false;
  // The dead incarnation's locker accounting was reconciled when its
  // thread exited (registry LockerSlot) and its pinned count died with its
  // thread-locals: clearing the fields is the whole repair. Poison, if
  // set, is deliberately left for the caller to judge.
  owner_.set(tx, kNoThread);
  owner_gen_.set(tx, 0);
  depth_.set(tx, 0);
  return true;
}

bool TxLock::break_orphaned() {
  return stm::atomic([this](stm::Tx& tx) { return break_orphaned(tx); });
}

bool TxLock::held_by_me(stm::Tx& tx) const {
  return owner_.get(tx) == thread_id() &&
         owner_gen_.get(tx) == thread_id_generation();
}

bool TxLock::held_by_me() const {
  tmsan::ScopedRawIgnore ignore;
  return owner_.load_direct() == thread_id() &&
         owner_gen_.load_direct() == thread_id_generation();
}

}  // namespace adtm
