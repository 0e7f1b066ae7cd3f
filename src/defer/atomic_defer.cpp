#include "defer/atomic_defer.hpp"

#include <utility>

#include "common/stats.hpp"
#include "common/tsan.hpp"
#include "obs/trace.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm {

void atomic_defer(stm::Tx& tx, std::function<void()> op,
                  std::vector<const Deferrable*> objs, FailurePolicy policy) {
  // Acquire the implicit lock of every object the operation may touch, as
  // part of the enclosing transaction (Listing 1's atomic_defer uses a
  // nested transaction, which flattens into the parent — so the lock
  // writes commit atomically with the parent, and if a lock is held by
  // another thread once this parent has acquired one, the whole parent
  // aborts and retries, making multi-lock acquisition deadlock-free).
  for (const Deferrable* o : objs) {
    o->txlock().acquire(tx);
  }
  // Emitted at registration (attempt scope): a re-executed attempt emits
  // again, mirroring how the enqueue really happened. The matching
  // epilogue events come from the driver's run_epilogues.
  obs::emit(obs::EventType::DeferEnqueue, obs::AbortCause::None, obs::kNoAlgo,
            0, static_cast<std::uint32_t>(objs.size()));
  // tmsan deferral contract: the registration pends one epilogue on each
  // lock (withdrawn if the attempt aborts); the epilogue itself runs
  // bracketed so tmsan can check it touches only covered state. Attempt
  // scope matches the lock acquisition above, so a re-execution re-pends.
  std::vector<const void*> san_locks;
  const bool san = tmsan::active();
  if (san) {
    san_locks.reserve(objs.size());
    for (const Deferrable* o : objs) san_locks.push_back(&o->txlock());
    tmsan::on_defer_registered(san_locks.data(), san_locks.size());
    tx.on_abort([san_locks] {
      tmsan::on_defer_cancelled(san_locks.data(), san_locks.size());
    });
  }
  tx.on_commit([op = std::move(op), objs = std::move(objs),
                policy = std::move(policy), san_locks = std::move(san_locks),
                san]() {
    stats().add(Counter::DeferredOps);
    // The handoff edge: the registering transaction's writes (made before
    // commit) happen-before the epilogue body, which may run on another
    // logical phase of the same thread after arbitrary interleavings.
    for (const void* l : san_locks) ADTM_TSAN_ACQUIRE(l);
    if (san) tmsan::epilogue_begin(san_locks.data(), san_locks.size());
    // The locks are released on every exit path: a deferred operation
    // that fails permanently must not wedge its subscribers. Reentrancy
    // ensures an object shared by several deferred operations stays
    // locked until the last one finishes (paper §4.1).
    try {
      run_with_policy(policy, op);
    } catch (...) {
      // The epilogue is over (even if failed) before any lock can reach
      // its free transition, or on_lock_freed would see it still pending.
      if (san) tmsan::epilogue_end(san_locks.data(), san_locks.size());
      // Poison first, release second: once released, a waiter can slip in
      // before the poison lands. Poisoning is a transactional write, so it
      // also wakes parked subscribers, which then raise TxLockPoisoned.
      if (policy.poison_on_escalate) {
        for (const Deferrable* o : objs) o->txlock().poison();
      }
      for (const Deferrable* o : objs) o->txlock().release();
      throw;
    }
    if (san) tmsan::epilogue_end(san_locks.data(), san_locks.size());
    for (const Deferrable* o : objs) o->txlock().release();
  });
}

void atomic_defer(stm::Tx& tx, std::function<void()> op,
                  std::vector<const Deferrable*> objs) {
  atomic_defer(tx, std::move(op), std::move(objs), default_failure_policy());
}

void atomic_defer(stm::Tx& tx, std::function<void()> op,
                  std::initializer_list<const Deferrable*> objs) {
  atomic_defer(tx, std::move(op),
               std::vector<const Deferrable*>(objs.begin(), objs.end()));
}

void atomic_defer(stm::Tx& tx, std::function<void()> op,
                  std::initializer_list<const Deferrable*> objs,
                  FailurePolicy policy) {
  atomic_defer(tx, std::move(op),
               std::vector<const Deferrable*>(objs.begin(), objs.end()),
               std::move(policy));
}

}  // namespace adtm
