// Transaction-friendly condition variables.
//
// Wang et al. (SPAA 2014) showed that transactionalizing pthread programs
// (dedup among them) requires condition synchronization that composes with
// transactions. This is that facility built on the runtime's retry: a
// waiter reads the condition's generation inside its transaction and
// retries; a notifier bumps the generation transactionally, waking every
// waiter, which re-executes and re-checks its predicate — the standard
// "while (!pred) wait" loop collapses into straight-line transactional
// code:
//
//   stm::atomic([&](stm::Tx& tx) {
//     if (!predicate(tx)) cv.wait(tx);   // aborts; re-runs after notify
//     ...consume...
//   });
//
// Because retry() wakes on *any* read-set change, waiters also wake when
// the predicate's own data changes, even without an explicit notify —
// notify exists for conditions whose data is not transactional.
//
// Liveness: wait() with a bounded adtm::Deadline bounds the wait
// (stm::RetryTimeout is raised out of the enclosing atomic() on expiry),
// and poison() marks the condition dead — the thread that should have
// notified failed permanently — waking every waiter, which raises
// TxCondVarPoisoned instead of re-waiting forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "common/deadline.hpp"
#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm {

// Raised by wait() on a poisoned condition (the notifying side failed and
// will never signal; typically set by failure-policy escalation).
struct TxCondVarPoisoned : std::runtime_error {
  explicit TxCondVarPoisoned(const char* what) : std::runtime_error(what) {}
};

class TxCondVar {
 public:
  TxCondVar() = default;
  TxCondVar(const TxCondVar&) = delete;
  TxCondVar& operator=(const TxCondVar&) = delete;

  // Abort the enclosing transaction and re-execute it once this condition
  // is notified (or anything else in the read set changes). Call after
  // observing a false predicate. Raises TxCondVarPoisoned — immediately,
  // or on wake — if the condition is (or becomes) poisoned. With a
  // bounded Deadline the enclosing atomic() raises stm::RetryTimeout once
  // it passes; construct the Deadline *outside* the transaction for a
  // hard total budget (the body re-executes on every wake-up — a Deadline
  // built from a duration inside the body re-arms the window per wake-up;
  // see common/deadline.hpp).
  [[noreturn]] void wait(stm::Tx& tx, Deadline deadline = {}) const {
    check_poison(tx);
    (void)gen_.get(tx);  // join the wake-up set
    prepare_wait(tx);
    stm::retry(tx, deadline);
  }

  // Wake all current waiters, as part of the enclosing transaction (the
  // notification is atomic with the transaction's other effects and is
  // discarded if it aborts).
  void notify_all(stm::Tx& tx) { gen_.set(tx, gen_.get(tx) + 1); }

  // Non-transactional convenience (e.g. from a deferred operation).
  void notify_all() {
    stm::atomic([this](stm::Tx& tx) { notify_all(tx); });
  }

  // Retry wakes every waiter, so notify_one has at-least-one semantics:
  // all waiters re-run, losers re-wait. Provided for pthread-API parity.
  void notify_one(stm::Tx& tx) { notify_all(tx); }

  // Mark the condition dead and wake every waiter (the poison write joins
  // their read sets via check_poison). Idempotent; clear_poison recovers.
  void poison(stm::Tx& tx) {
    if (poisoned_.get(tx) != 0) return;
    poisoned_.set(tx, 1);
    tx.on_commit([] { stats().add(Counter::LockPoisons); });
  }
  void poison() {
    stm::atomic([this](stm::Tx& tx) { poison(tx); });
  }
  void clear_poison(stm::Tx& tx) { poisoned_.set(tx, 0); }
  void clear_poison() {
    stm::atomic([this](stm::Tx& tx) { clear_poison(tx); });
  }
  bool poisoned(stm::Tx& tx) const { return poisoned_.get(tx) != 0; }
  bool poisoned() const { return poisoned_.load_direct() != 0; }

  // Number of notifications so far (diagnostics).
  std::uint64_t generation(stm::Tx& tx) const { return gen_.get(tx); }

  // --- notifier registration (liveness) ---------------------------------

  // Declare the calling thread responsible for eventually notifying this
  // condition. The duty survives the registering code's transactions —
  // it is committed state — which is what makes waiter edges
  // deadlock-checkable: a ring of threads each waiting on a condition the
  // next must notify deadlocks with zero locks held, and the wait graph
  // can only see it if edges resolve to a responsible thread. A registered
  // notifier also lets the watchdog's poison-orphans policy poison the
  // condition if the notifier's thread incarnation dies. Plain atomics:
  // registration is bookkeeping, not a transactional effect (it must not
  // be discarded by an abort of whatever transaction surrounds it).
  void set_notifier() noexcept {
    notifier_gen_.store(thread_id_generation(), std::memory_order_relaxed);
    notifier_.store(thread_id(), std::memory_order_release);
  }
  void clear_notifier() noexcept {
    notifier_.store(kNoThread, std::memory_order_release);
  }
  bool has_notifier() const noexcept { return notifier() != kNoThread; }
  std::uint32_t notifier() const noexcept {  // kNoThread when unregistered
    return notifier_.load(std::memory_order_acquire);
  }

  // Wait-graph callbacks carried by cv wait edges (liveness::OwnerFn /
  // OrphanFn / PoisonFn). Racy by design: the watchdog tolerates stale
  // reads, and a registration is expected to be stable while waiters park.
  static std::uint32_t notifier_of(const void* cv) noexcept;
  static bool notifier_dead(const void* cv) noexcept;
  static void poison_entity(const void* cv);

 private:
  // Publish this waiter's cv edge and run the publish-site deadlock scan
  // (txcondvar.cpp; shared by the three wait forms, called pre-retry).
  void prepare_wait(stm::Tx& tx) const;
  void check_poison(stm::Tx& tx) const {
    // Reading poisoned_ here puts it in every waiter's read set: a
    // committed poison() is a wake-up like any notify, and the re-executed
    // wait lands on this throw.
    if (poisoned_.get(tx) != 0) {
      throw TxCondVarPoisoned(
          "TxCondVar::wait: condition is poisoned (the notifying side "
          "failed permanently; clear_poison() after recovery)");
    }
  }

  mutable stm::tvar<std::uint64_t> gen_{0};
  mutable stm::tvar<std::uint32_t> poisoned_{0};
  // Registered notifier incarnation (slot id + generation); see
  // set_notifier for why these are plain atomics, not tvars.
  mutable std::atomic<std::uint32_t> notifier_{kNoThread};
  mutable std::atomic<std::uint32_t> notifier_gen_{0};
};

}  // namespace adtm
