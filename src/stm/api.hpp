// Public software-transactional-memory API.
//
//   stm::init({.backend = "tl2"});
//   stm::tvar<int> x{0};
//   stm::atomic([&](stm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
//
// Semantics:
//  * atomic() bodies may re-execute; they must be idempotent up to their
//    transactional effects (the standard TM contract).
//  * Nesting is flat: an atomic() inside an atomic() joins the enclosing
//    transaction (paper §4.2: "it is correct in C++ to nest transactions").
//  * An exception escaping the body of a *speculative* transaction rolls
//    the transaction back and propagates. Under CGL or serial-irrevocable
//    execution effects cannot be undone: the exception propagates with
//    effects retained (GCC `synchronized` behaves the same way).
//  * retry(tx) aborts and re-executes once a location in the read set may
//    have changed (Harris-style condition synchronization, paper §4.2).
//    Under CGL/serial modes it is only legal before the transaction's
//    first write, because direct-mode writes cannot be rolled back.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/deadline.hpp"
#include "stm/config.hpp"
#include "stm/runtime.hpp"
#include "stm/tx.hpp"

namespace adtm::stm {

// Raised out of atomic() when a deadline-aware retry (a retry with a
// bounded Deadline, or the timed TxLock/TxCondVar waits built on it)
// expired before the awaited condition changed. The transaction has been
// rolled back; catching this and re-invoking atomic() is always safe.
struct RetryTimeout : std::runtime_error {
  explicit RetryTimeout(const char* what) : std::runtime_error(what) {}
};

// Install a runtime configuration. Must be called while no transactions
// are in flight. May be called repeatedly (e.g. between bench phases) to
// switch algorithms. Thread registries, orecs, and the global clock
// persist across calls, so transactional data stays valid.
void init(const Config& config);

// Current configuration.
const Config& config() noexcept;

// True if the calling thread is inside a transaction.
bool in_transaction() noexcept;

// Run `body` (callable taking Tx&) as a transaction; returns its result.
template <typename F>
auto atomic(F&& body) -> std::invoke_result_t<F&, Tx&> {
  using R = std::invoke_result_t<F&, Tx&>;
  if constexpr (std::is_void_v<R>) {
    detail::run_atomic(detail::FunctionRef<void(Tx&)>(body));
  } else {
    // Default-constructibility is not required: stash the result.
    alignas(R) unsigned char storage[sizeof(R)];
    R* slot = nullptr;
    auto wrapper = [&](Tx& tx) {
      // A re-executed body overwrites the previous attempt's result.
      if (slot != nullptr) {
        slot->~R();
        slot = nullptr;
      }
      slot = ::new (static_cast<void*>(storage)) R(body(tx));
    };
    detail::run_atomic(detail::FunctionRef<void(Tx&)>(wrapper));
    if (slot == nullptr) {
      // cancel() aborted the transaction before the body produced a value.
      throw std::logic_error(
          "stm::atomic: cancelled transaction has no result "
          "(use a void body with cancel())");
    }
    R result = std::move(*slot);
    slot->~R();
    return result;
  }
}

// Run `body` as a closed-nested scope (paper §8's future-work question,
// answered): inside an enclosing transaction, a cancel() or exception in
// the body rolls back ONLY the scope's effects — tvar writes, TxLock
// acquisitions, deferred operations registered via atomic_defer,
// allocations — and the enclosing transaction continues (partial
// rollback). Outside a transaction it behaves exactly like atomic().
// In direct modes (CGL / serial-irrevocable) the scope flattens.
// Conflict aborts and retry() always restart the whole transaction.
template <typename F>
auto atomic_nested(F&& body) -> std::invoke_result_t<F&, Tx&> {
  using R = std::invoke_result_t<F&, Tx&>;
  if constexpr (std::is_void_v<R>) {
    detail::run_atomic_nested(detail::FunctionRef<void(Tx&)>(body));
  } else {
    alignas(R) unsigned char storage[sizeof(R)];
    R* slot = nullptr;
    auto wrapper = [&](Tx& tx) {
      if (slot != nullptr) {
        slot->~R();
        slot = nullptr;
      }
      slot = ::new (static_cast<void*>(storage)) R(body(tx));
    };
    detail::run_atomic_nested(detail::FunctionRef<void(Tx&)>(wrapper));
    if (slot == nullptr) {
      throw std::logic_error(
          "stm::atomic_nested: cancelled scope has no result "
          "(use a void body with cancel())");
    }
    R result = std::move(*slot);
    slot->~R();
    return result;
  }
}

// Condition synchronization: abort the transaction and re-execute once a
// read-set location may have changed (Harris-style; must be called inside
// a transaction). With a bounded Deadline, the driver raises RetryTimeout
// out of the atomic() call once it passes instead of waiting forever.
// Waiters also wake early when any thread exits (so orphaned-owner checks
// re-run) and on lock poison (a transactional write like any other). An
// absolute Deadline survives re-execution: construct it once *outside*
// the transaction so a spurious wake-up does not extend the budget;
// passing a duration here re-arms the window on every attempt (see
// common/deadline.hpp).
[[noreturn]] void retry(Tx& tx, Deadline deadline = {});

// Abort the transaction, discarding all effects; atomic() returns normally
// without re-executing. Illegal in CGL/serial modes (cannot roll back).
[[noreturn]] void cancel(Tx& tx);

// Restart this transaction in serial-irrevocable mode (models the TMTS
// `synchronized` escalation GCC performs on unsafe operations). After this
// returns, tx.irrevocable() is true and the body cannot abort.
void become_irrevocable(Tx& tx);

// Transactional allocation helpers (free is deferred past quiescence and
// commit epilogues, per Listing 1).
inline void* tx_alloc(Tx& tx, std::size_t bytes) { return tx.alloc(bytes); }
inline void tx_free(Tx& tx, void* ptr) { tx.free(ptr); }

}  // namespace adtm::stm
