// Internal runtime globals and the transaction driver. Not a public header.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "stm/config.hpp"
#include "stm/function_ref.hpp"
#include "stm/tx.hpp"

namespace adtm::stm::detail {

struct RuntimeState {
  Config config{};

  // The backend new transactions run (stm/backend.hpp). Published by
  // init() and switch_backend(); Tx::begin re-resolves it after passing
  // the serial gate, so a switch completed while a transaction was parked
  // at the gate takes effect before its first barrier. Null until the
  // first init() (run_atomic lazily resolves the default then).
  std::atomic<const Backend*> active_backend{nullptr};

  // CGL algorithm: the single global lock, plus a broadcast channel that
  // wakes retry() waiters on every CGL commit.
  std::mutex cgl_mutex;
  std::condition_variable cgl_cv;
  std::uint64_t cgl_commit_gen = 0;  // guarded by cgl_mutex

  // Serial-irrevocable commits do not bump orec versions (they run in
  // isolation), so retry() waiters additionally watch this counter.
  std::atomic<std::uint64_t> serial_commits{0};

  // NOrec's global sequence lock: odd while a writer is publishing its
  // redo log. Starts at 2 so registry timestamps derived from it are
  // always nonzero.
  alignas(64) std::atomic<std::uint64_t> norec_seq{2};
};

RuntimeState& runtime() noexcept;

// The calling thread's reusable transaction descriptor.
Tx& tls_tx() noexcept;

// Executes `body` as one transaction with the configured algorithm,
// handling flat nesting, contention management, serialization, retry
// waiting, and post-commit epilogues.
void run_atomic(FunctionRef<void(Tx&)> body);

// Executes `body` as one transaction that only publishes: it frees
// nothing and privatizes nothing, so its commit skips quiescence (the
// non-transactional TxLock::release()). Inside a transaction the body
// joins the enclosing one, which quiesces as usual. Returns true when the
// body ran, and committed, as its own transaction.
bool run_publish(FunctionRef<void(Tx&)> body);

// Executes `body` as a closed-nested scope of the enclosing transaction:
// cancel() or an exception inside the body rolls back only the scope's
// effects (partial rollback); the enclosing transaction continues.
// Outside a transaction this is just run_atomic; in direct (CGL/serial)
// modes the scope flattens, as direct writes cannot be rolled back.
void run_atomic_nested(FunctionRef<void(Tx&)> body);

}  // namespace adtm::stm::detail
