// Internal runtime globals and the transaction driver. Not a public header.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/deadline.hpp"
#include "stm/config.hpp"
#include "stm/function_ref.hpp"
#include "stm/tx.hpp"

namespace adtm::stm::detail {

struct RuntimeState {
  Config config{};

  // The backend new transactions run (stm/backend.hpp). Published by
  // init(), with no transactions in flight; a transaction reads it once,
  // when it starts. Null until the first init() (run_atomic lazily
  // resolves the default then).
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

// One TxLock wait inside a transaction (TxLock::acquire / subscribe).
// Made when the lock call starts, before it reads the lock: it marks the
// attempt's read logs. park() is called each time the lock is found held
// by another live thread, once the wait edge is published.
//
// park() returns when the lock may have changed and the caller should
// read it again: the attempt parked in place — out of the registry, so
// quiescence and the serial gate do not wait for it — and resumed at a
// fresh snapshot, with the reads made since the mark dropped and the
// rest re-validated. It parks in place only when the attempt has no
// state other threads can see (a speculative TL2 or NOrec attempt, or an
// Eager one that has written nothing; not privileged; no TxLock acquired
// in it) and Config::retry_wait is on. Otherwise it calls stm::retry:
// the attempt aborts, waits, and re-executes. A resumed attempt that
// cannot continue throws ConflictAbort. A wait that ends in RetryTimeout
// or DeadlockError rolls the attempt back either way, and the driver
// raises the error out of the outermost atomic().
class LockWait {
 public:
  explicit LockWait(const Tx& tx) noexcept;
  void park(Tx& tx, Deadline deadline) const;

 private:
  friend struct Driver;
  std::size_t reads_;
  std::size_t norec_reads_;
  std::size_t san_reads_;
};

// Executes `body` as a closed-nested scope of the enclosing transaction:
// cancel() or an exception inside the body rolls back only the scope's
// effects (partial rollback); the enclosing transaction continues.
// Outside a transaction this is just run_atomic; in direct (CGL/serial)
// modes the scope flattens, as direct writes cannot be rolled back.
void run_atomic_nested(FunctionRef<void(Tx&)> body);

}  // namespace adtm::stm::detail
